"""semmap: abstract semantic world models from 2D occupancy grid maps.

Pipeline: load a grid map, classify it into occupied/unknown/free, then search
for the maximum-a-posteriori semantic world (rectangular units with types,
adjacency relations, doors, objects) by data-driven MCMC whose posterior
combines a rule-based MLN prior with a type-conditioned semantic sensor model.
"""

from .config import RunConfig, load_config, parse_config_text
from .errors import (
    AllWorldsExcluded,
    ConfigError,
    DimensionMismatch,
    EmptyMap,
    EmptyRoi,
    InconsistentEvidence,
    InvalidSpec,
    InvalidThresholds,
    MalformedFile,
    MissingWalls,
    NoFeasibleState,
    NotAdjacent,
    NotApplicable,
    NotQueried,
    RulesParseError,
    SemmapError,
    TooLarge,
    UnknownPredicate,
    UnsupportedFormat,
)
from .evaluation import (
    RegionOfInterest,
    SyntheticSpec,
    cpr,
    demo_spec,
    full_roi,
    generate_synthetic,
    topology_match,
)
from .grid import (
    CellState,
    ClassifiedGrid,
    LabelMap,
    OccupancyGrid,
    classify,
    connected_components,
    coverage,
    dilate,
    load_grid,
    save_classified_pgm,
)
from .mcmc import Chain, KernelKind, Proposal, apply_kernel, derive_semantics, derive_world
from .mln import (
    EvidenceSet,
    GroundNetwork,
    Rule,
    assign_types,
    build_evidence,
    default_rules,
    ground,
    infer_exact,
    infer_gibbs,
    parse_rules,
    sale_probability,
)
from .render import render_graph, render_samples, render_world
from .scoring import (
    LikelihoodConfig,
    LikelihoodField,
    PriorConfig,
    Score,
    SensorModelTable,
    log_likelihood,
    log_posterior,
    log_prior,
)
from .world import (
    Door,
    GeometryClass,
    Unit,
    UnitType,
    World,
    WorldCell,
    WorldStateMap,
    abstract_graph,
    classify_geometry,
    connecting_wall_lengths,
    detect_doors,
    detect_objects,
    detect_relations,
    detect_unexplored,
    rasterize,
    world_from_dict,
    world_to_dict,
)

__version__ = "0.1.0"
