"""Run configuration: every tunable of the pipeline in one dataclass, loadable
from a flat key-value text file (``key = value``, ``#`` comments). CLI flags
override file values which override the built-in defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .scoring import (
    DEFAULT_CORRIDOR_TABLE,
    DEFAULT_NONCORRIDOR_TABLE,
    LikelihoodConfig,
    PriorConfig,
    SensorModelTable,
)

KERNEL_NAMES = (
    "add",
    "remove",
    "split",
    "merge",
    "shrink",
    "dilate",
    "allocate",
    "delete",
    "interchange",
)

DEFAULT_KERNEL_WEIGHTS = {
    "shrink": 0.15,
    "dilate": 0.15,
    "interchange": 0.15,
    "split": 0.125,
    "merge": 0.125,
    "add": 0.10,
    "remove": 0.10,
    "allocate": 0.05,
    "delete": 0.05,
}

_SENSOR_ROWS = ("occupied", "unknown", "free")


@dataclass
class RunConfig:
    seed: int = 0
    iterations: int = 20000
    burn_in: int = 2000
    chains: int = 1

    # classification
    free_below: float = 0.25
    occupied_above: float = 0.65

    # geometry / detectors
    wall_thickness: float = 2.0
    dilate_radius: int = 3
    min_overlap_cells: int = 4
    door_min_m: float = 0.6
    door_max_m: float = 1.6
    min_object_cells: int = 4
    min_unit_area_m2: float = 1.0
    hall_area_min_m2: float = 40.0
    corridor_ratio_min: float = 3.0
    object_from_occupied: bool = True

    # scoring
    sigma_len: float = 3.0
    sale_threshold: float = 0.5
    psi: float = 0.5
    prior_enabled: bool = True
    sensor_noncorridor: tuple = DEFAULT_NONCORRIDOR_TABLE
    sensor_corridor: tuple = DEFAULT_CORRIDOR_TABLE

    # knowledge processing
    coverage_gate: float = 0.8
    mln_refresh_structural: int = 25
    mln_refresh_geometric: int = 200
    mln_exact_budget: int = 24
    mln_gibbs_burn_in: int = 150
    mln_gibbs_samples: int = 600
    mln_gibbs_chains: int = 8
    rules_file: str = ""

    # kernels
    kernel_weights: dict = field(default_factory=lambda: dict(DEFAULT_KERNEL_WEIGHTS))
    delta_max: int = 5
    # smallest admissible unit side is 2*min_half_extent cells (0.8 m at the
    # default resolution); smaller boxes degenerate into wall-only slivers
    # that game the sensor model
    min_half_extent: float = 8.0
    # blind births draw axis-aligned angles by default: indoor maps are
    # mostly rectilinear and tilted survivors stall wall alignment
    angle_jitter_deg: float = 0.0
    free_angle: bool = False
    allocate_half_min: float = 8.0
    allocate_half_max: float = 60.0
    add_seed_min_cells: int = 25
    # units must enclose mapped free space (at least add_seed_min_cells
    # cells and min_free_fraction of the footprint) and must not be mostly
    # occupied: wall-box slivers inside thick occupied blobs otherwise score
    # as profitable all-wall units and never die
    min_free_fraction: float = 0.2
    max_occupied_fraction: float = 0.45

    # logging
    snapshot_every: int = 50
    sample_ring: int = 1000

    def __post_init__(self):
        total = sum(self.kernel_weights.get(k, 0.0) for k in KERNEL_NAMES)
        if total <= 0 or any(self.kernel_weights.get(k, 0.0) < 0 for k in KERNEL_NAMES):
            raise ConfigError("kernel weights must be non-negative with positive sum")
        self.kernel_weights = {
            k: self.kernel_weights.get(k, 0.0) / total for k in KERNEL_NAMES
        }
        if not (0.0 < self.coverage_gate <= 1.0):
            raise ConfigError("coverage_gate must lie in (0, 1]")
        if self.iterations < 0 or self.burn_in < 0:
            raise ConfigError("iteration counts must be non-negative")
        for name, low in (("chains", 1), ("wall_thickness", 1), ("dilate_radius", 0), ("sample_ring", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        # fail fast on invalid scoring parameters
        try:
            self.prior_config()
            self.likelihood_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.sensor_tables()

    def prior_config(self) -> PriorConfig:
        return PriorConfig(sigma_len=self.sigma_len, sale_threshold=self.sale_threshold)

    def likelihood_config(self) -> LikelihoodConfig:
        return LikelihoodConfig(psi=self.psi)

    def sensor_tables(self) -> SensorModelTable:
        try:
            return SensorModelTable(self.sensor_noncorridor, self.sensor_corridor)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def door_min_cells(self, resolution: float) -> float:
        return self.door_min_m / resolution

    def door_max_cells(self, resolution: float) -> float:
        return self.door_max_m / resolution

    def unexplored_max_cells(self, resolution: float) -> int:
        return int(round(self.min_unit_area_m2 / (resolution * resolution)))


_BOOL_KEYS = {"object_from_occupied", "prior_enabled", "free_angle"}
_INT_KEYS = {
    "seed",
    "iterations",
    "burn_in",
    "chains",
    "dilate_radius",
    "min_overlap_cells",
    "min_object_cells",
    "mln_refresh_structural",
    "mln_refresh_geometric",
    "mln_exact_budget",
    "mln_gibbs_burn_in",
    "mln_gibbs_samples",
    "mln_gibbs_chains",
    "delta_max",
    "snapshot_every",
    "sample_ring",
    "add_seed_min_cells",
}
_STR_KEYS = {"rules_file"}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    simple = {f.name for f in fields(RunConfig)} - {"kernel_weights", "sensor_noncorridor", "sensor_corridor"}
    updates = {}
    kernel_weights = dict(cfg.kernel_weights)
    sensor = {
        "noncorridor": [list(r) for r in cfg.sensor_noncorridor],
        "corridor": [list(r) for r in cfg.sensor_corridor],
    }
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        try:
            if key.startswith("kernel_weight."):
                name = key.split(".", 1)[1]
                if name not in KERNEL_NAMES:
                    raise ConfigError(f"unknown kernel {name!r}")
                kernel_weights[name] = float(value)
            elif key.startswith("sensor."):
                _, table, row = key.split(".")
                if table not in sensor or row not in _SENSOR_ROWS:
                    raise ConfigError(f"unknown sensor key {key!r}")
                vals = [float(v) for v in value.split()]
                if len(vals) != 4:
                    raise ConfigError(f"sensor rows need 4 values, got {len(vals)}")
                sensor[table][_SENSOR_ROWS.index(row)] = vals
            elif key in simple:
                if key in _BOOL_KEYS:
                    updates[key] = _parse_bool(value)
                elif key in _INT_KEYS:
                    updates[key] = int(value)
                elif key in _STR_KEYS:
                    updates[key] = value
                else:
                    updates[key] = float(value)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    updates["kernel_weights"] = kernel_weights
    updates["sensor_noncorridor"] = tuple(tuple(r) for r in sensor["noncorridor"])
    updates["sensor_corridor"] = tuple(tuple(r) for r in sensor["corridor"])
    return replace(cfg, **updates)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)
