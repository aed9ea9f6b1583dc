"""Run configuration: the tunables of the pipeline in one dataclass, loadable
from a flat key-value text file (``key = value``, ``#`` comments). CLI flags
override file values which override the built-in defaults. Every value is
validated on construction, so a bad file fails at load with ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError, InvalidThresholds
from .grid import check_thresholds
from .scoring import (
    DEFAULT_CORRIDOR_TABLE,
    DEFAULT_NONCORRIDOR_TABLE,
    LikelihoodConfig,
    PriorConfig,
    SensorModelTable,
)
from .world import _check_geometry_thresholds

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

# a move is only proposed when its reverse can be: each kernel pair is on
# (positive weights) or off together
_REVERSE_PAIRS = (("add", "remove"), ("split", "merge"), ("shrink", "dilate"), ("allocate", "delete"))

# smallest admissible value of each count and size that has one
_LOWER_BOUNDS = (
    ("seed", 0),
    ("iterations", 0),
    ("burn_in", 0),
    ("chains", 1),
    ("wall_thickness", 1),
    ("min_half_extent", 1),
    ("dilate_radius", 0),
    ("min_overlap_cells", 1),
    ("min_object_cells", 1),
    ("mln_refresh_structural", 1),
    ("mln_refresh_geometric", 1),
    ("mln_gibbs_burn_in", 0),
    ("mln_gibbs_samples", 1),
    ("sample_ring", 0),
)


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
    mln_gibbs_burn_in: int = 150
    mln_gibbs_samples: int = 600
    rules_file: str = ""

    # kernels
    kernel_weights: dict = field(default_factory=lambda: dict(DEFAULT_KERNEL_WEIGHTS))
    # smallest admissible unit side is 2*min_half_extent cells (0.8 m at the
    # default resolution); smaller boxes degenerate into wall-only slivers
    # that game the sensor model
    min_half_extent: float = 8.0

    # logging
    sample_ring: int = 1000

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        total = sum(self.kernel_weights.get(k, 0.0) for k in KERNEL_NAMES)
        if not 0 < total < math.inf or any(self.kernel_weights.get(k, 0.0) < 0 for k in KERNEL_NAMES):
            raise ConfigError("kernel weights must be finite and non-negative with positive sum")
        for a, b in _REVERSE_PAIRS:
            if (self.kernel_weights.get(a, 0.0) > 0) != (self.kernel_weights.get(b, 0.0) > 0):
                raise ConfigError(f"kernel weights of {a} and {b} must both be positive or both zero")
        self.kernel_weights = {
            k: self.kernel_weights.get(k, 0.0) / total for k in KERNEL_NAMES
        }
        if not (0.0 < self.coverage_gate <= 1.0):
            raise ConfigError("coverage_gate must lie in (0, 1]")
        for name, low in _LOWER_BOUNDS:
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if not 0 < self.door_min_m <= self.door_max_m:
            raise ConfigError("need 0 < door_min_m <= door_max_m")
        # fail fast on invalid thresholds and scoring parameters
        try:
            check_thresholds(self.free_below, self.occupied_above)
            _check_geometry_thresholds(self.hall_area_min_m2, self.corridor_ratio_min)
            self.prior_config()
            self.likelihood_config()
        except (InvalidThresholds, ValueError) as exc:
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


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# each scalar key is parsed by its declared type (a string under
# ``from __future__ import annotations``); the table-valued fields have
# their own key syntax
_PARSE_BY_TYPE = {"bool": _parse_bool, "int": int, "float": float, "str": str}
_SCALAR_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(RunConfig) if f.type in _PARSE_BY_TYPE}


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
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
            elif key in _SCALAR_PARSERS:
                updates[key] = _SCALAR_PARSERS[key](value)
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
