"""MAP search over semantic worlds by data-driven MCMC.

Nine reversible kernels propose geometry changes: data-driven ADD (seeded
from unexplained free-space components) paired with REMOVE, SPLIT/MERGE,
SHRINK/DILATE (single-wall moves), blind ALLOCATE/DELETE, and the
self-reverse INTERCHANGE which shifts the shared boundary of two aligned
equal-section units, conserving total footprint area. Metropolis-Hastings
acceptance compares each proposed world's posterior, its likelihood scored
by rectangle algebra, with the current one; relations, doors and MLN-driven
types refresh periodically and whenever the evidence signature changes.

Proposal-ratio bookkeeping is per-kernel selection and parameter densities
(uniform choices, floored reverse densities for birth/death pairs), not a
full reversible-jump dimension-matching treatment.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import mln as mln_mod
from .config import RunConfig
from .errors import EmptyMap, NotApplicable
from .grid import CellState, ClassifiedGrid, connected_components, coverage
from .scoring import LikelihoodField, sale_log_prior
from .world import (
    _unit_boxes,
    GeometryClass,
    Unit,
    World,
    classify_geometry,
    detect_doors,
    detect_objects,
    detect_relations,
    detect_unexplored,
    geometry_to_type,
    qcoord,
    rasterize,
    wall_length_difference,
)


class KernelKind(IntEnum):
    ADD = 0
    REMOVE = 1
    SPLIT = 2
    MERGE = 3
    SHRINK = 4
    DILATE = 5
    ALLOCATE = 6
    DELETE = 7
    INTERCHANGE = 8

    @property
    def reverse(self) -> "KernelKind":
        return _REVERSE[self]


_REVERSE = {
    KernelKind.ADD: KernelKind.REMOVE,
    KernelKind.REMOVE: KernelKind.ADD,
    KernelKind.SPLIT: KernelKind.MERGE,
    KernelKind.MERGE: KernelKind.SPLIT,
    KernelKind.SHRINK: KernelKind.DILATE,
    KernelKind.DILATE: KernelKind.SHRINK,
    KernelKind.ALLOCATE: KernelKind.DELETE,
    KernelKind.DELETE: KernelKind.ALLOCATE,
    KernelKind.INTERCHANGE: KernelKind.INTERCHANGE,
}

STRUCTURAL_KINDS = {
    KernelKind.ADD,
    KernelKind.REMOVE,
    KernelKind.SPLIT,
    KernelKind.MERGE,
    KernelKind.ALLOCATE,
    KernelKind.DELETE,
}

MIN_LOG_DENSITY = math.log(1e-12)

# largest single-wall move of SHRINK, DILATE and INTERCHANGE, in cells
DELTA_MAX = 5
# half-extent range of blind ALLOCATE births, in cells
ALLOCATE_HALF_MIN = 8.0
ALLOCATE_HALF_MAX = 60.0
# units must enclose mapped free space (at least ADD_SEED_MIN_CELLS cells
# and MIN_FREE_FRACTION of the footprint) and must not be mostly occupied:
# wall-box slivers inside thick occupied blobs otherwise score as profitable
# all-wall units and never die
ADD_SEED_MIN_CELLS = 25
MIN_FREE_FRACTION = 0.2
MAX_OCCUPIED_FRACTION = 0.45
# the sample log records the unit geometry every SNAPSHOT_EVERY accepted moves
SNAPSHOT_EVERY = 50


@dataclass
class Proposal:
    kind: KernelKind
    new_units: tuple
    params: tuple
    reverse_params: tuple
    log_ratio: float
    changed_old: tuple
    changed_new: tuple

    @property
    def structural(self) -> bool:
        return self.kind in STRUCTURAL_KINDS


# ---------------------------------------------------------------------------
# kernel geometry


def move_wall(unit: Unit, wall: int, delta: float) -> Unit:
    """Translate wall 0..3 = (+x, -x, +y, -y) outward by delta cells
    (inward when negative); the opposite wall stays in place.

    All arithmetic stays on the dyadic grid, so moving a wall by delta and
    then by -delta restores the unit bit-exactly.
    """
    s = delta / 2.0
    shift = -qcoord(s) if wall % 2 else qcoord(s)
    if wall < 2:
        return Unit(unit.uid, qcoord(unit.cx + shift), unit.cy, qcoord(unit.hu + s), unit.hv)
    return Unit(unit.uid, unit.cx, qcoord(unit.cy + shift), unit.hu, qcoord(unit.hv + s))


def split_unit(unit: Unit, axis: int, offset: float, uid1: int, uid2: int):
    """Cut across x (axis 0) or y (axis 1) at ``offset`` from the center (in
    (-extent, extent)); returns the two child units, below and above the
    cut, which tile the parent box exactly."""
    offset = qcoord(offset)
    c, a = (unit.cx, unit.hu) if axis == 0 else (unit.cy, unit.hv)
    h1, h2 = qcoord((a + offset) / 2.0), qcoord((a - offset) / 2.0)
    c1, c2 = qcoord(c + qcoord((offset - a) / 2.0)), qcoord(c + qcoord((offset + a) / 2.0))
    if axis == 0:
        return Unit(uid1, c1, unit.cy, h1, unit.hv), Unit(uid2, c2, unit.cy, h2, unit.hv)
    return Unit(uid1, unit.cx, c1, unit.hu, h1), Unit(uid2, unit.cx, c2, unit.hu, h2)


def merge_units(a: Unit, b: Unit, uid: int) -> Unit:
    """The union box of two units, its edges and center taken relative to
    the center of the larger unit."""
    frame = a if (a.area, -a.uid) >= (b.area, -b.uid) else b
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = a.aabb(), b.aabb()
    x0, x1 = qcoord(min(ax0, bx0) - frame.cx), qcoord(max(ax1, bx1) - frame.cx)
    y0, y1 = qcoord(min(ay0, by0) - frame.cy), qcoord(max(ay1, by1) - frame.cy)
    cx = qcoord(frame.cx + qcoord((x0 + x1) / 2.0))
    cy = qcoord(frame.cy + qcoord((y0 + y1) / 2.0))
    return Unit(uid, cx, cy, qcoord((x1 - x0) / 2.0), qcoord((y1 - y0) / 2.0))


def apply_kernel(units: tuple, kind: KernelKind, params: tuple) -> tuple:
    """Apply a kernel with explicit parameters; pure function of its inputs."""
    if kind in (KernelKind.ADD, KernelKind.ALLOCATE):
        (unit,) = params
        return tuple(sorted(units + (unit,), key=lambda u: u.uid))
    if kind in (KernelKind.REMOVE, KernelKind.DELETE):
        (uid,) = params
        out = tuple(u for u in units if u.uid != uid)
        if len(out) == len(units):
            raise NotApplicable(f"no unit {uid} to remove")
        return out
    if kind == KernelKind.SPLIT:
        uid, child1, child2 = params
        out = [u for u in units if u.uid != uid]
        if len(out) == len(units):
            raise NotApplicable(f"no unit {uid} to split")
        return tuple(sorted(out + [child1, child2], key=lambda u: u.uid))
    if kind == KernelKind.MERGE:
        uid_a, uid_b, merged = params
        out = [u for u in units if u.uid not in (uid_a, uid_b)]
        if len(out) != len(units) - 2:
            raise NotApplicable("merge pair not present")
        return tuple(sorted(out + [merged], key=lambda u: u.uid))
    if kind in (KernelKind.SHRINK, KernelKind.DILATE):
        uid, wall, delta = params
        signed = delta if kind == KernelKind.DILATE else -delta
        out = []
        found = False
        for u in units:
            if u.uid == uid:
                out.append(move_wall(u, wall, signed))
                found = True
            else:
                out.append(u)
        if not found:
            raise NotApplicable(f"no unit {uid}")
        return tuple(out)
    if kind == KernelKind.INTERCHANGE:
        uid_a, uid_b, wall_a, wall_b, delta = params
        out = []
        seen = 0
        for u in units:
            if u.uid == uid_a:
                out.append(move_wall(u, wall_a, delta))
                seen += 1
            elif u.uid == uid_b:
                out.append(move_wall(u, wall_b, -delta))
                seen += 1
            else:
                out.append(u)
        if seen != 2:
            raise NotApplicable("interchange pair not present")
        return tuple(out)
    raise NotApplicable(f"unknown kernel {kind}")


def reverse_params_for(kind: KernelKind, params: tuple, changed_old: tuple, new_unit_uid=None) -> tuple:
    """Parameters that make the reverse kernel restore the source units."""
    if kind in (KernelKind.ADD, KernelKind.ALLOCATE):
        (unit,) = params
        return (unit.uid,)
    if kind in (KernelKind.REMOVE, KernelKind.DELETE):
        return (changed_old[0],)
    if kind == KernelKind.SPLIT:
        uid, child1, child2 = params
        return (child1.uid, child2.uid, changed_old[0])
    if kind == KernelKind.MERGE:
        _, _, merged = params
        return (merged.uid, changed_old[0], changed_old[1])
    if kind in (KernelKind.SHRINK, KernelKind.DILATE):
        return params
    if kind == KernelKind.INTERCHANGE:
        uid_a, uid_b, wall_a, wall_b, delta = params
        return (uid_a, uid_b, wall_a, wall_b, -delta)
    raise NotApplicable(f"unknown kernel {kind}")


# ---------------------------------------------------------------------------
# pair discovery


def _aabb_gap_pairs(units, pad: float):
    """Index pairs whose padded bounding boxes overlap (merge candidates)."""
    pairs = []
    boxes = [u.aabb() for u in units]
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            a, b = boxes[i], boxes[j]
            if a[0] - pad < b[2] and b[0] - pad < a[2] and a[1] - pad < b[3] and b[1] - pad < a[3]:
                pairs.append((i, j))
    return pairs


def interchange_candidates(units, pad: float):
    """Aligned facing pairs with equal cross-section (area-conserving shifts).

    Returns (i, j, wall_i, wall_j) tuples; wall_i faces unit j.
    """
    out = []
    for i, j in _aabb_gap_pairs(units, pad):
        a, b = units[i], units[j]
        dx, dy = b.cx - a.cx, b.cy - a.cy
        if abs(dx) >= abs(dy):
            if a.hv != b.hv:
                continue
            walls = (0, 1) if dx > 0 else (1, 0)
        else:
            if a.hu != b.hu:
                continue
            walls = (2, 3) if dy > 0 else (3, 2)
        out.append((i, j, *walls))
    return out


# ---------------------------------------------------------------------------
# chain


@dataclass
class KernelStats:
    proposed: int = 0
    accepted: int = 0
    skipped: int = 0


class Chain:
    """One MCMC chain over semantic worlds for a fixed classified map."""

    def __init__(self, input_grid: ClassifiedGrid, config: RunConfig, rules=None):
        self.input = input_grid
        self.cfg = config
        self.shape = input_grid.states.shape
        self.resolution = input_grid.resolution
        self.rules = rules if rules is not None else mln_mod.default_rules()
        self.rng = np.random.Generator(np.random.PCG64(config.seed))

        self.coverage = coverage(input_grid)
        self._free = input_grid.states == CellState.FREE
        self._seed_cache = (None, None)
        self.knowledge_active = self.coverage > config.coverage_gate

        self.tables = config.sensor_tables()
        self.scorer = LikelihoodField(
            input_grid,
            self.tables,
            config.likelihood_config(),
            wall_thickness=config.wall_thickness,
            object_from_occupied=config.object_from_occupied,
        )

        self.units: tuple = ()
        self.types: dict = {}  # uid -> UnitType
        self.doors: tuple = ()
        self.relations = None
        self.sale: dict = {}  # (uid_lo, uid_hi) -> marginal
        self.evidence_key = None

        self.next_uid = 0
        self.iteration = 0
        self.accepted_total = 0
        self.structural_since_refresh = 0
        self.geometric_since_refresh = 0
        self.refresh_count = 0
        self.mln_runs = 0
        self.kernel_stats = {k: KernelStats() for k in KernelKind}
        self.sample_ring = deque(maxlen=config.sample_ring)
        self.log_entries: list = []
        self._accept_count_for_snapshot = 0

        self.log_lik = 0.0
        self.log_prior_val = 0.0
        self.best_units = None
        self.best_types = None
        self.best_score = -math.inf

        self._kernel_kinds = list(KernelKind)
        self._kernel_probs = np.array(
            [config.kernel_weights[k.name.lower()] for k in self._kernel_kinds]
        )

        self._initialize()

    # -- initialization ----------------------------------------------------

    def _initialize(self):
        free = self.input.states == CellState.FREE
        if not free.any():
            raise EmptyMap("input map has no free cells")
        labels = connected_components(free, connectivity=4)
        largest = int(np.argmax(labels.sizes)) if labels.count else 0
        x0, y0, x1, y1 = labels.bboxes[largest]
        t = self.cfg.wall_thickness
        jx = float(self.rng.integers(-2, 3))
        jy = float(self.rng.integers(-2, 3))
        h, w = self.shape
        hu = min(max(self.cfg.min_half_extent, qcoord((x1 + 1 - x0) / 2.0 + t)), w / 2.0)
        hv = min(max(self.cfg.min_half_extent, qcoord((y1 + 1 - y0) / 2.0 + t)), h / 2.0)
        cx = min(max(qcoord((x0 + x1 + 1) / 2.0 + jx), hu), w - hu)
        cy = min(max(qcoord((y0 + y1 + 1) / 2.0 + jy), hv), h - hv)
        unit = Unit(self._new_uid(), qcoord(cx), qcoord(cy), hu, hv)
        self.units = (unit,)
        self.types = {unit.uid: geometry_to_type(self._geometry_class(unit))}
        self.refresh(force=True)

    def _new_uid(self) -> int:
        uid = self.next_uid
        self.next_uid += 1
        return uid

    def _geometry_class(self, unit: Unit) -> GeometryClass:
        return classify_geometry(
            unit,
            self.resolution,
            hall_area_min=self.cfg.hall_area_min_m2,
            corridor_ratio_min=self.cfg.corridor_ratio_min,
        )

    # -- semantics refresh ---------------------------------------------------

    def refresh(self, force: bool = False):
        """Re-derive relations, doors and types; rerun MLN inference when the
        evidence signature changed (or on force)."""
        self.structural_since_refresh = 0
        self.geometric_since_refresh = 0
        self.refresh_count += 1
        old_types = dict(self.types)
        old_doors = self.doors
        old_sale = self.sale
        sem = derive_semantics(
            self.units,
            self.input,
            self.cfg,
            self.rules,
            self.knowledge_active,
            seed=lambda: int(self.rng.integers(2**63)),
            known_key=None if force else self.evidence_key,
        )
        self.relations = sem.relations
        self.doors = sem.doors
        if sem.types is not None:
            self.types = {u.uid: t for u, t in zip(self.units, sem.types)}
            self.sale = sem.sale
            if sem.evidence_key is not None:
                self.evidence_key = sem.evidence_key
                self.mln_runs += 1
        changed = self.types != old_types or self.doors != old_doors or self.sale != old_sale
        if force or not self.units or changed:
            self._rescore_full()
        if changed and self.best_units is not None:
            # later worlds are compared with the best one under this target
            best = self.best_units
            self.best_score = self.scorer.score(self._world(best, self.best_types)) + self._prior_value(best)

    def _rescore_full(self):
        self.log_lik = self.scorer.score(self._world())
        self.log_prior_val = self._prior_value(self.units)

    def _world(self, units=None, types=None) -> World:
        """The world of units (the chain's by default) under the chain's
        semantics: types by uid (the chain's by default; untyped units take
        their geometry class) and the doors whose two units are among them."""
        units = self.units if units is None else units
        types = self.types if types is None else types
        alive = {u.uid for u in units}
        return World(
            units=units,
            types=tuple(
                t if (t := types.get(u.uid)) is not None else geometry_to_type(self._geometry_class(u))
                for u in units
            ),
            doors=tuple(d for d in self.doors if d.unit_p in alive and d.unit_q in alive),
            resolution=self.resolution,
        )

    # -- prior ---------------------------------------------------------------

    def _prior_value(self, units) -> float:
        if not (self.knowledge_active and self.cfg.prior_enabled) or not self.sale:
            return 0.0
        cfg = self.cfg

        def wall_diff(p, q):
            lengths = wall_length_difference(
                units[p], units[q], self.shape, cfg.dilate_radius, cfg.min_overlap_cells
            )
            return None if lengths is None else lengths[2]

        return sale_log_prior(units, self.sale, cfg.sigma_len, cfg.sale_threshold, wall_diff)

    # -- proposals -------------------------------------------------------------

    def _unit_valid(self, unit: Unit) -> bool:
        h, w = self.shape
        if unit.hu < self.cfg.min_half_extent or unit.hv < self.cfg.min_half_extent:
            return False
        x0, y0, x1, y1 = unit.aabb()
        # footprints must stay inside the frame: off-map walls would escape
        # their likelihood cost entirely
        if x0 < 0.0 or y0 < 0.0 or x1 > w or y1 > h:
            return False
        # a space unit must enclose actual mapped free space; without this,
        # sliver units fully inside thick occupied blobs score as all-wall
        # boxes and never die
        free_cells = self._cells_inside(unit, CellState.FREE)
        if free_cells < ADD_SEED_MIN_CELLS:
            return False
        if free_cells < MIN_FREE_FRACTION * unit.area:
            return False
        occ = self._cells_inside(unit, CellState.OCCUPIED)
        return occ <= MAX_OCCUPIED_FRACTION * unit.area

    def _cells_inside(self, unit: Unit, cls: CellState) -> int:
        """Input cells of a class inside an axis-aligned unit, read from the
        class's integral image."""
        x0, x1, y0, y1 = _unit_boxes(unit, self.cfg.wall_thickness, self.shape[1], self.shape[0])[0]
        F = self.scorer.integrals[cls]
        return int(F[y1, x1] - F[y0, x1] - F[y1, x0] + F[y0, x0])

    def _kernel_weight(self, kind: KernelKind) -> float:
        return self.cfg.kernel_weights[kind.name.lower()]

    def _free_seeds(self):
        """Bounding boxes of the free components no unit covers, with at
        least ADD_SEED_MIN_CELLS cells; recomputed after accepted moves."""
        units, cached = self._seed_cache
        if units is self.units:
            return cached
        unexplained = self._free.copy()
        for u in self.units:
            x0, x1, y0, y1 = _unit_boxes(u, self.cfg.wall_thickness, self.shape[1], self.shape[0])[0]
            unexplained[y0:y1, x0:x1] = False
        labels = connected_components(unexplained, connectivity=4)
        seeds = [
            labels.bboxes[i]
            for i in range(labels.count)
            if labels.sizes[i] >= ADD_SEED_MIN_CELLS
        ]
        self._seed_cache = (self.units, seeds)
        return seeds

    def propose(self, kind: KernelKind) -> Proposal:
        """Draw a proposal of the given kind; NotApplicable when its
        preconditions are unmet (the step is skipped, not an abort)."""
        units = self.units
        n = len(units)
        cfg = self.cfg
        rng = self.rng
        w, h = self.shape[1], self.shape[0]

        if kind == KernelKind.ADD:
            seeds = self._free_seeds()
            if not seeds:
                raise NotApplicable("no unexplained free components")
            x0, y0, x1, y1 = seeds[int(rng.integers(len(seeds)))]
            t = round(cfg.wall_thickness)
            # jitter each edge by one cell; edges stay on the integer lattice
            # so wall moves can bring independently born units into exact
            # alignment
            ex0 = x0 - t + int(rng.integers(-1, 2))
            ex1 = x1 + 1 + t + int(rng.integers(-1, 2))
            ey0 = y0 - t + int(rng.integers(-1, 2))
            ey1 = y1 + 1 + t + int(rng.integers(-1, 2))
            if ex1 - ex0 < 2 * cfg.min_half_extent or ey1 - ey0 < 2 * cfg.min_half_extent:
                raise NotApplicable("seed too small")
            unit = Unit(
                self.next_uid,
                qcoord((ex0 + ex1) / 2.0),
                qcoord((ey0 + ey1) / 2.0),
                qcoord((ex1 - ex0) / 2.0),
                qcoord((ey1 - ey0) / 2.0),
            )
            if not self._unit_valid(unit):
                raise NotApplicable("seeded unit out of bounds")
            q_fwd = math.log(self._kernel_weight(kind)) - math.log(len(seeds) * 81.0)
            q_rev = math.log(self._kernel_weight(KernelKind.REMOVE)) - math.log(n + 1)
            params = (unit,)
            return self._finish(kind, params, (), (unit,), q_rev - q_fwd)

        if kind in (KernelKind.REMOVE, KernelKind.DELETE):
            if n < 1:
                raise NotApplicable("no unit to remove")
            victim = units[int(rng.integers(n))]
            q_fwd = math.log(self._kernel_weight(kind)) - math.log(n)
            if kind == KernelKind.REMOVE:
                seeds = self._free_seeds()
                q_rev = math.log(self._kernel_weight(KernelKind.ADD)) - math.log(
                    (len(seeds) + 1) * 81.0
                )
            else:
                q_rev = math.log(self._kernel_weight(KernelKind.ALLOCATE)) + self._allocate_log_density()
            q_rev = max(q_rev, MIN_LOG_DENSITY)
            params = (victim.uid,)
            return self._finish(kind, params, (victim,), (), q_rev - q_fwd)

        if kind == KernelKind.ALLOCATE:
            hmin, hmax = ALLOCATE_HALF_MIN, min(ALLOCATE_HALF_MAX, max(w, h) / 2.0)
            ex0 = float(rng.integers(0, max(w - 1, 1)))
            ey0 = float(rng.integers(0, max(h - 1, 1)))
            width = 2.0 * float(rng.integers(int(hmin), int(hmax) + 1))
            height = 2.0 * float(rng.integers(int(hmin), int(hmax) + 1))
            hu, hv = qcoord(width / 2.0), qcoord(height / 2.0)
            if int(rng.integers(2)):
                # the coin turns the box by a quarter turn, which swaps its extents
                hu, hv = hv, hu
            unit = Unit(self.next_uid, qcoord(ex0 + width / 2.0), qcoord(ey0 + height / 2.0), hu, hv)
            if not self._unit_valid(unit):
                raise NotApplicable("allocated unit invalid")
            q_fwd = math.log(self._kernel_weight(kind)) + self._allocate_log_density()
            q_rev = math.log(self._kernel_weight(KernelKind.DELETE)) - math.log(n + 1)
            params = (unit,)
            return self._finish(kind, params, (), (unit,), q_rev - q_fwd)

        if n < 1:
            raise NotApplicable("kernel needs at least one unit")

        if kind in (KernelKind.SHRINK, KernelKind.DILATE):
            target = units[int(rng.integers(n))]
            wall = int(rng.integers(4))
            delta = float(rng.integers(1, DELTA_MAX + 1))
            signed = delta if kind == KernelKind.DILATE else -delta
            try:
                moved = move_wall(target, wall, signed)
            except ValueError as exc:
                raise NotApplicable("wall move collapses the unit") from exc
            if not self._unit_valid(moved):
                raise NotApplicable("wall move out of range")
            params = (target.uid, wall, delta)
            return self._finish(kind, params, (target,), (moved,), 0.0)

        if kind == KernelKind.SPLIT:
            target = units[int(rng.integers(n))]
            axis = int(rng.integers(2))
            c_along, extent = (target.cx, target.hu) if axis == 0 else (target.cy, target.hv)
            m = cfg.min_half_extent
            lo, hi = 2.0 * m - extent, extent - 2.0 * m
            if hi <= lo:
                raise NotApplicable("unit too small to split")
            # snap the cut to an integer global coordinate along the axis so
            # child edges stay on the cell lattice
            offset = qcoord(round(rng.uniform(lo, hi) + c_along) - c_along)
            if not (lo <= offset <= hi):
                raise NotApplicable("split offset out of range")
            child1, child2 = split_unit(target, axis, offset, self.next_uid, self.next_uid + 1)
            if not (self._unit_valid(child1) and self._unit_valid(child2)):
                raise NotApplicable("split children invalid")
            q_fwd = (
                math.log(self._kernel_weight(kind))
                - math.log(n)
                - math.log(2.0)
                - math.log(hi - lo)
            )
            new_units = apply_kernel(units, kind, (target.uid, child1, child2))
            n_merge = len(_aabb_gap_pairs(new_units, cfg.wall_thickness + 1.0))
            q_rev = math.log(self._kernel_weight(KernelKind.MERGE)) - math.log(max(n_merge, 1))
            params = (target.uid, child1, child2)
            return self._finish(kind, params, (target,), (child1, child2), q_rev - q_fwd, new_units)

        if kind == KernelKind.MERGE:
            pairs = _aabb_gap_pairs(units, cfg.wall_thickness + 1.0)
            if not pairs:
                raise NotApplicable("no adjacent pair to merge")
            i, j = pairs[int(rng.integers(len(pairs)))]
            a, b = units[i], units[j]
            merged = merge_units(a, b, self.next_uid)
            if not self._unit_valid(merged):
                raise NotApplicable("merged unit invalid")
            q_fwd = math.log(self._kernel_weight(kind)) - math.log(len(pairs))
            # reverse split density at the matching offset (pseudo-density
            # when the pair is not an exact axis partition of the merge)
            extent = max(merged.hu, merged.hv)
            q_rev = (
                math.log(self._kernel_weight(KernelKind.SPLIT))
                - math.log(n - 1)
                - math.log(2.0)
                - math.log(max(2.0 * extent - 4.0 * cfg.min_half_extent, 1.0))
            )
            q_rev = max(q_rev, MIN_LOG_DENSITY)
            params = (a.uid, b.uid, merged)
            return self._finish(kind, params, (a, b), (merged,), q_rev - q_fwd)

        if kind == KernelKind.INTERCHANGE:
            cands = interchange_candidates(units, cfg.wall_thickness + 1.0)
            if not cands:
                raise NotApplicable("no aligned equal-section pair")
            i, j, wall_a, wall_b = cands[int(rng.integers(len(cands)))]
            a, b = units[i], units[j]
            delta = float(rng.integers(1, DELTA_MAX + 1))
            if int(rng.integers(2)) == 0:
                delta = -delta
            try:
                moved_a = move_wall(a, wall_a, delta)
                moved_b = move_wall(b, wall_b, -delta)
            except ValueError as exc:
                raise NotApplicable("interchange collapses a unit") from exc
            if not (self._unit_valid(moved_a) and self._unit_valid(moved_b)):
                raise NotApplicable("interchange out of range")
            params = (a.uid, b.uid, wall_a, wall_b, delta)
            return self._finish(kind, params, (a, b), (moved_a, moved_b), 0.0)

        raise NotApplicable(f"unhandled kernel {kind}")

    def _allocate_log_density(self) -> float:
        w, h = self.shape[1], self.shape[0]
        hmin = ALLOCATE_HALF_MIN
        hmax = min(ALLOCATE_HALF_MAX, max(w, h) / 2.0)
        span = max(int(hmax) - int(hmin) + 1, 1)
        return -(
            math.log(max(w - 1, 1))
            + math.log(max(h - 1, 1))
            + 2.0 * math.log(span)
            + math.log(2.0)
        )

    def _finish(self, kind, params, changed_old, changed_new, log_ratio, new_units=None):
        if new_units is None:
            new_units = apply_kernel(self.units, kind, params)
        rev = reverse_params_for(kind, params, changed_old)
        return Proposal(
            kind=kind,
            new_units=new_units,
            params=params,
            reverse_params=rev,
            log_ratio=log_ratio,
            changed_old=changed_old,
            changed_new=changed_new,
        )

    # -- accept / step ----------------------------------------------------------

    def accept(self, proposal: Proposal):
        """Metropolis-Hastings decision between the chain's world and the
        proposed one, whose doors are those of the chain both of whose units
        survive; on acceptance the chain moves to that world. Returns
        True/False."""
        # brand-new units take their geometry class as type in _world
        new_world = self._world(proposal.new_units)
        new_lik = self.scorer.score(new_world)
        new_prior = self._prior_value(proposal.new_units)
        delta_post = (new_lik - self.log_lik) + (new_prior - self.log_prior_val)
        log_alpha = delta_post + proposal.log_ratio
        accepted = log_alpha >= 0.0 or math.log(self.rng.random()) < log_alpha
        if not accepted:
            return False

        self.units = proposal.new_units
        self.doors = new_world.doors
        self.types = {u.uid: t for u, t in zip(new_world.units, new_world.types)}
        if proposal.kind in (KernelKind.ADD, KernelKind.ALLOCATE, KernelKind.SPLIT, KernelKind.MERGE):
            self.next_uid = max([self.next_uid] + [u.uid + 1 for u in proposal.changed_new])
        self.log_lik = new_lik
        self.log_prior_val = new_prior
        post = self.log_lik + self.log_prior_val
        if post > self.best_score:
            self.best_score = post
            self.best_units = self.units
            self.best_types = dict(self.types)
        return True

    def step(self):
        """One iteration: sample a kernel, propose, decide, maybe refresh."""
        if (
            self.structural_since_refresh >= self.cfg.mln_refresh_structural
            or self.geometric_since_refresh >= self.cfg.mln_refresh_geometric
        ):
            self.refresh()
        kind = self._kernel_kinds[
            int(self.rng.choice(len(self._kernel_kinds), p=self._kernel_probs))
        ]
        stats = self.kernel_stats[kind]
        self.iteration += 1
        try:
            proposal = self.propose(kind)
        except NotApplicable:
            stats.skipped += 1
            return
        stats.proposed += 1
        accepted = self.accept(proposal)
        if accepted:
            stats.accepted += 1
            self.accepted_total += 1
            if proposal.structural:
                self.structural_since_refresh += 1
            else:
                self.geometric_since_refresh += 1
            if self.iteration > self.cfg.burn_in:
                self.sample_ring.append((self.units, dict(self.types)))
            self._accept_count_for_snapshot += 1
        entry = {
            "iteration": self.iteration,
            "kernel": kind.name.lower(),
            "accepted": accepted,
            "log_prior": self.log_prior_val,
            "log_likelihood": self.log_lik,
            "log_posterior": self.log_prior_val + self.log_lik,
        }
        if accepted and self._accept_count_for_snapshot >= SNAPSHOT_EVERY:
            self._accept_count_for_snapshot = 0
            entry["units"] = [
                [u.uid, u.cx, u.cy, u.hu, u.hv, u.angle] for u in self.units
            ]
        self.log_entries.append(entry)

    # -- driver --------------------------------------------------------------

    def run(self):
        """Iterate for the configured budget; returns (best_world, stats)."""
        t0 = time.perf_counter()
        for _ in range(self.cfg.iterations):
            self.step()
        elapsed = time.perf_counter() - t0
        if self.best_units is None:
            self.best_units = self.units
            self.best_types = dict(self.types)
            self.best_score = self.log_lik + self.log_prior_val
        best_world, best_states = derive_world(
            self.best_units,
            self.input,
            self.cfg,
            knowledge_active=self.knowledge_active,
            rules=self.rules,
            seed=self.cfg.seed + 977,
        )
        stats = {
            "iterations": self.iteration,
            "elapsed_seconds": elapsed,
            "iterations_per_second": (self.iteration / elapsed) if elapsed > 0 else 0.0,
            "accepted": self.accepted_total,
            "acceptance_rate": self.accepted_total / max(self.iteration, 1),
            "coverage": self.coverage,
            "knowledge_active": self.knowledge_active,
            "refreshes": self.refresh_count,
            "mln_runs": self.mln_runs,
            "best_log_posterior": self.best_score,
            "final_units": len(self.best_units),
            "kernels": {
                k.name.lower(): {
                    "proposed": s.proposed,
                    "accepted": s.accepted,
                    "skipped": s.skipped,
                }
                for k, s in self.kernel_stats.items()
            },
        }
        return best_world, best_states, stats


# ---------------------------------------------------------------------------
# full semantic derivation


@dataclass(frozen=True)
class Semantics:
    """What a fixed unit geometry implies, index-aligned with its units."""

    relations: np.ndarray | None  # None without units
    doors: tuple
    evidence_key: str | None  # None unless the knowledge gate is open
    types: tuple | None  # None: the evidence matched known_key, no inference ran
    sale: dict | None  # (uid_lo, uid_hi) -> SaLe marginal; None with types


def derive_semantics(
    units, input_grid: ClassifiedGrid, cfg: RunConfig, rules, knowledge_active, seed, known_key=None
) -> Semantics:
    """Relations and doors of units, in their given order, from one
    pair-geometry pass; then their types and SaLe marginals.

    With the knowledge gate open the types come from MLN inference, which
    runs unless the evidence key equals known_key; ``seed()`` gives its seed
    and is called only when it runs. With the gate closed the types follow
    the geometry classes and SaLe is empty.
    """
    if not units:
        return Semantics(None, (), None, (), {})
    resolution = input_grid.resolution
    shape = input_grid.states.shape
    rel = detect_relations(
        units,
        shape,
        dilate_radius=cfg.dilate_radius,
        min_overlap_cells=cfg.min_overlap_cells,
    )
    geom = tuple(
        classify_geometry(
            u, resolution, hall_area_min=cfg.hall_area_min_m2, corridor_ratio_min=cfg.corridor_ratio_min
        )
        for u in units
    )
    doors = tuple(
        detect_doors(
            units,
            rel,
            input_grid,
            cfg.door_min_cells(resolution),
            cfg.door_max_cells(resolution),
            wall_thickness=cfg.wall_thickness,
            dilate_radius=cfg.dilate_radius,
        )
    )
    if not knowledge_active:
        return Semantics(rel, doors, None, tuple(geometry_to_type(g) for g in geom), {})
    evidence = mln_mod.build_evidence(units, rel, doors, geom)
    key = mln_mod.evidence_hash(evidence, rules)
    if key == known_key:
        return Semantics(rel, doors, key, None, None)
    network = mln_mod.ground(rules, evidence.constants, evidence)
    marginals = mln_mod.infer_marginals(
        network,
        seed=seed(),
        burn_in=cfg.mln_gibbs_burn_in,
        samples=cfg.mln_gibbs_samples,
    )
    consts = evidence.constants
    type_of = mln_mod.assign_types(marginals, consts)
    sale = {}
    for p in range(len(units)):
        for q in range(p + 1, len(units)):
            ua, ub = sorted((units[p].uid, units[q].uid))
            sale[ua, ub] = 0.5 * (
                mln_mod.sale_probability(marginals, consts[p], consts[q])
                + mln_mod.sale_probability(marginals, consts[q], consts[p])
            )
    types = tuple(type_of[consts[i]] for i in range(len(units)))
    return Semantics(rel, doors, key, types, sale)


# an enclosed pocket counts as unexplored only up to this area; a larger one
# would hold a unit
MIN_UNIT_AREA_M2 = 1.0


def derive_world(units, input_grid: ClassifiedGrid, cfg: RunConfig, knowledge_active=True, rules=None, seed=0):
    """Derive the complete semantic world (relations, doors, types, objects,
    unexplored areas) for a fixed unit geometry."""
    rules = rules if rules is not None else mln_mod.default_rules()
    resolution = input_grid.resolution
    units = tuple(sorted(units, key=lambda u: u.uid))
    if not units:
        world = World(units=(), types=(), resolution=resolution)
        states = rasterize((), input_grid, cfg.wall_thickness)
        return world, states
    sem = derive_semantics(units, input_grid, cfg, rules, knowledge_active, seed=lambda: seed)
    state_map = rasterize(
        units,
        input_grid,
        wall_thickness=cfg.wall_thickness,
        doors=sem.doors,
        object_from_occupied=cfg.object_from_occupied,
    )
    objects, cleaned = detect_objects(state_map, min_object_cells=cfg.min_object_cells)
    max_cells = int(round(MIN_UNIT_AREA_M2 / (resolution * resolution)))
    unexplored = detect_unexplored(input_grid, cleaned, max_cells, units=units)
    world = World(
        units=units,
        types=sem.types,
        relations=sem.relations,
        doors=sem.doors,
        objects=tuple(objects),
        unexplored=tuple(unexplored),
        resolution=resolution,
    )
    return world, cleaned
