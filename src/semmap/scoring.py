"""Posterior scoring: the inference-based prior over connecting-wall length
differences and the overlap-penalized semantic-sensor likelihood, in log
space. ``LikelihoodField`` maintains the per-cell terms incrementally so a
proposal only rescoring its dirty rectangles matches a from-scratch pass to
float round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingWalls, NotAdjacent
from .grid import ClassifiedGrid
from .world import (
    UnitType,
    World,
    WorldStateMap,
    connecting_wall_lengths,
    rasterize,
    rasterize_window,
    unit_window,
)

# rows: input class (occupied, unknown, free)
# cols: world state (wall, object, free-in, unknown-out)
DEFAULT_NONCORRIDOR_TABLE = (
    (0.80, 0.30, 0.02, 0.10),
    (0.15, 0.60, 0.08, 0.80),
    (0.05, 0.10, 0.90, 0.10),
)
DEFAULT_CORRIDOR_TABLE = (
    (0.80, 0.45, 0.02, 0.10),
    (0.15, 0.35, 0.08, 0.80),
    (0.05, 0.20, 0.90, 0.10),
)


@dataclass(frozen=True)
class PriorConfig:
    sigma_len: float = 3.0  # Gaussian spread of the wall-length difference, cells
    sale_threshold: float = 0.5

    def __post_init__(self):
        if self.sigma_len <= 0:
            raise ValueError("sigma_len must be positive")
        if not (0.0 < self.sale_threshold < 1.0):
            raise ValueError("sale_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class LikelihoodConfig:
    psi: float = 0.5  # overlap penalization factor, in (0, 1)

    def __post_init__(self):
        if not (0.0 < self.psi < 1.0):
            raise ValueError("psi must lie in (0, 1)")


class SensorModelTable:
    """Type-conditioned 3x4 conditional tables p(input class | world state).

    Each column is a distribution over input classes given the world state;
    entries must be positive and columns are renormalized on construction.
    """

    def __init__(self, noncorridor=DEFAULT_NONCORRIDOR_TABLE, corridor=DEFAULT_CORRIDOR_TABLE):
        self.noncorridor = self._normalize(np.asarray(noncorridor, dtype=np.float64))
        self.corridor = self._normalize(np.asarray(corridor, dtype=np.float64))
        self.log_noncorridor = np.log(self.noncorridor)
        self.log_corridor = np.log(self.corridor)

    @staticmethod
    def _normalize(t: np.ndarray) -> np.ndarray:
        if t.shape != (3, 4):
            raise ValueError(f"sensor table must be 3x4, got {t.shape}")
        if not np.all((t > 0.0) & (t < np.inf)):
            raise ValueError("sensor table entries must be finite and > 0")
        return t / t.sum(axis=0, keepdims=True)

    def modal_input_class(self, state: int, corridor: bool) -> int:
        table = self.corridor if corridor else self.noncorridor
        return int(np.argmax(table[:, state]))


@dataclass(frozen=True)
class Score:
    log_prior: float
    log_likelihood: float

    @property
    def log_posterior(self) -> float:
        return self.log_prior + self.log_likelihood


def sale_log_prior(units, sale: dict, sigma_len: float, sale_threshold: float, wall_diff) -> float:
    """Sum of -d^2 / (2 sigma^2) over unit pairs p < q, in unit order, whose
    SaLe marginal exceeds the threshold; pairs below threshold contribute 0,
    and the uniform p(T, R) adds only a constant.

    ``sale`` maps unordered uid pairs (min, max) to marginal probabilities;
    ``wall_diff(p, q)`` gives the pair's connecting-wall length difference
    d, or None to leave the pair out.
    """
    total = 0.0
    n = len(units)
    for p in range(n):
        for q in range(p + 1, n):
            if sale.get(_pair_key(units[p].uid, units[q].uid), 0.0) <= sale_threshold:
                continue
            d = wall_diff(p, q)
            if d is not None:
                total -= d * d / (2.0 * sigma_len * sigma_len)
    return total


def log_prior(
    world: World,
    sale: dict,
    cfg: PriorConfig,
    shape,
    dilate_radius: int = 3,
    strict: bool = True,
) -> float:
    """The sale_log_prior of a world, with each pair's wall lengths from
    connecting_wall_lengths.

    With strict=True a flagged pair without an identifiable connecting wall
    raises MissingWalls; otherwise it is skipped.
    """

    def wall_diff(p, q):
        try:
            return connecting_wall_lengths(world, p, q, shape, dilate_radius)[2]
        except NotAdjacent as exc:
            if strict:
                key = _pair_key(world.units[p].uid, world.units[q].uid)
                raise MissingWalls(f"pair {key} flagged by SaLe has no connecting wall") from exc
            return None

    return sale_log_prior(world.units, sale, cfg.sigma_len, cfg.sale_threshold, wall_diff)


def _pair_key(a: int, b: int):
    return (a, b) if a <= b else (b, a)


def _corridor_offsets(world: World):
    """Term-table offset by owner uid: 12 for a unit typed corridor, else 0;
    the last entry, which owner -1 reads, is 0. None without corridors."""
    corridor = [u.uid for u, t in zip(world.units, world.types) if t == UnitType.CORRIDOR]
    if not corridor:
        return None
    offsets = np.zeros(max(u.uid for u in world.units) + 2, dtype=np.int8)
    offsets[corridor] = 12
    return offsets


def _term_table(tables: SensorModelTable, n: int, log_psi: float) -> np.ndarray:
    """Per-cell log term by membership*24 + corridor*12 + input class*4 +
    world state, for memberships 0..n: the sensor table entry plus the
    overlap penalty max(m - 1, 0) * log(psi)."""
    log_terms = np.concatenate([tables.log_noncorridor.ravel(), tables.log_corridor.ravel()])
    penalty = np.maximum(np.arange(n + 1, dtype=np.float64) - 1.0, 0.0) * log_psi
    return (log_terms[None, :] + penalty[:, None]).ravel()


def _terms(inp4, states, membership, owner, offsets, table):
    """Per-cell log terms gathered from a _term_table; ``inp4`` holds input
    class * 4 and ``offsets`` is the _corridor_offsets of the world."""
    idx = membership * np.int16(24)
    if offsets is not None:
        idx += np.take(offsets, owner)
    idx += inp4
    idx += states
    return np.take(table, idx)


def _world_terms(inp, world: World, states: WorldStateMap, tables, log_psi):
    return _terms(
        inp * np.int8(4),
        states.states,
        states.membership,
        states.owner,
        _corridor_offsets(world),
        _term_table(tables, world.n, log_psi),
    )


def log_likelihood(
    input_grid: ClassifiedGrid,
    world: World,
    states: WorldStateMap,
    tables: SensorModelTable,
    cfg: LikelihoodConfig,
) -> float:
    """Full-frame likelihood: per cell, gamma(c) * log(psi) plus the log table
    entry for (input class, world state), with the corridor table selected
    when the cell's owning unit is typed corridor."""
    if input_grid.states.shape != states.states.shape:
        raise DimensionMismatch("input grid and world state map shapes differ")
    terms = _world_terms(input_grid.states, world, states, tables, math.log(cfg.psi))
    return float(terms.sum())


def log_posterior(
    input_grid: ClassifiedGrid,
    world: World,
    sale: dict,
    tables: SensorModelTable,
    prior_cfg: PriorConfig,
    lik_cfg: LikelihoodConfig,
    wall_thickness: float = 2.0,
    dilate_radius: int = 3,
    object_from_occupied: bool = True,
    knowledge_active: bool = True,
) -> Score:
    """Rasterize the world and combine prior and likelihood into a Score."""
    states = rasterize(
        world.units,
        input_grid,
        wall_thickness=wall_thickness,
        doors=world.doors,
        object_from_occupied=object_from_occupied,
    )
    lp = 0.0
    if knowledge_active:
        lp = log_prior(
            world, sale, prior_cfg, input_grid.states.shape, dilate_radius, strict=True
        )
    ll = log_likelihood(input_grid, world, states, tables, lik_cfg)
    return Score(log_prior=lp, log_likelihood=ll)


# ---------------------------------------------------------------------------
# incremental likelihood


def _merge_rects(rects, shape):
    """Clip rectangles to the frame and merge overlapping ones."""
    h, w = shape
    boxes = []
    for x0, y0, x1, y1 in rects:
        x0, y0 = max(0, x0), max(0, y0)
        x1, y1 = min(w, x1), min(h, y1)
        if x0 < x1 and y0 < y1:
            boxes.append([x0, y0, x1, y1])
    merged = True
    while merged:
        merged = False
        out = []
        while boxes:
            box = boxes.pop()
            for other in boxes:
                if box[0] < other[2] and other[0] < box[2] and box[1] < other[3] and other[1] < box[3]:
                    other[0] = min(other[0], box[0])
                    other[1] = min(other[1], box[1])
                    other[2] = max(other[2], box[2])
                    other[3] = max(other[3], box[3])
                    merged = True
                    break
            else:
                out.append(box)
        boxes = out
    return [tuple(b) for b in boxes]


class LikelihoodField:
    """Per-cell likelihood terms with incremental dirty-rectangle updates.

    The cached total equals a from-scratch evaluation of the same world up to
    float accumulation order. ``full_rescore`` recomputes everything and is
    the oracle the incremental path is tested against.
    """

    def __init__(
        self,
        input_grid: ClassifiedGrid,
        tables: SensorModelTable,
        cfg: LikelihoodConfig,
        wall_thickness: float = 2.0,
        object_from_occupied: bool = True,
    ):
        self.input_grid = input_grid
        self.inp = input_grid.states
        self.inp4 = self.inp * np.int8(4)
        self.shape = self.inp.shape
        self.tables = tables
        self.log_psi = math.log(cfg.psi)
        self._table = _term_table(tables, 1, self.log_psi)
        self.wall_thickness = wall_thickness
        self.object_from_occupied = object_from_occupied
        h, w = self.shape
        self.terms = np.zeros((h, w), dtype=np.float64)
        self.membership = np.zeros((h, w), dtype=np.int16)
        self.total = 0.0

    def _table_for(self, world: World) -> np.ndarray:
        # membership never exceeds the number of units
        if len(self._table) <= world.n * 24:
            self._table = _term_table(self.tables, world.n, self.log_psi)
        return self._table

    def reset(self, world: World):
        """Recompute every cell for the given world."""
        window = (0, 0, self.shape[1], self.shape[0])
        states, membership, owner = rasterize_window(
            world.units,
            self.inp,
            window,
            self.wall_thickness,
            world.doors,
            self.object_from_occupied,
        )
        self.membership = membership
        self.terms = _terms(
            self.inp4,
            states,
            membership,
            owner,
            _corridor_offsets(world),
            self._table_for(world),
        )
        self.total = float(self.terms.sum())

    def preview(self, world: World, rects):
        """Evaluate the likelihood delta of rescoring ``rects`` for ``world``
        without committing. Returns (delta, patches) where patches feed
        commit()."""
        offsets = _corridor_offsets(world)
        table = self._table_for(world)
        patches = []
        delta = 0.0
        for rect in _merge_rects(rects, self.shape):
            x0, y0, x1, y1 = rect
            states, membership, owner = rasterize_window(
                world.units,
                self.inp,
                rect,
                self.wall_thickness,
                world.doors,
                self.object_from_occupied,
            )
            new_terms = _terms(
                self.inp4[y0:y1, x0:x1],
                states,
                membership,
                owner,
                offsets,
                table,
            )
            old_sum = float(self.terms[y0:y1, x0:x1].sum())
            new_sum = float(new_terms.sum())
            delta += new_sum - old_sum
            patches.append((rect, states, membership, owner, new_terms))
        return delta, patches

    def commit(self, delta: float, patches):
        for (x0, y0, x1, y1), _, membership, _, new_terms in patches:
            self.membership[y0:y1, x0:x1] = membership
            self.terms[y0:y1, x0:x1] = new_terms
        self.total += delta

    def full_rescore(self, world: World) -> float:
        """From-scratch likelihood for the world, ignoring the cache."""
        states = rasterize(
            world.units,
            self.input_grid,
            wall_thickness=self.wall_thickness,
            doors=world.doors,
            object_from_occupied=self.object_from_occupied,
        )
        terms = _world_terms(self.inp, world, states, self.tables, self.log_psi)
        return float(terms.sum())


def dirty_rects_for_units(units, shape, margin: int = 2):
    """Bounding windows (with margin) of the given units, for dirty-region
    rescoring."""
    rects = []
    for u in units:
        rects.append(unit_window(u, shape, margin=margin))
    return rects
