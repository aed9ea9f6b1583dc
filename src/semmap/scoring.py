"""Posterior scoring: the inference-based prior over connecting-wall length
differences and the overlap-penalized semantic-sensor likelihood, in log
space. ``LikelihoodField`` scores the worlds of the chain by rectangle
algebra over the input's integral images and matches a from-scratch
rasterized pass to float round-off.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingWalls, NotAdjacent
from .grid import ClassifiedGrid
from .world import (
    _STATE_TABLES,
    UnitType,
    World,
    WorldStateMap,
    _door_carves,
    _unit_boxes,
    connecting_wall_lengths,
    rasterize,
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


def _world_terms(inp, world: World, states: WorldStateMap, tables, log_psi):
    """Per-cell log terms of a rasterized world, gathered from its
    _term_table."""
    idx = states.membership * np.int16(24)
    offsets = _corridor_offsets(world)
    if offsets is not None:
        idx += np.take(offsets, states.owner)
    idx += inp * np.int8(4)
    idx += states.states
    return np.take(_term_table(tables, world.n, log_psi), idx)


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
# likelihood by rectangle algebra


def _class_integrals(states: np.ndarray) -> np.ndarray:
    """Summed-area tables of each input class, shape (3, h + 1, w + 1) with
    a zero first row and column: cells of class c in rows [y0, y1) and
    columns [x0, x1) number F[c, y1, x1] - F[c, y0, x1] - F[c, y1, x0] +
    F[c, y0, x0]."""
    h, w = states.shape
    out = np.zeros((3, h + 1, w + 1), dtype=np.int32)
    for c in range(3):
        np.cumsum(np.cumsum(states == c, axis=0, dtype=np.int32), axis=1, out=out[c, 1:, 1:])
    return out


# corner weights of a box in a 2-D difference array
_CORNERS = np.array([1.0, -1.0, -1.0, 1.0])


class LikelihoodField:
    """The likelihood of worlds over one input map, scored by rectangle
    algebra over the input's summed-area tables (Crow, SIGGRAPH 1984).

    The clipped edges of a world's units, of their interiors inside the
    wall band and of its door carves cut the frame into a small grid of
    elementary rectangles, each uniform in membership, wall band, carving
    and owner. The input's integral images give each rectangle's cell
    count per input class, so the log-likelihood is a histogram of cell
    counts over the categories of _term_table dotted with the table: two
    worlds with the same histogram score exactly the same. ``full_rescore``
    rasterizes cell by cell; it is the oracle ``score`` is tested against.
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
        self.shape = self.inp.shape
        self.tables = tables
        self.log_psi = math.log(cfg.psi)
        self.wall_thickness = wall_thickness
        self.object_from_occupied = object_from_occupied
        self.integrals = _class_integrals(self.inp)
        self._flat_integrals = self.integrals.reshape(3, -1)
        self._set_weights(1)

    def _set_weights(self, n: int):
        """Lay the _term_table of up to n units out by input class * K +
        membership * 6 + corridor * 3 + region, K = 6 (n + 1); region is 0
        outside every unit, 1 inside and 2 on an uncarved wall band."""
        table = _term_table(self.tables, n, self.log_psi)
        m = np.arange(n + 1)[:, None, None]
        corridor = np.arange(2)[:, None]
        states = _STATE_TABLES[bool(self.object_from_occupied)].reshape(3, 3)
        self._weights = np.concatenate(
            [table[m * 24 + corridor * 12 + c * 4 + states[:, c]].ravel() for c in range(3)]
        )
        self._class_offsets = (np.arange(3) * (6 * (n + 1)))[:, None, None]
        self._max_units = n

    def score(self, world: World) -> float:
        """Log-likelihood of a world whose doors are horizontal or vertical;
        ValueError for a slanted door."""
        h, w = self.shape
        n = world.n
        boxes = [_unit_boxes(u, self.wall_thickness, w, h) for u in world.units]
        carves = _door_carves(world.doors, w, h)
        # layer 0: unit footprints, 1: their interiors, then door carves
        layers = [[b[0] for b in boxes], [b[1] for b in boxes if len(b) > 1]]
        if carves:
            layers.append(carves)
        x0s, x1s, y0s, y1s = zip((0, w, 0, h), *itertools.chain(*layers))
        xs, ys = sorted({*x0s, *x1s}), sorted({*y0s, *y1s})
        nx, ny = len(xs), len(ys)
        xi = {v: i for i, v in enumerate(xs)}
        yi = {v: i for i, v in enumerate(ys)}

        # the number of boxes of each layer covering each elementary
        # rectangle, summed from a difference array
        corners = []
        for layer, layer_boxes in enumerate(layers):
            base = layer * nx * ny
            for x0, x1, y0, y1 in layer_boxes:
                r0, r1 = base + yi[y0] * nx, base + yi[y1] * nx
                x0, x1 = xi[x0], xi[x1]
                corners += (r0 + x0, r0 + x1, r1 + x0, r1 + x1)
        weights = np.broadcast_to(_CORNERS, (len(corners) // 4, 4)).ravel()
        cover = np.bincount(corners, weights, len(layers) * nx * ny).reshape(len(layers), ny, nx)
        cover = cover.cumsum(axis=2).cumsum(axis=1)[:, :-1, :-1]
        membership = cover[0].astype(np.intp)
        key = membership * 6
        key += membership > 0
        # a wall band cell lies in a footprint but not in its interior, and
        # no door carves it
        wall = cover[0] > cover[1]
        if carves:
            wall &= cover[2] == 0
        key += wall
        corridor = {u.uid for u, t in zip(world.units, world.types) if t == UnitType.CORRIDOR}
        if corridor:
            # the owner of a rectangle, the lowest uid among the units
            # covering it, paints it last in descending uid order; units
            # above the highest corridor uid would paint 0 over 0
            owner_corridor = np.zeros(key.shape, dtype=np.intp)
            top = max(corridor)
            for uid, i in sorted(((u.uid, i) for i, u in enumerate(world.units) if u.uid <= top), reverse=True):
                x0, x1, y0, y1 = boxes[i][0]
                owner_corridor[yi[y0] : yi[y1], xi[x0] : xi[x1]] = uid in corridor
            key += owner_corridor * 3
        if n > self._max_units:  # membership never exceeds the unit count
            self._set_weights(n)
        f = self._flat_integrals.take(np.array(ys)[:, None] * (w + 1) + np.array(xs), axis=1)
        counts = f[:, 1:, 1:] - f[:, :-1, 1:] - f[:, 1:, :-1] + f[:, :-1, :-1]
        hist = np.bincount((key + self._class_offsets).ravel(), weights=counts.ravel())
        return float(hist @ self._weights[: hist.size])

    def full_rescore(self, world: World) -> float:
        """From-scratch likelihood for the world, rasterized cell by cell."""
        states = rasterize(
            world.units,
            self.input_grid,
            wall_thickness=self.wall_thickness,
            doors=world.doors,
            object_from_occupied=self.object_from_occupied,
        )
        terms = _world_terms(self.inp, world, states, self.tables, self.log_psi)
        return float(terms.sum())
