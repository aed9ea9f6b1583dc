"""Quantitative evaluation (cell prediction rate, topology matching) and the
synthetic floor-plan generator used as ground truth in the test suite."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyRoi, InvalidSpec
from .grid import CellState, ClassifiedGrid, OccupancyGrid
from .scoring import SensorModelTable
from .world import (
    Door,
    Unit,
    UnitType,
    World,
    WorldCell,
    WorldStateMap,
    _unit_boxes,
    detect_relations,
)

# canonical input class per world state for the strict CPR variant
STRICT_CLASS_OF_STATE = {
    WorldCell.WALL: CellState.OCCUPIED,
    WorldCell.OBJECT: CellState.UNKNOWN,
    WorldCell.FREE_IN: CellState.FREE,
    WorldCell.UNKNOWN_OUT: CellState.UNKNOWN,
}


@dataclass(frozen=True)
class RegionOfInterest:
    """Axis-aligned cell rectangle, end-exclusive."""

    x0: int
    y0: int
    x1: int
    y1: int

    def clipped(self, shape):
        h, w = shape
        x0, y0 = max(0, self.x0), max(0, self.y0)
        x1, y1 = min(w, self.x1), min(h, self.y1)
        if x0 >= x1 or y0 >= y1:
            raise EmptyRoi(f"roi {self} is empty within a {w}x{h} grid")
        return x0, y0, x1, y1


def full_roi(shape) -> RegionOfInterest:
    return RegionOfInterest(0, 0, shape[1], shape[0])


def cpr(
    world: World,
    states: WorldStateMap,
    input_grid: ClassifiedGrid,
    roi: RegionOfInterest,
    tables: SensorModelTable | None = None,
    variant: str = "modal",
) -> float:
    """Cell prediction rate: fraction of roi cells whose input class the world
    explains.

    ``modal``: a cell counts when its input class is the modal input class of
    its world state under the active (type-conditioned) sensor table.
    ``strict``: exact equality with the state's canonical class.
    """
    x0, y0, x1, y1 = roi.clipped(input_grid.states.shape)
    inp = input_grid.states[y0:y1, x0:x1]
    st = states.states[y0:y1, x0:x1]
    own = states.owner[y0:y1, x0:x1]

    if variant == "strict":
        lut = np.array([int(STRICT_CLASS_OF_STATE[WorldCell(s)]) for s in range(4)], dtype=np.int8)
        expected = lut[st]
    elif variant == "modal":
        tables = tables if tables is not None else SensorModelTable()
        lut_nc = np.array([tables.modal_input_class(s, False) for s in range(4)], dtype=np.int8)
        lut_c = np.array([tables.modal_input_class(s, True) for s in range(4)], dtype=np.int8)
        corridor_uids = {
            world.units[i].uid
            for i in range(len(world.types))
            if world.types[i] == UnitType.CORRIDOR
        }
        expected = lut_nc[st]
        if corridor_uids:
            mask = np.isin(own, np.fromiter(corridor_uids, dtype=np.int32))
            expected = np.where(mask, lut_c[st], expected)
    else:
        raise ValueError(f"unknown cpr variant {variant!r}")
    return float(np.count_nonzero(inp == expected)) / inp.size


# ---------------------------------------------------------------------------
# synthetic floors


@dataclass
class SyntheticSpec:
    """Ground-truth floor: unit footprint rectangles (end-exclusive cell
    bounds, walls included), doors on shared walls, unknown object blobs and
    class-conditional noise."""

    width: int
    height: int
    resolution: float = 0.05
    wall_thickness: int = 2
    units: list = field(default_factory=list)  # (type_name, (x0, y0, x1, y1))
    doors: list = field(default_factory=list)  # (i, j, offset_frac, width_cells)
    objects: list = field(default_factory=list)  # (unit_idx, (x0, y0, x1, y1))
    flip_prob: dict = field(default_factory=dict)  # class name -> probability
    speckle: float = 0.0  # extra free -> unknown rate

    def interior(self, idx: int):
        t = self.wall_thickness
        x0, y0, x1, y1 = self.units[idx][1]
        return (x0 + t, y0 + t, x1 - t, y1 - t)


def _validate_spec(spec: SyntheticSpec):
    if spec.width < 8 or spec.height < 8:
        raise InvalidSpec("canvas too small")
    if not spec.units:
        raise InvalidSpec("no units")
    t = spec.wall_thickness
    for name, (x0, y0, x1, y1) in spec.units:
        if name.upper() not in UnitType.__members__:
            raise InvalidSpec(f"unknown unit type {name!r}")
        if x1 - x0 <= 2 * t + 2 or y1 - y0 <= 2 * t + 2:
            raise InvalidSpec("unit footprint too small for its walls")
        if x0 < 0 or y0 < 0 or x1 > spec.width or y1 > spec.height:
            raise InvalidSpec("unit footprint out of canvas")
    for i in range(len(spec.units)):
        ix = spec.interior(i)
        for j in range(i + 1, len(spec.units)):
            jx = spec.interior(j)
            if ix[0] < jx[2] and jx[0] < ix[2] and ix[1] < jx[3] and jx[1] < ix[3]:
                raise InvalidSpec(f"interiors of units {i} and {j} overlap")
    for i, j, frac, width in spec.doors:
        if not (0 <= i < len(spec.units) and 0 <= j < len(spec.units)) or i == j:
            raise InvalidSpec("door references bad unit pair")
        if _shared_wall(spec, i, j) is None:
            raise InvalidSpec(f"units {i} and {j} share no wall for a door")
        if not (0.0 <= frac <= 1.0) or width <= 0:
            raise InvalidSpec("bad door placement")
    for idx, rect in spec.objects:
        ix = spec.interior(idx)
        x0, y0, x1, y1 = rect
        if not (ix[0] <= x0 < x1 <= ix[2] and ix[1] <= y0 < y1 <= ix[3]):
            raise InvalidSpec("object blob must lie inside its unit interior")


def _shared_wall(spec: SyntheticSpec, i: int, j: int):
    """Intersection of the two footprints (the shared wall band), or None."""
    a = spec.units[i][1]
    b = spec.units[j][1]
    x0, y0 = max(a[0], b[0]), max(a[1], b[1])
    x1, y1 = min(a[2], b[2]), min(a[3], b[3])
    if x0 >= x1 or y0 >= y1:
        return None
    return (x0, y0, x1, y1)


def generate_synthetic(spec: SyntheticSpec, seed: int = 0):
    """Rasterize the spec and return (OccupancyGrid, ground-truth World).

    Deterministic given (spec, seed); with zero noise, classifying the grid
    reproduces the rasterized classes cell-for-cell.
    """
    _validate_spec(spec)
    rng = np.random.Generator(np.random.PCG64(seed))
    t = spec.wall_thickness
    cls = np.full((spec.height, spec.width), CellState.UNKNOWN, dtype=np.int8)

    for idx in range(len(spec.units)):
        x0, y0, x1, y1 = spec.interior(idx)
        cls[y0:y1, x0:x1] = CellState.FREE
    for _, (x0, y0, x1, y1) in spec.units:
        cls[y0:y1, x0:x1][_band_mask(y1 - y0, x1 - x0, t)] = CellState.OCCUPIED
    doors = []
    for i, j, frac, width in spec.doors:
        x0, y0, x1, y1 = _shared_wall(spec, i, j)
        horizontal = (x1 - x0) >= (y1 - y0)
        if horizontal:
            span = x1 - x0
            start = x0 + int(round(frac * max(span - width, 0)))
            stop = min(start + int(width), x1)
            cls[y0:y1, start:stop] = CellState.FREE
            mid = (y0 + y1) / 2.0
            p0, p1 = (float(start), mid), (float(stop), mid)
        else:
            span = y1 - y0
            start = y0 + int(round(frac * max(span - width, 0)))
            stop = min(start + int(width), y1)
            cls[start:stop, x0:x1] = CellState.FREE
            mid = (x0 + x1) / 2.0
            p0, p1 = (mid, float(start)), (mid, float(stop))
        doors.append(
            Door(i, j, p0, p1, float(stop - start), carve_halfwidth=t + 1.0)
        )
    for idx, (x0, y0, x1, y1) in spec.objects:
        cls[y0:y1, x0:x1] = CellState.UNKNOWN

    clean = cls.copy()
    # class-conditional flips, then free->unknown speckle
    flip_draw = rng.random(cls.shape)
    target_draw = rng.random(cls.shape)
    for name, state in (("occupied", CellState.OCCUPIED), ("unknown", CellState.UNKNOWN), ("free", CellState.FREE)):
        p = float(spec.flip_prob.get(name, 0.0))
        if p <= 0:
            continue
        sel = (clean == state) & (flip_draw < p)
        others = [s for s in (CellState.OCCUPIED, CellState.UNKNOWN, CellState.FREE) if s != state]
        cls[sel & (target_draw < 0.5)] = others[0]
        cls[sel & (target_draw >= 0.5)] = others[1]
    if spec.speckle > 0:
        sel = (clean == CellState.FREE) & (rng.random(cls.shape) < spec.speckle)
        cls[sel] = CellState.UNKNOWN

    value_of = {CellState.OCCUPIED: 0.9, CellState.UNKNOWN: 0.5, CellState.FREE: 0.1}
    values = np.empty(cls.shape, dtype=np.float64)
    for state, v in value_of.items():
        values[cls == state] = v
    grid = OccupancyGrid(values, resolution=spec.resolution)

    units = tuple(
        Unit(
            uid=i,
            cx=(r[0] + r[2]) / 2.0,
            cy=(r[1] + r[3]) / 2.0,
            hu=(r[2] - r[0]) / 2.0,
            hv=(r[3] - r[1]) / 2.0,
        )
        for i, (_, r) in enumerate(spec.units)
    )
    types = tuple(UnitType[name.upper()] for name, _ in spec.units)
    relations = detect_relations(units, cls.shape) if units else None
    truth = World(
        units=units,
        types=types,
        relations=relations,
        doors=tuple(doors),
        resolution=spec.resolution,
    )
    return grid, truth


def _band_mask(h: int, w: int, t: int) -> np.ndarray:
    m = np.zeros((h, w), dtype=bool)
    m[:t, :] = True
    m[-t:, :] = True
    m[:, :t] = True
    m[:, -t:] = True
    return m


# ---------------------------------------------------------------------------
# topology comparison


def topology_match(world: World, truth: World, shape, iou_threshold: float = 0.5) -> dict:
    """Greedy footprint matching (IoU >= threshold) followed by per-matched
    type accuracy and precision/recall/F1 over adjacency and door edge sets."""
    h, w = shape
    # footprint boxes, which do not depend on the wall thickness
    pred_boxes = [_unit_boxes(u, 1.0, w, h)[0] for u in world.units]
    true_boxes = [_unit_boxes(u, 1.0, w, h)[0] for u in truth.units]
    scored = []
    for i, (ax0, ax1, ay0, ay1) in enumerate(pred_boxes):
        for j, (bx0, bx1, by0, by1) in enumerate(true_boxes):
            inter = max(min(ax1, bx1) - max(ax0, bx0), 0) * max(min(ay1, by1) - max(ay0, by0), 0)
            if inter == 0:
                continue
            union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
            iou = inter / union
            if iou >= iou_threshold:
                scored.append((iou, i, j))
    scored.sort(key=lambda s: (-s[0], s[1], s[2]))
    match = {}
    taken = set()
    for iou, i, j in scored:
        if i in match or j in taken:
            continue
        match[i] = j
        taken.add(j)

    matched = len(match)
    type_hits = sum(
        1
        for i, j in match.items()
        if i < len(world.types) and j < len(truth.types) and world.types[i] == truth.types[j]
    )
    type_accuracy = type_hits / matched if matched else 0.0

    def edge_set(w: World, kind: str):
        edges = set()
        if kind == "adjacency" and w.relations is not None:
            for p in range(w.n):
                for q in range(p + 1, w.n):
                    if w.relations[p, q]:
                        edges.add((p, q))
        if kind == "door":
            index_of = {u.uid: i for i, u in enumerate(w.units)}
            for d in w.doors:
                if d.unit_p in index_of and d.unit_q in index_of:
                    p, q = index_of[d.unit_p], index_of[d.unit_q]
                    edges.add((min(p, q), max(p, q)))
        return edges

    def translate(edges):
        out = set()
        for p, q in edges:
            if p in match and q in match:
                a, b = match[p], match[q]
                out.add((min(a, b), max(a, b)))
        return out

    def f1(pred_edges, true_edges):
        tp = len(pred_edges & true_edges)
        prec = tp / len(pred_edges) if pred_edges else (1.0 if not true_edges else 0.0)
        rec = tp / len(true_edges) if true_edges else 1.0
        f = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        return {"precision": prec, "recall": rec, "f1": f}

    adj = f1(translate(edge_set(world, "adjacency")), edge_set(truth, "adjacency"))
    door = f1(translate(edge_set(world, "door")), edge_set(truth, "door"))
    return {
        "pred_units": world.n,
        "true_units": truth.n,
        "unit_count_match": world.n == truth.n,
        "matched_units": matched,
        "type_accuracy": type_accuracy,
        "adjacency": adj,
        "doors": door,
    }


# ---------------------------------------------------------------------------
# bundled demo floor


def demo_spec(noise: float = 0.0, seed_objects: bool = True) -> SyntheticSpec:
    """A 5-unit floor: three rooms over a corridor with a hall at the east
    end. Rooms get one door each, the corridor links everything.

    Sized for hall_area_min_m2 = 25 (rooms 16 m^2, corridor 21 m^2, hall
    28.5 m^2 at 0.05 m/cell).
    """
    spec = SyntheticSpec(width=360, height=200, resolution=0.05, wall_thickness=2)
    # neighbours overlap by 2*wall_thickness so both units' own wall bands
    # tile the full occupied wall
    spec.units = [
        ("room", (10, 10, 94, 94)),
        ("room", (90, 10, 174, 94)),
        ("room", (170, 10, 254, 94)),
        ("corridor", (10, 90, 254, 128)),
        ("hall", (250, 10, 350, 128)),
    ]
    spec.doors = [
        (0, 3, 0.5, 16),
        (1, 3, 0.5, 16),
        (2, 3, 0.5, 16),
        (3, 4, 0.5, 18),
    ]
    if seed_objects:
        spec.objects = [
            (0, (30, 30, 42, 44)),
            (4, (262, 40, 280, 60)),
        ]
    if noise > 0:
        spec.flip_prob = {"occupied": noise, "unknown": noise, "free": noise}
    return spec
