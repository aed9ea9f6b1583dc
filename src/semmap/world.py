"""The parametric world model: rectangular space units, their rasterization
into world-cell states, and the deterministic evidence extractors (geometry
classification, adjacency, doors, objects, unexplored areas).

Coordinates are continuous cell units: cell (ix, iy) spans [ix, ix+1) x
[iy, iy+1) and its center sits at (ix+0.5, iy+0.5). A unit is an
axis-aligned rectangle given by center, half extents along its local axes
and an angle that is a multiple of pi/2 (an odd multiple swaps the local
axes). All geometry parameters are kept on a dyadic grid (multiples of
2**-20 cells) so that move/reverse-move arithmetic is exact in floats.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import DimensionMismatch, NotAdjacent
from .grid import CellState, ClassifiedGrid, connected_components, dilate

QUANT = float(2**20)
# per-unit and per-pair geometry caches: the current units and their pairs
# and the few of each proposal, with room to spare
SPAN_CACHE_SIZE = 256


# cos/sin within this of 0 or +-1 snap to it: twice the largest qcoord
# rounding error of 2**-21
AXIS_SNAP = 1.0 / QUANT


def qcoord(x: float) -> float:
    """Snap a coordinate to the dyadic grid used for exact move reversal."""
    return round(x * QUANT) / QUANT


def _cos_sin(angle: float):
    """cos/sin with exact snapping near the axis directions, so a unit at
    pi/2 has exactly swapped axes. The snap covers the dyadic grid's
    rounding, which leaves qcoord(pi/2) up to 2**-21 away."""
    c, s = math.cos(angle), math.sin(angle)
    if abs(c) < AXIS_SNAP:
        c = 0.0
    elif abs(abs(c) - 1.0) < AXIS_SNAP:
        c = math.copysign(1.0, c)
    if abs(s) < AXIS_SNAP:
        s = 0.0
    elif abs(abs(s) - 1.0) < AXIS_SNAP:
        s = math.copysign(1.0, s)
    return c, s


class UnitType(IntEnum):
    ROOM = 0
    CORRIDOR = 1
    HALL = 2
    OTHER = 3

    @property
    def letter(self) -> str:
        return "RCHE"[int(self)]


class GeometryClass(IntEnum):
    ROOM_LIKE = 0
    CORRIDOR_LIKE = 1
    HALL_LIKE = 2


class WorldCell(IntEnum):
    """World cell states; the ordering matches sensor-table columns."""

    WALL = 0
    OBJECT = 1
    FREE_IN = 2
    UNKNOWN_OUT = 3


@dataclass(frozen=True)
class Unit:
    """Axis-aligned rectangle: center (cx, cy), half extents (hu, hv) along
    the local u/v axes, and an angle in radians whose snapped cos/sin put
    the u axis along x or y (ValueError for any other angle)."""

    uid: int
    cx: float
    cy: float
    hu: float
    hv: float
    angle: float = 0.0

    def __post_init__(self):
        if self.hu <= 0 or self.hv <= 0:
            raise ValueError("half extents must be positive")
        if self.angle != 0.0 and 0.0 not in _cos_sin(self.angle):
            raise ValueError(f"unit {self.uid} is not axis-aligned: angle {self.angle!r}")

    @property
    def long(self) -> float:
        return max(self.hu, self.hv)

    @property
    def short(self) -> float:
        return min(self.hu, self.hv)

    @property
    def area(self) -> float:
        return 4.0 * self.hu * self.hv

    def axes(self):
        c, s = _cos_sin(self.angle)
        return (c, s), (-s, c)

    def vertices(self):
        """Corner points, counter-clockwise starting at (+u, +v)."""
        (ux, uy), (vx, vy) = self.axes()
        pts = []
        for su, sv in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            pts.append(
                (
                    self.cx + su * self.hu * ux + sv * self.hv * vx,
                    self.cy + su * self.hu * uy + sv * self.hv * vy,
                )
            )
        return pts

    def aabb(self):
        """Axis-aligned bounding box (x0, y0, x1, y1) in continuous coords."""
        c, s = _cos_sin(self.angle)
        ex = abs(self.hu * c) + abs(self.hv * s)
        ey = abs(self.hu * s) + abs(self.hv * c)
        return (self.cx - ex, self.cy - ey, self.cx + ex, self.cy + ey)

    def wall_length(self, wall: int) -> float:
        """Length of wall 0..3 = (+u, -u, +v, -v)."""
        return 2.0 * (self.hv if wall < 2 else self.hu)


@dataclass(frozen=True)
class Door:
    """Free opening on the shared wall of an adjacent unit pair."""

    unit_p: int
    unit_q: int
    p0: tuple
    p1: tuple
    width: float
    carve_halfwidth: float = 3.0


@dataclass(frozen=True)
class Component:
    """A labeled connected blob (object or unexplored area)."""

    ident: int
    unit_uid: int  # owning unit for objects, nearest unit for unexplored
    cells: int
    bbox: tuple  # (x0, y0, x1, y1) inclusive cell bounds
    centroid: tuple


@dataclass
class WorldStateMap:
    """Per-cell world state, unit membership count and owning unit id."""

    states: np.ndarray  # int8 WorldCell
    membership: np.ndarray  # int16 number of containing units
    owner: np.ndarray  # int32 lowest containing uid, -1 outside


@dataclass(frozen=True)
class World:
    """Units with their types, adjacency relations and derived semantics."""

    units: tuple
    types: tuple = ()
    relations: np.ndarray | None = None
    doors: tuple = ()
    objects: tuple = ()
    unexplored: tuple = ()
    resolution: float = 0.05

    def unit_index(self, uid: int) -> int:
        for i, u in enumerate(self.units):
            if u.uid == uid:
                return i
        raise KeyError(f"no unit with id {uid}")

    @property
    def n(self) -> int:
        return len(self.units)


def _check_geometry_thresholds(hall_area_min: float, corridor_ratio_min: float):
    if not (hall_area_min > 0 and corridor_ratio_min > 0):
        raise ValueError("classifier thresholds must be positive")


def classify_geometry(
    unit: Unit,
    resolution: float,
    hall_area_min: float = 40.0,
    corridor_ratio_min: float = 3.0,
) -> GeometryClass:
    """Size/aspect-ratio classifier feeding the geometry evidence.

    Units with area >= hall_area_min (m^2) are hall-like; otherwise a
    long/short ratio >= corridor_ratio_min makes them corridor-like, else
    room-like.
    """
    _check_geometry_thresholds(hall_area_min, corridor_ratio_min)
    area_m2 = unit.area * resolution * resolution
    if area_m2 >= hall_area_min:
        return GeometryClass.HALL_LIKE
    if unit.long / unit.short >= corridor_ratio_min:
        return GeometryClass.CORRIDOR_LIKE
    return GeometryClass.ROOM_LIKE


def geometry_to_type(g: GeometryClass) -> UnitType:
    """Direct typing used before knowledge processing is enabled."""
    return {
        GeometryClass.ROOM_LIKE: UnitType.ROOM,
        GeometryClass.CORRIDOR_LIKE: UnitType.CORRIDOR,
        GeometryClass.HALL_LIKE: UnitType.HALL,
    }[g]


# ---------------------------------------------------------------------------
# rasterization


def _segment_mask(p0, p1, halfwidth: float, window):
    """Cells of the window whose centers lie within halfwidth of the
    segment p0-p1 (measured perpendicular to it, between its end points)."""
    x0, y0, x1, y1 = window
    xs = np.arange(x0, x1, dtype=np.float64) + 0.5
    ys = np.arange(y0, y1, dtype=np.float64) + 0.5
    px, py = p0
    qx, qy = p1
    dx, dy = qx - px, qy - py
    length = math.hypot(dx, dy)
    if length <= 0:
        return np.zeros((y1 - y0, x1 - x0), dtype=bool)
    dx, dy = dx / length, dy / length
    rx = xs[None, :] - px
    ry = ys[:, None] - py
    t = rx * dx + ry * dy
    perp = np.abs(-rx * dy + ry * dx)
    return (t >= 0) & (t <= length) & (perp <= halfwidth)


@functools.lru_cache(maxsize=SPAN_CACHE_SIZE)
def _carve_box(door: Door):
    """Inclusive cell ranges (x0, x1, y0, y1) of the cells a horizontal or
    vertical door carves, exactly its _segment_mask; None when it carves no
    cell. ValueError for a door along neither axis."""
    (px, py), (qx, qy) = door.p0, door.p1
    if px != qx and py != qy:
        raise ValueError("door segment is neither horizontal nor vertical")
    hw = door.carve_halfwidth
    x0 = math.floor(min(px, qx) - hw) - 1
    y0 = math.floor(min(py, qy) - hw) - 1
    window = (x0, y0, math.ceil(max(px, qx) + hw) + 1, math.ceil(max(py, qy) + hw) + 1)
    ys, xs = np.nonzero(_segment_mask(door.p0, door.p1, hw, window))
    if not xs.size:
        return None
    return x0 + int(xs.min()), x0 + int(xs.max()), y0 + int(ys.min()), y0 + int(ys.max())


def _cell_span(center: float, extent: float):
    """Inclusive index range of cells whose centers fall inside
    [center-extent, center+extent]; empty when the first index exceeds the
    last."""
    return math.ceil(center - extent - 0.5), math.floor(center + extent - 0.5)


@functools.lru_cache(maxsize=SPAN_CACHE_SIZE)
def _unit_spans(unit: Unit, thickness: float):
    """The unclipped cell ranges of a unit: (ix0, ix1, iy0, iy1) of its
    footprint and (jx0, jx1, jy0, jy1) of the interior inside its wall band,
    the latter None when the band fills the footprint. A cell is on the
    band when its center lies within thickness of an edge, so a half extent
    of exactly thickness leaves the center cells open."""
    c, _ = _cos_sin(unit.angle)
    ex, ey = (unit.hv, unit.hu) if c == 0.0 else (unit.hu, unit.hv)
    outer = _cell_span(unit.cx, ex) + _cell_span(unit.cy, ey)
    inner = None
    if ex >= thickness and ey >= thickness:
        inner = _cell_span(unit.cx, ex - thickness) + _cell_span(unit.cy, ey - thickness)
        if inner[0] > inner[1] or inner[2] > inner[3]:
            inner = None
    return outer, inner


@functools.lru_cache(maxsize=SPAN_CACHE_SIZE)
def _unit_boxes(unit, thickness: float, w: int, h: int):
    """The end-exclusive cell boxes (x0, x1, y0, y1) of a unit's footprint
    and, when it has one, of its interior inside the wall band, clipped to
    a w x h frame."""
    return tuple(_clip_box(box, w, h) for box in _unit_spans(unit, thickness) if box is not None)


def _clip_box(span, w: int, h: int):
    """Inclusive cell ranges (x0, x1, y0, y1) as an end-exclusive box
    clipped to a w x h frame."""
    x0, x1, y0, y1 = span
    return min(max(x0, 0), w), min(max(x1 + 1, 0), w), min(max(y0, 0), h), min(max(y1 + 1, 0), h)


def _paint_band(mask, boxes):
    """Set the wall band of a unit in a frame-sized mask: its footprint box
    less its interior box (boxes as _unit_boxes gives them)."""
    x0, x1, y0, y1 = boxes[0]
    if len(boxes) == 1:
        mask[y0:y1, x0:x1] = True
        return
    jx0, jx1, jy0, jy1 = boxes[1]
    mask[y0:jy0, x0:x1] = True
    mask[jy1:y1, x0:x1] = True
    mask[y0:y1, x0:jx0] = True
    mask[y0:y1, jx1:x1] = True


_uid = operator.attrgetter("uid")


def _state_table(object_from_occupied: bool) -> np.ndarray:
    """World state by region * 3 + input class, where region is 0 outside
    every unit, 1 inside and 2 on a wall band no door carves."""
    inside = [WorldCell.OBJECT, WorldCell.OBJECT, WorldCell.FREE_IN]
    if not object_from_occupied:
        inside[CellState.OCCUPIED] = WorldCell.FREE_IN
    return np.array([WorldCell.UNKNOWN_OUT] * 3 + inside + [WorldCell.WALL] * 3, dtype=np.int8)


_STATE_TABLES = {flag: _state_table(flag) for flag in (False, True)}


def rasterize(
    units,
    input_grid: ClassifiedGrid,
    wall_thickness: float = 2.0,
    doors=(),
    object_from_occupied: bool = True,
) -> WorldStateMap:
    """Rasterize unit footprints over the full input frame.

    A cell inside some unit and within wall_thickness of that unit's edge is
    WALL unless a door segment carves it open. Interior cells whose input is
    unknown (or occupied, when enabled) are OBJECT candidates, the rest
    FREE_IN. Cells in no unit are UNKNOWN_OUT. The owner is the lowest uid
    among containing units.
    """
    if wall_thickness < 1:
        raise ValueError("wall_thickness must be >= 1")
    h, w = input_grid.states.shape
    membership = np.zeros((h, w), dtype=np.int16)
    owner = np.full((h, w), -1, dtype=np.int32)
    wall_any = np.zeros((h, w), dtype=bool)
    # in descending uid order the last unit to paint a cell owns it
    for u in sorted(units, key=_uid, reverse=True):
        boxes = _unit_boxes(u, wall_thickness, w, h)
        x0, x1, y0, y1 = boxes[0]
        membership[y0:y1, x0:x1] += 1
        owner[y0:y1, x0:x1] = u.uid
        _paint_band(wall_any, boxes)

    for d in doors:
        wall_any[_segment_mask(d.p0, d.p1, d.carve_halfwidth, (0, 0, w, h))] = False

    # region 0 outside every unit, 1 inside, 2 on an uncarved wall band
    region = (membership > 0).view(np.int8) + wall_any.view(np.int8)
    region *= 3
    region += input_grid.states
    states = np.take(_STATE_TABLES[bool(object_from_occupied)], region)
    return WorldStateMap(states=states, membership=membership, owner=owner)


# ---------------------------------------------------------------------------
# relation / door / blob detection


def _ring_boxes(unit: Unit, w: int, h: int, radius: int):
    """The one-cell wall strips of a unit, in wall order +u, -u, +v, -v, as
    end-exclusive boxes (x0, x1, y0, y1), each clipped to a w x h frame,
    grown by radius and clipped again; their union is the unit's boundary
    ring dilated on the frame. A strip off the frame is the empty box (0,
    0, 0, 0)."""
    ix0, ix1, iy0, iy1 = _unit_spans(unit, 1.0)[0]
    if ix0 > ix1 or iy0 > iy1:
        return ((0, 0, 0, 0),) * 4
    # a one-cell strip is the footprint's outermost column or row on the
    # side its wall normal points to
    strips = {
        (1, 0): (ix1, ix1, iy0, iy1),
        (-1, 0): (ix0, ix0, iy0, iy1),
        (0, 1): (ix0, ix1, iy1, iy1),
        (0, -1): (ix0, ix1, iy0, iy0),
    }
    c, s = _cos_sin(unit.angle)
    boxes = []
    for normal in ((c, s), (-c, -s), (-s, c), (s, -c)):
        x0, x1, y0, y1 = _clip_box(strips[normal], w, h)
        if x0 < x1 and y0 < y1:
            boxes.append((max(x0 - radius, 0), min(x1 + radius, w), max(y0 - radius, 0), min(y1 + radius, h)))
        else:
            boxes.append((0, 0, 0, 0))
    return tuple(boxes)


@functools.lru_cache(maxsize=SPAN_CACHE_SIZE)
def _ring_overlap(a: Unit, b: Unit, w: int, h: int, radius: int):
    """Where the boundary rings of the units a and b, each dilated by radius
    on a w x h frame, meet: (cells, walls_a, walls_b, rects) with the number
    of shared cells, the shared cells inside each wall's dilated strip in
    wall order, and the end-exclusive elementary rectangles (x0, x1, y0, y1)
    that tile the shared cells."""
    boxes = np.array(_ring_boxes(a, w, h, radius) + _ring_boxes(b, w, h, radius))
    xs = np.unique(boxes[:, :2])
    ys = np.unique(boxes[:, 2:])
    # elementary rectangle (j, i) spans [xs[i], xs[i+1]) x [ys[j], ys[j+1])
    # and lies wholly inside or wholly outside each box
    in_x = (boxes[:, :1] <= xs[:-1]) & (xs[:-1] < boxes[:, 1:2])
    in_y = (boxes[:, 2:3] <= ys[:-1]) & (ys[:-1] < boxes[:, 3:])
    inside = in_y[:, :, None] & in_x[:, None, :]
    shared = inside[:4].any(axis=0) & inside[4:].any(axis=0)
    cells = np.diff(ys)[:, None] * np.diff(xs) * shared
    walls = (inside * cells).sum(axis=(1, 2)).tolist()
    jy, ix = np.nonzero(shared)
    rects = tuple(zip(xs[ix].tolist(), xs[ix + 1].tolist(), ys[jy].tolist(), ys[jy + 1].tolist()))
    return int(cells.sum()), tuple(walls[:4]), tuple(walls[4:]), rects


def detect_relations(
    units,
    shape,
    dilate_radius: int = 3,
    min_overlap_cells: int = 4,
) -> np.ndarray:
    """Adjacency matrix from dilated-wall overlap.

    r[p, q] is True iff the dilated boundary rings of units p and q share at
    least min_overlap_cells cells of the frame. Symmetric with a False
    diagonal.
    """
    if len(units) < 1:
        raise ValueError("need at least one unit")
    h, w = shape
    n = len(units)
    rel = np.zeros((n, n), dtype=bool)
    for p in range(n):
        for q in range(p + 1, n):
            cells = _ring_overlap(units[p], units[q], w, h, dilate_radius)[0]
            if cells and cells >= min_overlap_cells:
                rel[p, q] = rel[q, p] = True
    return rel


def wall_length_difference(a: Unit, b: Unit, shape, dilate_radius: int = 3, min_overlap_cells: int = 1):
    """Compare the walls joining the units a and b.

    Returns (len_a, len_b, d) where each length is the full side length (in
    cells) of the wall whose dilated strip carries the most of the a-b ring
    overlap, the first such wall in order +u, -u, +v, -v, and d = |len_a -
    len_b|; None when the rings share fewer than min_overlap_cells cells.
    """
    h, w = shape
    cells, walls_a, walls_b, _ = _ring_overlap(a, b, w, h, dilate_radius)
    if not cells or cells < min_overlap_cells:
        return None
    len_a = a.wall_length(walls_a.index(max(walls_a)))
    len_b = b.wall_length(walls_b.index(max(walls_b)))
    return len_a, len_b, abs(len_a - len_b)


def connecting_wall_lengths(world: World, p: int, q: int, shape, dilate_radius: int = 3):
    """wall_length_difference of the adjacent units p and q of a world;
    NotAdjacent when they are not related or share no wall overlap."""
    if world.relations is None or not world.relations[p, q]:
        raise NotAdjacent(f"units {p} and {q} are not adjacent")
    lengths = wall_length_difference(world.units[p], world.units[q], shape, dilate_radius)
    if lengths is None:
        raise NotAdjacent(f"units {p} and {q} have no wall overlap")
    return lengths


def detect_doors(
    units,
    relations: np.ndarray,
    input_grid: ClassifiedGrid,
    min_width: float,
    max_width: float,
    wall_thickness: float = 2.0,
    dilate_radius: int = 3,
    occupied_frac: float = 0.2,
    free_frac: float = 0.25,
):
    """Find free openings on the shared-wall bands of adjacent pairs.

    The band is the overlap of the pair's dilated boundary rings. Scanning
    along the band's long axis, a position is open when its cross-section
    is mostly free of occupied cells; maximal open runs with length within
    [min_width, max_width] become doors.
    """
    h, w = input_grid.states.shape
    doors = []
    n = len(units)
    carve_halfwidth = wall_thickness + 1.0
    for p in range(n):
        for q in range(p + 1, n):
            if not relations[p, q]:
                continue
            rects = _ring_overlap(units[p], units[q], w, h, dilate_radius)[3]
            if not rects:
                continue
            x0, x1 = min(r[0] for r in rects), max(r[1] for r in rects)
            y0, y1 = min(r[2] for r in rects), max(r[3] for r in rects)
            overlap = np.zeros((y1 - y0, x1 - x0), dtype=bool)
            for rx0, rx1, ry0, ry1 in rects:
                overlap[ry0 - y0 : ry1 - y0, rx0 - x0 : rx1 - x0] = True
            inp = input_grid.states[y0:y1, x0:x1]
            horizontal = x1 - x0 >= y1 - y0
            # columns run along the band from index origin, rows across it from across0
            if horizontal:
                origin, across0 = x0, y0
            else:
                overlap, inp, origin, across0 = overlap.T, inp.T, y0, x0
            total = overlap.sum(axis=0)
            n_occ = (overlap & (inp == CellState.OCCUPIED)).sum(axis=0)
            n_free = (overlap & (inp == CellState.FREE)).sum(axis=0)
            open_at = (total > 0) & (n_occ <= occupied_frac * total) & (n_free >= free_frac * total)
            across = np.arange(across0, across0 + overlap.shape[0])
            # mean across-index of each position's cells, as a continuous coordinate
            center = (overlap * across[:, None]).sum(axis=0) / np.maximum(total, 1) + 0.5
            for start, stop in _runs(open_at):
                width = float(stop - start)
                if min_width <= width <= max_width:
                    mid = float(center[start:stop].mean())
                    if horizontal:
                        p0, p1 = (origin + start, mid), (origin + stop, mid)
                    else:
                        p0, p1 = (mid, origin + start), (mid, origin + stop)
                    doors.append(
                        Door(units[p].uid, units[q].uid, p0, p1, width, carve_halfwidth)
                    )
    return doors


def _runs(flags: np.ndarray):
    """Maximal runs of True as (start, stop) index pairs, stop exclusive."""
    runs = []
    start = None
    for i, f in enumerate(flags):
        if f and start is None:
            start = i
        elif not f and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(flags)))
    return runs


def _component_cells(labmap, lab: int, pad: int = 0):
    """Window (bbox grown by pad cells, clipped to the frame) of one labelled
    component, its mask in that window and its global cell indices."""
    x0, y0, x1, y1 = labmap.bboxes[lab - 1]
    h, w = labmap.labels.shape
    x0, y0 = max(x0 - pad, 0), max(y0 - pad, 0)
    x1, y1 = min(x1 + 1 + pad, w), min(y1 + 1 + pad, h)
    sel = labmap.labels[y0:y1, x0:x1] == lab
    ys, xs = np.nonzero(sel)
    return (x0, y0, x1, y1), sel, ys + y0, xs + x0


def detect_objects(state_map: WorldStateMap, min_object_cells: int = 4):
    """4-connected components of candidate object cells.

    Components smaller than min_object_cells are reclassified FREE_IN in the
    returned cleaned state map (sensor noise).
    """
    obj_mask = state_map.states == WorldCell.OBJECT
    labmap = connected_components(obj_mask, connectivity=4)
    cleaned = state_map.states.copy()
    small = np.zeros(labmap.count + 1, dtype=bool)
    small[1:] = np.asarray(labmap.sizes, dtype=np.int64) < min_object_cells
    cleaned[small[labmap.labels]] = WorldCell.FREE_IN
    comps = []
    for lab in (np.flatnonzero(~small[1:]) + 1).tolist():
        _, _, ys, xs = _component_cells(labmap, lab)
        comps.append(
            Component(
                ident=len(comps) + 1,
                unit_uid=int(state_map.owner[ys[0], xs[0]]),
                cells=labmap.sizes[lab - 1],
                bbox=labmap.bboxes[lab - 1],
                centroid=(float(xs.mean() + 0.5), float(ys.mean() + 0.5)),
            )
        )
    return comps, WorldStateMap(
        states=cleaned, membership=state_map.membership, owner=state_map.owner
    )


def detect_unexplored(
    input_grid: ClassifiedGrid,
    state_map: WorldStateMap,
    max_cells: int,
    units=(),
):
    """Small enclosed free/unknown pockets outside all units.

    A component qualifies when every neighboring cell is either occupied in
    the input or inside some unit, and its size is at most max_cells.
    """
    if input_grid.states.shape != state_map.states.shape:
        raise DimensionMismatch("input grid and state map shapes differ")
    outside = state_map.membership == 0
    cand = outside & (
        (input_grid.states == CellState.FREE) | (input_grid.states == CellState.UNKNOWN)
    )
    labmap = connected_components(cand, connectivity=4)
    bounding = (input_grid.states == CellState.OCCUPIED) | ~outside
    comps = []
    h, w = cand.shape
    for lab in range(1, labmap.count + 1):
        if labmap.sizes[lab - 1] > max_cells:
            continue
        bx0, by0, bx1, by1 = labmap.bboxes[lab - 1]
        if bx0 == 0 or by0 == 0 or bx1 == w - 1 or by1 == h - 1:
            continue
        # the bbox grown by one cell holds the component's whole halo
        (x0, y0, x1, y1), sel, ys, xs = _component_cells(labmap, lab, pad=1)
        halo = dilate(sel, 1) & ~sel
        if not bounding[y0:y1, x0:x1][halo].all():
            continue
        centroid = (float(xs.mean() + 0.5), float(ys.mean() + 0.5))
        comps.append(
            Component(
                ident=len(comps) + 1,
                unit_uid=_nearest_unit_uid(units, centroid),
                cells=labmap.sizes[lab - 1],
                bbox=labmap.bboxes[lab - 1],
                centroid=centroid,
            )
        )
    return comps


def _nearest_unit_uid(units, point) -> int:
    best_uid, best_d = -1, float("inf")
    for u in units:
        d = (u.cx - point[0]) ** 2 + (u.cy - point[1]) ** 2
        if d < best_d:
            best_uid, best_d = u.uid, d
    return best_uid


# ---------------------------------------------------------------------------
# abstract graph


@dataclass(frozen=True)
class GraphNode:
    kind: str  # "unit" | "object" | "unexplored"
    name: str
    label: str


@dataclass(frozen=True)
class GraphEdge:
    kind: str  # "door" | "adjacent" | "contains"
    a: str
    b: str


@dataclass
class AbstractGraph:
    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)


def abstract_graph(world: World) -> AbstractGraph:
    """Topology graph: unit nodes joined by door or plain-adjacency edges,
    with object and unexplored-area nodes attached to their units."""
    g = AbstractGraph()
    for i, u in enumerate(world.units):
        t = world.types[i] if i < len(world.types) else UnitType.OTHER
        g.nodes.append(GraphNode("unit", f"u{u.uid}", f"{t.letter}{u.uid}"))
    door_pairs = {tuple(sorted((d.unit_p, d.unit_q))) for d in world.doors}
    if world.relations is not None:
        for p in range(world.n):
            for q in range(p + 1, world.n):
                if not world.relations[p, q]:
                    continue
                pair = tuple(sorted((world.units[p].uid, world.units[q].uid)))
                kind = "door" if pair in door_pairs else "adjacent"
                g.edges.append(GraphEdge(kind, f"u{pair[0]}", f"u{pair[1]}"))
    for c in world.objects:
        name = f"o{c.ident}"
        g.nodes.append(GraphNode("object", name, f"O{c.ident}"))
        if c.unit_uid >= 0:
            g.edges.append(GraphEdge("contains", f"u{c.unit_uid}", name))
    for c in world.unexplored:
        name = f"n{c.ident}"
        g.nodes.append(GraphNode("unexplored", name, f"N{c.ident}"))
        if c.unit_uid >= 0:
            g.edges.append(GraphEdge("contains", f"u{c.unit_uid}", name))
    return g


# ---------------------------------------------------------------------------
# serialization

WORLD_SCHEMA_VERSION = 1


def world_to_dict(world: World) -> dict:
    return {
        "version": WORLD_SCHEMA_VERSION,
        "resolution": world.resolution,
        "units": [
            {
                "id": u.uid,
                "center": [u.cx, u.cy],
                "half_extent": [u.hu, u.hv],
                "angle": u.angle,
                "type": world.types[i].name.lower() if i < len(world.types) else None,
            }
            for i, u in enumerate(world.units)
        ],
        "relations": (
            world.relations.astype(int).tolist() if world.relations is not None else None
        ),
        "doors": [
            {
                "units": [d.unit_p, d.unit_q],
                "p0": list(d.p0),
                "p1": list(d.p1),
                "width": d.width,
            }
            for d in world.doors
        ],
        "objects": [_component_to_dict(c) for c in world.objects],
        "unexplored": [_component_to_dict(c) for c in world.unexplored],
    }


def _component_to_dict(c: Component) -> dict:
    return {
        "id": c.ident,
        "unit": c.unit_uid,
        "cells": c.cells,
        "bbox": list(c.bbox),
        "centroid": list(c.centroid),
    }


def _number(value, what: str, integer: bool = False):
    """value when it is a finite JSON number (an integer when integer is
    set); ValueError otherwise."""
    if integer:
        ok = isinstance(value, int)
    else:
        ok = isinstance(value, (int, float)) and math.isfinite(value)
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{what} must be {'an integer' if integer else 'a finite number'}, not {value!r}")
    return value


def _numbers(value, n: int, what: str, integer: bool = False) -> tuple:
    """A JSON list of n numbers as a tuple; ValueError otherwise."""
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"{what} must be a list of {n} numbers, not {value!r}")
    return tuple(_number(v, what, integer) for v in value)


def _records(value, what: str) -> list:
    """A JSON list of objects; ValueError otherwise."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ValueError(f"{what} must be a list of objects")
    return value


def world_from_dict(doc: dict) -> World:
    """The World of a world.json document. A document of the wrong shape or
    with a field of the wrong type raises ValueError, a missing field
    KeyError."""
    if not isinstance(doc, dict):
        raise ValueError("a world document must be a JSON object")
    if doc.get("version") != WORLD_SCHEMA_VERSION:
        raise ValueError(f"unsupported world schema version {doc.get('version')}")
    units, types = [], []
    for u in _records(doc["units"], "units"):
        cx, cy = _numbers(u["center"], 2, "unit center")
        hu, hv = _numbers(u["half_extent"], 2, "unit half_extent")
        units.append(Unit(_number(u["id"], "unit id", True), cx, cy, hu, hv, _number(u["angle"], "unit angle")))
        name = u.get("type")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"unit type must be a string, not {name!r}")
        types.append(UnitType[name.upper()] if name else UnitType.OTHER)
    relations = None
    rows = doc.get("relations")
    if rows is not None:
        n = len(units)
        if not (
            isinstance(rows, list)
            and len(rows) == n
            and all(isinstance(r, list) and len(r) == n and all(isinstance(v, int) for v in r) for r in rows)
        ):
            raise ValueError(f"relations must be a {n} x {n} matrix of 0/1 entries")
        relations = np.array(rows, dtype=bool)
    doors = tuple(
        Door(
            *_numbers(d["units"], 2, "door units", True),
            _numbers(d["p0"], 2, "door p0"),
            _numbers(d["p1"], 2, "door p1"),
            _number(d["width"], "door width"),
        )
        for d in _records(doc.get("doors", []), "doors")
    )
    objects = tuple(_component_from_dict(c) for c in _records(doc.get("objects", []), "objects"))
    unexplored = tuple(_component_from_dict(c) for c in _records(doc.get("unexplored", []), "unexplored"))
    resolution = _number(doc.get("resolution", 0.05), "resolution")
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, not {resolution!r}")
    return World(
        units=tuple(units),
        types=tuple(types),
        relations=relations,
        doors=doors,
        objects=objects,
        unexplored=unexplored,
        resolution=resolution,
    )


def _component_from_dict(d: dict) -> Component:
    return Component(
        ident=_number(d["id"], "component id", True),
        unit_uid=_number(d["unit"], "component unit", True),
        cells=_number(d["cells"], "component cells", True),
        bbox=_numbers(d["bbox"], 4, "component bbox", True),
        centroid=_numbers(d["centroid"], 2, "component centroid"),
    )
