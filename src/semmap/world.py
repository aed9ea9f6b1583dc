"""The parametric world model: rectangular space units, their rasterization
into world-cell states, and the deterministic evidence extractors (geometry
classification, adjacency, doors, objects, unexplored areas).

Coordinates are continuous cell units: cell (ix, iy) spans [ix, ix+1) x
[iy, iy+1) and its center sits at (ix+0.5, iy+0.5). A unit is an oriented
rectangle given by center, half extents along its local axes and an angle in
[0, pi). All geometry parameters are kept on a dyadic grid (multiples of
2**-20 cells) so that move/reverse-move arithmetic is exact in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import DimensionMismatch, NotAdjacent
from .grid import CellState, ClassifiedGrid, connected_components, dilate

QUANT = float(2**20)


def qcoord(x: float) -> float:
    """Snap a coordinate to the dyadic grid used for exact move reversal."""
    return round(x * QUANT) / QUANT


def _cos_sin(angle: float):
    """cos/sin with exact snapping near the axis directions, so rotations by
    pi/2 rasterize identically to axis-aligned units."""
    c, s = math.cos(angle), math.sin(angle)
    if abs(c) < 1e-9:
        c = 0.0
    elif abs(abs(c) - 1.0) < 1e-9:
        c = math.copysign(1.0, c)
    if abs(s) < 1e-9:
        s = 0.0
    elif abs(abs(s) - 1.0) < 1e-9:
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
    """Oriented rectangle: center (cx, cy), half extents (hu, hv) along the
    local u/v axes, angle in radians."""

    uid: int
    cx: float
    cy: float
    hu: float
    hv: float
    angle: float = 0.0

    def __post_init__(self):
        if self.hu <= 0 or self.hv <= 0:
            raise ValueError("half extents must be positive")

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

    def wall_segment(self, wall: int):
        """Endpoints of a wall edge in continuous coordinates."""
        (ux, uy), (vx, vy) = self.axes()
        if wall == 0:
            mid = (self.cx + self.hu * ux, self.cy + self.hu * uy)
            d, h = (vx, vy), self.hv
        elif wall == 1:
            mid = (self.cx - self.hu * ux, self.cy - self.hu * uy)
            d, h = (vx, vy), self.hv
        elif wall == 2:
            mid = (self.cx + self.hv * vx, self.cy + self.hv * vy)
            d, h = (ux, uy), self.hu
        else:
            mid = (self.cx - self.hv * vx, self.cy - self.hv * vy)
            d, h = (ux, uy), self.hu
        return (
            (mid[0] - h * d[0], mid[1] - h * d[1]),
            (mid[0] + h * d[0], mid[1] + h * d[1]),
        )


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
    if hall_area_min <= 0 or corridor_ratio_min <= 0:
        raise ValueError("classifier thresholds must be positive")
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


def clip_window(x0, y0, x1, y1, shape):
    h, w = shape
    return (max(0, x0), max(0, y0), min(w, x1), min(h, y1))


def unit_window(unit: Unit, shape, margin: int = 0):
    """Integer cell window (x0, y0, x1, y1), end-exclusive, clipped to shape."""
    ax0, ay0, ax1, ay1 = unit.aabb()
    return clip_window(
        int(math.floor(ax0)) - margin,
        int(math.floor(ay0)) - margin,
        int(math.ceil(ax1)) + 1 + margin,
        int(math.ceil(ay1)) + 1 + margin,
        shape,
    )


def _local_coords(unit: Unit, window):
    x0, y0, x1, y1 = window
    xs = np.arange(x0, x1, dtype=np.float64) + 0.5 - unit.cx
    ys = np.arange(y0, y1, dtype=np.float64) + 0.5 - unit.cy
    c, s = _cos_sin(unit.angle)
    du = xs[None, :] * c + ys[:, None] * s
    dv = -xs[None, :] * s + ys[:, None] * c
    return du, dv


def footprint_in_window(unit: Unit, window):
    du, dv = _local_coords(unit, window)
    return (np.abs(du) <= unit.hu) & (np.abs(dv) <= unit.hv)


def footprint_mask(unit: Unit, shape) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    win = unit_window(unit, shape)
    if win[0] < win[2] and win[1] < win[3]:
        mask[win[1] : win[3], win[0] : win[2]] = footprint_in_window(unit, win)
    return mask


def _wall_band_in_window(unit: Unit, window, thickness: float):
    du, dv = _local_coords(unit, window)
    adu, adv = np.abs(du), np.abs(dv)
    inside = (adu <= unit.hu) & (adv <= unit.hv)
    band = inside & ((adu > unit.hu - thickness) | (adv > unit.hv - thickness))
    return inside, band


def _door_carve_in_window(door: Door, window):
    x0, y0, x1, y1 = window
    xs = np.arange(x0, x1, dtype=np.float64) + 0.5
    ys = np.arange(y0, y1, dtype=np.float64) + 0.5
    px, py = door.p0
    qx, qy = door.p1
    dx, dy = qx - px, qy - py
    length = math.hypot(dx, dy)
    if length <= 0:
        return np.zeros((y1 - y0, x1 - x0), dtype=bool)
    dx, dy = dx / length, dy / length
    rx = xs[None, :] - px
    ry = ys[:, None] - py
    t = rx * dx + ry * dy
    perp = np.abs(-rx * dy + ry * dx)
    return (t >= 0) & (t <= length) & (perp <= door.carve_halfwidth)


def _cell_span(center: float, extent: float, lo: int, hi: int):
    """Inclusive index range of cells whose centers fall inside
    [center-extent, center+extent], clipped to [lo, hi)."""
    a = max(lo, math.ceil(center - extent - 0.5))
    b = min(hi - 1, math.floor(center + extent - 0.5))
    return a, b


def _paint_axis_aligned(unit, window, thickness, membership, wall_any, owner) -> bool:
    """Slice-based painting for axis-aligned units; returns False when the
    unit is rotated and needs the general path."""
    c, s = _cos_sin(unit.angle)
    if s == 0.0 and abs(c) == 1.0:
        ex, ey = unit.hu, unit.hv
    elif c == 0.0 and abs(s) == 1.0:
        ex, ey = unit.hv, unit.hu
    else:
        return False
    x0, y0, x1, y1 = window
    ix0, ix1 = _cell_span(unit.cx, ex, x0, x1)
    iy0, iy1 = _cell_span(unit.cy, ey, y0, y1)
    if ix0 > ix1 or iy0 > iy1:
        return True
    sl = (slice(iy0 - y0, iy1 + 1 - y0), slice(ix0 - x0, ix1 + 1 - x0))
    membership[sl] += 1
    sub = owner[sl]
    owner[sl] = np.where(sub == -1, np.int32(unit.uid), np.minimum(sub, np.int32(unit.uid)))
    # band strips: inside minus the inner rectangle
    jx0, jx1 = _cell_span(unit.cx, max(ex - thickness, 0.0), x0, x1)
    jy0, jy1 = _cell_span(unit.cy, max(ey - thickness, 0.0), y0, y1)
    if jx0 > jx1 or jy0 > jy1 or ex <= thickness or ey <= thickness:
        wall_any[sl] = True
        return True
    wall_any[iy0 - y0 : jy0 - y0, ix0 - x0 : ix1 + 1 - x0] = True
    wall_any[jy1 + 1 - y0 : iy1 + 1 - y0, ix0 - x0 : ix1 + 1 - x0] = True
    wall_any[iy0 - y0 : iy1 + 1 - y0, ix0 - x0 : jx0 - x0] = True
    wall_any[iy0 - y0 : iy1 + 1 - y0, jx1 + 1 - x0 : ix1 + 1 - x0] = True
    return True


def rasterize_window(
    units,
    input_states: np.ndarray,
    window,
    wall_thickness: float = 2.0,
    doors=(),
    object_from_occupied: bool = True,
):
    """Compute (states, membership, owner) arrays for a cell window.

    A cell inside some unit and within wall_thickness of that unit's edge is
    WALL unless a door segment carves it open. Interior cells whose input is
    unknown (or occupied, when enabled) are OBJECT candidates, the rest
    FREE_IN. Cells in no unit are UNKNOWN_OUT. The owner is the lowest uid
    among containing units.
    """
    x0, y0, x1, y1 = window
    h, w = y1 - y0, x1 - x0
    membership = np.zeros((h, w), dtype=np.int16)
    owner = np.full((h, w), -1, dtype=np.int32)
    wall_any = np.zeros((h, w), dtype=bool)
    for u in units:
        ax0, ay0, ax1, ay1 = u.aabb()
        if ax1 < x0 or ax0 > x1 or ay1 < y0 or ay0 > y1:
            continue
        if _paint_axis_aligned(u, window, wall_thickness, membership, wall_any, owner):
            continue
        inside, band = _wall_band_in_window(u, window, wall_thickness)
        membership += inside
        wall_any |= band
        cur = np.where(inside, np.int32(u.uid), np.int32(2**31 - 1))
        take = inside & ((owner == -1) | (cur < owner))
        owner[take] = cur[take]

    carve = np.zeros((h, w), dtype=bool)
    for d in doors:
        bx0 = min(d.p0[0], d.p1[0]) - d.carve_halfwidth
        bx1 = max(d.p0[0], d.p1[0]) + d.carve_halfwidth
        by0 = min(d.p0[1], d.p1[1]) - d.carve_halfwidth
        by1 = max(d.p0[1], d.p1[1]) + d.carve_halfwidth
        if bx1 < x0 or bx0 > x1 or by1 < y0 or by0 > y1:
            continue
        carve |= _door_carve_in_window(d, window)

    inside_any = membership > 0
    inp = input_states[y0:y1, x0:x1]
    obj = inp == CellState.UNKNOWN
    if object_from_occupied:
        obj = obj | (inp == CellState.OCCUPIED)

    states = np.full((h, w), WorldCell.UNKNOWN_OUT, dtype=np.int8)
    states[inside_any] = WorldCell.FREE_IN
    states[inside_any & obj] = WorldCell.OBJECT
    states[wall_any & ~carve] = WorldCell.WALL
    return states, membership, owner


def rasterize(
    units,
    input_grid: ClassifiedGrid,
    wall_thickness: float = 2.0,
    doors=(),
    object_from_occupied: bool = True,
) -> WorldStateMap:
    """Rasterize unit footprints over the full input frame."""
    if wall_thickness < 1:
        raise ValueError("wall_thickness must be >= 1")
    shape = input_grid.states.shape
    window = (0, 0, shape[1], shape[0])
    states, membership, owner = rasterize_window(
        units, input_grid.states, window, wall_thickness, doors, object_from_occupied
    )
    return WorldStateMap(states=states, membership=membership, owner=owner)


# ---------------------------------------------------------------------------
# relation / door / blob detection


def _boundary_ring_mask(unit: Unit, window):
    _, band = _wall_band_in_window(unit, window, 1.0)
    return band


def _pair_window(a: Unit, b: Unit, shape, radius: int):
    ax0, ay0, ax1, ay1 = a.aabb()
    bx0, by0, bx1, by1 = b.aabb()
    pad = radius + 1
    x0 = int(math.floor(max(ax0, bx0))) - pad
    y0 = int(math.floor(max(ay0, by0))) - pad
    x1 = int(math.ceil(min(ax1, bx1))) + 1 + pad
    y1 = int(math.ceil(min(ay1, by1))) + 1 + pad
    x0, y0, x1, y1 = clip_window(x0, y0, x1, y1, shape)
    if x0 >= x1 or y0 >= y1:
        return None
    return (x0, y0, x1, y1)


def _pair_overlap(a: Unit, b: Unit, shape, radius: int):
    """Overlap mask of the two dilated boundary rings, or None."""
    win = _pair_window(a, b, shape, radius)
    if win is None:
        return None, None
    ra = dilate(_boundary_ring_mask(a, win), radius)
    rb = dilate(_boundary_ring_mask(b, win), radius)
    overlap = ra & rb
    if not overlap.any():
        return win, None
    return win, overlap


def pair_overlaps(units, shape, dilate_radius: int = 3) -> dict:
    """Ring overlap of every unit pair, {(p, q): (window, overlap)} for p < q.

    Relation and door detection read the same table, so each pair's boundary
    rings are dilated once per derivation.
    """
    n = len(units)
    return {
        (p, q): _pair_overlap(units[p], units[q], shape, dilate_radius)
        for p in range(n)
        for q in range(p + 1, n)
    }


def detect_relations(
    units,
    shape,
    dilate_radius: int = 3,
    min_overlap_cells: int = 4,
    overlaps=None,
) -> np.ndarray:
    """Adjacency matrix from dilated-wall overlap.

    r[p, q] is True iff the dilated boundary rings of units p and q share at
    least min_overlap_cells raster cells. Symmetric with a False diagonal.
    ``overlaps`` is the pair_overlaps table, computed here when not given.
    """
    if len(units) < 1:
        raise ValueError("need at least one unit")
    if overlaps is None:
        overlaps = pair_overlaps(units, shape, dilate_radius)
    n = len(units)
    rel = np.zeros((n, n), dtype=bool)
    for (p, q), (_, overlap) in overlaps.items():
        if overlap is not None and int(overlap.sum()) >= min_overlap_cells:
            rel[p, q] = rel[q, p] = True
    return rel


def wall_length_difference(a: Unit, b: Unit, shape, dilate_radius: int = 3, min_overlap_cells: int = 1):
    """Compare the walls joining units a and b.

    Returns (len_a, len_b, d) where each length is the full side length (in
    cells) of the wall whose dilated band carries the a-b ring overlap, and
    d = |len_a - len_b|; None when the rings share fewer than
    min_overlap_cells cells.
    """
    win, overlap = _pair_overlap(a, b, shape, dilate_radius)
    if overlap is None or int(overlap.sum()) < min_overlap_cells:
        return None
    len_a = _best_wall_length(a, win, overlap, dilate_radius)
    len_b = _best_wall_length(b, win, overlap, dilate_radius)
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


def _best_wall_length(unit: Unit, window, overlap: np.ndarray, radius: int) -> float:
    du, dv = _local_coords(unit, window)
    adu, adv = np.abs(du), np.abs(dv)
    inside = (adu <= unit.hu) & (adv <= unit.hv)
    best_wall, best_count = 0, -1
    for wall in range(4):
        if wall == 0:
            band = inside & (du > unit.hu - 1.0)
        elif wall == 1:
            band = inside & (du < -(unit.hu - 1.0))
        elif wall == 2:
            band = inside & (dv > unit.hv - 1.0)
        else:
            band = inside & (dv < -(unit.hv - 1.0))
        count = int((dilate(band, radius) & overlap).sum())
        if count > best_count:
            best_wall, best_count = wall, count
    return unit.wall_length(best_wall)


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
    overlaps=None,
):
    """Find free openings on the shared-wall bands of adjacent pairs.

    The band is the overlap of the pair's dilated boundary rings, read from
    the pair_overlaps table (computed here when not given). Scanning along
    the band's long axis, a position is open when its cross-section is
    mostly free of occupied cells; maximal open runs with length within
    [min_width, max_width] become doors.
    """
    shape = input_grid.states.shape
    if overlaps is None:
        overlaps = pair_overlaps(units, shape, dilate_radius)
    doors = []
    n = len(units)
    carve_halfwidth = wall_thickness + 1.0
    for p in range(n):
        for q in range(p + 1, n):
            if not relations[p, q]:
                continue
            win, overlap = overlaps[p, q]
            if overlap is None:
                continue
            x0, y0, x1, y1 = win
            inp = input_grid.states[y0:y1, x0:x1]
            ys, xs = np.nonzero(overlap)
            horizontal = (xs.max() - xs.min()) >= (ys.max() - ys.min())
            if horizontal:
                axis_vals, across = xs, ys
            else:
                axis_vals, across = ys, xs
            lo, hi = int(axis_vals.min()), int(axis_vals.max())
            open_at = np.zeros(hi - lo + 1, dtype=bool)
            center = np.zeros(hi - lo + 1)
            for a in range(lo, hi + 1):
                sel = axis_vals == a
                if not sel.any():
                    continue
                cells = across[sel]
                if horizontal:
                    col = inp[cells, a]
                else:
                    col = inp[a, cells]
                total = col.size
                n_occ = int(np.count_nonzero(col == CellState.OCCUPIED))
                n_free = int(np.count_nonzero(col == CellState.FREE))
                open_at[a - lo] = (n_occ <= occupied_frac * total) and (
                    n_free >= free_frac * total
                )
                center[a - lo] = cells.mean() + 0.5  # continuous across-coord
            for start, stop in _runs(open_at):
                width = float(stop - start)
                if min_width <= width <= max_width:
                    mid = float(center[start:stop].mean())
                    if horizontal:
                        p0 = (x0 + lo + start, y0 + mid)
                        p1 = (x0 + lo + stop, y0 + mid)
                    else:
                        p0 = (x0 + mid, y0 + lo + start)
                        p1 = (x0 + mid, y0 + lo + stop)
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


def detect_objects(state_map: WorldStateMap, min_object_cells: int = 4):
    """4-connected components of candidate object cells.

    Components smaller than min_object_cells are reclassified FREE_IN in the
    returned cleaned state map (sensor noise).
    """
    obj_mask = state_map.states == WorldCell.OBJECT
    labmap = connected_components(obj_mask, connectivity=4)
    cleaned = state_map.states.copy()
    comps = []
    ident = 0
    for lab in range(1, labmap.count + 1):
        size = labmap.sizes[lab - 1]
        sel = labmap.labels == lab
        if size < min_object_cells:
            cleaned[sel] = WorldCell.FREE_IN
            continue
        ident += 1
        ys, xs = np.nonzero(sel)
        owner = int(state_map.owner[ys[0], xs[0]])
        comps.append(
            Component(
                ident=ident,
                unit_uid=owner,
                cells=size,
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
    occupied = input_grid.states == CellState.OCCUPIED
    inside_any = ~outside
    bounding = occupied | inside_any
    comps = []
    ident = 0
    h, w = cand.shape
    for lab in range(1, labmap.count + 1):
        if labmap.sizes[lab - 1] > max_cells:
            continue
        sel = labmap.labels == lab
        grown = dilate(sel, 1)
        halo = grown & ~sel
        ys, xs = np.nonzero(sel)
        touches_edge = (
            ys.min() == 0 or xs.min() == 0 or ys.max() == h - 1 or xs.max() == w - 1
        )
        if touches_edge or not bounding[halo].all():
            continue
        ident += 1
        centroid = (float(xs.mean() + 0.5), float(ys.mean() + 0.5))
        nearest = _nearest_unit_uid(units, centroid)
        comps.append(
            Component(
                ident=ident,
                unit_uid=nearest,
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


def world_from_dict(doc: dict) -> World:
    if doc.get("version") != WORLD_SCHEMA_VERSION:
        raise ValueError(f"unsupported world schema version {doc.get('version')}")
    units = tuple(
        Unit(
            uid=u["id"],
            cx=u["center"][0],
            cy=u["center"][1],
            hu=u["half_extent"][0],
            hv=u["half_extent"][1],
            angle=u["angle"],
        )
        for u in doc["units"]
    )
    types = tuple(
        UnitType[u["type"].upper()] if u.get("type") else UnitType.OTHER
        for u in doc["units"]
    )
    relations = None
    if doc.get("relations") is not None:
        relations = np.array(doc["relations"], dtype=bool)
    doors = tuple(
        Door(d["units"][0], d["units"][1], tuple(d["p0"]), tuple(d["p1"]), d["width"])
        for d in doc.get("doors", [])
    )
    objects = tuple(_component_from_dict(c) for c in doc.get("objects", []))
    unexplored = tuple(_component_from_dict(c) for c in doc.get("unexplored", []))
    return World(
        units=units,
        types=types,
        relations=relations,
        doors=doors,
        objects=objects,
        unexplored=unexplored,
        resolution=doc.get("resolution", 0.05),
    )


def _component_from_dict(d: dict) -> Component:
    return Component(
        ident=d["id"],
        unit_uid=d["unit"],
        cells=d["cells"],
        bbox=tuple(d["bbox"]),
        centroid=tuple(d["centroid"]),
    )
