"""Shared fixtures: the two-rooms prior-suppression map, a family of
randomized synthetic floors with known ground truth, and the per-cell mask
rule that the library's box geometry is checked against."""

import numpy as np
import pytest

from semmap.config import RunConfig
from semmap.evaluation import SyntheticSpec
from semmap.grid import CellState, ClassifiedGrid
from semmap.world import Unit, WorldCell, _cos_sin, _segment_mask

# ---------------------------------------------------------------------------
# the mask rule: unit cells decided cell by cell from local coordinates


def unit_local_coords(unit, shape):
    """Signed offsets (du, dv) of every frame cell center from the unit's
    center along its local u and v axes."""
    h, w = shape
    xs = np.arange(w, dtype=np.float64) + 0.5 - unit.cx
    ys = np.arange(h, dtype=np.float64) + 0.5 - unit.cy
    c, s = _cos_sin(unit.angle)
    return xs[None, :] * c + ys[:, None] * s, -xs[None, :] * s + ys[:, None] * c


def unit_masks(unit, shape, thickness):
    """Full-frame masks (inside, band): a cell is inside when its center lies
    in the unit's rectangle, and on the wall band when it is inside and its
    center lies within thickness of an edge."""
    du, dv = unit_local_coords(unit, shape)
    adu, adv = np.abs(du), np.abs(dv)
    inside = (adu <= unit.hu) & (adv <= unit.hv)
    return inside, inside & ((adu > unit.hu - thickness) | (adv > unit.hv - thickness))


def ref_rasterize(units, input_states, wall_thickness, doors=(), object_from_occupied=True):
    """(states, membership, owner) of units over the input frame by the mask
    rule: the owner is the lowest containing uid, door segments carve walls."""
    shape = input_states.shape
    membership = np.zeros(shape, dtype=np.int16)
    owner = np.full(shape, -1, dtype=np.int32)
    wall_any = np.zeros(shape, dtype=bool)
    for u in units:
        inside, band = unit_masks(u, shape, wall_thickness)
        membership += inside
        wall_any |= band
        take = inside & ((owner == -1) | (u.uid < owner))
        owner[take] = u.uid
    carve = np.zeros(shape, dtype=bool)
    for d in doors:
        carve |= _segment_mask(d.p0, d.p1, d.carve_halfwidth, (0, 0, shape[1], shape[0]))
    inside_any = membership > 0
    obj = input_states == CellState.UNKNOWN
    if object_from_occupied:
        obj = obj | (input_states == CellState.OCCUPIED)
    states = np.full(shape, WorldCell.UNKNOWN_OUT, dtype=np.int8)
    states[inside_any] = WorldCell.FREE_IN
    states[inside_any & obj] = WorldCell.OBJECT
    states[wall_any & ~carve] = WorldCell.WALL
    return states, membership, owner


# ---------------------------------------------------------------------------
# the two-rooms map


def build_two_rooms_map(chunk_lo=40, chunk_hi=68):
    """Reference room R1 stacked beside room A, whose divider against the
    long unit H below runs anywhere inside a thick occupied block: the
    likelihood is exactly flat over the divider position, so only the
    connecting-wall prior prefers the aligned split (A as tall as R1's
    shared wall)."""
    W, H = 130, 320
    cls = np.full((H, W), CellState.UNKNOWN, dtype=np.int8)
    # east column holding A (top) and H (bottom); the west wall is 4 thick
    # (tiled by the tower's and the column's wall bands), the east outer wall
    # 2 thick so a single unit's band covers it exactly
    cls[10:310, 48:118] = CellState.FREE
    cls[10:310, 48:52] = CellState.OCCUPIED
    cls[10:310, 116:118] = CellState.OCCUPIED
    cls[10:12, 48:118] = CellState.OCCUPIED
    cls[308:310, 48:118] = CellState.OCCUPIED
    # the divider block between A and H
    cls[chunk_lo:chunk_hi, 48:118] = CellState.OCCUPIED
    # west tower: room R1 over tail R3, 4-thick shared wall
    cls[10:310, 10:12] = CellState.OCCUPIED
    cls[10:12, 10:48] = CellState.OCCUPIED
    cls[308:310, 10:48] = CellState.OCCUPIED
    cls[52:56, 10:52] = CellState.OCCUPIED
    cls[12:52, 12:48] = CellState.FREE
    cls[56:308, 12:48] = CellState.FREE
    return ClassifiedGrid(cls, resolution=0.05)


TWO_ROOMS_R1 = Unit(990, 30.0, 32.0, 20.0, 22.0)  # (10,10,50,54)
TWO_ROOMS_A = Unit(991, 84.0, 32.0, 34.0, 22.0)  # (50,10,118,54)
TWO_ROOMS_H = Unit(992, 84.0, 182.0, 34.0, 128.0)  # (50,54,118,310)
TWO_ROOMS_R3 = Unit(993, 30.0, 182.0, 20.0, 128.0)  # (10,54,50,310)


def match_unit(world, ref, shape, min_iou=0.3):
    rm = unit_masks(ref, shape, 1.0)[0]
    best, best_iou = None, 0.0
    for u in world.units:
        um = unit_masks(u, shape, 1.0)[0]
        union = int(np.count_nonzero(rm | um))
        if union == 0:
            continue
        iou = int(np.count_nonzero(rm & um)) / union
        if iou > best_iou:
            best, best_iou = u, iou
    return best if best_iou >= min_iou else None


def divider_difference(world, shape):
    """|A's west-wall length - R1's east-wall length| in cells, or None when
    the expected structure was not recovered."""
    r1 = match_unit(world, TWO_ROOMS_R1, shape)
    a = match_unit(world, TWO_ROOMS_A, shape)
    if r1 is None or a is None:
        return None
    return abs(2.0 * a.hv - 2.0 * r1.hv)


def ring_divider_values(ring):
    """Per-sample |A south edge - aligned row| over accepted samples; A is the
    unit atop the east column, the reference height comes from R1."""
    values = []
    for units, _ in ring:
        a = r1 = None
        for u in units:
            x0, y0, x1, y1 = u.aabb()
            if y0 < 20 and y1 < 150:
                if x0 > 40:
                    a = u
                else:
                    r1 = u
        if a is None or r1 is None:
            continue
        values.append(abs(2.0 * a.hv - 2.0 * r1.hv))
    return values


def ring_median_divider(ring):
    values = ring_divider_values(ring)
    if len(values) < 500:
        return None
    values.sort()
    return values[len(values) // 2]


def two_rooms_config(seed, prior_on=True, iterations=32000, sigma=3.0):
    weights = {
        "shrink": 0.125,
        "dilate": 0.125,
        "interchange": 0.2,
        "split": 0.25,
        "merge": 0.1,
        "add": 0.1,
        "remove": 0.05,
        "allocate": 0.025,
        "delete": 0.025,
    }
    return RunConfig(
        seed=seed,
        iterations=iterations,
        burn_in=5000,
        prior_enabled=prior_on,
        kernel_weights=weights,
        sigma_len=sigma,
        mln_refresh_structural=4,
        mln_refresh_geometric=60,
    )


# ---------------------------------------------------------------------------
# randomized synthetic floors (ground truth for end-to-end recovery)

FLOOR_HALL_AREA_MIN_M2 = 25.0


def floor_spec(seed, noise=0.05):
    """A 5-7 unit floor at ~300x200 cells: a row of rooms and a hall over a
    long corridor, one or two rooms below, one door per room, several for
    the corridor. Neighbours overlap by 2*wall_thickness so both wall bands
    tile the shared wall."""
    rng = np.random.default_rng(seed)
    spec = SyntheticSpec(width=300, height=200, resolution=0.05, wall_thickness=2)
    units = []
    doors = []

    n_top = 3 + int(rng.integers(2))
    if n_top == 3:
        # three rooms plus a hall filling the east end
        for _ in range(200):
            widths = [int(rng.integers(60, 85)) for _ in range(n_top)]
            hall_w = 280 - sum(w - 4 for w in widths)
            if 96 <= hall_w <= 150:
                break
        x = 10
        for w in widths:
            units.append(("room", (x, 10, x + w, 124)))
            x += w - 4
        units.append(("hall", (x, 10, x + hall_w, 124)))
    else:
        # four rooms tiling the top row exactly
        for _ in range(200):
            widths = [int(rng.integers(64, 81)) for _ in range(n_top - 1)]
            last = 280 - sum(w - 4 for w in widths)
            if 60 <= last <= 84:  # stay below the hall area threshold
                widths.append(last)
                break
        x = 10
        for w in widths:
            units.append(("room", (x, 10, x + w, 124)))
            x += w - 4

    corridor_idx = len(units)
    units.append(("corridor", (10, 120, 290, 152)))

    # bottom row tiles the full south side so the floor envelope stays
    # rectangular (reachable by axis cuts)
    n_bot = 3
    for _ in range(200):
        bw = [int(rng.integers(80, 109)) for _ in range(n_bot - 1)]
        last = 280 - sum(w - 4 for w in bw)
        if 72 <= last <= 120:  # keep the aspect ratio room-like
            bw.append(last)
            break
    x = 10
    for w in bw:
        units.append(("room", (x, 148, x + w, 190)))
        x += w - 4

    for i, (kind, _) in enumerate(units):
        if i == corridor_idx:
            continue
        frac = float(rng.uniform(0.3, 0.7))
        width = 14 if kind == "hall" else 12
        doors.append((i, corridor_idx, frac, width))

    spec.units = units
    spec.doors = doors
    # an object blob inside the first room
    ix0, iy0, ix1, iy1 = spec.interior(0)
    bx = int(rng.integers(ix0 + 4, ix1 - 16))
    by = int(rng.integers(iy0 + 4, iy1 - 16))
    spec.objects = [(0, (bx, by, bx + 12, by + 12))]
    if noise > 0:
        spec.flip_prob = {"occupied": noise, "unknown": noise, "free": noise}
    return spec


def floor_config(seed, iterations=60000):
    # a merge-leaning mixture: fragmented intermediate structures (columns of
    # rooms cut through the corridor) re-join reliably
    weights = {
        "shrink": 0.12,
        "dilate": 0.12,
        "interchange": 0.14,
        "split": 0.22,
        "merge": 0.18,
        "add": 0.08,
        "remove": 0.08,
        "allocate": 0.03,
        "delete": 0.03,
    }
    return RunConfig(
        seed=seed,
        iterations=iterations,
        burn_in=3000,
        hall_area_min_m2=FLOOR_HALL_AREA_MIN_M2,
        kernel_weights=weights,
        mln_refresh_structural=8,
        mln_refresh_geometric=150,
    )


@pytest.fixture
def two_rooms_grid():
    return build_two_rooms_map()
