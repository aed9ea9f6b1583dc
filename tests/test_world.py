import math
from dataclasses import astuple

import numpy as np
import pytest
from conftest import ref_rasterize, unit_local_coords, unit_masks
from hypothesis import given, settings
from hypothesis import strategies as st

from semmap.errors import NotAdjacent
from semmap.evaluation import topology_match
from semmap.grid import CellState, ClassifiedGrid, connected_components, dilate
from semmap.render import COLOR_SAMPLE, render_samples
from semmap.world import (
    Component,
    Door,
    GeometryClass,
    Unit,
    UnitType,
    World,
    WorldCell,
    _nearest_unit_uid,
    _ring_overlap,
    _unit_boxes,
    _unit_spans,
    abstract_graph,
    classify_geometry,
    connecting_wall_lengths,
    detect_doors,
    detect_objects,
    detect_relations,
    detect_unexplored,
    qcoord,
    rasterize,
    wall_length_difference,
    world_from_dict,
    world_to_dict,
)

RES = 0.05


def fig2_units():
    """Three units: 1-2 adjacent, 2-3 adjacent, 1-3 separated."""
    u1 = Unit(0, 20.0, 15.0, 12.0, 10.0)
    u2 = Unit(1, 45.0, 15.0, 12.0, 10.0)
    u3 = Unit(2, 60.0, 40.0, 12.0, 12.0)
    return [u1, u2, u3]


def uniform_grid(shape, state):
    return ClassifiedGrid(np.full(shape, state, dtype=np.int8))


# -- unit geometry -----------------------------------------------------------


def test_vertices_form_rectangle_with_equal_diagonals():
    u = Unit(0, 10.0, 8.0, 5.0, 3.0, angle=qcoord(math.pi / 2))
    v = u.vertices()
    d1 = math.dist(v[0], v[2])
    d2 = math.dist(v[1], v[3])
    assert abs(d1 - d2) < 1e-9


def test_unit_rejects_nonpositive_extents():
    with pytest.raises(ValueError):
        Unit(0, 0.0, 0.0, 0.0, 1.0)


def test_unit_rejects_rotated_angles():
    with pytest.raises(ValueError):
        Unit(0, 20, 20, 8, 6, 0.3)
    for angle in (0.7, math.pi / 4, qcoord(math.pi / 2) + 2**-10, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Unit(0, 20.0, 20.0, 8.0, 6.0, angle)
    # a quarter turn is stored as swapped extents, a half turn as none
    for angle in (0.0, -0.0, math.pi, qcoord(math.pi), -math.pi):
        assert astuple(Unit(0, 20.0, 20.0, 8.0, 6.0, angle)) == (0, 20.0, 20.0, 8.0, 6.0, 0.0)
    for angle in (math.pi / 2, qcoord(math.pi / 2), 3 * math.pi / 2, -math.pi / 2):
        assert astuple(Unit(0, 20.0, 20.0, 8.0, 6.0, angle)) == (0, 20.0, 20.0, 6.0, 8.0, 0.0)


def test_wall_lengths():
    u = Unit(0, 0.0, 0.0, 6.0, 4.0)
    for wall, expect in ((0, 8.0), (1, 8.0), (2, 12.0), (3, 12.0)):
        assert u.wall_length(wall) == expect


# -- geometry classifier -----------------------------------------------------


def test_geometry_small_area_small_ratio_is_room():
    u = Unit(0, 0, 0, 30.0, 25.0)  # 3.0 x 2.5 m
    assert classify_geometry(u, RES) == GeometryClass.ROOM_LIKE


def test_geometry_small_area_big_ratio_is_corridor():
    u = Unit(0, 0, 0, 120.0, 15.0)  # 12.0 x 1.5 m
    assert classify_geometry(u, RES) == GeometryClass.CORRIDOR_LIKE


def test_geometry_big_area_is_hall_regardless_of_ratio():
    u = Unit(0, 0, 0, 200.0, 35.0)  # 20 x 3.5 m = 70 m2, elongated
    assert classify_geometry(u, RES) == GeometryClass.HALL_LIKE
    u2 = Unit(0, 0, 0, 70.0, 70.0)  # 7 x 7 m = 49 m2
    assert classify_geometry(u2, RES) == GeometryClass.HALL_LIKE


def test_geometry_ratio_invariant_to_uniform_scaling_below_hall():
    u = Unit(0, 0, 0, 40.0, 10.0)
    small = classify_geometry(u, RES)
    bigger = classify_geometry(Unit(0, 0, 0, 60.0, 15.0), RES)
    assert small == bigger == GeometryClass.CORRIDOR_LIKE


# -- relations ---------------------------------------------------------------


def test_fig2_relation_matrix():
    rel = detect_relations(fig2_units(), (80, 100))
    expected = np.array(
        [[False, True, False], [True, False, True], [False, True, False]]
    )
    assert np.array_equal(rel, expected)


def test_single_unit_not_self_adjacent():
    rel = detect_relations([Unit(0, 10, 10, 5, 5)], (40, 40))
    assert rel.shape == (1, 1)
    assert not rel[0, 0]


def test_far_units_not_adjacent():
    radius = 3
    gap = 2 * radius + 2
    u1 = Unit(0, 10.0, 10.0, 5.0, 5.0)
    u2 = Unit(1, 10.0 + 5.0 + gap + 5.0, 10.0, 5.0, 5.0)
    rel = detect_relations([u1, u2], (40, 60), dilate_radius=radius)
    assert not rel[0, 1]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.floats(10, 70), st.floats(10, 50),
    st.floats(3, 12), st.floats(3, 12)), min_size=1, max_size=5))
def test_relations_symmetric_false_diagonal(layout):
    units = [Unit(i, cx, cy, hu, hv) for i, (cx, cy, hu, hv) in enumerate(layout)]
    rel = detect_relations(units, (70, 90))
    assert np.array_equal(rel, rel.T)
    assert not rel.diagonal().any()


def test_relations_count_ring_cells_on_the_whole_frame():
    # a four-cell gap: the dilated rings meet in two columns of 26 cells
    a, b = Unit(0, 20.0, 25.0, 10.0, 10.0), Unit(1, 44.0, 25.0, 10.0, 10.0)
    assert detect_relations([a, b], (60, 90), dilate_radius=3)[0, 1]
    assert wall_length_difference(a, b, (60, 90), dilate_radius=3, min_overlap_cells=52) == (20.0, 20.0, 0.0)
    assert wall_length_difference(a, b, (60, 90), dilate_radius=3, min_overlap_cells=53) is None


def _ref_rings(unit, shape, radius):
    """The full-frame masks of a unit's dilated boundary ring and of its
    dilated wall strips in wall order +u, -u, +v, -v of its local axes,
    which for a Unit are +x, -x, +y, -y."""
    du, dv = unit_local_coords(unit, shape)
    inside, band = unit_masks(unit, shape, 1.0)
    walls = (
        inside & (du > unit.hu - 1.0),
        inside & (du < -(unit.hu - 1.0)),
        inside & (dv > unit.hv - 1.0),
        inside & (dv < -(unit.hv - 1.0)),
    )
    ring = dilate(band, radius)
    return ring, [dilate(wall, radius) for wall in walls]


def _ref_doors(a, b, overlap, grid, min_width, max_width, carve_halfwidth, occupied_frac=0.2, free_frac=0.25):
    """Doors of one related pair by a per-position scan of its full-frame
    ring overlap."""
    ys, xs = np.nonzero(overlap)
    if not xs.size:
        return []
    horizontal = (xs.max() - xs.min()) >= (ys.max() - ys.min())
    axis_vals, across = (xs, ys) if horizontal else (ys, xs)
    lo, hi = int(axis_vals.min()), int(axis_vals.max())
    open_at = np.zeros(hi - lo + 1, dtype=bool)
    center = np.zeros(hi - lo + 1)
    for pos in range(lo, hi + 1):
        sel = axis_vals == pos
        if not sel.any():
            continue
        cells = across[sel]
        col = grid.states[cells, pos] if horizontal else grid.states[pos, cells]
        n_occ = int(np.count_nonzero(col == CellState.OCCUPIED))
        n_free = int(np.count_nonzero(col == CellState.FREE))
        open_at[pos - lo] = n_occ <= occupied_frac * col.size and n_free >= free_frac * col.size
        center[pos - lo] = cells.mean() + 0.5
    doors, start = [], None
    for i, flag in enumerate(list(open_at) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            width = float(i - start)
            if min_width <= width <= max_width:
                mid = float(center[start:i].mean())
                ends = (lo + start, lo + i)
                p0, p1 = ((ends[0], mid), (ends[1], mid)) if horizontal else ((mid, ends[0]), (mid, ends[1]))
                doors.append(Door(a.uid, b.uid, p0, p1, width, carve_halfwidth))
            start = None
    return doors


def _random_axis_aligned_unit(rng, uid, near, shape):
    """Half-integer-grid unit drawn axis-aligned or turned by pi/2, some
    thinner than a cell or reaching past the frame; near another unit when
    given. Returns the unit and the drawn angle."""
    h, w = shape
    if near is None:
        cx, cy = float(rng.integers(-16, 4 * w + 16)) / 4.0, float(rng.integers(-16, 4 * h + 16)) / 4.0
    else:
        cx = near.cx + float(rng.integers(-100, 101)) / 4.0
        cy = near.cy + float(rng.integers(-100, 101)) / 4.0
    hu, hv = (float(rng.integers(1, 61)) / 4.0 for _ in range(2))
    if rng.random() < 0.15:
        hu = float(rng.integers(1, 6)) / 4.0
    angle = qcoord(math.pi / 2) if rng.random() < 0.3 else 0.0
    return Unit(uid, cx, cy, hu, hv, angle), angle


def test_pair_geometry_equals_full_frame_masks_on_random_pairs():
    rng = np.random.default_rng(23)
    shape = (40, 56)
    h, w = shape
    states = np.full(shape, CellState.FREE, dtype=np.int8)
    noise = rng.random(shape)
    states[noise < 0.25] = CellState.OCCUPIED
    states[noise > 0.9] = CellState.UNKNOWN
    grid = ClassifiedGrid(states)
    seen = {"overlap": 0, "related": 0, "doors": 0, "turned": 0, "thin": 0, "edge": 0, "radius0": 0}
    for i in range(2000):
        radius = int(rng.integers(0, 4))
        a, angle_a = _random_axis_aligned_unit(rng, 0, None, shape)
        b, angle_b = _random_axis_aligned_unit(rng, 1, a, shape)
        ring_a, walls_a = _ref_rings(a, shape, radius)
        ring_b, walls_b = _ref_rings(b, shape, radius)
        overlap = ring_a & ring_b
        cells = int(overlap.sum())
        counts = tuple(int((wall & overlap).sum()) for wall in walls_a + walls_b)
        assert _ring_overlap(a, b, w, h, radius)[:3] == (cells, counts[:4], counts[4:]), (a, b, radius)

        rel = detect_relations([a, b], shape, dilate_radius=radius)
        assert rel[0, 1] == rel[1, 0] == (cells >= 4)
        want = None
        if cells:
            len_a = a.wall_length(int(np.argmax(counts[:4])))
            len_b = b.wall_length(int(np.argmax(counts[4:])))
            want = (len_a, len_b, abs(len_a - len_b))
        assert wall_length_difference(a, b, shape, dilate_radius=radius) == want

        doors = detect_doors([a, b], rel, grid, 2, 12, dilate_radius=radius)
        want_doors = _ref_doors(a, b, overlap, grid, 2, 12, 3.0) if rel[0, 1] else []
        assert doors == want_doors
        for d in doors:
            assert all(type(v) in (int, float) for v in d.p0 + d.p1)

        seen["overlap"] += cells > 0
        seen["related"] += bool(rel[0, 1])
        seen["doors"] += len(doors)
        seen["turned"] += cells > 0 and (angle_a != 0.0 or angle_b != 0.0)
        seen["thin"] += cells > 0 and min(a.hu, a.hv, b.hu, b.hv) < 1.0
        seen["edge"] += cells > 0 and any(
            u.cx - u.long < 0 or u.cy - u.long < 0 or u.cx + u.long > w or u.cy + u.long > h for u in (a, b)
        )
        seen["radius0"] += cells > 0 and radius == 0
    assert seen["overlap"] >= 600 and all(count > 0 for count in seen.values()), seen


# -- rasterize ---------------------------------------------------------------


def test_rasterize_cell_classes():
    grid = uniform_grid((40, 40), CellState.FREE)
    states = np.array(grid.states)
    states[20, 20] = CellState.UNKNOWN  # interior unknown -> object
    grid = ClassifiedGrid(states)
    unit = Unit(0, 20.0, 20.0, 10.0, 10.0)
    smap = rasterize([unit], grid, wall_thickness=2.0)
    assert smap.states[2, 2] == WorldCell.UNKNOWN_OUT  # outside all units
    assert smap.states[20, 11] == WorldCell.WALL  # on the edge band
    assert smap.states[20, 20] == WorldCell.OBJECT  # interior unknown
    assert smap.states[20, 16] == WorldCell.FREE_IN
    assert smap.membership[20, 20] == 1
    assert smap.owner[20, 20] == 0
    assert smap.owner[2, 2] == -1


def test_rasterize_partitions_cells_and_membership_zero_outside():
    grid = uniform_grid((30, 30), CellState.FREE)
    units = [Unit(0, 10.0, 10.0, 6.0, 6.0), Unit(1, 14.0, 10.0, 6.0, 6.0)]
    smap = rasterize(units, grid)
    outside = smap.membership == 0
    assert (smap.states[outside] == WorldCell.UNKNOWN_OUT).all()
    assert (smap.states[~outside] != WorldCell.UNKNOWN_OUT).all()
    overlap = smap.membership == 2
    assert overlap.any()


@pytest.mark.parametrize("thickness", [1.0, 2.0, 2.5])
def test_rasterize_half_pi_unit_equals_axis_aligned_with_swapped_extents(thickness):
    rng = np.random.default_rng(11)
    grid = ClassifiedGrid(rng.integers(0, 3, size=(40, 50)).astype(np.int8))
    # cell centers lie exactly on the footprint and band edges
    turned = Unit(0, 25.0, 20.0, 10.5, 16.5, angle=qcoord(math.pi / 2))
    plain = Unit(0, 25.0, 20.0, 16.5, 10.5)
    assert _unit_spans(turned, thickness) == _unit_spans(plain, thickness)
    got = rasterize([turned], grid, wall_thickness=thickness)
    want = rasterize([plain], grid, wall_thickness=thickness)
    for a, b in ((got.states, want.states), (got.membership, want.membership), (got.owner, want.owner)):
        assert np.array_equal(a, b)


def _random_quarter_turn_unit(rng, uid, shape, near=None):
    """A unit on the quarter-cell grid drawn at angle 0, pi/2 or pi with
    half extents from 0.25 cells, its center up to 5 cells past the frame
    edge or, when given, within 10 cells of another unit's. Returns the
    unit and the drawn angle."""
    h, w = shape
    if near is None:
        cx, cy = float(rng.integers(-20, 4 * w + 21)) / 4.0, float(rng.integers(-20, 4 * h + 21)) / 4.0
    else:
        cx = near.cx + float(rng.integers(-40, 41)) / 4.0
        cy = near.cy + float(rng.integers(-40, 41)) / 4.0
    hu, hv = (float(rng.integers(1, 64)) / 4.0 for _ in range(2))
    angle = float(rng.choice([0.0, math.pi / 2, math.pi]))
    return Unit(uid, cx, cy, hu, hv, angle), angle


def test_box_path_equals_mask_rule_on_random_axis_aligned_worlds(tmp_path):
    rng = np.random.default_rng(31)
    shape = (36, 48)
    h, w = shape
    grid = ClassifiedGrid(rng.integers(0, 3, size=shape).astype(np.int8))
    seen = {"turned": 0, "thin": 0, "open_center": 0, "edge": 0, "overlap": 0, "matched": 0}
    for i in range(150):
        uids = rng.choice(30, size=int(rng.integers(1, 6)), replace=False)
        drawn = [_random_quarter_turn_unit(rng, int(uid), shape) for uid in uids]
        units = tuple(u for u, _ in drawn)
        thickness = (1.0, 2.0, 2.5)[i % 3]
        got = rasterize(units, grid, thickness, object_from_occupied=i % 2 == 0)
        want = ref_rasterize(units, grid.states, thickness, object_from_occupied=i % 2 == 0)
        for g, r in zip((got.states, got.membership, got.owner), want):
            assert np.array_equal(g, r), (units, thickness)

        # render_samples outlines each sample's units by their bands at thickness 1
        samples = [units[: k + 1] for k in range(len(units))]
        outlines = [np.logical_or.reduce([unit_masks(u, shape, 1.0)[1] for u in sample]) for sample in samples]
        union = np.logical_or.reduce(outlines)
        stats = render_samples(grid, samples, tmp_path / "samples.ppm")
        assert stats["union_outline_cells"] == int(union.sum())
        assert stats["mean_outline_cells"] == float(np.mean([int(o.sum()) for o in outlines]))
        pixels = np.frombuffer((tmp_path / "samples.ppm").read_bytes()[-h * w * 3 :], dtype=np.uint8)
        assert np.array_equal((pixels.reshape(h, w, 3) == COLOR_SAMPLE).all(axis=2), union)

        # topology_match pairs two single units exactly when their IoU reaches the threshold
        for a in units:
            b = _random_quarter_turn_unit(rng, 0, shape, near=a)[0]
            ma, mb = unit_masks(a, shape, 1.0)[0], unit_masks(b, shape, 1.0)[0]
            pred, truth = World(units=(a,), types=(UnitType.ROOM,)), World(units=(b,), types=(UnitType.ROOM,))
            inter = int(np.count_nonzero(ma & mb))
            if not inter:
                assert topology_match(pred, truth, shape, 0.0)["matched_units"] == 0
                continue
            iou = inter / int(np.count_nonzero(ma | mb))
            assert topology_match(pred, truth, shape, iou)["matched_units"] == 1
            assert topology_match(pred, truth, shape, float(np.nextafter(iou, 2.0)))["matched_units"] == 0
            seen["matched"] += 1

        seen["turned"] += sum(angle != 0.0 for _, angle in drawn)
        seen["thin"] += sum(u.short < thickness for u in units)
        seen["open_center"] += sum(thickness in (u.hu, u.hv) for u in units)
        seen["edge"] += sum(
            min(u.cx, u.cy) - u.long < 0 or u.cx + u.long > w or u.cy + u.long > h for u in units
        )
        seen["overlap"] += int(np.count_nonzero(want[1] >= 2))
    assert all(count > 0 for count in seen.values()), seen


def test_rasterize_door_carves_wall():
    grid = uniform_grid((30, 30), CellState.FREE)
    unit = Unit(0, 15.0, 15.0, 10.0, 10.0)
    door = Door(0, 1, (13.0, 5.0), (17.0, 5.0), 4.0, carve_halfwidth=3.0)
    smap = rasterize([unit], grid, doors=[door])
    assert smap.states[6, 15] == WorldCell.FREE_IN  # carved opening
    assert smap.states[6, 9] == WorldCell.WALL  # rest of that wall intact


def test_rasterize_object_from_occupied_configurable():
    grid_states = np.full((30, 30), CellState.FREE, dtype=np.int8)
    grid_states[15, 15] = CellState.OCCUPIED
    grid = ClassifiedGrid(grid_states)
    unit = Unit(0, 15.0, 15.0, 10.0, 10.0)
    on = rasterize([unit], grid, object_from_occupied=True)
    off = rasterize([unit], grid, object_from_occupied=False)
    assert on.states[15, 15] == WorldCell.OBJECT
    assert off.states[15, 15] == WorldCell.FREE_IN


# -- connecting walls ----------------------------------------------------------


def test_connecting_walls_equal_rooms():
    u1 = Unit(0, 20.0, 20.0, 10.0, 10.0)
    u2 = Unit(1, 40.0, 20.0, 10.0, 10.0)
    rel = detect_relations([u1, u2], (60, 60))
    world = World(units=(u1, u2), types=(UnitType.ROOM,) * 2, relations=rel)
    la, lb, d = connecting_wall_lengths(world, 0, 1, (60, 60))
    assert (la, lb, d) == (20.0, 20.0, 0.0)


def test_connecting_walls_length_difference():
    u1 = Unit(0, 20.0, 20.0, 10.0, 10.0)  # east wall length 20
    u2 = Unit(1, 40.0, 20.0, 10.0, 13.0)  # west wall length 26
    rel = detect_relations([u1, u2], (70, 70))
    world = World(units=(u1, u2), types=(UnitType.ROOM,) * 2, relations=rel)
    la, lb, d = connecting_wall_lengths(world, 0, 1, (70, 70))
    assert (la, lb) == (20.0, 26.0)
    assert d == 6.0


def test_connecting_walls_requires_adjacency():
    u1 = Unit(0, 10.0, 10.0, 5.0, 5.0)
    u2 = Unit(1, 40.0, 40.0, 5.0, 5.0)
    rel = detect_relations([u1, u2], (60, 60))
    world = World(units=(u1, u2), types=(UnitType.ROOM,) * 2, relations=rel)
    with pytest.raises(NotAdjacent):
        connecting_wall_lengths(world, 0, 1, (60, 60))


# -- doors ---------------------------------------------------------------------


def door_band_grid(free_run=None):
    """Two rooms side by side, vertical shared wall at cols [28, 32)."""
    states = np.full((60, 60), CellState.UNKNOWN, dtype=np.int8)
    states[10:50, 12:28] = CellState.FREE
    states[10:50, 32:48] = CellState.FREE
    states[8:52, 28:32] = CellState.OCCUPIED
    if free_run is not None:
        y0, y1 = free_run
        states[y0:y1, 28:32] = CellState.FREE
    return ClassifiedGrid(states)


def door_units():
    a = Unit(0, 21.0, 30.0, 11.0, 22.0)  # cols [10, 32)
    b = Unit(1, 39.0, 30.0, 11.0, 22.0)  # cols [28, 50)
    return [a, b]


def test_no_door_on_solid_wall():
    grid = door_band_grid(free_run=None)
    units = door_units()
    rel = detect_relations(units, grid.states.shape)
    assert rel[0, 1]
    doors = detect_doors(units, rel, grid, min_width=3, max_width=10)
    assert doors == []


def test_single_door_detected_with_width():
    grid = door_band_grid(free_run=(26, 30))  # 4-cell opening
    units = door_units()
    rel = detect_relations(units, grid.states.shape)
    doors = detect_doors(units, rel, grid, min_width=3, max_width=10)
    assert len(doors) == 1
    assert doors[0].width == 4.0
    assert {doors[0].unit_p, doors[0].unit_q} == {0, 1}


def test_door_runs_outside_bounds_rejected():
    grid = door_band_grid(free_run=(20, 40))  # 20-cell opening
    units = door_units()
    rel = detect_relations(units, grid.states.shape)
    assert detect_doors(units, rel, grid, min_width=3, max_width=10) == []


def test_no_door_between_non_adjacent_pairs():
    grid = door_band_grid(free_run=(26, 30))
    units = door_units()
    rel = np.zeros((2, 2), dtype=bool)  # declared not adjacent
    assert detect_doors(units, rel, grid, min_width=3, max_width=10) == []


# -- objects / unexplored --------------------------------------------------------


def test_detect_objects_all_free_interior():
    grid = uniform_grid((40, 40), CellState.FREE)
    unit = Unit(0, 20.0, 20.0, 12.0, 12.0)
    smap = rasterize([unit], grid)
    comps, cleaned = detect_objects(smap)
    assert comps == []


def test_detect_objects_blob_and_noise_filtering():
    states = np.full((40, 40), CellState.FREE, dtype=np.int8)
    states[15:20, 15:20] = CellState.UNKNOWN  # 5x5 blob -> object
    states[25, 25] = CellState.UNKNOWN  # lone speck -> filtered
    grid = ClassifiedGrid(states)
    unit = Unit(0, 20.0, 20.0, 14.0, 14.0)
    smap = rasterize([unit], grid)
    comps, cleaned = detect_objects(smap, min_object_cells=4)
    assert len(comps) == 1
    assert comps[0].cells == 25
    assert comps[0].unit_uid == 0
    assert cleaned.states[25, 25] == WorldCell.FREE_IN


def test_detect_objects_two_blobs():
    states = np.full((40, 40), CellState.FREE, dtype=np.int8)
    states[12:16, 12:16] = CellState.UNKNOWN
    states[24:28, 24:28] = CellState.UNKNOWN
    grid = ClassifiedGrid(states)
    unit = Unit(0, 20.0, 20.0, 14.0, 14.0)
    smap = rasterize([unit], grid)
    comps, _ = detect_objects(smap)
    assert len(comps) == 2


def test_detect_unexplored_pocket():
    states = np.full((30, 30), CellState.UNKNOWN, dtype=np.int8)
    # enclosed 3x3 free pocket ringed by occupied, far from the unit
    states[20:25, 20:25] = CellState.OCCUPIED
    states[21:24, 21:24] = CellState.FREE
    grid = ClassifiedGrid(states)
    unit = Unit(0, 8.0, 8.0, 5.0, 5.0)
    smap = rasterize([unit], grid)
    comps = detect_unexplored(grid, smap, max_cells=100, units=[unit])
    assert len(comps) == 1
    assert comps[0].cells == 9
    assert comps[0].unit_uid == 0


def test_detect_unexplored_respects_max_cells():
    states = np.full((30, 30), CellState.UNKNOWN, dtype=np.int8)
    states[18:28, 18:28] = CellState.OCCUPIED
    states[19:27, 19:27] = CellState.FREE  # 64 cells
    grid = ClassifiedGrid(states)
    smap = rasterize([], grid)
    assert detect_unexplored(grid, smap, max_cells=10) == []
    assert len(detect_unexplored(grid, smap, max_cells=100)) == 1


def test_detect_unexplored_fully_tiled_map_empty():
    grid = uniform_grid((20, 20), CellState.FREE)
    unit = Unit(0, 10.0, 10.0, 11.0, 11.0)
    smap = rasterize([unit], grid)
    assert detect_unexplored(grid, smap, max_cells=50, units=[unit]) == []


def _ref_detect_objects(state_map, min_object_cells):
    """One full-frame mask per label."""
    labmap = connected_components(state_map.states == WorldCell.OBJECT, connectivity=4)
    cleaned = state_map.states.copy()
    comps = []
    for lab in range(1, labmap.count + 1):
        size = labmap.sizes[lab - 1]
        sel = labmap.labels == lab
        if size < min_object_cells:
            cleaned[sel] = WorldCell.FREE_IN
            continue
        ys, xs = np.nonzero(sel)
        comps.append(
            Component(
                len(comps) + 1,
                int(state_map.owner[ys[0], xs[0]]),
                size,
                labmap.bboxes[lab - 1],
                (float(xs.mean() + 0.5), float(ys.mean() + 0.5)),
            )
        )
    return comps, cleaned


def _ref_detect_unexplored(input_grid, state_map, max_cells, units):
    """One full-frame mask and dilation per label."""
    outside = state_map.membership == 0
    cand = outside & (input_grid.states != CellState.OCCUPIED)
    labmap = connected_components(cand, connectivity=4)
    bounding = (input_grid.states == CellState.OCCUPIED) | ~outside
    h, w = cand.shape
    comps = []
    for lab in range(1, labmap.count + 1):
        if labmap.sizes[lab - 1] > max_cells:
            continue
        sel = labmap.labels == lab
        halo = dilate(sel, 1) & ~sel
        ys, xs = np.nonzero(sel)
        if ys.min() == 0 or xs.min() == 0 or ys.max() == h - 1 or xs.max() == w - 1:
            continue
        if not bounding[halo].all():
            continue
        centroid = (float(xs.mean() + 0.5), float(ys.mean() + 0.5))
        comps.append(
            Component(
                len(comps) + 1,
                _nearest_unit_uid(units, centroid),
                labmap.sizes[lab - 1],
                labmap.bboxes[lab - 1],
                centroid,
            )
        )
    return comps


def test_detectors_bit_exact_vs_per_label_loop_on_speckle():
    found = {"objects": 0, "cleaned": 0, "unexplored": 0}
    for seed in range(8):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(30, 90)), int(rng.integers(30, 90)))
        p_occ, p_unk = rng.uniform(0.2, 0.5), rng.uniform(0.05, 0.3)
        states = rng.choice(3, size=shape, p=[p_occ, p_unk, 1.0 - p_occ - p_unk])
        grid = ClassifiedGrid(states.astype(np.int8))
        units = [
            Unit(uid, float(rng.integers(8, shape[1] - 8)), float(rng.integers(8, shape[0] - 8)),
                 float(rng.integers(3, 12)), float(rng.integers(3, 12)))
            for uid in range(int(rng.integers(0, 4)))
        ]
        for object_from_occupied in (True, False):
            smap = rasterize(units, grid, object_from_occupied=object_from_occupied)
            for min_cells in (1, 4, 9):
                comps, cleaned = detect_objects(smap, min_object_cells=min_cells)
                want, want_states = _ref_detect_objects(smap, min_cells)
                assert comps == want
                assert np.array_equal(cleaned.states, want_states)
                found["objects"] += len(comps)
                found["cleaned"] += int(np.count_nonzero(cleaned.states != smap.states))
            for max_cells in (3, 20, 400):
                got = detect_unexplored(grid, smap, max_cells, units)
                assert got == _ref_detect_unexplored(grid, smap, max_cells, units)
                found["unexplored"] += len(got)
    assert all(count > 0 for count in found.values()), found


# -- abstract graph ----------------------------------------------------------------


def make_world_with_door():
    u1 = Unit(0, 20.0, 20.0, 10.0, 10.0)
    u2 = Unit(1, 40.0, 20.0, 10.0, 10.0)
    rel = detect_relations([u1, u2], (60, 60))
    door = Door(0, 1, (30.0, 15.0), (30.0, 19.0), 4.0)
    return World(
        units=(u1, u2),
        types=(UnitType.ROOM, UnitType.ROOM),
        relations=rel,
        doors=(door,),
    )


def test_graph_two_units_one_door_edge():
    g = abstract_graph(make_world_with_door())
    assert len(g.nodes) == 2
    unit_edges = [e for e in g.edges if e.kind in ("door", "adjacent")]
    assert len(unit_edges) == 1
    assert unit_edges[0].kind == "door"


def test_graph_fig2_is_path():
    units = fig2_units()
    rel = detect_relations(units, (80, 100))
    world = World(units=tuple(units), types=(UnitType.ROOM,) * 3, relations=rel)
    g = abstract_graph(world)
    pairs = {(e.a, e.b) for e in g.edges}
    assert pairs == {("u0", "u1"), ("u1", "u2")}


def test_graph_node_count_includes_objects_and_unexplored():
    world = make_world_with_door()
    from semmap.world import Component

    obj = Component(1, 0, 12, (1, 1, 3, 3), (2.0, 2.0))
    unex = Component(1, 1, 5, (5, 5, 7, 7), (6.0, 6.0))
    world = World(
        units=world.units,
        types=world.types,
        relations=world.relations,
        doors=world.doors,
        objects=(obj,),
        unexplored=(unex,),
    )
    g = abstract_graph(world)
    assert len(g.nodes) == len(world.units) + 1 + 1
    contains = [e for e in g.edges if e.kind == "contains"]
    assert {(e.a, e.b) for e in contains} == {("u0", "o1"), ("u1", "n1")}


def test_every_door_pair_is_adjacent():
    world = make_world_with_door()
    for d in world.doors:
        p = world.unit_index(d.unit_p)
        q = world.unit_index(d.unit_q)
        assert world.relations[p, q]


# -- serialization ----------------------------------------------------------------


def test_world_json_roundtrip():
    world = make_world_with_door()
    doc = world_to_dict(world)
    back = world_from_dict(doc)
    assert back.units == world.units
    assert back.types == world.types
    assert np.array_equal(back.relations, world.relations)
    assert [d.width for d in back.doors] == [d.width for d in world.doors]


def test_footprint_box_counts_cells():
    u = Unit(0, 5.0, 5.0, 2.0, 3.0)
    x0, x1, y0, y1 = _unit_boxes(u, 1.0, 12, 12)[0]
    assert (x1 - x0) * (y1 - y0) == 4 * 6 == int(unit_masks(u, (12, 12), 1.0)[0].sum())
