import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import ref_rasterize

from semmap.errors import MissingWalls
from semmap.grid import CellState, ClassifiedGrid
from semmap.scoring import (
    DEFAULT_CORRIDOR_TABLE,
    DEFAULT_NONCORRIDOR_TABLE,
    LikelihoodConfig,
    LikelihoodField,
    PriorConfig,
    Score,
    SensorModelTable,
    log_likelihood,
    log_posterior,
    log_prior,
)
from semmap.world import (
    Door,
    Unit,
    UnitType,
    World,
    WorldCell,
    _carve_box,
    _segment_mask,
    detect_relations,
    qcoord,
    rasterize,
)


def uniform_grid(shape, state):
    return ClassifiedGrid(np.full(shape, state, dtype=np.int8))


def two_room_world(hv_b=10.0, types=(UnitType.ROOM, UnitType.ROOM), shape=(60, 70)):
    a = Unit(0, 20.0, 20.0, 10.0, 10.0)
    b = Unit(1, 40.0, 20.0, 10.0, hv_b)
    rel = detect_relations([a, b], shape)
    return World(units=(a, b), types=types, relations=rel)


# -- sensor tables -------------------------------------------------------------


def test_default_tables_columns_sum_to_one():
    t = SensorModelTable()
    assert np.allclose(t.noncorridor.sum(axis=0), 1.0)
    assert np.allclose(t.corridor.sum(axis=0), 1.0)
    assert np.allclose(t.noncorridor, DEFAULT_NONCORRIDOR_TABLE)
    assert np.allclose(t.corridor, DEFAULT_CORRIDOR_TABLE)


def test_tables_renormalize_on_load():
    scaled = [[v * 2 for v in row] for row in DEFAULT_NONCORRIDOR_TABLE]
    t = SensorModelTable(noncorridor=scaled)
    assert np.allclose(t.noncorridor.sum(axis=0), 1.0)


def test_tables_reject_nonpositive_entries():
    bad = [list(r) for r in DEFAULT_NONCORRIDOR_TABLE]
    bad[0][0] = 0.0
    with pytest.raises(ValueError):
        SensorModelTable(noncorridor=bad)


def test_tables_reject_bad_shape():
    with pytest.raises(ValueError):
        SensorModelTable(noncorridor=[[0.5, 0.5], [0.5, 0.5]])


def test_config_validation():
    with pytest.raises(ValueError):
        PriorConfig(sigma_len=0.0)
    with pytest.raises(ValueError):
        PriorConfig(sale_threshold=1.0)
    with pytest.raises(ValueError):
        LikelihoodConfig(psi=1.0)


# -- prior ---------------------------------------------------------------------


def test_prior_equal_walls_contribute_zero():
    world = two_room_world(hv_b=10.0)
    sale = {(0, 1): 1.0}
    lp = log_prior(world, sale, PriorConfig(), (60, 70))
    assert lp == 0.0


def test_prior_below_threshold_contributes_zero():
    world = two_room_world(hv_b=13.0)  # d = 6
    sale = {(0, 1): 0.4}
    assert log_prior(world, sale, PriorConfig(sale_threshold=0.5), (60, 70)) == 0.0


def test_prior_gaussian_at_one_sigma():
    world = two_room_world(hv_b=11.5)  # walls 20 vs 23 -> d = 3 = sigma
    sale = {(0, 1): 1.0}
    lp = log_prior(world, sale, PriorConfig(sigma_len=3.0), (60, 70))
    assert lp == pytest.approx(-0.5)


def test_prior_d6_sigma3_is_twp():
    world = two_room_world(hv_b=13.0)  # d = 6
    sale = {(0, 1): 1.0}
    lp = log_prior(world, sale, PriorConfig(sigma_len=3.0), (60, 70))
    assert lp == pytest.approx(-2.0)


def test_prior_never_positive_and_monotone_in_d():
    sale = {(0, 1): 1.0}
    prev = 0.0
    for hv_b in (10.0, 11.0, 12.0, 13.0, 15.0):
        lp = log_prior(two_room_world(hv_b=hv_b), sale, PriorConfig(), (60, 70))
        assert lp <= 0.0
        assert lp <= prev + 1e-12
        prev = lp


def test_prior_missing_walls_raises_strict():
    a = Unit(0, 10.0, 10.0, 5.0, 5.0)
    b = Unit(1, 50.0, 50.0, 5.0, 5.0)
    world = World(units=(a, b), types=(UnitType.ROOM,) * 2)
    with pytest.raises(MissingWalls):
        log_prior(world, {(0, 1): 1.0}, PriorConfig(), (70, 70), strict=True)
    assert log_prior(world, {(0, 1): 1.0}, PriorConfig(), (70, 70), strict=False) == 0.0


# -- likelihood -------------------------------------------------------------------


def test_likelihood_no_overlap_no_penalty_vs_analytic():
    grid = uniform_grid((30, 30), CellState.UNKNOWN)
    unit = Unit(0, 15.0, 15.0, 8.0, 8.0)
    world = World(units=(unit,), types=(UnitType.ROOM,))
    states = rasterize([unit], grid)
    tables = SensorModelTable()
    got = log_likelihood(grid, world, states, tables, LikelihoodConfig())
    # direct recomputation: count cells per (class=unknown, state)
    n_wall = int((states.states == 0).sum())
    n_obj = int((states.states == 1).sum())
    n_out = int((states.states == 3).sum())
    expect = (
        n_wall * math.log(0.15) + n_obj * math.log(0.60) + n_out * math.log(0.80)
    )
    assert got == pytest.approx(expect, rel=1e-12)


def test_likelihood_overlap_penalty_psi_power():
    grid = uniform_grid((40, 40), CellState.FREE)
    a = Unit(0, 20.0, 20.0, 10.0, 10.0)
    world1 = World(units=(a,), types=(UnitType.ROOM,))
    # duplicate unit triples membership on the same footprint
    b = Unit(1, 20.0, 20.0, 10.0, 10.0)
    c = Unit(2, 20.0, 20.0, 10.0, 10.0)
    world3 = World(units=(a, b, c), types=(UnitType.ROOM,) * 3)
    tables = SensorModelTable()
    cfg = LikelihoodConfig(psi=0.5)
    s1 = rasterize([a], grid)
    s3 = rasterize([a, b, c], grid)
    l1 = log_likelihood(grid, world1, s1, tables, cfg)
    l3 = log_likelihood(grid, world3, s3, tables, cfg)
    # identical states/owners; only gamma changes: every covered cell gains 2
    covered = int((s1.membership > 0).sum())
    assert l3 - l1 == pytest.approx(covered * 2 * math.log(0.5), rel=1e-9)


def test_likelihood_type_invariance_with_equal_tables():
    states_arr = np.full((30, 30), CellState.FREE, dtype=np.int8)
    states_arr[14:17, 14:17] = CellState.UNKNOWN
    grid = ClassifiedGrid(states_arr)
    unit = Unit(0, 15.0, 15.0, 9.0, 9.0)
    tables = SensorModelTable(
        noncorridor=DEFAULT_NONCORRIDOR_TABLE, corridor=DEFAULT_NONCORRIDOR_TABLE
    )
    smap = rasterize([unit], grid)
    cfg = LikelihoodConfig()
    room = log_likelihood(grid, World(units=(unit,), types=(UnitType.ROOM,)), smap, tables, cfg)
    corr = log_likelihood(grid, World(units=(unit,), types=(UnitType.CORRIDOR,)), smap, tables, cfg)
    assert room == corr


def test_likelihood_room_explains_object_blob_better_than_corridor():
    states_arr = np.full((40, 40), CellState.FREE, dtype=np.int8)
    states_arr[16:24, 16:24] = CellState.UNKNOWN  # interior blob
    grid = ClassifiedGrid(states_arr)
    unit = Unit(0, 20.0, 20.0, 12.0, 12.0)
    tables = SensorModelTable()
    smap = rasterize([unit], grid)
    cfg = LikelihoodConfig()
    room = log_likelihood(grid, World(units=(unit,), types=(UnitType.ROOM,)), smap, tables, cfg)
    corr = log_likelihood(grid, World(units=(unit,), types=(UnitType.CORRIDOR,)), smap, tables, cfg)
    assert room > corr


def test_likelihood_owner_tie_lowest_uid_selects_table():
    grid = uniform_grid((30, 40), CellState.UNKNOWN)
    a = Unit(0, 15.0, 15.0, 8.0, 8.0)
    b = Unit(1, 21.0, 15.0, 8.0, 8.0)  # overlaps a
    smap = rasterize([a, b], grid)
    overlap = smap.membership == 2
    assert overlap.any()
    assert (smap.owner[overlap] == 0).all()


# -- posterior ---------------------------------------------------------------------


def test_posterior_is_sum_and_uniform_prior_regime():
    grid = uniform_grid((60, 70), CellState.UNKNOWN)
    world = two_room_world()
    score = log_posterior(
        grid, world, sale={}, tables=SensorModelTable(),
        prior_cfg=PriorConfig(), lik_cfg=LikelihoodConfig(),
    )
    assert isinstance(score, Score)
    assert score.log_prior == 0.0
    assert score.log_posterior == score.log_prior + score.log_likelihood


def test_posterior_d0_beats_d6_by_two_log_units():
    grid = uniform_grid((60, 70), CellState.UNKNOWN)
    tables = SensorModelTable()
    sale = {(0, 1): 1.0}
    aligned = two_room_world(hv_b=10.0)
    defect = two_room_world(hv_b=13.0)
    s_aligned = log_posterior(grid, aligned, sale, tables, PriorConfig(sigma_len=3.0), LikelihoodConfig())
    s_defect = log_posterior(grid, defect, sale, tables, PriorConfig(sigma_len=3.0), LikelihoodConfig())
    assert s_aligned.log_prior - s_defect.log_prior == pytest.approx(2.0)


def test_posterior_knowledge_inactive_prior_zero():
    grid = uniform_grid((60, 70), CellState.UNKNOWN)
    world = two_room_world(hv_b=13.0)
    score = log_posterior(
        grid, world, sale={(0, 1): 1.0}, tables=SensorModelTable(),
        prior_cfg=PriorConfig(), lik_cfg=LikelihoodConfig(), knowledge_active=False,
    )
    assert score.log_prior == 0.0


# -- rectangle-algebra field ----------------------------------------------------


def test_field_score_matches_full_rescore():
    rng = np.random.default_rng(4)
    grid = ClassifiedGrid(rng.integers(0, 3, size=(50, 60)).astype(np.int8))
    world = two_room_world(shape=(50, 60))
    field = LikelihoodField(grid, SensorModelTable(), LikelihoodConfig())
    assert field.score(world) == pytest.approx(field.full_rescore(world), abs=1e-9)


def test_field_score_tracks_full_rescore_over_moves():
    rng = np.random.default_rng(5)
    grid = ClassifiedGrid(rng.integers(0, 3, size=(50, 60)).astype(np.int8))
    a = Unit(0, 20.0, 20.0, 10.0, 10.0)
    types = (UnitType.ROOM, UnitType.CORRIDOR)
    field = LikelihoodField(grid, SensorModelTable(), LikelihoodConfig())
    for step in range(6):
        moved = Unit(1, 40.0 + step, 25.0, 8.0, 12.0 + step / 2.0)
        world = World(units=(a, moved), types=types)
        assert field.score(world) == pytest.approx(field.full_rescore(world), abs=1e-9)


def test_field_score_is_pure():
    grid = uniform_grid((40, 40), CellState.FREE)
    a = Unit(0, 20.0, 20.0, 10.0, 10.0)
    world = World(units=(a,), types=(UnitType.ROOM,))
    field = LikelihoodField(grid, SensorModelTable(), LikelihoodConfig())
    before = field.score(world)
    field.score(World(units=(Unit(0, 22.0, 20.0, 10.0, 10.0),), types=world.types))
    assert field.score(world) == before
    assert before == pytest.approx(field.full_rescore(world), abs=1e-9)


def test_field_score_rejects_rotated_units_and_slanted_doors():
    field = LikelihoodField(uniform_grid((40, 40), CellState.FREE), SensorModelTable(), LikelihoodConfig())
    # a rotated unit cannot be built, so no world holding one reaches score
    with pytest.raises(ValueError):
        field.score(World(units=(Unit(0, 20.0, 20.0, 8.0, 6.0, 0.3),), types=(UnitType.ROOM,)))
    a = Unit(0, 20.0, 20.0, 8.0, 6.0)
    slanted = World(units=(a,), types=(UnitType.ROOM,), doors=(Door(0, 0, (12.0, 14.0), (16.0, 18.0), 4.0),))
    with pytest.raises(ValueError):
        field.score(slanted)


def _expected_carve_box(door, shape):
    """Inclusive cell ranges of a horizontal or vertical door's carve from
    _segment_mask's own float expressions, evaluated on each axis alone."""
    (px, py), (qx, qy) = door.p0, door.p1
    dx, dy = qx - px, qy - py
    length = math.hypot(dx, dy)
    if length <= 0:
        return None
    dx, dy = dx / length, dy / length
    h, w = shape
    xs = np.arange(w, dtype=np.float64) + 0.5
    ys = np.arange(h, dtype=np.float64) + 0.5
    if dy == 0.0:  # t depends on x only, the perpendicular distance on y only
        t = (xs - px) * dx
        along = np.flatnonzero((t >= 0) & (t <= length))
        across = np.flatnonzero(np.abs((ys - py) * dx) <= door.carve_halfwidth)
        cols, rows = along, across
    else:
        t = (ys - py) * dy
        along = np.flatnonzero((t >= 0) & (t <= length))
        across = np.flatnonzero(np.abs(-(xs - px) * dy) <= door.carve_halfwidth)
        cols, rows = across, along
    if not (cols.size and rows.size):
        return None
    return int(cols[0]), int(cols[-1]), int(rows[0]), int(rows[-1])


def _random_axis_world(rng, shape):
    """Overlapping axis-aligned units on a quarter-cell grid, some drawn
    turned by qcoord(pi/2), some clipped at the frame edge and some thinner
    than the wall band; random types and non-contiguous uids; horizontal
    and vertical doors, some across coordinates off the dyadic grid, some
    carves overlapping. Returns the world and the drawn angles."""
    h, w = shape
    n = int(rng.integers(0, 7))
    uids = rng.choice(20, size=n, replace=False)
    units, angles = [], []
    for uid in uids:
        cx, cy = float(rng.integers(-20, 4 * w + 20)) / 4.0, float(rng.integers(-20, 4 * h + 20)) / 4.0
        hu, hv = float(rng.integers(2, 80)) / 4.0, float(rng.integers(2, 80)) / 4.0
        angles.append(float(rng.choice([0.0, qcoord(math.pi / 2), qcoord(math.pi)])))
        units.append(Unit(int(uid), cx, cy, hu, hv, angles[-1]))
    types = tuple(UnitType(int(t)) for t in rng.integers(0, 4, size=n))
    doors = []
    for _ in range(int(rng.integers(0, 4))):
        along = float(rng.integers(0, 4 * w)) / 4.0
        across = float(rng.integers(0, 4 * h)) / 4.0
        if rng.random() < 0.5:
            across += float(rng.random())  # not dyadic
        length = float(rng.integers(0, 48)) / 4.0
        if rng.random() < 0.5:
            p0, p1 = (along, across), (along + length, across)
        else:
            p0, p1 = (across * w / h, along * h / w + length), (across * w / h, along * h / w)
        doors.append(Door(0, 1, p0, p1, length, float(rng.choice([2.0, 3.0, 3.5]))))
        if rng.random() < 0.3:  # a second carve overlapping the first
            shift = float(rng.integers(1, 12)) / 4.0
            doors.append(Door(0, 1, (p0[0] + shift, p0[1] + shift), (p1[0] + shift, p1[1] + shift), length))
    return World(units=tuple(units), types=types, doors=tuple(doors)), angles


def test_wall_band_leaves_center_open_at_half_extent_equal_to_thickness():
    # the center column lies exactly wall_thickness from both x edges: off
    # the band, so 12 of the 5 x 16 footprint cells stay open
    unit = Unit(0, 10.5, 15.0, 2.0, 8.0)
    free = uniform_grid((30, 30), CellState.FREE)
    smap = rasterize([unit], free, wall_thickness=2.0)
    assert int(np.count_nonzero(smap.membership)) == 80
    assert int(np.count_nonzero(smap.states == WorldCell.WALL)) == 68
    assert np.array_equal(smap.states, ref_rasterize([unit], free.states, 2.0)[0])
    rng = np.random.default_rng(8)
    grid = ClassifiedGrid(rng.integers(0, 3, size=(30, 30)).astype(np.int8))
    field = LikelihoodField(grid, SensorModelTable(), LikelihoodConfig(), wall_thickness=2.0)
    world = World(units=(unit,), types=(UnitType.ROOM,))
    assert field.score(world) == pytest.approx(field.full_rescore(world), abs=1e-9)


def test_field_score_matches_full_rescore_on_random_axis_aligned_worlds():
    rng = np.random.default_rng(23)
    shape = (48, 64)
    grid = ClassifiedGrid(rng.integers(0, 3, size=shape).astype(np.int8))
    full = (0, 0, shape[1], shape[0])
    seen = {"overlap": 0, "half_pi": 0, "corridor": 0, "clipped": 0, "carved": 0, "carves_overlap": 0}
    for i in range(200):
        world, angles = _random_axis_world(rng, shape)
        thickness = (1.0, 2.0, 2.5)[i % 3]
        psi = (0.5, 0.3)[i % 2]
        field = LikelihoodField(grid, SensorModelTable(), LikelihoodConfig(psi=psi), thickness, i % 4 != 0)
        assert abs(field.score(world) - field.full_rescore(world)) <= 1e-9
        carve = np.zeros(shape, dtype=bool)
        for d in world.doors:
            mask = _segment_mask(d.p0, d.p1, d.carve_halfwidth, full)
            want = _expected_carve_box(d, shape)
            box = _carve_box(d)
            if want is None:
                assert not mask.any()
                continue
            x0, x1, y0, y1 = want
            painted = np.zeros(shape, dtype=bool)
            painted[y0 : y1 + 1, x0 : x1 + 1] = True
            assert np.array_equal(mask, painted)
            # the carve box, computed over its own window, clipped to the frame
            assert (max(box[0], 0), min(box[1], shape[1] - 1), max(box[2], 0), min(box[3], shape[0] - 1)) == want
            seen["carves_overlap"] += int((carve & mask).any())
            carve |= mask
        states = rasterize(world.units, grid, thickness, world.doors)
        plain = rasterize(world.units, grid, thickness)
        seen["carved"] += int(np.count_nonzero(states.states != plain.states))
        seen["overlap"] += int(np.count_nonzero(states.membership >= 2))
        seen["half_pi"] += angles.count(qcoord(math.pi / 2))
        seen["corridor"] += sum(t == UnitType.CORRIDOR for t in world.types)
        seen["clipped"] += sum(
            u.aabb()[0] < 0 or u.aabb()[1] < 0 or u.aabb()[2] > shape[1] or u.aabb()[3] > shape[0] for u in world.units
        )
    assert all(count > 0 for count in seen.values()), seen


# -- bit-exact reference: the mask-rule rasterizer and 2-D table terms --------


def _ref_terms(inp, states, membership, owner, world, tables, log_psi):
    corridor_uids = {u.uid for u, t in zip(world.units, world.types) if t == UnitType.CORRIDOR}
    gamma = np.maximum(membership.astype(np.float64) - 1.0, 0.0)
    vals = tables.log_noncorridor[inp, states]
    if corridor_uids:
        top = int(owner.max())
        if top >= 0:
            lut = np.zeros(top + 2, dtype=bool)
            for uid in corridor_uids:
                if 0 <= uid <= top:
                    lut[uid] = True
            corr_mask = lut[np.where(owner >= 0, owner, top + 1)]
            if corr_mask.any():
                vals = np.where(corr_mask, tables.log_corridor[inp, states], vals)
    return vals + gamma * log_psi


def _random_world(rng, shape):
    """Overlapping units on a quarter-cell grid: axis-aligned or turned by
    pi/2 or pi; some thinner than the wall band, some past the frame edge;
    random types, non-contiguous uids and horizontal, vertical or slanted
    door segments."""
    h, w = shape
    n = int(rng.integers(1, 7))
    uids = rng.choice(20, size=n, replace=False)
    units = []
    for uid in uids:
        units.append(
            Unit(
                int(uid),
                float(rng.integers(-20, 4 * w + 20)) / 4.0,
                float(rng.integers(-20, 4 * h + 20)) / 4.0,
                float(rng.integers(1, 60)) / 4.0,
                float(rng.integers(1, 60)) / 4.0,
                float(rng.choice([0.0, math.pi / 2, math.pi])),
            )
        )
    types = tuple(UnitType(int(t)) for t in rng.integers(0, 4, size=n))
    doors = []
    for _ in range(int(rng.integers(0, 3))):
        p0 = (float(rng.integers(0, 4 * w)) / 4.0, float(rng.integers(0, 4 * h)) / 4.0)
        if rng.random() < 0.5:
            p1 = (p0[0] + float(rng.integers(4, 40)) / 4.0, p0[1])
        else:
            p1 = (float(rng.integers(0, 4 * w)) / 4.0, float(rng.integers(0, 4 * h)) / 4.0)
        doors.append(Door(units[0].uid, units[-1].uid, p0, p1, 4.0, 3.0))
    return World(units=tuple(units), types=types, doors=tuple(doors))


@pytest.mark.parametrize("object_from_occupied", [True, False])
def test_rasterize_and_terms_bit_exact_vs_reference(object_from_occupied):
    rng = np.random.default_rng(17 if object_from_occupied else 18)
    shape = (48, 64)
    grid = ClassifiedGrid(rng.integers(0, 3, size=shape).astype(np.int8))
    tables = SensorModelTable()
    seen = {"slanted": 0, "overlap": 0, "carved": 0, "corridor": 0}
    for _ in range(150):
        world = _random_world(rng, shape)
        thickness = float(rng.choice([1.0, 2.0, 2.5]))
        psi = float(rng.choice([0.5, 0.3]))
        field = LikelihoodField(
            grid, tables, LikelihoodConfig(psi=psi), thickness, object_from_occupied
        )
        slanted = sum(d.p0[0] != d.p1[0] and d.p0[1] != d.p1[1] for d in world.doors)
        if slanted:
            # a door carves its box, which a slanted door does not have
            for fn in (lambda: rasterize(world.units, grid, thickness, world.doors), lambda: field.score(world)):
                with pytest.raises(ValueError):
                    fn()
            world = replace(world, doors=tuple(d for d in world.doors if d.p0[0] == d.p1[0] or d.p0[1] == d.p1[1]))
        got = rasterize(world.units, grid, thickness, world.doors, object_from_occupied)
        want = ref_rasterize(world.units, grid.states, thickness, world.doors, object_from_occupied)
        for g, r in zip((got.states, got.membership, got.owner), want):
            assert g.dtype == r.dtype
            assert np.array_equal(g, r)
        ref_terms = _ref_terms(grid.states, *want, world, tables, math.log(psi))
        assert field.full_rescore(world) == float(ref_terms.sum())
        assert abs(field.score(world) - float(ref_terms.sum())) <= 1e-9
        no_doors = ref_rasterize(world.units, grid.states, thickness, (), object_from_occupied)[0]
        seen["carved"] += int(np.count_nonzero(no_doors != want[0]))
        seen["overlap"] += int(np.count_nonzero(want[1] >= 2))
        seen["slanted"] += slanted
        seen["corridor"] += sum(t == UnitType.CORRIDOR for t in world.types)
    assert all(count > 0 for count in seen.values()), seen
