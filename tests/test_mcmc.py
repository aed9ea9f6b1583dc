import math

import numpy as np
import pytest

from conftest import TWO_ROOMS_A, TWO_ROOMS_H, TWO_ROOMS_R1, TWO_ROOMS_R3, build_two_rooms_map, floor_spec

import semmap.world as world_mod
from semmap.config import RunConfig
from semmap.errors import EmptyMap, NotApplicable
from semmap.evaluation import generate_synthetic
from semmap.grid import CellState, ClassifiedGrid, classify
from semmap.mcmc import (
    Chain,
    KernelKind,
    apply_kernel,
    derive_semantics,
    derive_world,
    interchange_candidates,
    merge_units,
    move_wall,
    split_unit,
)
from semmap.mln import hard_rules
from semmap.scoring import log_prior
from semmap.world import Unit, World, detect_relations, qcoord


def free_box_grid(w=80, h=60, seed=None):
    states = np.full((h, w), CellState.UNKNOWN, dtype=np.int8)
    states[4 : h - 4, 4 : w - 4] = CellState.FREE
    states[4:6, 4 : w - 4] = CellState.OCCUPIED
    states[h - 6 : h - 4, 4 : w - 4] = CellState.OCCUPIED
    states[4 : h - 4, 4:6] = CellState.OCCUPIED
    states[4 : h - 4, w - 6 : w - 4] = CellState.OCCUPIED
    return ClassifiedGrid(states)


def small_config(**over):
    base = dict(seed=1, iterations=300, burn_in=50, sample_ring=100)
    base.update(over)
    return RunConfig(**base)


# -- kernel geometry ------------------------------------------------------------


def test_move_wall_each_side_reversible_exactly():
    u = Unit(3, 31.25, 17.5, 9.0, 6.5, angle=0.0)
    for wall in range(4):
        for delta in (1.0, 2.0, 5.0):
            out = move_wall(move_wall(u, wall, delta), wall, -delta)
            assert out == u


def test_move_wall_reversible_with_rotation():
    u = Unit(0, qcoord(40.1), qcoord(30.7), 9.0, 6.0, angle=qcoord(0.31))
    for wall in range(4):
        out = move_wall(move_wall(u, wall, 3.0), wall, -3.0)
        assert out == u


def test_move_wall_changes_one_edge():
    u = Unit(0, 20.0, 20.0, 10.0, 8.0)
    out = move_wall(u, 0, 4.0)  # +u wall outward
    assert out.hu == 12.0 and out.cx == 22.0
    assert out.hv == u.hv and out.cy == u.cy


def test_split_then_merge_restores_parent_footprint():
    u = Unit(5, 30.0, 20.0, 12.0, 8.0)
    c1, c2 = split_unit(u, 0, 3.0, 6, 7)
    merged = merge_units(c1, c2, 8)
    assert merged.cx == u.cx and merged.cy == u.cy
    assert merged.hu == u.hu and merged.hv == u.hv
    # children partition the parent area
    assert c1.area + c2.area == pytest.approx(u.area)


def test_split_children_cover_parent_interval_rotated():
    # rotated frames reassemble to within the dyadic quantum; the proposal
    # path restores exactly through recorded reverse parameters instead
    u = Unit(0, 50.0, 50.0, 20.0, 10.0, angle=qcoord(math.pi / 2))
    c1, c2 = split_unit(u, 1, -4.0, 1, 2)
    merged = merge_units(c1, c2, 3)
    for got, want in ((merged.cx, u.cx), (merged.cy, u.cy), (merged.hu, u.hu), (merged.hv, u.hv)):
        assert got == pytest.approx(want, abs=1e-4)


def test_interchange_conserves_area_exactly():
    a = Unit(0, 20.0, 20.0, 10.0, 8.0)
    b = Unit(1, 40.0, 20.0, 10.0, 8.0)
    units = (a, b)
    cands = interchange_candidates(units, 3.0)
    assert cands, "aligned equal-section pair must be eligible"
    i, j, wall_a, wall_b = cands[0]
    before = units[i].area + units[j].area
    new_units = apply_kernel(units, KernelKind.INTERCHANGE, (a.uid, b.uid, wall_a, wall_b, 3.0))
    after = sum(u.area for u in new_units)
    assert after == before  # exact float equality


def test_interchange_requires_equal_cross_section():
    a = Unit(0, 20.0, 20.0, 10.0, 8.0)
    b = Unit(1, 40.0, 20.0, 10.0, 9.0)
    assert interchange_candidates((a, b), 3.0) == []


def test_apply_kernel_add_remove_roundtrip():
    a = Unit(0, 20.0, 20.0, 10.0, 8.0)
    new = Unit(1, 50.0, 30.0, 9.0, 9.0)
    added = apply_kernel((a,), KernelKind.ADD, (new,))
    assert added == (a, new)
    removed = apply_kernel(added, KernelKind.REMOVE, (1,))
    assert removed == (a,)


def test_apply_kernel_errors_on_missing_units():
    a = Unit(0, 20.0, 20.0, 10.0, 8.0)
    with pytest.raises(NotApplicable):
        apply_kernel((a,), KernelKind.REMOVE, (99,))
    with pytest.raises(NotApplicable):
        apply_kernel((a,), KernelKind.MERGE, (0, 99, a))


def test_reverse_kinds_pairing():
    assert KernelKind.ADD.reverse == KernelKind.REMOVE
    assert KernelKind.REMOVE.reverse == KernelKind.ADD
    assert KernelKind.SPLIT.reverse == KernelKind.MERGE
    assert KernelKind.MERGE.reverse == KernelKind.SPLIT
    assert KernelKind.SHRINK.reverse == KernelKind.DILATE
    assert KernelKind.ALLOCATE.reverse == KernelKind.DELETE
    assert KernelKind.INTERCHANGE.reverse == KernelKind.INTERCHANGE


# -- proposal invertibility over random worlds -------------------------------------


def test_propose_reverse_restores_units_all_kinds():
    grid = free_box_grid(w=140, h=110)
    chain = Chain(grid, small_config(iterations=0))
    rng = np.random.default_rng(123)
    # varied world: eligible pairs for merge/interchange, splittable units,
    # and uncovered free space so data-driven ADD has seeds
    chain.units = (
        Unit(0, 40.0, 30.0, 18.0, 17.0),
        Unit(1, 76.0, 30.0, 18.0, 17.0),
        Unit(2, 76.0, 66.0, 18.0, 16.0),
    )
    chain.next_uid = 3
    chain.refresh(force=True)
    counts = {k: 0 for k in KernelKind}
    for trial in range(600):
        kind = list(KernelKind)[int(rng.integers(9))]
        try:
            prop = chain.propose(kind)
        except NotApplicable:
            continue
        restored = apply_kernel(prop.new_units, kind.reverse, prop.reverse_params)
        assert restored == chain.units, f"{kind} not invertible"
        counts[kind] += 1
    assert all(counts[k] > 0 for k in KernelKind), counts


def test_interchange_area_conserved_in_proposals():
    grid = free_box_grid()
    chain = Chain(grid, small_config(iterations=0))
    chain.units = (
        Unit(0, 20.0, 20.0, 12.0, 10.0),
        Unit(1, 44.0, 20.0, 12.0, 10.0),
    )
    chain.next_uid = 2
    found = 0
    for _ in range(200):
        try:
            prop = chain.propose(KernelKind.INTERCHANGE)
        except NotApplicable:
            continue
        found += 1
        before = sum(u.area for u in chain.units)
        after = sum(u.area for u in prop.new_units)
        assert after == before
    assert found > 0


# -- chain behaviour ------------------------------------------------------------------


def test_chain_empty_map_raises():
    grid = ClassifiedGrid(np.full((20, 20), CellState.UNKNOWN, dtype=np.int8))
    with pytest.raises(EmptyMap):
        Chain(grid, small_config())


def test_chain_initializes_on_largest_free_component():
    grid = free_box_grid()
    chain = Chain(grid, small_config(iterations=0))
    assert len(chain.units) == 1
    u = chain.units[0]
    assert 20 < u.cx < 60 and 15 < u.cy < 45


def test_chain_deterministic_same_seed():
    grid = free_box_grid()
    w1, s1, st1 = Chain(grid, small_config(seed=9, iterations=400)).run()
    w2, s2, st2 = Chain(grid, small_config(seed=9, iterations=400)).run()
    assert w1.units == w2.units
    assert w1.types == w2.types


def test_chain_log_entries_identical_across_runs():
    grid = free_box_grid()
    a = Chain(grid, small_config(seed=4, iterations=300))
    a.run()
    b = Chain(grid, small_config(seed=4, iterations=300))
    b.run()
    assert a.log_entries == b.log_entries


def test_best_score_non_decreasing():
    grid = free_box_grid()
    chain = Chain(grid, small_config(seed=2, iterations=0))
    best = -math.inf
    for _ in range(500):
        chain.step()
        post = chain.best_score
        assert post >= best - 1e-12
        best = post


def test_incremental_equals_full_rescore_over_accepted_steps():
    grid = free_box_grid()
    chain = Chain(grid, small_config(seed=7, iterations=0))
    checked = 0
    for _ in range(800):
        before = chain.accepted_total
        chain.step()
        if chain.accepted_total > before:
            full = chain.scorer.full_rescore(chain._world())
            assert chain.log_lik == pytest.approx(full, abs=1e-6)
            checked += 1
    assert checked > 0


def test_acceptance_improving_symmetric_move_always_taken():
    grid = free_box_grid()
    chain = Chain(grid, small_config(seed=3, iterations=0))
    # shrink the init unit so a dilate toward the true wall strictly improves
    u = chain.units[0]
    chain.units = (Unit(u.uid, u.cx, u.cy, u.hu - 4.0, u.hv),)
    chain.refresh(force=True)
    before_lik = chain.log_lik
    prop = None
    for _ in range(400):
        try:
            cand = chain.propose(KernelKind.DILATE)
        except NotApplicable:
            continue
        delta, _ = chain.scorer.preview(chain._world(cand.new_units),
                                        __import__("semmap.scoring", fromlist=["dirty_rects_for_units"]).dirty_rects_for_units(
                                            list(cand.changed_old) + list(cand.changed_new), chain.shape))
        if delta > 0:
            prop = cand
            break
    assert prop is not None
    assert chain.accept(prop)
    assert chain.log_lik > before_lik


def test_refresh_cadence_triggers_on_counters():
    grid = free_box_grid()
    cfg = small_config(seed=5, iterations=0, mln_refresh_structural=3, mln_refresh_geometric=5)
    chain = Chain(grid, cfg)
    base = chain.refresh_count
    chain.geometric_since_refresh = cfg.mln_refresh_geometric
    chain.step()
    assert chain.refresh_count == base + 1
    assert chain.geometric_since_refresh < cfg.mln_refresh_geometric
    chain.structural_since_refresh = cfg.mln_refresh_structural
    chain.step()
    assert chain.refresh_count == base + 2


def test_knowledge_gate_low_coverage_disables_mln():
    states = np.full((60, 200), CellState.UNKNOWN, dtype=np.int8)
    states[10:50, 10:50] = CellState.FREE  # small known patch in a big frame
    states[10:12, 10:50] = CellState.OCCUPIED
    states[48:50, 10:50] = CellState.OCCUPIED
    states[10:50, 10:12] = CellState.OCCUPIED
    states[10:50, 48:50] = CellState.OCCUPIED
    states[55, 190] = CellState.FREE  # stretch the known bbox
    grid = ClassifiedGrid(states)
    chain = Chain(grid, small_config(seed=6, iterations=200))
    assert chain.coverage < 0.8
    assert not chain.knowledge_active
    chain.run()
    assert chain.mln_runs == 0
    assert chain.log_prior_val == 0.0


def test_derive_world_empty_units():
    grid = free_box_grid()
    world, states = derive_world((), grid, RunConfig())
    assert world.n == 0
    assert (states.membership == 0).all()


def test_run_returns_fully_derived_world():
    grid = free_box_grid()
    world, states, stats = Chain(grid, small_config(seed=8, iterations=600)).run()
    assert world.n >= 1
    assert len(world.types) == world.n
    assert world.relations is not None
    assert stats["iterations"] == 600
    assert stats["best_log_posterior"] > -math.inf
    assert set(stats["kernels"].keys()) == {k.name.lower() for k in KernelKind}


# -- one semantics path -----------------------------------------------------------


def _floor_units_and_grid():
    grid, truth = generate_synthetic(floor_spec(0, noise=0.0), seed=0)
    return truth.units, classify(grid)


def _two_rooms_units_and_grid():
    # A one cell taller than R1, so the SaLe pair's walls differ in length
    a = Unit(TWO_ROOMS_A.uid, TWO_ROOMS_A.cx, TWO_ROOMS_A.cy + 1.0, TWO_ROOMS_A.hu, TWO_ROOMS_A.hv + 1.0)
    return (TWO_ROOMS_R1, a, TWO_ROOMS_H, TWO_ROOMS_R3), build_two_rooms_map()


def _chain_at(units, grid):
    chain = Chain(grid, small_config(hall_area_min_m2=25.0, iterations=0), rules=hard_rules())
    assert chain.knowledge_active
    chain.units = tuple(sorted(units, key=lambda u: u.uid))
    chain.refresh(force=True)
    return chain


@pytest.mark.parametrize("fixture", [_floor_units_and_grid, _two_rooms_units_and_grid])
def test_refresh_and_derive_world_agree(fixture):
    units, grid = fixture()
    chain = _chain_at(units, grid)
    world, _ = derive_world(units, grid, chain.cfg, knowledge_active=True, rules=hard_rules(), seed=5)
    assert np.array_equal(chain.relations, world.relations)
    assert chain.relations.sum() > 0
    assert chain.doors == world.doors
    assert chain.types == {u.uid: t for u, t in zip(world.units, world.types)}


def test_derive_semantics_builds_each_pair_overlap_once(monkeypatch):
    units, grid = _floor_units_and_grid()
    calls = []
    real = world_mod._pair_overlap

    def counting(a, b, *args):
        calls.append((a.uid, b.uid))
        return real(a, b, *args)

    monkeypatch.setattr(world_mod, "_pair_overlap", counting)
    sem = derive_semantics(units, grid, small_config(), hard_rules(), True, seed=lambda: 0)
    n = len(units)
    assert len(calls) == len(set(calls)) == n * (n - 1) // 2
    assert sem.doors


def test_chain_prior_equals_log_prior():
    units, grid = _two_rooms_units_and_grid()
    chain = _chain_at(units, grid)
    cfg = chain.cfg
    shape = grid.states.shape
    rel = detect_relations(
        chain.units, shape, dilate_radius=cfg.dilate_radius, min_overlap_cells=cfg.min_overlap_cells
    )
    world = World(units=chain.units, relations=rel)
    expected = log_prior(world, chain.sale, cfg.prior_config(), shape, cfg.dilate_radius, strict=False)
    assert expected < 0.0
    assert chain._prior_value(chain.units) == expected
