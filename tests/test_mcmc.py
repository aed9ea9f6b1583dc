import bisect
import math
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import TWO_ROOMS_A, TWO_ROOMS_H, TWO_ROOMS_R1, TWO_ROOMS_R3, build_two_rooms_map, floor_spec, unit_masks

from semmap.config import RunConfig
from semmap.errors import EmptyMap, NotApplicable
from semmap.evaluation import generate_synthetic
from semmap.grid import CellState, ClassifiedGrid, classify
from semmap.mcmc import (
    Chain,
    KernelKind,
    apply_kernel,
    derive_world,
    interchange_candidates,
    merge_units,
    move_wall,
    split_unit,
)
from semmap.mln import hard_rules
from semmap.scoring import LikelihoodConfig, LikelihoodField, SensorModelTable, log_prior
from semmap.world import (
    Door,
    Unit,
    UnitType,
    World,
    _ring_boxes,
    _unit_boxes,
    detect_relations,
    geometry_to_type,
    qcoord,
)


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
    u = Unit(0, qcoord(40.1), qcoord(30.7), 9.0, 6.0, angle=qcoord(math.pi / 2))
    for wall in range(4):
        out = move_wall(move_wall(u, wall, 3.0), wall, -3.0)
        assert out == u


def test_move_wall_changes_one_edge():
    u = Unit(0, 20.0, 20.0, 10.0, 8.0)
    out = move_wall(u, 0, 4.0)  # +x wall outward
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
    # a quarter-turned unit is the box with swapped extents, so its children
    # reassemble it exactly
    u = Unit(0, 50.0, 50.0, 20.0, 10.0, angle=qcoord(math.pi / 2))
    c1, c2 = split_unit(u, 1, -4.0, 1, 2)
    assert merge_units(c1, c2, 0) == u == Unit(0, 50.0, 50.0, 10.0, 20.0)


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
    assert interchange_candidates((a, b), 3.0) == ()


def _lattice_unit(rng, uid, shape):
    """A unit whose edges lie on the integer lattice, some past the frame."""
    h, w = shape
    x0, y0 = int(rng.integers(-4, w)), int(rng.integers(-4, h))
    width, height = int(rng.integers(2, 41)), int(rng.integers(2, 41))
    return Unit(uid, x0 + width / 2.0, y0 + height / 2.0, width / 2.0, height / 2.0)


def _box(u):
    """The edges (x0, x1, y0, y1) of a unit."""
    return u.cx - u.hu, u.cx + u.hu, u.cy - u.hv, u.cy + u.hv


def test_kernels_are_box_edits_on_random_lattice_units():
    rng = np.random.default_rng(41)
    shape = (50, 70)
    h, w = shape
    grid = ClassifiedGrid(rng.integers(0, 3, size=shape).astype(np.int8))
    field = LikelihoodField(grid, SensorModelTable(), LikelihoodConfig())
    for _ in range(300):
        u = _lattice_unit(rng, int(rng.integers(10)), shape)
        x0, x1, y0, y1 = _box(u)

        # move_wall moves exactly the one edge of wall 0..3 = +x, -x, +y, -y
        wall = int(rng.integers(4))
        delta = float(rng.integers(-5, 6))
        want = [x0, x1, y0, y1]
        want[(1, 0, 3, 2)[wall]] += delta if wall % 2 == 0 else -delta
        if want[0] < want[1] and want[2] < want[3]:
            moved = move_wall(u, wall, delta)
            assert (moved.uid, moved.angle, _box(moved)) == (u.uid, 0.0, tuple(want))
            assert move_wall(moved, wall, -delta) == u

        # split_unit's children tile the parent box, below and above the cut
        axis = int(rng.integers(2))
        lo, hi = (x0, x1) if axis == 0 else (y0, y1)
        if hi - lo >= 2:
            cut = float(rng.integers(lo + 1, hi))
            c1, c2 = split_unit(u, axis, cut - (u.cx if axis == 0 else u.cy), 20, 21)
            if axis == 0:
                assert (_box(c1), _box(c2)) == ((x0, cut, y0, y1), (cut, x1, y0, y1))
            else:
                assert (_box(c1), _box(c2)) == ((x0, x1, y0, cut), (x0, x1, cut, y1))
            assert (c1.uid, c2.uid) == (20, 21)
            assert merge_units(c1, c2, u.uid) == u

        # merge_units gives the union box
        v = _lattice_unit(rng, 11, shape)
        vx0, vx1, vy0, vy1 = _box(v)
        merged = merge_units(u, v, 12)
        assert merged.uid == 12
        assert _box(merged) == (min(x0, vx0), max(x1, vx1), min(y0, vy0), max(y1, vy1))

        # a quarter turn is the box with swapped extents, in every geometry
        a, b = u.hu, u.hv
        turned = Unit(u.uid, u.cx, u.cy, b, a, qcoord(math.pi / 2))
        assert turned == u
        drawn = SimpleNamespace(uid=u.uid, cx=u.cx, cy=u.cy, hu=b, hv=a, angle=qcoord(math.pi / 2))
        for got, ref in zip(unit_masks(turned, shape, 2.0), unit_masks(drawn, shape, 2.0)):
            assert np.array_equal(got, ref)
        radius = int(rng.integers(0, 4))
        assert _unit_boxes(turned, 2.0, w, h) == _unit_boxes(u, 2.0, w, h)
        assert _ring_boxes(turned, w, h, radius) == _ring_boxes(u, w, h, radius)
        worlds = [World(units=(x, v), types=(UnitType.ROOM, UnitType.CORRIDOR)) for x in (turned, u)]
        assert field.score(worlds[0]) == field.score(worlds[1])


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
        if chain.scorer.score(chain._world(cand.new_units)) > chain.log_lik:
            prop = cand
            break
    assert prop is not None
    assert chain.accept(prop)
    assert chain.log_lik > before_lik


def test_likelihood_matches_full_rescore_when_units_holding_doors_go():
    # the true floor units hold doors; forced SPLIT, MERGE and REMOVE moves
    # take units with doors away, and the chain refreshes after each move
    units, grid = _floor_units_and_grid()
    chain = Chain(grid, small_config(iterations=0, mln_refresh_structural=1, mln_refresh_geometric=1))
    chain.knowledge_active = False  # doors come without MLN inference
    chain.units = tuple(sorted(units, key=lambda u: u.uid))
    chain.next_uid = max(u.uid for u in units) + 1
    chain.refresh(force=True)
    assert chain.doors
    kinds = (KernelKind.SPLIT, KernelKind.MERGE, KernelKind.REMOVE, KernelKind.ADD)
    took_doors = set()
    for step in range(120):
        kind = kinds[step % len(kinds)]
        try:
            proposal = chain.propose(kind)
        except NotApplicable:
            continue
        held = {uid for d in chain.doors for uid in (d.unit_p, d.unit_q)}
        removed = {u.uid for u in proposal.changed_old} - {u.uid for u in proposal.changed_new}
        proposal.log_ratio = math.inf  # accept whatever the likelihood says
        assert chain.accept(proposal)
        alive = {u.uid for u in chain.units}
        assert all(d.unit_p in alive and d.unit_q in alive for d in chain.doors)
        assert abs(chain.log_lik - chain.scorer.full_rescore(chain._world())) <= 1e-6
        if removed & held:
            took_doors.add(kind)
        chain.refresh()
        assert abs(chain.log_lik - chain.scorer.full_rescore(chain._world())) <= 1e-6
        if took_doors >= {KernelKind.SPLIT, KernelKind.MERGE, KernelKind.REMOVE}:
            break
    assert took_doors >= {KernelKind.SPLIT, KernelKind.MERGE, KernelKind.REMOVE}, took_doors


def test_best_world_is_rescored_when_a_refresh_opens_the_prior(monkeypatch):
    import semmap.mcmc as mcmc_mod

    # two room pairs of equal footprint area on an all-free map tie in
    # likelihood; only the SaLe prior on their connecting walls tells them
    # apart: the aligned pair has equal walls, the skewed one differs by 8
    grid = ClassifiedGrid(np.full((60, 80), CellState.FREE, dtype=np.int8))
    aligned = (Unit(0, 20.0, 30.0, 10.0, 10.0), Unit(1, 40.0, 30.0, 10.0, 10.0))
    skewed = (Unit(0, 20.0, 30.0, 10.0, 12.0), Unit(1, 40.0, 30.0, 10.0, 8.0))
    chain = Chain(grid, small_config(iterations=0, hall_area_min_m2=25.0))
    assert chain.knowledge_active
    real = mcmc_mod.derive_semantics
    gate = {"open": False}

    def semantics(units, *args, **kwargs):
        sem = real(units, *args, **kwargs)
        sale = {(0, 1): 1.0} if gate["open"] and len(units) == 2 else {}
        types = tuple(UnitType.ROOM for _ in units)
        return mcmc_mod.Semantics(sem.relations, (), str(gate["open"]), types, sale)

    monkeypatch.setattr(mcmc_mod, "derive_semantics", semantics)
    chain.units = skewed
    chain.refresh(force=True)
    assert chain.sale == {} and chain.log_prior_val == 0.0
    chain.best_units, chain.best_types = chain.units, dict(chain.types)
    chain.best_score = chain.log_lik
    gate["open"] = True
    chain.refresh()  # the gate opens on the skewed pair
    assert chain.log_prior_val < 0.0
    assert chain.best_score == chain.log_lik + chain.log_prior_val
    move = mcmc_mod.Proposal(
        KernelKind.INTERCHANGE, aligned, (), (), 0.0, skewed, aligned
    )
    assert chain.scorer.full_rescore(chain._world(aligned)) == pytest.approx(chain.log_lik, abs=1e-9)
    assert chain.accept(move)
    assert chain.best_units == aligned


def test_memo_is_cleared_when_the_semantics_change_value(monkeypatch):
    import semmap.mcmc as mcmc_mod

    # the harness above: on an all-free map only the SaLe prior on the
    # connecting walls tells the skewed pair from the aligned one
    grid = ClassifiedGrid(np.full((60, 80), CellState.FREE, dtype=np.int8))
    skewed = (Unit(0, 20.0, 30.0, 10.0, 12.0), Unit(1, 40.0, 30.0, 10.0, 8.0))
    shrunk = (Unit(0, 20.0, 30.0, 10.0, 12.0), Unit(1, 40.0, 30.0, 10.0, 7.0))
    chain = Chain(grid, small_config(iterations=0, hall_area_min_m2=25.0))
    real = mcmc_mod.derive_semantics
    gate = {"sale": False, "type": UnitType.ROOM, "doors": ()}

    def semantics(units, *args, **kwargs):
        sem = real(units, *args, **kwargs)
        sale = {(0, 1): 1.0} if gate["sale"] and len(units) == 2 else {}
        types = tuple(gate["type"] for _ in units)
        return mcmc_mod.Semantics(sem.relations, gate["doors"], "key", types, sale)

    monkeypatch.setattr(mcmc_mod, "derive_semantics", semantics)
    chain.units = skewed
    chain.refresh(force=True)
    epochs = chain.semantic_epochs
    assert chain._posterior_parts(skewed)[1] == 0.0
    # a geometric accept that changes no type keeps the entries
    assert chain.accept(mcmc_mod.Proposal(KernelKind.SHRINK, shrunk, (1, 3, 1.0), (), math.inf, skewed[1:], shrunk[1:]))
    assert chain.types == {0: UnitType.ROOM, 1: UnitType.ROOM}
    assert skewed in chain._memo and chain.semantic_epochs == epochs
    # so does a refresh whose semantics are new objects of equal value
    chain.refresh()
    assert skewed in chain._memo and chain.semantic_epochs == epochs
    # a refresh that opens the prior clears them: the skewed pair, memoized
    # without a prior, now pays for its walls
    gate["sale"] = True
    chain.refresh()
    assert chain.semantic_epochs == epochs + 1 and not chain._memo
    lik, prior = chain._posterior_parts(skewed)
    assert prior == chain._prior_value(skewed) < 0.0
    assert lik == chain.scorer.score(chain._world(skewed))
    # a refresh that changes only the types clears them too
    gate["type"] = UnitType.CORRIDOR
    chain.refresh()
    assert chain.semantic_epochs == epochs + 2 and skewed not in chain._memo
    assert chain._world(skewed).types == (UnitType.CORRIDOR,) * 2
    # and so does one that changes only the doors: the door in the shared
    # wall opens wall cells onto the free map
    chain._posterior_parts(skewed)
    gate["doors"] = (Door(0, 1, (30.0, 26.0), (30.0, 34.0), 8.0),)
    chain.refresh()
    assert chain.semantic_epochs == epochs + 3 and skewed not in chain._memo
    assert chain._posterior_parts(skewed)[0] == chain.scorer.score(chain._world(skewed)) > lik


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


def test_run_counts_posterior_lookups_and_memo_hits():
    class CountingMemo(OrderedDict):
        inserted = 0

        def __setitem__(self, key, value):
            self.inserted += 1
            super().__setitem__(key, value)

    chain = Chain(free_box_grid(), small_config(seed=8, iterations=600))
    chain._memo = memo = CountingMemo()
    _, _, stats = chain.run()
    proposed = sum(k["proposed"] for k in stats["kernels"].values())
    # one lookup per proposal; each miss scores the world and stores it
    assert stats["score_calls"] == chain.score_calls == proposed
    assert 0 < stats["score_cache_hits"] == chain.score_cache_hits
    assert stats["score_calls"] - stats["score_cache_hits"] == memo.inserted
    assert stats["semantic_epochs"] == chain.semantic_epochs >= 1


def test_memo_hit_returns_the_fresh_posterior():
    # a two-rooms chain whose prior acts on most iterations, refreshing
    # often enough to pass through several semantic epochs
    cfg = small_config(seed=1, iterations=0, hall_area_min_m2=25.0, mln_refresh_structural=2, mln_refresh_geometric=10)
    chain = Chain(build_two_rooms_map(), cfg, rules=hard_rules())
    real = chain._posterior_parts
    seen = {"hits": 0, "prior": 0, "epochs": set()}

    def checked(units):
        hit = units in chain._memo
        parts = real(units)
        if hit:
            # bit for bit what a fresh world, score and prior give
            assert parts == (chain.scorer.score(chain._world(units)), chain._prior_value(units))
            seen["hits"] += 1
            seen["prior"] += parts[1] != 0.0
            seen["epochs"].add(chain.semantic_epochs)
        return parts

    chain._posterior_parts = checked
    for _ in range(3000):
        chain.step()
    assert seen["hits"] > 500 and seen["prior"] > 100 and len(seen["epochs"]) > 5, seen


def test_memo_keeps_the_most_recent_proposals_up_to_its_size():
    import semmap.mcmc as mcmc_mod

    chain = Chain(free_box_grid(40, 40), small_config(iterations=0))

    def units(i):
        return (Unit(0, 10.0 + (i % 80) / 4.0, 20.0, 4.0 + i // 80, 6.0),)

    size = mcmc_mod.POSTERIOR_MEMO_SIZE
    n = size + 50
    for i in range(n):
        chain._posterior_parts(units(i))
        chain._posterior_parts(units(0))  # kept as the most recently proposed
        assert len(chain._memo) <= size
    # every lookup of units(0) after the first hit: the least recently
    # proposed go first
    assert chain.score_cache_hits == n
    assert len(chain._memo) == size
    chain._posterior_parts(units(n - 1))
    assert chain.score_cache_hits == n + 1
    chain._posterior_parts(units(1))  # dropped
    assert chain.score_cache_hits == n + 1


def test_kernel_draw_is_generator_choice():
    weights = {"add": 3.0, "remove": 3.0, "split": 0.0, "merge": 0.0, "shrink": 1.0, "dilate": 2.0,
               "allocate": 0.5, "delete": 0.5, "interchange": 1.0}
    for cfg, draws in ((small_config(iterations=0), 200_000), (small_config(iterations=0, kernel_weights=weights), 20_000)):
        chain = Chain(free_box_grid(), cfg)
        p = np.array([cfg.kernel_weights[k.name.lower()] for k in KernelKind])
        ours, theirs = np.random.Generator(np.random.PCG64(5)), np.random.Generator(np.random.PCG64(5))
        drawn = [bisect.bisect_right(chain._kernel_cdf, ours.random()) for _ in range(draws)]
        chosen = [int(theirs.choice(len(p), p=p)) for _ in range(draws)]
        assert drawn == chosen
        assert ours.random() == theirs.random()
        assert set(drawn) == set(np.flatnonzero(p))


def test_allocate_log_density_is_the_share_of_draws():
    # every ALLOCATE draw on a 40x40 frame: corner, half extents a and b,
    # coin; a heads coin swaps the extents about the same centre
    grid = free_box_grid(40, 40)
    chain = Chain(grid, small_config(iterations=0))
    n_x = n_y = 39
    halves = np.arange(8, 21)  # ALLOCATE_HALF_MIN up to min(ALLOCATE_HALF_MAX, 40 / 2)
    ex0, ey0, a, b, coin = np.meshgrid(np.arange(n_x), np.arange(n_y), halves, halves, np.arange(2), indexing="ij")
    hu, hv = np.where(coin == 1, b, a), np.where(coin == 1, a, b)
    boxes, counts = np.unique(np.stack([ex0 + a, ey0 + b, hu, hv]).reshape(4, -1), axis=1, return_counts=True)
    total = counts.sum()
    assert total == n_x * n_y * halves.size**2 * 2
    assert set(counts.tolist()) == {1, 2}
    for (cx, cy, u, v), count in zip(boxes.T.tolist(), counts.tolist()):
        density = math.exp(chain._allocate_log_density(Unit(0, float(cx), float(cy), float(u), float(v))))
        assert density == pytest.approx(count / total, rel=1e-12)
    # boxes no draw reaches: off the lattice, too small, too large, or a
    # corner past the last drawable one
    for unit in (Unit(0, 20.5, 20.0, 10.0, 10.0), Unit(0, 20.0, 20.0, 7.0, 10.0),
                 Unit(0, 30.0, 30.0, 21.0, 10.0), Unit(0, 49.0, 20.0, 10.0, 10.0)):
        assert chain._allocate_log_density(unit) == -math.inf


def test_allocate_and_delete_ratios_use_the_box_density():
    chain = Chain(free_box_grid(), small_config(iterations=0))
    w = chain.cfg.kernel_weights
    start = chain.units
    checked = 0
    for _ in range(300):
        chain.units = start
        try:
            born = chain.propose(KernelKind.ALLOCATE)
        except NotApplicable:
            continue
        unit = born.changed_new[0]
        density = chain._allocate_log_density(unit)
        assert born.log_ratio == (math.log(w["delete"]) - math.log(len(start) + 1)) - (math.log(w["allocate"]) + density)
        chain.units = (unit,)
        assert chain.propose(KernelKind.DELETE).log_ratio == (math.log(w["allocate"]) + density) - math.log(w["delete"])
        checked += 1
    assert checked > 0


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


def test_world_classifies_only_untyped_units(monkeypatch):
    import semmap.mcmc as mcmc_mod

    units, grid = _two_rooms_units_and_grid()
    chain = _chain_at(units, grid)
    calls = []
    real = mcmc_mod.classify_geometry

    def counting(unit, *args, **kwargs):
        calls.append(unit)
        return real(unit, *args, **kwargs)

    monkeypatch.setattr(mcmc_mod, "classify_geometry", counting)
    world = chain._world()
    assert calls == [] and len(world.types) == len(chain.units)
    fresh = Unit(99, 40.0, 40.0, 10.0, 10.0)
    world = chain._world(chain.units + (fresh,))
    assert calls == [fresh]
    assert world.types[-1] == geometry_to_type(real(fresh, chain.resolution, 25.0))
