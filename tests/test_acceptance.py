"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers. Heavy end-to-end runs are shared through module-scoped
fixtures. Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

import numpy as np
import pytest

from conftest import (
    ring_median_divider,
    TWO_ROOMS_A,
    TWO_ROOMS_H,
    TWO_ROOMS_R1,
    TWO_ROOMS_R3,
    build_two_rooms_map,
    divider_difference,
    floor_config,
    floor_spec,
    two_rooms_config,
)
from semmap import mln as M
from semmap.cli import main as cli_main
from semmap.config import RunConfig
from semmap.errors import NotApplicable
from semmap.evaluation import (
    RegionOfInterest,
    SyntheticSpec,
    cpr,
    generate_synthetic,
    topology_match,
)
from semmap.grid import classify
from semmap.mcmc import Chain, KernelKind, apply_kernel
from semmap.scoring import (
    LikelihoodConfig,
    PriorConfig,
    SensorModelTable,
    log_likelihood,
    log_posterior,
)
from semmap.world import (
    Unit,
    UnitType,
    World,
    detect_relations,
    rasterize,
)


def report(criterion, detail):
    print(f"\nACCEPTANCE PASS criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: Gibbs marginals match exact enumeration on random networks


def _random_network(seed):
    rng = np.random.default_rng(seed)
    n = 2 + int(rng.integers(2))
    constants = tuple(f"u{i+1}" for i in range(n))
    atoms = {}
    geo_pred = {0: "RoLi", 1: "CoLi", 2: "HaLi"}
    for i in range(n):
        atoms[(geo_pred[int(rng.integers(3))], (constants[i],))] = True
        atoms[("MulDoor", (constants[i],))] = bool(rng.integers(2))
    for p in range(n):
        for q in range(p + 1, n):
            if rng.integers(2):
                atoms[("Adj", (constants[p], constants[q]))] = True
                atoms[("Adj", (constants[q], constants[p]))] = True
    evidence = M.EvidenceSet(constants=constants, atoms=atoms)
    lines = []
    for line in M.default_rules_text().splitlines():
        if "::" not in line:
            continue
        body = line.split("::", 1)[1]
        weight = "hard" if rng.random() < 0.5 else f"{rng.uniform(0.3, 3.0):.3f}"
        lines.append(f"{weight} ::{body}")
    rules = M.parse_rules("\n".join(lines))
    return M.ground(rules, constants, evidence)


def test_criterion_1_mln_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        network = _random_network(seed)
        exact = M.infer_exact(network)
        gibbs = M.infer_gibbs(
            network, burn_in=100, samples=400, seed=seed + 1000, n_chains=64
        )
        for key, value in exact.items():
            worst = max(worst, abs(gibbs[key] - value))
    elapsed = time.perf_counter() - t0
    assert worst <= 0.02, f"worst |gibbs - exact| = {worst:.4f}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    report(1, f"50 networks, worst |gibbs-exact| {worst:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: deterministic type table under all-hard rules


def test_criterion_2_type_table():
    expected = {
        ("HaLi", False): UnitType.HALL,
        ("HaLi", True): UnitType.HALL,
        ("RoLi", False): UnitType.ROOM,
        ("RoLi", True): UnitType.OTHER,
        ("CoLi", True): UnitType.CORRIDOR,
        ("CoLi", False): UnitType.OTHER,
    }
    rules = M.hard_rules()
    for (geom, muldoor), want in expected.items():
        atoms = {(geom, ("u1",)): True, ("MulDoor", ("u1",)): muldoor}
        evidence = M.EvidenceSet(constants=("u1",), atoms=atoms)
        network = M.ground(rules, ("u1",), evidence)
        marginals = M.infer_exact(network)
        got = M.assign_types(marginals, ("u1",))["u1"]
        assert got == want, f"{geom}, MulDoor={muldoor}: {got} != {want}"
    report(2, "all six evidence combinations reproduce the hard-rule type table")


# ---------------------------------------------------------------------------
# criterion 3: relation-detection golden test


def test_criterion_3_relation_golden():
    units = [
        Unit(0, 20.0, 15.0, 12.0, 10.0),
        Unit(1, 45.0, 15.0, 12.0, 10.0),
        Unit(2, 60.0, 40.0, 12.0, 12.0),
    ]
    rel = detect_relations(units, (80, 100))
    expected = np.array(
        [[False, True, False], [True, False, True], [False, True, False]]
    )
    assert np.array_equal(rel, expected)
    report(3, "three-unit layout yields exactly the expected adjacency matrix")


# ---------------------------------------------------------------------------
# criterion 4: kernel invertibility over 1000 draws


def test_criterion_4_kernel_invertibility():
    grid = build_two_rooms_map()
    chain = Chain(grid, two_rooms_config(0, iterations=0), rules=M.hard_rules())
    rng = np.random.default_rng(2024)
    base_worlds = [
        (TWO_ROOMS_R1, TWO_ROOMS_A, TWO_ROOMS_H, TWO_ROOMS_R3),
        (
            Unit(0, 30.0, 32.0, 20.0, 22.0),
            Unit(1, 84.0, 32.0, 34.0, 22.0),
            Unit(2, 84.0, 150.0, 34.0, 96.0),
        ),
        (
            Unit(0, 40.0, 60.0, 22.0, 40.0),
            Unit(1, 84.0, 60.0, 22.0, 40.0),
        ),
    ]
    counts = {k: 0 for k in KernelKind}
    done = 0
    area_checked = 0
    while done < 1000:
        world = base_worlds[int(rng.integers(len(base_worlds)))]
        chain.units = tuple(sorted(world, key=lambda u: u.uid))
        chain.next_uid = max(u.uid for u in world) + 1
        chain._seed_cache = (-1, None)
        kind = list(KernelKind)[int(rng.integers(9))]
        try:
            proposal = chain.propose(kind)
        except NotApplicable:
            continue
        restored = apply_kernel(proposal.new_units, kind.reverse, proposal.reverse_params)
        assert restored == chain.units, f"{kind.name} failed to invert"
        if kind == KernelKind.INTERCHANGE:
            before = sum(u.area for u in chain.units)
            after = sum(u.area for u in proposal.new_units)
            assert after == before, "interchange changed total area"
            area_checked += 1
        counts[kind] += 1
        done += 1
    assert all(counts[k] > 0 for k in KernelKind), counts
    assert area_checked > 0
    report(
        4,
        "1000 proposals inverted exactly; per kind "
        + ", ".join(f"{k.name.lower()}={counts[k]}" for k in KernelKind),
    )


# ---------------------------------------------------------------------------
# criterion 5: incremental scoring equals full rescoring


def test_criterion_5_incremental_oracle():
    grid = build_two_rooms_map()
    config = two_rooms_config(7, prior_on=False, iterations=0)
    chain = Chain(grid, config, rules=M.hard_rules())
    worst = 0.0
    accepted = 0
    hard_cap = 400000
    steps = 0
    while accepted < 10000 and steps < hard_cap:
        before = chain.accepted_total
        chain.step()
        steps += 1
        if chain.accepted_total > before:
            accepted += 1
            full = chain.scorer.full_rescore(chain._world()) + chain._prior_value(chain.units)
            incremental = chain.log_lik + chain.log_prior_val
            diff = abs(incremental - full)
            if diff > worst:
                worst = diff
    assert accepted >= 10000, f"only {accepted} accepted steps in {steps}"
    assert worst <= 1e-6, f"worst |incremental - full| = {worst:.2e}"
    report(5, f"{accepted} accepted steps, worst |incremental-full| {worst:.2e}")


# ---------------------------------------------------------------------------
# criteria 6 and 10 share the two-rooms end-to-end runs


def _two_rooms_semantics(grid, units):
    """Relations, hard-rule marginals and sale flags for explicit units."""
    from semmap.world import classify_geometry

    rel = detect_relations(units, grid.states.shape)
    geoms = [classify_geometry(u, grid.resolution) for u in units]
    evidence = M.build_evidence(units, rel, (), geoms)
    network = M.ground(M.hard_rules(), evidence.constants, evidence)
    marginals = M.infer_exact(network)
    types = M.assign_types(marginals, evidence.constants)
    sale = {}
    for p in range(len(units)):
        for q in range(p + 1, len(units)):
            cp, cq = evidence.constants[p], evidence.constants[q]
            key = (min(units[p].uid, units[q].uid), max(units[p].uid, units[q].uid))
            sale[key] = 0.5 * (
                M.sale_probability(marginals, cp, cq)
                + M.sale_probability(marginals, cq, cp)
            )
    world = World(
        units=tuple(units),
        types=tuple(types[evidence.constants[i]] for i in range(len(units))),
        relations=rel,
        resolution=grid.resolution,
    )
    return world, sale


def _two_rooms_world_at(grid, y):
    """The four-unit model with the A|H divider at row y."""
    hv_a = (y - 10) / 2.0
    hv_h = (310 - y) / 2.0
    units = (
        Unit(0, 30.0, 32.0, 20.0, 22.0),
        Unit(1, 84.0, 10 + hv_a, 34.0, hv_a),
        Unit(2, 84.0, y + hv_h, 34.0, hv_h),
        Unit(3, 30.0, 182.0, 20.0, 128.0),
    )
    return _two_rooms_semantics(grid, units)


def test_criterion_6a_prior_suppression_exact_difference():
    grid = build_two_rooms_map()
    tables = SensorModelTable()
    prior_cfg = PriorConfig(sigma_len=3.0)
    lik_cfg = LikelihoodConfig()
    aligned, sale_a = _two_rooms_world_at(grid, 54)  # d = 0
    defect, sale_d = _two_rooms_world_at(grid, 60)  # d = 6
    assert sale_a[(0, 1)] == 1.0 and sale_d[(0, 1)] == 1.0
    s_aligned = log_posterior(grid, aligned, sale_a, tables, prior_cfg, lik_cfg)
    s_defect = log_posterior(grid, defect, sale_d, tables, prior_cfg, lik_cfg)
    lik_gap = abs(s_aligned.log_likelihood - s_defect.log_likelihood)
    post_gap = s_aligned.log_posterior - s_defect.log_posterior
    assert lik_gap < 1e-9, f"likelihoods differ by {lik_gap}"
    assert abs(post_gap - 2.0) < 1e-9, f"posterior gap {post_gap} != 2.0"
    report(
        "6a",
        f"equal likelihood (gap {lik_gap:.1e}), posterior difference {post_gap:.9f}",
    )


@pytest.fixture(scope="module")
def two_rooms_runs():
    """End-to-end runs on the two-rooms fixture: 10 seeds with the prior
    active, 10 with it disabled. Rings are kept for the variance criterion."""
    results = {}
    grid = build_two_rooms_map()
    for prior_on in (True, False):
        for seed in range(10):
            chain = Chain(
                grid,
                two_rooms_config(seed, prior_on=prior_on),
                rules=M.hard_rules(),
            )
            world, states, stats = chain.run()
            results[(prior_on, seed)] = {
                "world": world,
                "ring": list(chain.sample_ring),
                "stats": stats,
                "divider": divider_difference(world, grid.states.shape),
            }
    return results


def test_criterion_6b_prior_suppression_end_to_end(two_rooms_runs):
    """A run converges to the aligned configuration when its post-burn-in
    accepted samples concentrate at small wall-length difference."""

    def aligned(prior_on, seed):
        med = ring_median_divider(two_rooms_runs[(prior_on, seed)]["ring"])
        return med is not None and med <= 2.5

    aligned_on = sum(aligned(True, seed) for seed in range(10))
    aligned_off = sum(aligned(False, seed) for seed in range(10))
    assert aligned_on >= 9, f"only {aligned_on}/10 aligned with knowledge active"
    assert aligned_off <= 5, f"{aligned_off}/10 aligned with the prior disabled"
    report(
        "6b",
        f"aligned {aligned_on}/10 with knowledge active vs {aligned_off}/10 prior-off",
    )


def _corner_variance(ring):
    """Mean variance of matched unit-corner coordinates over ring samples."""
    counts = [len(units) for units, _ in ring]
    if not counts:
        return None
    modal = max(set(counts), key=counts.count)
    clouds = []
    for units, _ in ring:
        if len(units) != modal:
            continue
        ordered = sorted(units, key=lambda u: (round(u.cx), round(u.cy), u.uid))
        pts = []
        for u in ordered:
            pts.extend(coord for v in u.vertices() for coord in v)
        clouds.append(pts)
    lengths = {len(c) for c in clouds}
    if len(lengths) != 1 or len(clouds) < 100:
        return None
    arr = np.array(clouds)
    return float(arr.var(axis=0).mean())


def test_criterion_10_chain_convergence_variance(two_rooms_runs):
    ratios = []
    for seed in range(5):
        on = two_rooms_runs[(True, seed)]
        off = two_rooms_runs[(False, seed)]
        assert len(on["ring"]) >= 1000, "need 1000 post-burn-in accepted samples"
        assert len(off["ring"]) >= 1000
        var_on = _corner_variance(on["ring"][-1000:])
        var_off = _corner_variance(off["ring"][-1000:])
        assert var_on is not None and var_off is not None and var_off > 0
        ratios.append(var_on / var_off)
    median = sorted(ratios)[len(ratios) // 2]
    assert median <= 0.5, f"median variance ratio {median:.3f} > 0.5 ({ratios})"
    report(
        10,
        "corner-variance ratio (knowledge on / prior off) median "
        f"{median:.3f} over 5 seeds",
    )


# ---------------------------------------------------------------------------
# criterion 7: the semantic sensor model explains interior blobs


def test_criterion_7_sensor_model_effect():
    spec = SyntheticSpec(width=80, height=80, wall_thickness=2)
    spec.units = [("room", (10, 10, 70, 70))]
    spec.objects = [(0, (30, 30, 46, 46))]
    grid_raw, _ = generate_synthetic(spec, seed=0)
    grid = classify(grid_raw)
    unit = Unit(0, 40.0, 40.0, 30.0, 30.0)
    tables = SensorModelTable()
    states = rasterize([unit], grid, wall_thickness=2.0)
    as_room = log_likelihood(
        grid, World(units=(unit,), types=(UnitType.ROOM,)), states, tables, LikelihoodConfig()
    )
    as_corr = log_likelihood(
        grid, World(units=(unit,), types=(UnitType.CORRIDOR,)), states, tables, LikelihoodConfig()
    )
    assert as_room > as_corr, (as_room, as_corr)
    report(
        7,
        f"interior blob as object: room typing {as_room:.1f} > corridor {as_corr:.1f}",
    )


# ---------------------------------------------------------------------------
# criterion 8: end-to-end synthetic recovery


def test_criterion_8_synthetic_recovery():
    per_map_limit = 300.0  # seconds
    count_exact = 0
    cprs = []
    type_hits = 0
    type_total = 0
    for seed in range(10):
        spec = floor_spec(seed)
        grid_raw, truth = generate_synthetic(spec, seed=seed)
        grid = classify(grid_raw)
        t0 = time.perf_counter()
        chain = Chain(grid, floor_config(seed))
        world, states, stats = chain.run()
        elapsed = time.perf_counter() - t0
        assert elapsed <= per_map_limit, f"seed {seed} took {elapsed:.0f}s"
        rep = topology_match(world, truth, grid.states.shape)
        roi = RegionOfInterest(6, 6, 294, 194)
        strict = cpr(world, states, grid, roi, SensorModelTable(), variant="strict")
        cprs.append(strict)
        count_exact += rep["unit_count_match"]
        type_hits += round(rep["type_accuracy"] * rep["matched_units"])
        type_total += rep["matched_units"]
    accuracy = type_hits / max(type_total, 1)
    assert min(cprs) >= 0.85, f"min strict CPR {min(cprs):.3f}"
    assert count_exact >= 8, f"unit count exact in only {count_exact}/10 runs"
    assert accuracy >= 0.9, f"type accuracy {accuracy:.3f}"
    report(
        8,
        f"strict CPR min {min(cprs):.3f}, unit count exact {count_exact}/10, "
        f"type accuracy {accuracy:.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 9: throughput on a paper-scale map


def _paper_scale_spec():
    spec = SyntheticSpec(width=1237, height=672, resolution=0.1, wall_thickness=2)
    units, doors = [], []
    x = 20
    for w in (200, 196, 204, 198, 202, 197):
        units.append(("room", (x, 20, x + w, 300)))
        x += w - 4
    corridor_idx = len(units)
    units.append(("corridor", (20, 296, x, 380)))
    xb = 20
    for w in (240, 238, 242, 236, 241):
        units.append(("room", (xb, 376, xb + w, 650)))
        xb += w - 4
    for i in range(len(units)):
        if i != corridor_idx:
            doors.append((i, corridor_idx, 0.5, 18))
    spec.units = units
    spec.doors = doors
    spec.flip_prob = {"occupied": 0.03, "unknown": 0.03, "free": 0.03}
    return spec


def test_criterion_9_throughput():
    grid_raw, _ = generate_synthetic(_paper_scale_spec(), seed=0)
    grid = classify(grid_raw)
    config = RunConfig(seed=0, iterations=3000, burn_in=500)
    chain = Chain(grid, config)
    _, _, stats = chain.run()
    rate = stats["iterations_per_second"]
    assert rate >= 30.0, f"{rate:.1f} it/s on a {grid.width}x{grid.height} map"
    report(9, f"{rate:.0f} it/s on a {grid.width}x{grid.height} cell map")


# ---------------------------------------------------------------------------
# criterion 11: determinism


def test_criterion_11_determinism(tmp_path):
    synth_prefix = tmp_path / "floor"
    assert cli_main(["synth", "demo", "--seed", "4", "--out", str(synth_prefix)]) == 0
    config = tmp_path / "run.cfg"
    config.write_text(
        "iterations = 1500\nburn_in = 300\nseed = 11\nhall_area_min_m2 = 25.0\n"
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    pgm = str(synth_prefix) + ".pgm"
    assert cli_main(["infer", pgm, "--out", str(out1), "--config", str(config)]) == 0
    assert cli_main(["infer", pgm, "--out", str(out2), "--config", str(config)]) == 0
    world1 = (out1 / "world.json").read_bytes()
    world2 = (out2 / "world.json").read_bytes()
    log1 = (out1 / "samples.ndjson").read_bytes()
    log2 = (out2 / "samples.ndjson").read_bytes()
    assert world1 == world2, "world JSON differs between identical runs"
    assert log1 == log2, "sample logs differ between identical runs"
    report(11, f"byte-identical world JSON ({len(world1)} B) and sample log ({len(log1)} B)")
