import itertools
import math

import numpy as np
import pytest

from semmap.errors import (
    AllWorldsExcluded,
    NotQueried,
    RulesParseError,
    TooLarge,
    UnknownPredicate,
)
from semmap.mln import (
    EvidenceSet,
    assign_types,
    build_evidence,
    default_rules,
    default_rules_text,
    evidence_hash,
    ground,
    hard_rules,
    infer_exact,
    infer_gibbs,
    parse_rule_line,
    parse_rules,
    sale_probability,
)
from semmap.world import GeometryClass, Unit, UnitType


# -- independent oracle: direct enumeration over all query atoms --------------


def oracle_marginals(rules, constants, evidence, hard_weight=None):
    """Brute-force MLN marginals: enumerate every assignment of all query
    groundings (including SaLe diagonals forced false), score each world by
    exp(sum of weights of satisfied ground clauses), hard clauses as filters.
    Completely independent of the library's grounding/propagation path."""
    atoms = []
    for pred in ("Room", "Corr", "Hall", "Other"):
        for c in constants:
            atoms.append((pred, (c,)))
    for cp in constants:
        for cq in constants:
            atoms.append(("SaLe", (cp, cq)))
    index = {a: i for i, a in enumerate(atoms)}
    forced_false = [index[("SaLe", (c, c))] for c in constants]

    ground_clauses = []
    for rule in rules:
        variables = rule.variables()
        for binding in itertools.product(constants, repeat=len(variables)):
            env = dict(zip(variables, binding))
            lits = []
            for lit in rule.clause:
                args = tuple(env[a] for a in lit.args)
                if (lit.pred, args) in index:
                    lits.append((index[(lit.pred, args)], lit.positive, None))
                else:
                    lits.append((None, lit.positive, evidence.truth(lit.pred, args)))
            ground_clauses.append((rule.weight, lits))

    k = len(atoms)
    weights = np.zeros(len(ground_clauses))
    totals = 0.0
    sums = np.zeros(k)
    for bits in itertools.product((0, 1), repeat=k):
        if any(bits[i] for i in forced_false):
            continue
        logw = 0.0
        ok = True
        for weight, lits in ground_clauses:
            sat = False
            for idx, positive, ev in lits:
                val = bits[idx] == 1 if idx is not None else ev
                if val == positive:
                    sat = True
                    break
            if weight is None:
                if not sat:
                    ok = False
                    break
            elif sat:
                logw += weight
        if not ok:
            continue
        w = math.exp(logw)
        totals += w
        for i in range(k):
            if bits[i]:
                sums[i] += w
    if totals == 0:
        raise AllWorldsExcluded("oracle: no feasible world")
    return {atoms[i]: sums[i] / totals for i in range(k)}


def evidence_for(geoms, muldoors, adj_pairs):
    constants = tuple(f"u{i+1}" for i in range(len(geoms)))
    atoms = {}
    geo_pred = {"R": "RoLi", "C": "CoLi", "H": "HaLi"}
    for i, g in enumerate(geoms):
        atoms[(geo_pred[g], (constants[i],))] = True
        atoms[("MulDoor", (constants[i],))] = muldoors[i]
    for p, q in adj_pairs:
        atoms[("Adj", (constants[p], constants[q]))] = True
        atoms[("Adj", (constants[q], constants[p]))] = True
    return EvidenceSet(constants=constants, atoms=atoms)


# -- rules parsing -------------------------------------------------------------


def test_parse_basic_rule_shapes():
    r = parse_rule_line("hard :: RoLi(p) & !MulDoor(p) -> Room(p)")
    assert r.hard
    assert len(r.clause) == 3
    signs = {(lit.pred, lit.positive) for lit in r.clause}
    assert signs == {("RoLi", False), ("MulDoor", True), ("Room", True)}


def test_parse_weighted_rule():
    r = parse_rule_line("2.5 :: CoLi(p) -> !Hall(p)")
    assert r.weight == 2.5


def test_parse_rejects_unknown_predicate():
    with pytest.raises(UnknownPredicate):
        parse_rule_line("hard :: Foo(p) -> Room(p)")


def test_parse_rejects_unbound_consequent_variable():
    with pytest.raises(RulesParseError):
        parse_rule_line("hard :: RoLi(p) -> SaLe(p,q)")


def test_parse_rejects_bad_weight():
    with pytest.raises(RulesParseError):
        parse_rule_line("heavy :: RoLi(p) -> Room(p)")


def test_default_rules_match_packaged_file():
    assert len(default_rules()) == 22


def test_hard_rules_all_hard():
    assert all(r.hard for r in hard_rules())
    assert len(hard_rules()) == len(default_rules())


# -- grounding -----------------------------------------------------------------


def test_ground_atom_counts_single_unit():
    ev = evidence_for("R", [False], [])
    net = ground(default_rules(), ev.constants, ev)
    # 4 type atoms plus SaLe(u1,u1)
    assert net.query_atom_count == 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ground_atom_counts_4n_plus_n2(n):
    ev = evidence_for("R" * n, [False] * n, [])
    net = ground(default_rules(), ev.constants, ev)
    assert net.query_atom_count == 4 * n + n * n


def test_ground_hard_geometry_evidence_pins_types():
    ev = evidence_for("H", [False], [])
    net = ground(hard_rules(), ev.constants, ev)
    marg = infer_exact(net)
    assert marg[("Hall", ("u1",))] == 1.0
    assert marg[("Room", ("u1",))] == 0.0
    assert marg[("Corr", ("u1",))] == 0.0
    assert marg[("Other", ("u1",))] == 0.0


def test_ground_unknown_predicate_raises():
    bad = parse_rules("hard :: Adj(p,q) -> Adj(q,p)")
    object.__setattr__(bad[0].clause[0], "pred", "Bogus")
    with pytest.raises(UnknownPredicate):
        ground(bad, ("u1",), EvidenceSet(constants=("u1",), atoms={}))


def test_ground_contradictory_evidence_marks_network():
    # asymmetric Adj contradicts the hard symmetry rule on evidence alone
    ev = EvidenceSet(constants=("u1", "u2"), atoms={("Adj", ("u1", "u2")): True})
    net = ground(hard_rules(), ev.constants, ev)
    assert net.hard_contradiction
    with pytest.raises(AllWorldsExcluded):
        infer_exact(net)


# -- exact inference -------------------------------------------------------------


def test_empty_network_marginals_half():
    ev = EvidenceSet(constants=("u1",), atoms={})
    net = ground([], ("u1",), ev)
    marg = infer_exact(net)
    assert marg[("Room", ("u1",))] == 0.5
    assert marg[("SaLe", ("u1", "u1"))] == 0.0  # forced diagonal


def test_exact_matches_oracle_soft_single_unit():
    rules = default_rules()
    ev = evidence_for("R", [False], [])
    net = ground(rules, ev.constants, ev)
    marg = infer_exact(net)
    oracle = oracle_marginals(rules, ev.constants, ev)
    for key, val in oracle.items():
        assert marg[key] == pytest.approx(val, abs=1e-12)
    # soft weight 2.0: P(Room) = e^2/(1+e^2)
    assert marg[("Room", ("u1",))] == pytest.approx(
        math.exp(2) / (1 + math.exp(2)), abs=1e-12
    )
    assert marg[("Room", ("u1",))] > 0.8
    assert marg[("Room", ("u1",))] > marg[("Corr", ("u1",))]


@pytest.mark.parametrize("seed", range(8))
def test_exact_matches_oracle_random_two_units(seed):
    rng = np.random.default_rng(seed)
    geoms = [("R", "C", "H")[rng.integers(3)] for _ in range(2)]
    muldoors = [bool(rng.integers(2)) for _ in range(2)]
    adj = [(0, 1)] if rng.integers(2) else []
    ev = evidence_for(geoms, muldoors, adj)
    # random mixed hard/soft weights over the Table rules
    lines = []
    for line in default_rules_text().splitlines():
        if "::" not in line:
            continue
        body = line.split("::", 1)[1]
        w = "hard" if rng.random() < 0.5 else f"{rng.uniform(0.3, 3.0):.3f}"
        lines.append(f"{w} ::{body}")
    rules = parse_rules("\n".join(lines))
    net = ground(rules, ev.constants, ev)
    marg = infer_exact(net)
    oracle = oracle_marginals(rules, ev.constants, ev)
    for key, val in oracle.items():
        assert marg[key] == pytest.approx(val, abs=1e-9), key


def test_exact_budget_enforced():
    ev = evidence_for("RRRRRR", [False] * 6, [])
    net = ground(default_rules(), ev.constants, ev)
    with pytest.raises(TooLarge):
        infer_exact(net, budget=10)


def test_marginals_within_unit_interval():
    ev = evidence_for("RC", [True, False], [(0, 1)])
    net = ground(default_rules(), ev.constants, ev)
    marg = infer_exact(net)
    assert all(0.0 <= v <= 1.0 for v in marg.values())


# -- Gibbs -----------------------------------------------------------------------


def test_gibbs_single_soft_atom_stationary():
    rules = parse_rules("2.0 :: HaLi(p) -> Hall(p)")
    ev = EvidenceSet(constants=("u1",), atoms={("HaLi", ("u1",)): True})
    net = ground(rules, ("u1",), ev)
    marg = infer_gibbs(net, burn_in=200, samples=4000, seed=7)
    expect = math.exp(2) / (1 + math.exp(2))  # 0.881
    assert marg[("Hall", ("u1",))] == pytest.approx(expect, abs=0.02)


def test_gibbs_deterministic_given_seed():
    ev = evidence_for("RC", [False, True], [(0, 1)])
    net = ground(default_rules(), ev.constants, ev)
    a = infer_gibbs(net, burn_in=50, samples=300, seed=11)
    b = infer_gibbs(net, burn_in=50, samples=300, seed=11)
    assert a == b
    c = infer_gibbs(net, burn_in=50, samples=300, seed=12)
    assert any(a[k] != c[k] for k in a)


def test_gibbs_agrees_with_exact_on_symmetric_pair_coupling():
    # adjacent room pair under hard rules: SaLe pinned true by rule; under an
    # evidence set with free SaLe pair the blocked sampler must still mix
    ev = evidence_for("RR", [True, True], [(0, 1)])
    net = ground(hard_rules(), ev.constants, ev)
    exact = infer_exact(net)
    gibbs = infer_gibbs(net, burn_in=300, samples=3000, seed=3)
    for key, val in exact.items():
        assert gibbs[key] == pytest.approx(val, abs=0.02), key


def test_gibbs_evidence_atoms_never_flip():
    ev = evidence_for("RC", [False, False], [(0, 1)])
    net = ground(default_rules(), ev.constants, ev)
    marg = infer_gibbs(net, burn_in=100, samples=500, seed=5)
    for (pred, args), val in marg.items():
        if pred == "SaLe" and args[0] == args[1]:
            assert val == 0.0


# -- type assignment ---------------------------------------------------------------


TYPE_TABLE = [
    ("H", False, UnitType.HALL),
    ("H", True, UnitType.HALL),
    ("R", False, UnitType.ROOM),
    ("R", True, UnitType.OTHER),
    ("C", True, UnitType.CORRIDOR),
    ("C", False, UnitType.OTHER),
]


@pytest.mark.parametrize("geom,muldoor,expected", TYPE_TABLE)
def test_assign_types_hard_truth_table(geom, muldoor, expected):
    ev = evidence_for(geom, [muldoor], [])
    net = ground(hard_rules(), ev.constants, ev)
    marg = infer_exact(net)
    assert assign_types(marg, ev.constants)["u1"] == expected


def test_assign_types_tie_breaks_to_room():
    marg = {
        ("Room", ("u1",)): 0.25,
        ("Corr", ("u1",)): 0.25,
        ("Hall", ("u1",)): 0.25,
        ("Other", ("u1",)): 0.25,
    }
    assert assign_types(marg, ("u1",))["u1"] == UnitType.ROOM


def test_assign_types_argmax():
    marg = {
        ("Room", ("u1",)): 0.9,
        ("Corr", ("u1",)): 0.05,
        ("Hall", ("u1",)): 0.03,
        ("Other", ("u1",)): 0.02,
    }
    assert assign_types(marg, ("u1",))["u1"] == UnitType.ROOM


# -- SaLe ---------------------------------------------------------------------------


def test_sale_adjacent_rooms_hard_is_one():
    ev = evidence_for("RR", [False, False], [(0, 1)])
    net = ground(hard_rules(), ev.constants, ev)
    marg = infer_exact(net)
    assert sale_probability(marg, "u1", "u2") == 1.0
    assert sale_probability(marg, "u2", "u1") == 1.0


def test_sale_non_adjacent_is_zero():
    ev = evidence_for("RR", [False, False], [])
    net = ground(hard_rules(), ev.constants, ev)
    marg = infer_exact(net)
    assert sale_probability(marg, "u1", "u2") == 0.0


def test_sale_room_corridor_is_zero():
    ev = evidence_for("RC", [False, True], [(0, 1)])
    net = ground(hard_rules(), ev.constants, ev)
    marg = infer_exact(net)
    assert sale_probability(marg, "u1", "u2") == 0.0


def test_sale_symmetric_under_exact():
    ev = evidence_for("RR", [False, True], [(0, 1)])
    net = ground(default_rules(), ev.constants, ev)
    marg = infer_exact(net)
    assert sale_probability(marg, "u1", "u2") == pytest.approx(
        sale_probability(marg, "u2", "u1"), abs=1e-12
    )


def test_sale_not_queried_raises():
    with pytest.raises(NotQueried):
        sale_probability({}, "u1", "u2")


# -- build_evidence --------------------------------------------------------------


def test_build_evidence_from_detectors():
    from semmap.world import Door

    units = [Unit(0, 10, 10, 5, 5), Unit(1, 20, 10, 5, 5)]
    rel = np.array([[False, True], [True, False]])
    doors = [
        Door(0, 1, (15, 8), (15, 12), 4.0),
        Door(0, 1, (15, 13), (15, 16), 3.0),
    ]
    geoms = [GeometryClass.ROOM_LIKE, GeometryClass.CORRIDOR_LIKE]
    ev = build_evidence(units, rel, doors, geoms)
    assert ev.truth("RoLi", ("u0",))
    assert ev.truth("CoLi", ("u1",))
    assert not ev.truth("HaLi", ("u0",))
    assert ev.truth("MulDoor", ("u0",))  # two doors
    assert ev.truth("Adj", ("u0", "u1"))
    assert ev.truth("Adj", ("u1", "u0"))
    assert not ev.truth("Adj", ("u0", "u0"))


def test_evidence_hash_distinguishes_evidence_and_rules():
    ev1 = evidence_for("RR", [False, False], [(0, 1)])
    ev2 = evidence_for("RR", [True, False], [(0, 1)])
    rules = default_rules()
    assert evidence_hash(ev1, rules) != evidence_hash(ev2, rules)
    assert evidence_hash(ev1, rules) == evidence_hash(ev1, rules)
    assert evidence_hash(ev1, hard_rules()) != evidence_hash(ev1, rules)
