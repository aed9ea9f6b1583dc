"""A small Markov Logic Network engine over the unit domain.

The vocabulary is fixed: evidence predicates RoLi/CoLi/HaLi/MulDoor (arity 1)
and Adj (arity 2); query predicates Room/Corr/Hall/Other (arity 1) and SaLe
(arity 2). Rules are universally quantified clauses of the form
``antecedent-conjunction -> consequent-disjunction`` with a real weight or
the ``hard`` marker. Grounding substitutes hard evidence, unit-propagates
hard unit clauses, and leaves clauses over the remaining free query atoms.

Marginal inference is exact by (component-decomposed, vectorized) enumeration
for small networks, or blocked Gibbs sampling otherwise. Symmetric pairs such
as SaLe(p,q)/SaLe(q,p) are sampled jointly, since hard symmetry rules make
single-site flips between their feasible states impossible.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import (
    AllWorldsExcluded,
    InconsistentEvidence,
    NoFeasibleState,
    NotQueried,
    RulesParseError,
    TooLarge,
    UnknownPredicate,
)
from .world import GeometryClass, UnitType

EVIDENCE_PREDICATES = {"RoLi": 1, "CoLi": 1, "HaLi": 1, "MulDoor": 1, "Adj": 2}
QUERY_PREDICATES = {"Room": 1, "Corr": 1, "Hall": 1, "Other": 1, "SaLe": 2}
VOCABULARY = {**EVIDENCE_PREDICATES, **QUERY_PREDICATES}

HARD_GIBBS_WEIGHT = 30.0
EXACT_ATOM_BUDGET = 24

TYPE_ATOM_ORDER = ("Room", "Corr", "Hall", "Other")
_TYPE_OF_ATOM = {
    "Room": UnitType.ROOM,
    "Corr": UnitType.CORRIDOR,
    "Hall": UnitType.HALL,
    "Other": UnitType.OTHER,
}


# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class Literal:
    pred: str
    args: tuple
    positive: bool = True

    def __repr__(self):
        neg = "" if self.positive else "!"
        return f"{neg}{self.pred}({','.join(self.args)})"


@dataclass(frozen=True)
class Rule:
    """A weighted universally quantified clause (None weight = hard)."""

    weight: float | None
    clause: tuple  # of Literal, disjunction
    text: str = ""

    @property
    def hard(self) -> bool:
        return self.weight is None

    def variables(self):
        seen = []
        for lit in self.clause:
            for a in lit.args:
                if a not in seen:
                    seen.append(a)
        return seen


_LIT_RE = re.compile(r"\s*(!?)\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*")


def _parse_literal(text: str) -> Literal:
    m = _LIT_RE.fullmatch(text)
    if not m:
        raise RulesParseError(f"cannot parse literal {text!r}")
    neg, pred, args = m.group(1), m.group(2), m.group(3)
    arglist = tuple(a.strip() for a in args.split(","))
    if pred not in VOCABULARY:
        raise UnknownPredicate(f"unknown predicate {pred!r}")
    if any(not a for a in arglist) or len(arglist) != VOCABULARY[pred]:
        raise RulesParseError(f"bad arity for {pred} in {text!r}")
    return Literal(pred=pred, args=arglist, positive=(neg != "!"))


def parse_rule_line(line: str) -> Rule:
    if "::" not in line:
        raise RulesParseError(f"missing '::' in rule line {line!r}")
    wtext, formula = line.split("::", 1)
    wtext = wtext.strip()
    if wtext.lower() == "hard":
        weight = None
    else:
        try:
            weight = float(wtext)
        except ValueError as exc:
            raise RulesParseError(f"bad weight {wtext!r}") from exc
        if not math.isfinite(weight):
            raise RulesParseError("rule weights must be finite")
    if "->" in formula:
        ante_text, cons_text = formula.split("->", 1)
        ante = [_parse_literal(t) for t in ante_text.split("&")]
        cons = [_parse_literal(t) for t in cons_text.split("|")]
        ante_vars = {a for lit in ante for a in lit.args}
        cons_vars = {a for lit in cons for a in lit.args}
        if not cons_vars <= ante_vars:
            raise RulesParseError(
                f"consequent variables {cons_vars - ante_vars} unbound in {line!r}"
            )
        clause = tuple(
            [Literal(l.pred, l.args, not l.positive) for l in ante] + cons
        )
    else:
        clause = tuple(_parse_literal(t) for t in formula.split("|"))
    return Rule(weight=weight, clause=clause, text=line.strip())


def parse_rules(text: str):
    rules = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rules.append(parse_rule_line(line))
    return rules


def default_rules_text() -> str:
    """The packaged default rule set, ``data/default.rules``."""
    return resources.files("semmap").joinpath("data/default.rules").read_text(encoding="utf-8")


def default_rules():
    return parse_rules(default_rules_text())


def hard_rules():
    """The same rule set with every rule hard.

    With all rules hard, SaLe marginals collapse to {0, 1}; with the default
    soft door rules an adjacent room pair sits just below a 0.5 threshold, so
    prior-driven workflows typically run hard rules.
    """
    text = "\n".join(
        "hard ::" + line.split("::", 1)[1]
        for line in default_rules_text().splitlines()
        if "::" in line
    )
    return parse_rules(text)


# ---------------------------------------------------------------------------
# evidence


@dataclass(frozen=True)
class EvidenceSet:
    """Closed-world truth assignment for all evidence-predicate groundings."""

    constants: tuple
    atoms: dict = field(default_factory=dict)  # (pred, args) -> bool

    def truth(self, pred: str, args: tuple) -> bool:
        return bool(self.atoms.get((pred, args), False))

    def canonical_key(self) -> str:
        items = sorted((p, a, v) for (p, a), v in self.atoms.items() if v)
        return repr((self.constants, items))


def build_evidence(units, relations, doors, geometry) -> EvidenceSet:
    """Assemble hard evidence from detector outputs.

    ``geometry`` maps each unit index to its GeometryClass; MulDoor(u) is true
    iff the unit participates in at least two doors; Adj mirrors the relation
    matrix.
    """
    n = len(units)
    if len(geometry) != n:
        raise InconsistentEvidence("geometry classes missing for some units")
    constants = tuple(f"u{u.uid}" for u in units)
    atoms = {}
    geo_pred = {
        GeometryClass.ROOM_LIKE: "RoLi",
        GeometryClass.CORRIDOR_LIKE: "CoLi",
        GeometryClass.HALL_LIKE: "HaLi",
    }
    door_count = {u.uid: 0 for u in units}
    for d in doors:
        if d.unit_p in door_count:
            door_count[d.unit_p] += 1
        if d.unit_q in door_count:
            door_count[d.unit_q] += 1
    for i, u in enumerate(units):
        c = constants[i]
        atoms[(geo_pred[geometry[i]], (c,))] = True
        atoms[("MulDoor", (c,))] = door_count[u.uid] >= 2
    for p in range(n):
        for q in range(n):
            if p != q and relations is not None and relations[p, q]:
                atoms[("Adj", (constants[p], constants[q]))] = True
    return EvidenceSet(constants=constants, atoms=atoms)


# ---------------------------------------------------------------------------
# grounding

STATUS_QUERY = 0
STATUS_TRUE = 1
STATUS_FALSE = 2


@dataclass
class GroundNetwork:
    """Grounded clauses over query atoms after evidence substitution."""

    constants: tuple
    atoms: list  # (pred, args) in creation order
    atom_index: dict
    status: list  # STATUS_* per atom (forced atoms become TRUE/FALSE)
    clauses: list  # (weight_or_None, [(atom_idx, positive)])
    hard_contradiction: bool = False

    @property
    def query_atom_count(self) -> int:
        return len(self.atoms)

    def free_atoms(self):
        return [i for i, s in enumerate(self.status) if s == STATUS_QUERY]


def ground(rules, constants, evidence: EvidenceSet) -> GroundNetwork:
    """Instantiate rules over constants and simplify against hard evidence.

    Clauses fully decided by evidence are dropped (a hard clause contradicted
    by evidence marks the network as unsatisfiable). Hard unit clauses are
    then propagated to a fixpoint, so the remaining free atoms are exactly
    the genuinely undetermined query groundings.
    """
    constants = tuple(constants)
    atoms = []
    atom_index = {}
    for pred in ("Room", "Corr", "Hall", "Other"):
        for c in constants:
            atom_index[(pred, (c,))] = len(atoms)
            atoms.append((pred, (c,)))
    for cp in constants:
        for cq in constants:
            atom_index[("SaLe", (cp, cq))] = len(atoms)
            atoms.append(("SaLe", (cp, cq)))
    status = [STATUS_QUERY] * len(atoms)
    # SaLe diagonal is forced false, consistent with the non-reflexive Adj
    for c in constants:
        status[atom_index[("SaLe", (c, c))]] = STATUS_FALSE

    network = GroundNetwork(
        constants=constants,
        atoms=atoms,
        atom_index=atom_index,
        status=status,
        clauses=[],
    )

    for rule in rules:
        for lit in rule.clause:
            if lit.pred not in VOCABULARY:
                raise UnknownPredicate(f"unknown predicate {lit.pred!r}")
        variables = rule.variables()
        for binding in itertools.product(constants, repeat=len(variables)):
            env = dict(zip(variables, binding))
            _ground_clause(network, rule, env, evidence)

    _propagate_hard_units(network)
    return network


def _ground_clause(network: GroundNetwork, rule: Rule, env, evidence: EvidenceSet):
    lits = {}  # atom_idx -> positive
    for lit in rule.clause:
        args = tuple(env[a] for a in lit.args)
        if lit.pred in EVIDENCE_PREDICATES:
            value = evidence.truth(lit.pred, args)
            if value == lit.positive:
                return  # satisfied by evidence
            continue  # false literal drops out
        idx = network.atom_index[(lit.pred, args)]
        st = network.status[idx]
        if st != STATUS_QUERY:
            value = st == STATUS_TRUE
            if value == lit.positive:
                return
            continue
        if idx in lits and lits[idx] != lit.positive:
            return  # tautology
        lits[idx] = lit.positive
    if not lits:
        if rule.hard:
            network.hard_contradiction = True
        return
    network.clauses.append((rule.weight, sorted(lits.items())))


def _propagate_hard_units(network: GroundNetwork):
    changed = True
    while changed and not network.hard_contradiction:
        changed = False
        remaining = []
        for weight, lits in network.clauses:
            new_lits = []
            satisfied = False
            for idx, pos in lits:
                st = network.status[idx]
                if st == STATUS_QUERY:
                    new_lits.append((idx, pos))
                elif (st == STATUS_TRUE) == pos:
                    satisfied = True
                    break
            if satisfied:
                changed = True
                continue
            if not new_lits:
                if weight is None:
                    network.hard_contradiction = True
                changed = True
                continue
            if weight is None and len(new_lits) == 1:
                idx, pos = new_lits[0]
                network.status[idx] = STATUS_TRUE if pos else STATUS_FALSE
                changed = True
                continue
            if len(new_lits) != len(lits):
                changed = True
            remaining.append((weight, new_lits))
        network.clauses = remaining


# ---------------------------------------------------------------------------
# exact inference


def infer_exact(network: GroundNetwork, queries=None, budget: int = EXACT_ATOM_BUDGET):
    """Exact marginals by enumeration over the free query atoms.

    The network is split into independent components (atoms coupled through
    shared clauses) and each component is enumerated with vectorized clause
    evaluation; worlds violating a hard clause carry zero weight.
    """
    if network.hard_contradiction:
        raise AllWorldsExcluded("hard rules contradicted by evidence")
    free = network.free_atoms()
    if len(free) > budget:
        raise TooLarge(f"{len(free)} free atoms exceed the budget of {budget}")

    marginals = {}
    for i, (pred, args) in enumerate(network.atoms):
        st = network.status[i]
        if st == STATUS_TRUE:
            marginals[(pred, args)] = 1.0
        elif st == STATUS_FALSE:
            marginals[(pred, args)] = 0.0

    comp_of = _components(network, free)
    for comp_atoms, comp_clauses in comp_of:
        comp_marg = _enumerate_component(network, comp_atoms, comp_clauses)
        marginals.update(comp_marg)

    if queries is not None:
        out = {}
        for key in queries:
            if key not in marginals:
                raise NotQueried(f"{key} has no marginal")
            out[key] = marginals[key]
        return out
    return marginals


def _components(network: GroundNetwork, free):
    parent = {a: a for a in free}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for _, lits in network.clauses:
        first = lits[0][0]
        for idx, _ in lits[1:]:
            union(first, idx)

    groups = {}
    for a in free:
        groups.setdefault(find(a), []).append(a)
    clause_groups = {root: [] for root in groups}
    for clause in network.clauses:
        root = find(clause[1][0][0])
        clause_groups[root].append(clause)
    return [(sorted(groups[r]), clause_groups[r]) for r in sorted(groups)]


def _enumerate_component(network: GroundNetwork, comp_atoms, comp_clauses, chunk=1 << 18):
    k = len(comp_atoms)
    pos_of = {a: i for i, a in enumerate(comp_atoms)}
    total_w = 0.0
    atom_w = np.zeros(k)
    n_states = 1 << k
    for start in range(0, n_states, chunk):
        idx = np.arange(start, min(start + chunk, n_states), dtype=np.int64)
        bits = [((idx >> b) & 1).astype(bool) for b in range(k)]
        logw = np.zeros(idx.shape[0])
        feasible = np.ones(idx.shape[0], dtype=bool)
        for weight, lits in comp_clauses:
            sat = np.zeros(idx.shape[0], dtype=bool)
            for a, positive in lits:
                sat |= bits[pos_of[a]] if positive else ~bits[pos_of[a]]
            if weight is None:
                feasible &= sat
            else:
                logw += weight * sat
        w = np.where(feasible, np.exp(logw), 0.0)
        total_w += float(w.sum())
        for i in range(k):
            atom_w[i] += float(w[bits[i]].sum())
    if total_w <= 0.0:
        raise AllWorldsExcluded("hard clauses unsatisfiable within a component")
    return {
        network.atoms[a]: atom_w[i] / total_w for i, a in enumerate(comp_atoms)
    }


# ---------------------------------------------------------------------------
# Gibbs sampling


def infer_gibbs(
    network: GroundNetwork,
    queries=None,
    burn_in: int = 200,
    samples: int = 800,
    seed: int = 0,
    n_chains: int = 8,
    hard_weight: float = HARD_GIBBS_WEIGHT,
):
    """Marginals as sample frequencies from blocked Gibbs sweeps.

    Hard clauses enter the conditional with weight ``hard_weight``; the
    initial state is found by restart search over the hard clauses. Symmetric
    2-ary atom pairs form joint blocks. Deterministic given the seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if network.hard_contradiction:
        raise AllWorldsExcluded("hard rules contradicted by evidence")
    free = network.free_atoms()
    marginals = {}
    for i, (pred, args) in enumerate(network.atoms):
        st = network.status[i]
        if st == STATUS_TRUE:
            marginals[(pred, args)] = 1.0
        elif st == STATUS_FALSE:
            marginals[(pred, args)] = 0.0
    if not free:
        return _select(marginals, queries)

    rng = np.random.Generator(np.random.PCG64(seed))
    pos_of = {a: i for i, a in enumerate(free)}
    clauses = [
        (hard_weight if w is None else w, w is None, lits)
        for w, lits in network.clauses
    ]
    n_clauses = len(clauses)
    weights = np.array([c[0] for c in clauses])

    occ = [[] for _ in free]  # per free atom: (clause index, sign)
    for ci, (_, _, lits) in enumerate(clauses):
        for idx, positive in lits:
            occ[pos_of[idx]].append((ci, 1 if positive else -1))

    blocks = _blocks(network, free, pos_of)
    init = _feasible_assignment(network, free, pos_of, clauses, rng)

    C = n_chains
    vals = np.tile(init.astype(np.int8), (C, 1))
    tc = np.zeros((C, n_clauses), dtype=np.int16)
    for ci, (_, _, lits) in enumerate(clauses):
        for idx, positive in lits:
            lit_true = vals[:, pos_of[idx]] == (1 if positive else 0)
            tc[:, ci] += lit_true

    block_data = _prepare_block_data(blocks, occ, weights)
    counts = np.zeros(len(free), dtype=np.float64)
    for sweep in range(burn_in + samples):
        for data in block_data:
            _update_block(data, vals, tc, rng)
        if sweep >= burn_in:
            counts += vals.sum(axis=0)
    total = samples * C
    for i, a in enumerate(free):
        marginals[network.atoms[a]] = counts[i] / total
    return _select(marginals, queries)


def _select(marginals, queries):
    if queries is None:
        return marginals
    out = {}
    for key in queries:
        if key not in marginals:
            raise NotQueried(f"{key} has no marginal")
        out[key] = marginals[key]
    return out


def _blocks(network: GroundNetwork, free, pos_of):
    """Group symmetric 2-ary groundings into joint blocks, the rest single."""
    blocks = []
    used = set()
    free_set = set(free)
    for a in free:
        if a in used:
            continue
        pred, args = network.atoms[a]
        if len(args) == 2 and args[0] != args[1]:
            twin_key = (pred, (args[1], args[0]))
            twin = network.atom_index.get(twin_key)
            if twin is not None and twin in free_set and twin not in used:
                blocks.append((pos_of[a], pos_of[twin]))
                used.add(a)
                used.add(twin)
                continue
        blocks.append((pos_of[a],))
        used.add(a)
    return blocks


def _feasible_assignment(network, free, pos_of, clauses, rng, restarts=50, flips=2000):
    """Randomized search for an assignment satisfying all hard clauses."""
    hard = [(ci, lits) for ci, (_, is_hard, lits) in enumerate(clauses) if is_hard]

    def satisfied(vals, lits):
        return any((vals[pos_of[idx]] == 1) == positive for idx, positive in lits)

    k = len(free)
    for _ in range(restarts):
        vals = (rng.random(k) < 0.5).astype(np.int8)
        for _ in range(flips):
            violated = next((lits for _, lits in hard if not satisfied(vals, lits)), None)
            if violated is None:
                return vals
            idx, _ = violated[int(rng.integers(len(violated)))]
            vals[pos_of[idx]] ^= 1
        if all(satisfied(vals, lits) for _, lits in hard):
            return vals
    raise NoFeasibleState("restart search failed to satisfy the hard clauses")


def _prepare_block_data(blocks, occ, weights):
    data = []
    for block in blocks:
        if len(block) == 1:
            i = block[0]
            cl = np.array([c for c, _ in occ[i]], dtype=np.int64)
            sg = np.array([s for _, s in occ[i]], dtype=np.int64)
            data.append(("s", i, cl, sg, weights[cl] * sg if cl.size else np.zeros(0)))
        else:
            i, j = block
            touched = {}
            for c, s in occ[i]:
                touched.setdefault(c, [0, 0])[0] = s
            for c, s in occ[j]:
                touched.setdefault(c, [0, 0])[1] = s
            cl = np.array(sorted(touched), dtype=np.int64)
            si = np.array([touched[c][0] for c in cl], dtype=np.int64)
            sj = np.array([touched[c][1] for c in cl], dtype=np.int64)
            w = weights[cl] if cl.size else np.zeros(0)
            # literal truth per joint state (a, b) for each clause
            contrib = []
            for a in (0, 1):
                for b in (0, 1):
                    li = (si == 1) if a else (si == -1)
                    lj = (sj == 1) if b else (sj == -1)
                    contrib.append((li, lj))
            data.append(("p", i, j, cl, si, sj, w, contrib))
    return data


def _update_block(data, vals, tc, rng):
    C = vals.shape[0]
    if data[0] == "s":
        _, i, cl, sg, wsg = data
        if cl.size == 0:
            new = (rng.random(C) < 0.5).astype(np.int8)
            vals[:, i] = new
            return
        pos = (sg > 0).astype(np.int8)
        lit_true = vals[:, i : i + 1] == pos[None, :]
        others = tc[:, cl] - lit_true
        delta = ((others == 0) * wsg[None, :]).sum(axis=1)
        p1 = 1.0 / (1.0 + np.exp(-delta))
        new = (rng.random(C) < p1).astype(np.int8)
        change = (new - vals[:, i]).astype(np.int16)
        if np.any(change):
            tc[:, cl] += change[:, None] * sg[None, :]
        vals[:, i] = new
    else:
        _, i, j, cl, si, sj, w, contrib = data
        if cl.size == 0:
            new = (rng.random((C, 2)) < 0.5).astype(np.int8)
            vals[:, i] = new[:, 0]
            vals[:, j] = new[:, 1]
            return
        pos_i = (si == 1).astype(np.int8)
        pos_j = (sj == 1).astype(np.int8)
        lit_i = (vals[:, i : i + 1] == pos_i[None, :]) & (si != 0)[None, :]
        lit_j = (vals[:, j : j + 1] == pos_j[None, :]) & (sj != 0)[None, :]
        base = tc[:, cl] - lit_i - lit_j
        logw = np.empty((C, 4))
        for s, (ci_, cj_) in enumerate(contrib):
            sat = (base > 0) | ci_[None, :] | cj_[None, :]
            logw[:, s] = (sat * w[None, :]).sum(axis=1)
        logw -= logw.max(axis=1, keepdims=True)
        p = np.exp(logw)
        p /= p.sum(axis=1, keepdims=True)
        u = rng.random(C)
        choice = (p.cumsum(axis=1) < u[:, None]).sum(axis=1)
        new_i = (choice >> 1).astype(np.int8)
        new_j = (choice & 1).astype(np.int8)
        di = (new_i - vals[:, i]).astype(np.int16)
        dj = (new_j - vals[:, j]).astype(np.int16)
        if np.any(di):
            tc[:, cl] += di[:, None] * si[None, :]
        if np.any(dj):
            tc[:, cl] += dj[:, None] * sj[None, :]
        vals[:, i] = new_i
        vals[:, j] = new_j


# ---------------------------------------------------------------------------
# downstream helpers


def assign_types(marginals, constants):
    """Per-unit argmax over the four type marginals.

    Ties break in the fixed order Room > Corridor > Hall > Other.
    """
    out = {}
    for c in constants:
        best_pred, best_p = None, -1.0
        for pred in TYPE_ATOM_ORDER:
            p = marginals.get((pred, (c,)))
            if p is None:
                raise NotQueried(f"missing type marginal {pred}({c})")
            if p > best_p:
                best_pred, best_p = pred, p
        out[c] = _TYPE_OF_ATOM[best_pred]
    return out


def sale_probability(marginals, cp: str, cq: str) -> float:
    key = ("SaLe", (cp, cq))
    if key not in marginals:
        raise NotQueried(f"SaLe({cp},{cq}) was not queried")
    return marginals[key]


def evidence_hash(evidence: EvidenceSet, rules) -> str:
    rule_text = "\n".join(r.text for r in rules)
    payload = evidence.canonical_key() + "||" + rule_text
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def infer_marginals(
    network: GroundNetwork,
    seed: int = 0,
    budget: int = EXACT_ATOM_BUDGET,
    burn_in: int = 200,
    samples: int = 800,
    n_chains: int = 8,
):
    """Exact inference when the free-atom count fits the budget, else Gibbs."""
    if len(network.free_atoms()) <= budget:
        return infer_exact(network, budget=budget)
    return infer_gibbs(
        network, burn_in=burn_in, samples=samples, seed=seed, n_chains=n_chains
    )
