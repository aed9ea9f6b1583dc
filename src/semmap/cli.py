"""Command-line surface: ``semmap infer | eval | mln | synth``.

Exit codes: 0 success; 1 malformed input; 2 config/parse error or an output
path that cannot be written (infer, synth); 3 empty map (infer) or no
feasible MLN state (infer, mln).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import mln as mln_mod
from .config import RunConfig, load_config
from .errors import (
    AllWorldsExcluded,
    ConfigError,
    EmptyMap,
    InvalidSpec,
    MalformedFile,
    NoFeasibleState,
    RulesParseError,
    UnknownPredicate,
    UnsupportedFormat,
)
from .evaluation import (
    RegionOfInterest,
    SyntheticSpec,
    cpr,
    demo_spec,
    full_roi,
    generate_synthetic,
    topology_match,
)
from .grid import classify, load_grid
from .mcmc import Chain
from .render import render_graph, render_samples, render_world
from .world import abstract_graph, detect_objects, rasterize, world_from_dict, world_to_dict


def _dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_samples(entries, path):
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True))
            fh.write("\n")


def _load_run_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, base=cfg)
    overrides = {}
    for name in ("seed", "iterations", "chains"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _rules_for(cfg: RunConfig):
    if cfg.rules_file:
        with open(cfg.rules_file, "r", encoding="utf-8") as fh:
            return mln_mod.parse_rules(fh.read())
    return mln_mod.default_rules()


def cmd_infer(args) -> int:
    try:
        cfg = _load_run_config(args)
        rules = _rules_for(cfg)
    except (ConfigError, RulesParseError, UnknownPredicate, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        grid = load_grid(args.map, resolution=args.resolution)
    except (MalformedFile, UnsupportedFormat, OSError) as exc:
        print(f"cannot load map: {exc}", file=sys.stderr)
        return 1
    cgrid = classify(grid, cfg.free_below, cfg.occupied_above)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2

    results = []
    try:
        for i in range(cfg.chains):
            chain_cfg = replace(cfg, seed=cfg.seed + i, chains=1)
            chain = Chain(cgrid, chain_cfg, rules=rules)
            world, states, stats = chain.run()
            results.append((world, states, stats, chain))
    except EmptyMap as exc:
        print(f"empty map: {exc}", file=sys.stderr)
        return 3
    except (AllWorldsExcluded, NoFeasibleState) as exc:
        print(f"no feasible MLN state: {exc}", file=sys.stderr)
        return 3

    best_idx = max(
        range(len(results)), key=lambda i: results[i][2]["best_log_posterior"]
    )
    world, states, stats, chain = results[best_idx]

    _dump_json(world_to_dict(world), os.path.join(args.out, "world.json"))
    _write_samples(chain.log_entries, os.path.join(args.out, "samples.ndjson"))
    if len(results) > 1:
        for i, (w_i, _, _, c_i) in enumerate(results):
            _dump_json(world_to_dict(w_i), os.path.join(args.out, f"world_chain{i}.json"))
            _write_samples(c_i.log_entries, os.path.join(args.out, f"samples_chain{i}.ndjson"))
    all_stats = {
        "best_chain": best_idx,
        "chains": [r[2] for r in results],
    }
    _dump_json(all_stats, os.path.join(args.out, "stats.json"))
    render_world(
        cgrid,
        world,
        os.path.join(args.out, "overlay.ppm"),
        states=states,
        wall_thickness=cfg.wall_thickness,
    )
    render_graph(abstract_graph(world), os.path.join(args.out, "graph.dot"))
    if chain.sample_ring:
        render_samples(
            cgrid,
            [units for units, _ in chain.sample_ring],
            os.path.join(args.out, "samples.ppm"),
        )
    if args.json:
        print(json.dumps({"out": args.out, "stats": all_stats}, sort_keys=True))
    else:
        print(
            f"best world: {world.n} units, log posterior "
            f"{stats['best_log_posterior']:.2f}, {stats['iterations_per_second']:.0f} it/s"
        )
    return 0


def cmd_eval(args) -> int:
    try:
        cfg = _load_run_config(args)
        with open(args.world, "r", encoding="utf-8") as fh:
            world = world_from_dict(json.load(fh))
        grid = load_grid(args.map, resolution=world.resolution)
    except (MalformedFile, UnsupportedFormat, OSError, ValueError, KeyError) as exc:
        print(f"cannot load inputs: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    cgrid = classify(grid, cfg.free_below, cfg.occupied_above)
    if args.roi:
        roi = RegionOfInterest(*args.roi)
    else:
        print("warning: no roi given, using the full map", file=sys.stderr)
        roi = full_roi(cgrid.states.shape)
    raw = rasterize(
        world.units,
        cgrid,
        wall_thickness=cfg.wall_thickness,
        doors=world.doors,
        object_from_occupied=cfg.object_from_occupied,
    )
    _, states = detect_objects(raw, min_object_cells=cfg.min_object_cells)
    tables = cfg.sensor_tables()
    report = {
        "cpr_modal": cpr(world, states, cgrid, roi, tables, variant="modal"),
        "cpr_strict": cpr(world, states, cgrid, roi, tables, variant="strict"),
    }
    if args.truth:
        try:
            with open(args.truth, "r", encoding="utf-8") as fh:
                truth = world_from_dict(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load truth world: {exc}", file=sys.stderr)
            return 1
        report["topology"] = topology_match(world, truth, cgrid.states.shape)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _parse_evidence_file(path):
    atoms = {}
    constants = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            positive = True
            if line.startswith("!"):
                positive = False
                line = line[1:].strip()
            name, rest = line.split("(", 1)
            name = name.strip()
            if name not in mln_mod.EVIDENCE_PREDICATES:
                raise RulesParseError(f"not an evidence predicate: {name!r}")
            args = tuple(a.strip() for a in rest.rstrip(")").split(","))
            if len(args) != mln_mod.EVIDENCE_PREDICATES[name]:
                raise RulesParseError(f"bad arity in evidence line {raw.strip()!r}")
            atoms[(name, args)] = positive
            for a in args:
                if a not in constants:
                    constants.append(a)
    return mln_mod.EvidenceSet(constants=tuple(constants), atoms=atoms)


def _parse_query(token: str):
    token = token.strip()
    if "(" in token:
        name, rest = token.split("(", 1)
        args = tuple(a.strip() for a in rest.rstrip(")").split(","))
    else:
        name, args = token, None
    if name not in mln_mod.QUERY_PREDICATES:
        raise UnknownPredicate(f"not a query predicate: {name!r}")
    if args is not None and len(args) != mln_mod.QUERY_PREDICATES[name]:
        raise RulesParseError(f"bad arity in query {token!r}")
    return name, args


def cmd_mln(args) -> int:
    try:
        if args.rules == "default":
            rules = mln_mod.default_rules()
        else:
            with open(args.rules, "r", encoding="utf-8") as fh:
                rules = mln_mod.parse_rules(fh.read())
        evidence = _parse_evidence_file(args.evidence)
        queries = [_parse_query(q) for q in args.query]
        if args.burn_in < 0 or args.samples < 1:
            raise ValueError("need --burn-in >= 0 and --samples >= 1")
    except (RulesParseError, UnknownPredicate, OSError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    network = mln_mod.ground(rules, evidence.constants, evidence)
    try:
        marginals = mln_mod.infer_marginals(
            network,
            seed=args.seed,
            # exact inference within the budget; a budget of -1 forces Gibbs
            budget=-1 if args.gibbs else mln_mod.EXACT_ATOM_BUDGET,
            burn_in=args.burn_in,
            samples=args.samples,
        )
    except NoFeasibleState as exc:
        print(f"no feasible state: {exc}", file=sys.stderr)
        return 3
    except AllWorldsExcluded as exc:
        print(f"contradictory evidence: {exc}", file=sys.stderr)
        return 3
    out = {}
    for name, qargs in queries:
        if qargs is None:
            for (pred, aargs), p in sorted(marginals.items()):
                if pred == name:
                    out[f"{pred}({','.join(aargs)})"] = p
        else:
            key = (name, qargs)
            if key not in marginals:
                print(f"parse error: unknown atom {name}{qargs}", file=sys.stderr)
                return 2
            out[f"{name}({','.join(qargs)})"] = marginals[key]
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def cmd_synth(args) -> int:
    try:
        if args.spec == "demo":
            spec = demo_spec(noise=args.noise)
        else:
            with open(args.spec, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise InvalidSpec("a spec must be a JSON object")
            spec = SyntheticSpec(
                width=doc["width"],
                height=doc["height"],
                resolution=doc.get("resolution", 0.05),
                wall_thickness=doc.get("wall_thickness", 2),
                units=[(u[0], tuple(u[1])) for u in doc.get("units", [])],
                doors=[tuple(d) for d in doc.get("doors", [])],
                objects=[(o[0], tuple(o[1])) for o in doc.get("objects", [])],
                flip_prob=doc.get("flip_prob", {}),
                speckle=doc.get("speckle", 0.0),
            )
        grid, truth = generate_synthetic(spec, seed=args.seed)
    except (InvalidSpec, KeyError, TypeError, ValueError, OSError) as exc:
        print(f"bad spec: {exc}", file=sys.stderr)
        return 2
    pixels = np.round((1.0 - grid.values) * 255.0).astype(np.uint8)
    pgm_path = args.out + ".pgm"
    try:
        with open(pgm_path, "wb") as fh:
            fh.write(f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
        _dump_json(world_to_dict(truth), args.out + ".truth.json")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {pgm_path} and {args.out}.truth.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semmap",
        description="Abstract semantic world models from occupancy grid maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="run the full MCMC pipeline on a map")
    p.add_argument("map", help="occupancy grid map (PGM P2/P5)")
    p.add_argument("--config", help="run-config file (key = value)")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--chains", type=int, default=None)
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--json", action="store_true", help="machine-readable stdout")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="CPR and topology metrics for a world")
    p.add_argument("world", help="world JSON")
    p.add_argument("map", help="occupancy grid map")
    p.add_argument("--roi", type=int, nargs=4, metavar=("X0", "Y0", "X1", "Y1"))
    p.add_argument("--truth", help="ground-truth world JSON")
    p.add_argument("--config", help="run-config file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mln", help="query marginals for rules + evidence")
    p.add_argument("rules", help="rules file, or 'default'")
    p.add_argument("evidence", help="evidence file (ground literals)")
    p.add_argument("query", nargs="+", help="ground atoms or predicate names")
    p.add_argument("--gibbs", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--samples", type=int, default=4000)
    p.set_defaults(func=cmd_mln)

    p = sub.add_parser("synth", help="generate a synthetic map + truth world")
    p.add_argument("spec", help="spec JSON file, or 'demo'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="synthetic", help="output path prefix")
    p.add_argument("--noise", type=float, default=0.0, help="demo noise level")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
