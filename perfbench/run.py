"""End-to-end and per-layer benchmark of `semmap infer`.

    python3 perfbench/run.py --workload floor --seed 0 --seconds 10 --trace 0

Runs `semmap infer` through the CLI entry point (`semmap.cli.main`) in this
one process, one thread, on each map of the workload in turn, and prints one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every public function of
the package is wrapped and the metrics are the per-layer ones (the full
per-function table goes to perfbench/out/trace-<workload>.json).

One operation is one map run through `infer`. A run repeats whole rounds
(every map once) until --seconds have passed and reports medians over
rounds. The maps are fixed by --maps; --seed does not change them, because
tts_iters and every world.json must repeat exactly from run to run.

End-to-end times are corrected for the host's momentary CPU speed by the
reference probe in speed.py; raw wall-clock seconds are logged to stderr
next to them. See perfbench/README.md for the workloads, metrics and
failure rules.
"""

from __future__ import annotations

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started, from /proc (0 where unreadable)."""
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


_T_START = time.perf_counter()
_AGE_AT_START = _process_age()

# one thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

from tracer import LAYERS  # noqa: E402  (stdlib only; numpy is imported later)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_MAPS = {"floor": "0", "two_rooms": "0", "paper_scale": "0"}
RESOLUTION = {"floor": "0.05", "two_rooms": "0.05", "paper_scale": "0.1"}
ROI_INSET = 6
SOLVED_CPR = 0.85
LOGLIK_TOL = 1e-6
KERNELS = ("add", "remove", "split", "merge", "shrink", "dilate", "allocate", "delete", "interchange")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("tts_s", "s"),
    ("tts_iters", "iterations"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    (
        ("scoring.preview_calls", "count"),
        ("scoring.preview_self_s", "s"),
        ("scoring.cells_rescored", "count"),
        ("world.rasterize_window_s", "s"),
        ("mcmc.proposals", "count"),
        ("mcmc.skipped", "count"),
        ("mcmc.accepted", "count"),
        ("mcmc.propose_s", "s"),
    )
    + tuple((f"mcmc.skipped.{k}", "count") for k in KERNELS)
    + (
        ("mcmc.accept_self_s", "s"),
        ("grid.dilate_calls", "count"),
        ("grid.dilate_s", "s"),
        ("mcmc.prior_active_iters", "count"),
        ("mcmc.refreshes", "count"),
        ("mcmc.refresh_self_s", "s"),
        ("mcmc.mln_runs", "count"),
        ("mln.ground_s", "s"),
        ("mln.free_atoms", "count"),
        ("mln.exact_calls", "count"),
        ("mln.exact_s", "s"),
        ("mln.gibbs_calls", "count"),
        ("mln.gibbs_s", "s"),
        ("world.detect_relations_s", "s"),
        ("world.detect_doors_s", "s"),
        ("mcmc.derive_world_self_s", "s"),
        ("world.detect_objects_s", "s"),
        ("world.object_components", "count"),
        ("world.detect_unexplored_s", "s"),
        ("grid.components_s", "s"),
        ("render.s", "s"),
        ("render.bytes", "bytes"),
        ("cli.write_s", "s"),
        ("cli.bytes_written", "bytes"),
        ("grid.load_grid_s", "s"),
        ("grid.classify_s", "s"),
        ("mcmc.init_s", "s"),
        ("evaluation.cpr_strict", "ratio"),
        ("evaluation.door_f1", "ratio"),
        ("evaluation.adjacency_f1", "ratio"),
        ("evaluation.type_acc", "ratio"),
    )
    + tuple((f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s")))
)
CLI_FILES = ("world.json", "samples.ndjson", "stats.json")
RENDER_FILES = ("overlay.ppm", "samples.ppm", "graph.dot")


class MapRun:
    """What the benchmark observes of one map's `infer`, as raw
    perf_counter stamps: setup calls, the chain loop, the benchmark's own
    solution checks (left out of every time) and the first solution."""

    def __init__(self, seed, solved):
        self.seed = seed
        self.solved = solved  # accepted chain state -> bool; None: no solution probe
        self.setup = []  # (start, end) of load_grid, classify, Chain()
        self.checks = []  # (start, end) of each solution check
        self.start = self.end = None  # the cli.main call
        self.loop_t0 = None
        self.loop_end = None  # the loop ends where Chain.run calls derive_world
        self.hit_t = None  # the start of the check that found the first solution
        self.hit_iter = None
        self.final = None  # the chain's state when Chain.run returned
        self.rc = None
        self.summary = ""  # correctness and quality notes for the log line
        self.cli_write_mark = None  # (net clock, open cmd_infer span, its child time) when Chain.run returned


def install_probes(tracer, net_clock, current):
    """Wrap the names `cmd_infer` and `Chain.run` look up so that each map's
    setup, chain loop and accepted states are observed; `current[0]` is the
    MapRun."""
    import semmap.cli as cli
    import semmap.mcmc as mcmc

    real_load_grid, real_classify, real_chain = cli.load_grid, cli.classify, cli.Chain
    real_derive_world = mcmc.derive_world
    clock = time.perf_counter

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                current[0].setup.append((t0, clock()))

        return wrapper

    def make_chain(*args, **kwargs):
        probe = current[0]
        t0 = clock()
        chain = real_chain(*args, **kwargs)
        probe.setup.append((t0, clock()))
        real_accept, real_run = chain.accept, chain.run

        def accept(proposal):
            accepted = real_accept(proposal)
            if accepted and probe.hit_iter is None and probe.solved is not None:
                t, n = clock(), net_clock()
                if probe.solved(chain):
                    probe.hit_iter, probe.hit_t = chain.iteration, t
                probe.checks.append((t, clock()))
                if tracer is not None:
                    tracer.exclude(net_clock() - n)
            return accepted

        def run():
            probe.loop_t0 = clock()
            result = real_run()
            probe.final = {
                "units": chain.units,
                "types": dict(chain.types),
                "doors": chain.doors,
                "log_lik": chain.log_lik,
                "iteration": chain.iteration,
                "cfg": chain.cfg,
                "states": result[1],  # the state map `infer` renders
            }
            if tracer is not None:
                frames = [f for f in tracer.stack if f[1] == "cli.cmd_infer"]
                if frames:
                    probe.cli_write_mark = (net_clock(), frames[-1], frames[-1][0])
            return result

        chain.accept, chain.run = accept, run
        return chain

    def derive_world(*args, **kwargs):
        current[0].loop_end = clock()
        return real_derive_world(*args, **kwargs)

    cli.load_grid, cli.classify, cli.Chain = timed(real_load_grid), timed(real_classify), make_chain
    mcmc.derive_world = derive_world


def own_units(units):
    return [(u.uid, u.cx, u.cy, u.hu, u.hv, u.angle) for u in units]


def own_doors(doors):
    return [(d.p0, d.p1, d.carve_halfwidth) for d in doors]


def file_bytes(directory, names) -> int:
    paths = [os.path.join(directory, n) for n in names]
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Bench:
    def __init__(self, workload, seeds, seconds, trace, clock):
        self.workload = workload
        self.seeds = seeds
        self.seconds = seconds
        self.trace = trace
        self.clock = clock  # speed.SpeedClock, running
        self.problems = []  # correctness failures: the run reports correct=false
        self.failed = 0
        self.attempted = 0
        self.quality = []  # per map: (cpr_strict, door_f1, adjacency_f1, type_acc)
        self.chain_stats = []  # per map: the best chain's stats.json entry

    def log(self, text):
        print(f"perfbench {self.workload}: {text}", file=sys.stderr, flush=True)

    def net_clock(self) -> float:
        """Raw time less the speedometer's probes, for the tracer's spans."""
        return time.perf_counter() - self.clock.probe_total

    def run(self, lead_s, import_span) -> int:
        import json
        import resource
        import shutil
        import statistics

        import maps
        from tracer import Tracer

        recorded = maps.load_hashes()
        work = os.path.join(HERE, "out", f"run-{self.workload}-{os.getpid()}")
        os.makedirs(work)
        cwd = os.getcwd()
        rounds = []
        try:
            try:
                inputs = [maps.write_map(self.workload, seed, work, recorded) for seed in self.seeds]
            except ValueError as exc:  # an input differs from its recorded hash
                self.log(str(exc))
                return 2
            tracer = None
            if self.trace:
                tracer = Tracer(self.net_clock)
                tracer.install()
            current = [None]
            install_probes(tracer, self.net_clock, current)
            # relative paths in the configs (rules_file) resolve against the work dir
            os.chdir(work)
            peak_rss_mb = None
            t_begin = time.perf_counter()
            while not rounds or time.perf_counter() - t_begin < self.seconds:
                runs = [self.infer(seed, paths, tracer, current) for seed, paths in zip(self.seeds, inputs)]
                if peak_rss_mb is None:
                    # before the checks below allocate their own frames
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                for probe, paths in zip(runs, inputs):
                    out = os.path.join(work, f"out-{probe.seed}")
                    self.check(probe, paths, out)
                    shutil.rmtree(out, ignore_errors=True)
                rounds.append(runs)
        finally:
            self.clock.stop()
            os.chdir(cwd)
            shutil.rmtree(work, ignore_errors=True)

        span, raw_span = self.clock.span, self.clock.raw_span
        per_round = []
        for runs in rounds:
            totals = {"wall_s": 0.0, "raw_wall_s": 0.0, "setup_s": 0.0, "tts_s": 0.0, "tts_iters": 0}
            for p in runs:
                wall = span(p.start, p.end) - sum(span(a, b) for a, b in p.checks)
                raw = raw_span(p.start, p.end) - sum(raw_span(a, b) for a, b in p.checks)
                setup = sum(span(a, b) for a, b in p.setup)
                tts_s, tts_iters = self.tts(p)
                tts_raw = self.tts(p, raw=True)[0]
                totals["wall_s"] += wall
                totals["raw_wall_s"] += raw
                totals["setup_s"] += setup
                totals["tts_s"] += tts_s
                totals["tts_iters"] += tts_iters
                self.log(
                    f"map {p.seed}: wall {wall:.3f} s (raw {raw:.3f} s), setup {setup:.3f} s, "
                    f"tts {tts_s:.3f} s (raw {tts_raw:.3f} s) / {tts_iters} it{'' if p.hit_iter is not None else ' (whole loop)'}"
                    f"{p.summary}"
                )
            per_round.append(totals)
        probes = sorted(e - s for s, e in zip(self.clock.starts, self.clock.ends))
        self.log(f"speed probes: {len(probes)}, median {1e3 * probes[len(probes) // 2]:.3f} ms")
        for problem in self.problems:
            self.log(f"CHECK FAILED: {problem}")

        if self.trace:
            metrics = self.per_layer(tracer, len(rounds))
            with open(os.path.join(HERE, "out", f"trace-{self.workload}.json"), "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "workload": self.workload,
                        "maps": self.seeds,
                        "rounds": len(rounds),
                        "traced_wall_s": statistics.median(r["wall_s"] for r in per_round),
                        "traced_raw_wall_s": statistics.median(r["raw_wall_s"] for r in per_round),
                        "per_layer": metrics,
                        "functions": tracer.table(),
                    },
                    fh,
                    indent=1,
                    sort_keys=True,
                )
            units = dict(PER_LAYER)
        else:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in per_round),
                "setup_s": self.clock.lead(lead_s) + span(*import_span) + per_round[0]["setup_s"],
                "tts_s": statistics.median(r["tts_s"] for r in per_round),
                "tts_iters": statistics.median(r["tts_iters"] for r in per_round),
                "peak_rss_mb": peak_rss_mb,
            }
            units = dict(END_TO_END)
        result = {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result, sort_keys=True))
        return 0

    # -- one map ---------------------------------------------------------------

    def solved_check(self, paths):
        """The solution test run on accepted chain states: the truth unit
        count and strict CPR >= 0.85 on the ROI inset by ROI_INSET cells,
        computed with the benchmark's own rasterizer."""
        import json

        import oracle

        with open(paths["truth.json"], "r", encoding="utf-8") as fh:
            truth_n = len(json.load(fh)["units"])
        cache = {}

        def solved(chain):
            if len(chain.units) != truth_n:
                return False
            cfg = chain.cfg
            if "classes" not in cache:
                cache["classes"] = oracle.read_pgm_classes(paths["pgm"], cfg.free_below, cfg.occupied_above)
            classes = cache["classes"]
            states, _, _ = oracle.rasterize(
                own_units(chain.units), classes, cfg.wall_thickness, own_doors(chain.doors), cfg.object_from_occupied
            )
            cleaned = oracle.clean_objects(states, cfg.min_object_cells)
            roi = self.roi(classes.shape)
            cells = (roi[2] - roi[0]) * (roi[3] - roi[1])
            return oracle.strict_hits(classes, cleaned, roi) / cells >= SOLVED_CPR

        return solved

    @staticmethod
    def roi(shape):
        return (ROI_INSET, ROI_INSET, shape[1] - ROI_INSET, shape[0] - ROI_INSET)

    def tts(self, probe, raw=False):
        """(seconds, iterations) of chain loop until the first solution, less
        the solution checks; the whole loop when there was none or the
        workload has no solution probe. Seconds are corrected, or raw less
        the speed probes."""
        if probe.final is None or probe.loop_end is None:
            return 0.0, 0
        end = probe.hit_t if probe.hit_iter is not None else probe.loop_end
        span = self.clock.raw_span if raw else self.clock.span
        checks = sum(span(a, b) for a, b in probe.checks if b <= end)
        iters = probe.hit_iter if probe.hit_iter is not None else probe.final["iteration"]
        return span(probe.loop_t0, end) - checks, iters

    def infer(self, seed, paths, tracer, current):
        import contextlib
        import traceback

        import semmap.cli

        # time to solution is a floor metric: elsewhere the chain loop is reported
        probe = MapRun(seed, self.solved_check(paths) if self.workload == "floor" else None)
        current[0] = probe
        argv = [
            "infer",
            os.path.basename(paths["pgm"]),
            "--out",
            f"out-{seed}",
            "--config",
            os.path.basename(paths["cfg"]),
            "--resolution",
            RESOLUTION[self.workload],
        ]
        if tracer is not None:
            tracer.active = True
        probe.start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):  # stdout carries the result line only
                probe.rc = semmap.cli.main(argv)
        except Exception:  # an uncaught error ends `semmap infer` with a traceback
            traceback.print_exc()
            probe.rc = 1
        probe.end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
            out = f"out-{seed}"
            tracer.counts["render.bytes"] += file_bytes(out, RENDER_FILES)
            tracer.counts["cli.bytes_written"] += file_bytes(out, CLI_FILES)
            if probe.cli_write_mark is not None:
                # cmd_infer's own time after Chain.run returned: the writers
                mark, frame, child_at_mark = probe.cli_write_mark
                tracer.counts["cli.write_s"] += (self.net_clock() - mark) - (frame[0] - child_at_mark)
        return probe

    def check(self, probe, paths, out):
        """Independent checks of one map's outputs, the operation's failure
        rule, and the quality numbers of the evaluation layer."""
        import hashlib
        import json

        import oracle

        import semmap.evaluation as ev
        import semmap.grid
        import semmap.world
        from maps import DEFAULT_RULES, HARD_RULES, TWO_ROOMS_A, TWO_ROOMS_R1

        self.attempted += 1
        name = f"map {probe.seed}"
        if probe.rc != 0 or probe.final is None:
            self.failed += 1
            probe.summary = f", FAILED: infer exited with {probe.rc}"
            return
        with open(os.path.join(out, "world.json"), "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        with open(os.path.join(out, "stats.json"), "r", encoding="utf-8") as fh:
            stats = json.load(fh)
        best = stats["chains"][stats["best_chain"]]
        self.chain_stats.append(best)
        with open(paths["truth.json"], "r", encoding="utf-8") as fh:
            truth = json.load(fh)
        final = probe.final
        cfg = final["cfg"]
        classes = oracle.read_pgm_classes(paths["pgm"], cfg.free_below, cfg.occupied_above)
        shape = classes.shape
        roi = self.roi(shape)
        cells = (roi[2] - roi[0]) * (roi[3] - roi[1])

        # (a) incremental log-likelihood == from-scratch total
        corridor = set()
        for u in final["units"]:
            t = final["types"].get(u.uid)
            kind = t.name.lower() if t is not None else None
            if kind is None:
                geom = oracle.geometry_class(u.hu, u.hv, doc["resolution"], cfg.hall_area_min_m2, cfg.corridor_ratio_min)
                kind = {"HaLi": "hall", "CoLi": "corridor", "RoLi": "room"}[geom]
            if kind == "corridor":
                corridor.add(u.uid)
        own_ll = oracle.log_likelihood(
            classes,
            own_units(final["units"]),
            corridor,
            own_doors(final["doors"]),
            (cfg.sensor_noncorridor, cfg.sensor_corridor),
            cfg.psi,
            cfg.wall_thickness,
            cfg.object_from_occupied,
        )
        if not abs(own_ll - final["log_lik"]) <= LOGLIK_TOL:
            self.problems.append(f"{name}: chain log-likelihood {final['log_lik']!r} != from-scratch {own_ll!r}")

        # (b) strict CPR cell count: own rasterizer and object cleaning vs
        # semmap.evaluation.cpr on the program's state map
        wunits = oracle.units_of(doc)
        states, _, _ = oracle.rasterize(
            wunits, classes, cfg.wall_thickness, oracle.doors_of(doc, cfg.wall_thickness + 1.0), cfg.object_from_occupied
        )
        hits = oracle.strict_hits(classes, oracle.clean_objects(states, cfg.min_object_cells), roi)
        world = semmap.world.world_from_dict(doc)
        cgrid = semmap.grid.classify(
            semmap.grid.load_grid(paths["pgm"], resolution=doc["resolution"]), cfg.free_below, cfg.occupied_above
        )
        if not (cgrid.states == classes).all():
            self.problems.append(f"{name}: classified input differs from the PGM's own classification")
        cpr = ev.cpr(world, final["states"], cgrid, ev.RegionOfInterest(*roi), variant="strict")
        if round(cpr * cells) != hits:
            self.problems.append(f"{name}: strict CPR counts differ: program {round(cpr * cells)}, own {hits}")

        # (c) world.json invariants
        rules = HARD_RULES if self.workload == "two_rooms" else DEFAULT_RULES
        limits = {
            "min_half_extent": cfg.min_half_extent,
            "door_min_m": cfg.door_min_m,
            "door_max_m": cfg.door_max_m,
            "hall_area_min_m2": cfg.hall_area_min_m2,
            "corridor_ratio_min": cfg.corridor_ratio_min,
        }
        for problem in oracle.world_violations(doc, shape, limits, rules, best["knowledge_active"]):
            self.problems.append(f"{name}: {problem}")

        # the operation's failure rule
        why = None
        if self.workload == "floor":
            if len(wunits) != len(truth["units"]):
                why = f"{len(wunits)} units, truth has {len(truth['units'])}"
            elif hits / cells < SOLVED_CPR:
                why = f"strict CPR {hits / cells:.4f} < {SOLVED_CPR}"
            elif probe.hit_iter is None:
                why = "the chain never reached a solution"
        elif self.workload == "two_rooms":
            tunits = oracle.units_of(truth)
            match = oracle.match_units(wunits, tunits, shape)
            by_truth = {j: wunits[i] for i, j in match.items()}
            if len(match) != len(tunits):
                why = f"{len(match)} of {len(tunits)} truth units matched"
            elif abs(2.0 * by_truth[TWO_ROOMS_A][4] - 2.0 * by_truth[TWO_ROOMS_R1][4]) > 2.0:
                why = "A/R1 divider difference above 2 cells"
        if why is not None:
            self.failed += 1

        topo = ev.topology_match(world, semmap.world.world_from_dict(truth), shape)
        self.quality.append((cpr, topo["doors"]["f1"], topo["adjacency"]["f1"], topo["type_accuracy"]))
        probe.summary = (
            f", {len(wunits)} units, strict CPR {hits / cells:.4f}, "
            f"world.json sha256 {hashlib.sha256(raw).hexdigest()[:16]}" + (f", FAILED: {why}" if why else "")
        )

    # -- per-layer metrics -------------------------------------------------------

    def per_layer(self, tracer, rounds) -> dict:
        t = tracer
        stats = self.chain_stats
        kernels = [s["kernels"] for s in stats]
        layer = t.layer_totals()
        values = {
            "scoring.preview_calls": t.calls("scoring.LikelihoodField.preview"),
            "scoring.preview_self_s": t.self_time("scoring.LikelihoodField.preview"),
            "scoring.cells_rescored": t.counts["scoring.cells_rescored"],
            "world.rasterize_window_s": t.total("world.rasterize_window"),
            "mcmc.proposals": sum(k[n]["proposed"] for k in kernels for n in KERNELS),
            "mcmc.skipped": sum(k[n]["skipped"] for k in kernels for n in KERNELS),
            "mcmc.accepted": sum(s["accepted"] for s in stats),
            "mcmc.propose_s": t.total("mcmc.Chain.propose"),
            "mcmc.accept_self_s": t.self_time("mcmc.Chain.accept"),
            "grid.dilate_calls": t.calls("grid.dilate"),
            "grid.dilate_s": t.total("grid.dilate"),
            "mcmc.prior_active_iters": t.counts["mcmc.prior_active_iters"],
            "mcmc.refreshes": sum(s["refreshes"] for s in stats),
            "mcmc.refresh_self_s": t.self_time("mcmc.Chain.refresh"),
            "mcmc.mln_runs": sum(s["mln_runs"] for s in stats),
            "mln.ground_s": t.total("mln.ground"),
            "mln.free_atoms": t.counts["mln.free_atoms"],
            "mln.exact_calls": t.calls("mln.infer_exact"),
            "mln.exact_s": t.total("mln.infer_exact"),
            "mln.gibbs_calls": t.calls("mln.infer_gibbs"),
            "mln.gibbs_s": t.total("mln.infer_gibbs"),
            "world.detect_relations_s": t.total("world.detect_relations"),
            "world.detect_doors_s": t.total("world.detect_doors"),
            "mcmc.derive_world_self_s": t.self_time("mcmc.derive_world"),
            "world.detect_objects_s": t.total("world.detect_objects"),
            "world.object_components": t.counts["world.object_components"],
            "world.detect_unexplored_s": t.total("world.detect_unexplored"),
            "grid.components_s": t.total("grid.connected_components"),
            "render.s": sum(t.total(f"render.{f}") for f in ("render_world", "render_samples", "render_graph")),
            "render.bytes": t.counts["render.bytes"],
            "cli.write_s": t.counts["cli.write_s"],
            "cli.bytes_written": t.counts["cli.bytes_written"],
            "grid.load_grid_s": t.total("grid.load_grid"),
            "grid.classify_s": t.total("grid.classify"),
            "mcmc.init_s": t.total("mcmc.Chain.__init__"),
        }
        for n in KERNELS:
            values[f"mcmc.skipped.{n}"] = sum(k[n]["skipped"] for k in kernels)
        for name in LAYERS:
            values[f"{name}.calls"] = layer[name][0]
            values[f"{name}.self_s"] = layer[name][1]
        values = {k: v / rounds for k, v in values.items()}
        for i, name in enumerate(("cpr_strict", "door_f1", "adjacency_f1", "type_acc")):
            values[f"evaluation.{name}"] = sum(q[i] for q in self.quality) / max(len(self.quality), 1)
        return values


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_MAPS))
    parser.add_argument("--seed", type=int, default=0, help="run label; the inputs are fixed by --maps")
    parser.add_argument("--seconds", type=float, default=10.0, help="repeat whole rounds until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--maps", default=None, help="comma-separated map seeds (default: the workload's)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in (args.maps or DEFAULT_MAPS[args.workload]).split(",")]

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "semmap", "__init__.py")):
        print(f"perfbench: no semmap package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from speed import SpeedClock  # imports numpy; time up to here is rescaled by SpeedClock.lead

    clock = SpeedClock()
    clock.start()
    t_clock = time.perf_counter()
    import semmap.cli  # the cold import of the entry point is part of setup_s

    import_end = time.perf_counter()
    package = sys.modules["semmap"].__file__
    if os.path.dirname(os.path.abspath(package)) != os.path.join(src, "semmap"):
        clock.stop()
        print(f"perfbench: imported semmap from {package}, not {src}", file=sys.stderr)
        return 2
    lead_s = _AGE_AT_START + (t_clock - _T_START)
    return Bench(args.workload, seeds, args.seconds, bool(args.trace), clock).run(lead_s, (t_clock, import_end))


if __name__ == "__main__":
    sys.exit(main())
