"""Per-layer tracing of `semmap` from outside the package.

`Tracer.install()` wraps every public module-level function of the layer
modules, and the public methods of the engine classes, and installs each
wrapper on every `semmap` module attribute that holds the original: callers
that imported a function by name (`semmap.mcmc.detect_doors`,
`semmap.scoring.rasterize_window`, `semmap.cli.load_grid`, ...) look it up
there. A wrapper records calls, inclusive time and self time (inclusive
minus the time of wrapped callees); a few hooks add work counts. Spans are
aggregated in memory per function and written out at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# the layers `infer` runs through; `evaluation` only scores its outputs
LAYERS = ("grid", "world", "mln", "scoring", "mcmc", "render", "cli")
# classes whose methods do the work; small value classes (Unit, Door, ...)
# stay unwrapped, their accessors run millions of times
ENGINE_CLASSES = {"scoring": ("LikelihoodField",), "mcmc": ("Chain",)}
# scalar helpers whose wrapper would cost more than their body
SKIP = {"world.qcoord", "world.qhalf", "world.clip_window", "world.geometry_to_type"}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(float)
        self.active = False
        self.stack = []  # [child time, name] per open span
        self._gate = (None, False)  # (SaLe dict, prior gate non-empty)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, hook=None, before=None):
        stats, stack, clock = self.stats, self.stack, self.clock
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def exclude(self, seconds: float):
        """Count seconds spent by the benchmark inside an open span as a
        callee, so that the span's self time leaves them out."""
        if self.stack:
            self.stack[-1][0] += seconds

    # -- installation ----------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"semmap.{layer}")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "semmap" or n.startswith("semmap.")]
        hooks, before = self._hooks()
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"semmap.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or f"{layer}.{attr}" in SKIP:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    replace[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name), before.get(name)))
            for cls_name in ENGINE_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                        name = f"{layer}.{cls_name}.{attr}"
                        setattr(cls, attr, self._wrap(name, obj, hooks.get(name), before.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _hooks(self):
        counts, stack = self.counts, self.stack

        def preview(args, result):
            counts["scoring.cells_rescored"] += sum(patch[4].size for patch in result[1])

        def propose(args):
            chain = args[0]
            sale, gate = self._gate
            if sale is not chain.sale:
                cfg = chain.cfg
                gate = bool(
                    chain.knowledge_active
                    and cfg.prior_enabled
                    and any(p > cfg.sale_threshold for p in chain.sale.values())
                )
                self._gate = (chain.sale, gate)
            counts["mcmc.prior_active_iters"] += gate

        def infer_marginals(args, result):
            counts["mln.free_atoms"] += sum(1 for status in args[0].status if status == 0)

        def components(args, result):
            if stack and stack[-1][1] == "world.detect_objects":
                counts["world.object_components"] += result.count

        after = {
            "scoring.LikelihoodField.preview": preview,
            "mln.infer_marginals": infer_marginals,
            "grid.connected_components": components,
        }
        return after, {"mcmc.Chain.propose": propose}

    # -- reporting -------------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def total(self, name) -> float:
        return self.stats[name].total if name in self.stats else 0.0

    def self_time(self, name) -> float:
        return self.stats[name].self_time if name in self.stats else 0.0

    def layer_totals(self) -> dict:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer][0] += st.calls
            out[layer][1] += st.self_time
        return out

    def table(self) -> dict:
        return {
            name: {"calls": st.calls, "total_s": st.total, "self_s": st.self_time}
            for name, st in sorted(self.stats.items())
        }
