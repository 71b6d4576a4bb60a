"""Outside-in layer timing for the traced run.

The tracer replaces public functions and methods of gmono's modules with
wrappers that record a span per call: name, duration, and the time covered
by the spans nested inside it (self time = duration minus that).  Module
functions are replaced where the calling module looks them up (for example
``dual_cone.gmoment``), methods on their classes.  Spans stay in memory:
the hot leaf layers (gauge values, handle and ExpPoly evaluations, panel
queries) only as per-name sums, the coarse layers (check_dominance, the
oracle, admissibility, panel builds, probes, one span per operation) also
as individual spans, written out with the summary when the run ends.

Nothing here runs in the untraced run: it installs no wrapper.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

import numpy as np

from gmono import dual_cone, intervals, measures, wpoly

CHECK = "dual_cone.check_dominance"
COARSE = {"op", CHECK, "dual_cone.oracle", "measures.admissibility",
          "wpoly.panel_build", "wpoly.probe"}

# Every per-layer metric the traced run reports, with its unit.
METRICS = {
    "cli.import_ms": "ms",
    "cli.modules_loaded": "count",
    "intervals.values.calls": "count",
    "intervals.values.points": "count",
    "intervals.values.ms": "ms",
    "intervals.value.calls": "count",
    "wpoly.handle_eval.calls": "count",
    "wpoly.handle_eval.ms": "ms",
    "wpoly.exppoly_eval.calls": "count",
    "wpoly.exppoly_eval.ms": "ms",
    "wpoly.two_arg.calls": "count",
    "wpoly.two_arg.ms": "ms",
    "wpoly.panel_build.calls": "count",
    "wpoly.panel_build.ms": "ms",
    "wpoly.panel_build.panels": "count",
    "wpoly.panel_build.per_chain": "ratio",
    "wpoly.panel_eval.calls": "count",
    "wpoly.panel_eval.ms": "ms",
    "wpoly.probe.calls": "count",
    "wpoly.probe.ms": "ms",
    "wpoly.probe.windows": "count",
    "measures.gmoment.calls": "count",
    "measures.gmoment.ms": "ms",
    "measures.integrate.calls": "count",
    "measures.integrate.ms": "ms",
    "measures.integrand.calls": "count",
    "measures.admissibility.ms": "ms",
    "dual_cone.check_dominance.calls": "count",
    "dual_cone.check_dominance.ms": "ms",
    "dual_cone.check_dominance.self_ms": "ms",
    "dual_cone.cond_i.ms": "ms",
    "dual_cone.cond_ii.ms": "ms",
    "dual_cone.cond_iii.ms": "ms",
    "dual_cone.oracle.calls": "count",
    "dual_cone.oracle.trials": "count",
    "dual_cone.oracle.self_ms": "ms",
    "dual_cone.rows": "count",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []  # (name, start_s, end_s, parent span index, op index)
        self.op_index = -1
        self._stack = []  # [name, child seconds, span index or None]
        self._chains = weakref.WeakSet()  # interior-anchored chains that built a panel
        self._patched = []

    # -- spans ---------------------------------------------------------------
    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        frame = [name, 0.0, None]
        if name in COARSE:
            frame[2] = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               parent[2] if parent else None, self.op_index])
        self._stack.append(frame)
        return parent, frame, time.perf_counter()

    def _exit(self, name, frame, start):
        dt = time.perf_counter() - start
        self._stack.pop()
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - frame[1]
        if frame[2] is not None:
            self.spans[frame[2]][2] = time.perf_counter()
        if self._stack:
            self._stack[-1][1] += dt
        return dt

    def wrap(self, name, fn, after=None):
        """Span around fn; after(parent_name, dt, args, kwargs, result)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent, frame, start = tracer._enter(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = tracer._exit(name, frame, start)
                if ok and after is not None:
                    after(parent[0] if parent else None, dt, args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def op(self, index, fn, args):
        """Run one benchmark operation as the root span."""
        self.op_index = index
        self.active = True
        try:
            return self.wrap("op", fn)(args)
        finally:
            self.active = False

    # -- installation ----------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        t = self

        # intervals: gauge values (vector) and value (scalar, counted only).
        def values_after(parent, dt, args, kwargs, result):
            t.counts["intervals.values.points"] += int(np.size(result))

        self._patch(intervals.GaugeSpec, "values",
                    t.wrap("intervals.values", intervals.GaugeSpec.values, values_after))
        for cls in (intervals.UnitGauge, intervals.ExponentialGauge,
                    intervals.PowerGauge, intervals.TableGauge):
            self._patch(cls, "value", t._counter("intervals.value", cls.__dict__["value"]))

        # wpoly: handle and ExpPoly evaluation, panel chains, probe, two-arg.
        handle_eval = t.wrap("wpoly.handle_eval", wpoly.WPolyHandle.eval)
        self._patch(wpoly.WPolyHandle, "eval", handle_eval)
        self._patch(wpoly.WPolyHandle, "__call__", handle_eval)
        self._patch(wpoly.ExpPoly, "eval", t.wrap("wpoly.exppoly_eval", wpoly.ExpPoly.eval))
        self._patch(wpoly.PanelChain, "__init__", t._panel_init(wpoly.PanelChain.__init__))
        self._patch(wpoly.PanelChain, "eval", t.wrap("wpoly.panel_eval", wpoly.PanelChain.eval))
        self._patch(wpoly, "_probe_left_chain", t.wrap("wpoly.probe", wpoly._probe_left_chain))
        self._patch(dual_cone, "chain_t_two_arg", t._two_arg(dual_cone.chain_t_two_arg))

        # measures: gmoment as both callers see it, component integrals.
        def gmoment_after(parent, dt, args, kwargs, result):
            if parent != CHECK:
                return  # admissibility's own moments are not a condition
            h = args[1]
            if isinstance(h, wpoly.WPolyHandle):
                if h.part == wpoly.POSITIVE:
                    t.total["dual_cone.cond_iii"] += dt
                elif h.tag == "chain_az":
                    t.total["dual_cone.cond_ii"] += dt
                else:
                    t.total["dual_cone.cond_i"] += dt

        gmoment = t.wrap("measures.gmoment", measures.gmoment, gmoment_after)
        self._patch(measures, "gmoment", gmoment)
        self._patch(dual_cone, "gmoment", gmoment)
        for cls in (measures.NormalPart, measures.PoissonPart,
                    measures.CauchyPart, measures.DensityPart):
            self._patch(cls, "integrate", t._integrate(cls.__dict__["integrate"]))
        self._patch(dual_cone, "admissibility",
                    t.wrap("measures.admissibility", dual_cone.admissibility))

        # dual_cone: the decision and the oracle.
        def check_after(parent, dt, args, kwargs, result):
            t.counts["dual_cone.rows"] += len(result.rows())

        def oracle_after(parent, dt, args, kwargs, result):
            t.counts["dual_cone.oracle.trials"] += result.trials

        self._patch(dual_cone, "check_dominance",
                    t.wrap(CHECK, dual_cone.check_dominance, check_after))
        self._patch(dual_cone, "oracle_equivalence",
                    t.wrap("dual_cone.oracle", dual_cone.oracle_equivalence, oracle_after))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _counter(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _panel_init(self, init):
        tracer = self

        def after(parent, dt, args, kwargs, result):
            chain = args[0]
            tracer.counts["wpoly.panel_build.panels"] += len(chain.breaks) - 1
            if parent == "wpoly.probe":
                tracer.counts["wpoly.probe.windows"] += 1
            if kwargs.get("anchor") is not None:
                tracer.counts["interior_builds"] += 1

        wrapped = self.wrap("wpoly.panel_build", init, after)

        def panel_init(chain, *args, **kwargs):
            if tracer.active and kwargs.get("anchor") is not None:
                # The chain evaluator that asked for the build is the caller.
                owner = sys._getframe(1).f_locals.get("self")
                if owner is not None and owner not in tracer._chains:
                    tracer._chains.add(owner)
                    tracer.counts["interior_chains"] += 1
            return wrapped(chain, *args, **kwargs)

        return panel_init

    def _two_arg(self, factory):
        tracer = self

        def chain_t_two_arg(*args, **kwargs):
            fam = factory(*args, **kwargs)

            def after(parent, dt, a, kw, result):
                if parent == CHECK:
                    tracer.total["dual_cone.cond_iii"] += dt

            return tracer.wrap("wpoly.two_arg", fam, after)

        return chain_t_two_arg

    def _integrate(self, method):
        tracer = self

        def counting(f):
            def integrand(x):
                tracer.counts["measures.integrand.calls"] += 1
                return f(x)
            return integrand

        wrapped = self.wrap("measures.integrate", method)

        def integrate(component, f, *args, **kwargs):
            if tracer.active:
                f = counting(f)
            return wrapped(component, f, *args, **kwargs)

        return integrate

    # -- results ---------------------------------------------------------------
    def metrics(self, import_ms: float, modules_loaded: int) -> dict:
        ms = lambda name: 1000.0 * self.total[name]
        chains = self.counts["interior_chains"]
        values = {
            "cli.import_ms": import_ms,
            "cli.modules_loaded": modules_loaded,
            "intervals.values.calls": self.calls["intervals.values"],
            "intervals.values.points": self.counts["intervals.values.points"],
            "intervals.values.ms": ms("intervals.values"),
            "intervals.value.calls": self.calls["intervals.value"],
            "wpoly.handle_eval.calls": self.calls["wpoly.handle_eval"],
            "wpoly.handle_eval.ms": ms("wpoly.handle_eval"),
            "wpoly.exppoly_eval.calls": self.calls["wpoly.exppoly_eval"],
            "wpoly.exppoly_eval.ms": ms("wpoly.exppoly_eval"),
            "wpoly.two_arg.calls": self.calls["wpoly.two_arg"],
            "wpoly.two_arg.ms": ms("wpoly.two_arg"),
            "wpoly.panel_build.calls": self.calls["wpoly.panel_build"],
            "wpoly.panel_build.ms": ms("wpoly.panel_build"),
            "wpoly.panel_build.panels": self.counts["wpoly.panel_build.panels"],
            "wpoly.panel_build.per_chain": (
                self.counts["interior_builds"] / chains if chains else 0.0
            ),
            "wpoly.panel_eval.calls": self.calls["wpoly.panel_eval"],
            "wpoly.panel_eval.ms": ms("wpoly.panel_eval"),
            "wpoly.probe.calls": self.calls["wpoly.probe"],
            "wpoly.probe.ms": ms("wpoly.probe"),
            "wpoly.probe.windows": self.counts["wpoly.probe.windows"],
            "measures.gmoment.calls": self.calls["measures.gmoment"],
            "measures.gmoment.ms": ms("measures.gmoment"),
            "measures.integrate.calls": self.calls["measures.integrate"],
            "measures.integrate.ms": ms("measures.integrate"),
            "measures.integrand.calls": self.counts["measures.integrand.calls"],
            "measures.admissibility.ms": ms("measures.admissibility"),
            "dual_cone.check_dominance.calls": self.calls[CHECK],
            "dual_cone.check_dominance.ms": ms(CHECK),
            "dual_cone.check_dominance.self_ms": 1000.0 * self.self_time[CHECK],
            "dual_cone.cond_i.ms": ms("dual_cone.cond_i"),
            "dual_cone.cond_ii.ms": ms("dual_cone.cond_ii"),
            "dual_cone.cond_iii.ms": ms("dual_cone.cond_iii"),
            "dual_cone.oracle.calls": self.calls["dual_cone.oracle"],
            "dual_cone.oracle.trials": self.counts["dual_cone.oracle.trials"],
            "dual_cone.oracle.self_ms": 1000.0 * self.self_time["dual_cone.oracle"],
            "dual_cone.rows": self.counts["dual_cone.rows"],
        }
        return {k: {"value": values[k], "unit": METRICS[k]} for k in METRICS}

    def summary(self) -> dict:
        """Per-name sums and the coarse spans, for the trace file."""
        names = sorted(set(self.calls) | set(self.total))
        return {
            "layers": {
                n: {"calls": self.calls[n], "ms": 1000.0 * self.total[n],
                    "self_ms": 1000.0 * self.self_time[n]}
                for n in names
            },
            "counts": dict(self.counts),
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
        }
