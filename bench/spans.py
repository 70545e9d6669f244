"""In-memory spans and counters, recorded around calls into covermeasure.

The benchmark installs these wrappers from outside the library: it
replaces a public function on every module that holds a reference to it,
so the library itself is unchanged.  Spans (name, start, end, parent) and
counters stay in memory; ``summary`` turns them into per-name self times
once, at the end of a run.  Nothing here is imported by untraced runs.
"""

from __future__ import annotations

import dataclasses
import inspect
import statistics
import time
from collections import defaultdict


# Span names whose per-call durations are kept for percentiles; the rest
# keep only sums, so a run with 10^5 calls stays small.
_DURATION_NAMES = {"graphs.canonical_form", "measure.integrate_exact"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` recording one span per call; ``on_result(tracer,
        args, kwargs, result)`` may add counters."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, amount=1):
        self.counters[name] += amount

    def summary(self) -> dict:
        """Per span name: calls, total self time, total inclusive time and,
        for the names in ``_DURATION_NAMES``, each call's duration; plus the
        counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_name: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = per_name.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            entry["total_s"] += end - start
            if name in _DURATION_NAMES:
                entry["durations"].append(end - start)
        return {"spans": per_name, "counters": dict(self.counters)}


def merge(summaries) -> dict:
    """Add up summaries from several processes of one repetition."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = defaultdict(float)
    for summ in summaries:
        for name, entry in summ["spans"].items():
            acc = spans.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
            acc["total_s"] += entry["total_s"]
            acc["durations"].extend(entry["durations"])
        for name, value in summ["counters"].items():
            counters[name] += value
    return {"spans": spans, "counters": dict(counters)}


def _set_everywhere(modules, attr, value):
    for mod in modules:
        if hasattr(mod, attr):
            setattr(mod, attr, value)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every covermeasure layer.

    Functions are replaced on each module that imported them by name, and
    the named functionals are rebuilt around traced callables, so calls
    between layers are recorded as nested spans.
    """
    import covermeasure
    from covermeasure import asymptotics, functionals, graphs, invariants, measure

    modules = (covermeasure, graphs, measure, functionals, invariants, asymptotics)

    def patch(mod, attr, name, on_result=None):
        traced = tracer.wrap(name, getattr(mod, attr), on_result)
        _set_everywhere(modules, attr, traced)
        return traced

    patch(graphs, "enumerate_trivalent", "graphs.enumerate_trivalent",
          lambda tr, args, kwargs, result: tr.count("graphs.enumerate_trivalent.types",
                                                    len(result)))
    patch(graphs, "canonical_form", "graphs.canonical_form")
    patch(graphs, "automorphism_group", "graphs.automorphism_group")
    patch(graphs, "triv_subgroup", "graphs.triv_subgroup")
    patch(graphs, "simple_cycles", "graphs.simple_cycles")

    patch(measure, "build_limit_measure", "measure.build_limit_measure")
    patch(measure, "integrate_exact", "measure.integrate_exact")

    def lattice_atoms(tr, args, kwargs, result):
        tr.count("measure.lattice_sigma.atoms", len(result.atoms))

    patch(measure, "lattice_sigma", "measure.lattice_sigma", lattice_atoms)
    measure.EmpiricalMeasure.expectation = tracer.wrap(
        "measure.empirical_expectation", measure.EmpiricalMeasure.expectation)

    def mc_samples(tr, args, kwargs, result):
        n = kwargs["n"] if "n" in kwargs else args[2]
        tr.count("measure.integrate_mc.samples", n)

    patch(measure, "integrate_mc", "measure.integrate_mc", mc_samples)

    cycle_forms = patch(functionals, "cycle_forms", "functionals.cycle_forms")
    systole = patch(invariants, "systole", "invariants.systole")
    traced_systole = dataclasses.replace(
        functionals.SYSTOLE, scalar=systole, forms_for=cycle_forms)
    functionals.FUNCTIONALS["systole"] = traced_systole
    _set_everywhere(modules, "SYSTOLE", traced_systole)

    default_cap = inspect.signature(asymptotics.synthesize_ensemble).parameters["cap"].default

    def ensemble_stats(tr, args, kwargs, result):
        tr.count("asymptotics.synthesize_ensemble.points", len(result))
        cap = kwargs.get("cap", default_cap)
        # the length of the last point kept: exact for a given seed, but it
        # varies with the seed (about 12.0 at cap 1e5), so it is no count
        tr.counters["asymptotics.ensemble.effective_lmax"] = max(
            tr.counters["asymptotics.ensemble.effective_lmax"],
            max(p.length for p in result))
        tr.counters["asymptotics.ensemble.cap_reached"] = max(
            tr.counters["asymptotics.ensemble.cap_reached"],
            1 if len(result) >= cap else 0)

    patch(asymptotics, "synthesize_ensemble", "asymptotics.synthesize_ensemble",
          ensemble_stats)
    patch(asymptotics, "ps_measure_expectation", "asymptotics.ps_measure_expectation")


def traced_kernel(tracer: Tracer, functional):
    """``functional`` with its vectorised kernel recorded as
    ``functionals.kernel`` spans, counting calls and rows."""

    def rows_seen(tr, args, kwargs, result):
        tr.count("functionals.kernel.rows", len(args[1]))

    return dataclasses.replace(
        functional, kernel=tracer.wrap("functionals.kernel", functional.kernel, rows_seen))


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one repetition, keyed by metric name."""
    spans, counters = summary["spans"], summary["counters"]

    def span(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []})

    out = {}
    for name in ("graphs.enumerate_trivalent", "graphs.canonical_form",
                 "graphs.automorphism_group", "graphs.simple_cycles",
                 "measure.build_limit_measure", "measure.integrate_exact",
                 "measure.lattice_sigma", "measure.empirical_expectation",
                 "functionals.kernel", "functionals.cycle_forms",
                 "invariants.systole", "asymptotics.synthesize_ensemble",
                 "asymptotics.ps_measure_expectation"):
        out[name + ".s"] = span(name)["self_s"]
    for name in ("graphs.enumerate_trivalent", "graphs.canonical_form",
                 "graphs.automorphism_group", "measure.integrate_exact",
                 "functionals.kernel", "invariants.systole",
                 "asymptotics.ps_measure_expectation"):
        out[name + ".calls"] = span(name)["calls"]
    durations = span("graphs.canonical_form")["durations"]
    out["graphs.canonical_form.p50_us"] = (
        statistics.median(durations) * 1e6 if durations else 0.0)
    out["measure.integrate_exact.max_call_s"] = max(
        span("measure.integrate_exact")["durations"], default=0.0)
    mc = span("measure.integrate_mc")
    out["measure.integrate_mc.s"] = mc["total_s"]
    out["measure.integrate_mc.sampling_s"] = mc["self_s"]
    for key in ("graphs.enumerate_trivalent.types", "measure.lattice_sigma.atoms",
                "measure.integrate_mc.samples", "functionals.kernel.rows",
                "asymptotics.synthesize_ensemble.points",
                "asymptotics.ensemble.effective_lmax",
                "asymptotics.ensemble.cap_reached"):
        value = counters.get(key, 0)
        out[key] = int(value) if float(value).is_integer() else value
    cli_run = span("cli.run")
    out["cli.interpreter_s"] = counters.get("cli.interpreter_s", 0.0)
    out["cli.import_s"] = counters.get("cli.import_s", 0.0)
    out["cli.run.self_s"] = cli_run["self_s"]
    return out
