"""covermeasure benchmark: one workload per invocation, checked against oracles.

    python3 bench/run.py --workload {exact-r3,mc-r4,enum-r5,cli-ps} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Each repetition runs the workload's fixed job list in a fresh
worker process (``bench/worker.py``), one at a time (a closed loop), until
the next repetition would overrun ``--seconds``.  Every draw comes from
``--seed``.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a fuller report with the
environment, percentiles, sample counts and any failed checks.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact-r3", "mc-r4", "enum-r5", "cli-ps")
DEFAULT_MAX_RANK = "6"
REP_TIMEOUT_S = 150
SETUP_ONLY_WORKERS = 8  # set-up-only processes per run, besides each repetition's own

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# In the report line only: metrics of one workload.
WORKLOAD_METRICS = {"mc_samples_per_s": "1/s", "mc_time_to_target_s": "s",
                    "ps_converge_s": "s", "cli_cmd_s": "s", "ps_relation_held": "count"}

PER_LAYER = {
    "graphs.enumerate_trivalent.s": "s", "graphs.enumerate_trivalent.calls": "count",
    "graphs.enumerate_trivalent.types": "count",
    "graphs.canonical_form.s": "s", "graphs.canonical_form.calls": "count",
    "graphs.canonical_form.p50_us": "us",
    "graphs.automorphism_group.s": "s", "graphs.automorphism_group.calls": "count",
    "graphs.simple_cycles.s": "s",
    "measure.build_limit_measure.s": "s",
    "measure.integrate_exact.s": "s", "measure.integrate_exact.calls": "count",
    "measure.integrate_exact.max_call_s": "s",
    "measure.lattice_sigma.s": "s", "measure.lattice_sigma.atoms": "count",
    "measure.empirical_expectation.s": "s",
    "measure.integrate_mc.s": "s", "measure.integrate_mc.samples": "count",
    "measure.integrate_mc.sampling_s": "s",
    "functionals.kernel.s": "s", "functionals.kernel.calls": "count",
    "functionals.kernel.rows": "count",
    "functionals.cycle_forms.s": "s",
    "invariants.systole.s": "s", "invariants.systole.calls": "count",
    "asymptotics.synthesize_ensemble.s": "s",
    "asymptotics.synthesize_ensemble.points": "count",
    "asymptotics.ps_measure_expectation.s": "s",
    "asymptotics.ps_measure_expectation.calls": "count",
    "asymptotics.ensemble.effective_lmax": "length",
    "asymptotics.ensemble.cap_reached": "count",
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.run.self_s": "s",
    "trace.overhead_s": "s",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def tail(values):
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    return {"pct": (100 * (n - 10)) // n, "value": sorted(values)[n - 11]}


def summarize(values, unit):
    return {"p50": statistics.median(values), "tail": tail(values), "n": len(values),
            "unit": unit}


def spawn_worker(workload, seed, rep, flags, env):
    """One worker process; its result dict, or a failure message."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), *flags]
    env = dict(env, BENCH_SPAWN_T=repr(time.monotonic()))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"rep {rep}: timed out after {REP_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"rep {rep}: worker exited with {proc.returncode}"
    result = json.loads(lines[-1])
    result["traced"] = "--traced" in flags
    return result


def collect(reps, name):
    """Every value of ``name`` over the repetitions that report it."""
    out = []
    for r in reps:
        value = r.get(name)
        if isinstance(value, list):
            out.extend(value)
        elif value is not None:
            out.append(value)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job sizes, for bench/selftest.py; not a measurement")
    args = parser.parse_args()

    if not (ROOT / "src" / "covermeasure" / "__init__.py").is_file():
        fail(f"no covermeasure sources under {ROOT / 'src'}; run from a source checkout")
    max_rank = os.environ.get("COVERMEASURE_MAX_RANK")
    if max_rank is not None and max_rank != DEFAULT_MAX_RANK:
        fail(f"COVERMEASURE_MAX_RANK={max_rank!r}; unset it or set it to "
             f"{DEFAULT_MAX_RANK}, the default the workloads are defined at")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # Untimed: compile bytecode and fill the file cache, which an installed
    # package does not pay on every start.
    subprocess.run([sys.executable, "-c", "import covermeasure.cli, jsonschema"],
                   cwd=ROOT, env=env, check=True, timeout=120)

    start = time.perf_counter()
    smoke = ["--smoke"] if args.smoke else []
    setups = [r for r in (spawn_worker(args.workload, args.seed, -1, ["--setup-only"], env)
                          for _ in range(SETUP_ONLY_WORKERS)) if isinstance(r, dict)]
    results, errors, durations = [], [], []
    rep = 0
    # a traced run alternates untraced and traced repetitions, in pairs
    flag_sets = ([*smoke], [*smoke, "--traced"]) if args.trace else ([*smoke],)
    while True:
        t0 = time.perf_counter()
        for flags in flag_sets:
            res = spawn_worker(args.workload, args.seed, rep, flags, env)
            (errors if isinstance(res, str) else results).append(res)
            rep += 1
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > args.seconds:
            break

    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    attempted = sum(r["attempted"] for r in results) + len(errors)
    failures = [f for r in results for f in r["failures"]] + errors
    # wall_s and setup_s are scaled to the reference speed of the speed
    # probes (bench/README.md, Steadiness); the raw times are reported too.
    per_rep = {"wall_s": collect(untraced, "wall_scaled_s"),
               "setup_s": collect(setups + untraced, "setup_scaled_s"),
               "peak_rss_mb": collect(untraced, "peak_rss_mb"),
               "wall_raw_s": collect(untraced, "wall_s"),
               "setup_raw_s": collect(setups + untraced, "setup_s"),
               "probe_s": collect(setups + untraced, "probes"),
               **{name: collect(untraced, name) for name in WORKLOAD_METRICS}}
    units = {**END_TO_END, "wall_raw_s": "s", "setup_raw_s": "s", "probe_s": "s",
             **WORKLOAD_METRICS}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "reps": rep, "elapsed_s": time.perf_counter() - start,
        "environment": next((r["environment"] for r in results if "environment" in r), None),
        "error_rate": len(failures) / max(attempted, 1),
        "failures": failures[:20],
        "metrics": {name: summarize(vals, units[name]) for name, vals in per_rep.items() if vals},
    }
    metrics = {}
    if args.trace == 0 and untraced:
        metrics = {name: {"value": statistics.median(per_rep[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    elif args.trace == 1 and untraced and traced:
        layers = [r["layers"] for r in traced]
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                # scaled where every repetition has a scaled time (in process)
                key = ("wall_scaled_s" if all(r.get("wall_scaled_s") for r in results)
                       else "wall_s")
                value = (statistics.median(r[key] for r in traced)
                         - statistics.median(r[key] for r in untraced))
            elif unit in ("count", "length"):
                value = layers[0][name]  # exact: the same for the same seed
            else:
                value = statistics.median(layer[name] for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"report": report}))
    if not metrics:
        fail("no repetition completed: " + "; ".join(failures[:3]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
