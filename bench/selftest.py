"""Self-test of the benchmark at smoke size (under a minute on 2 vCPUs).

    python3 bench/selftest.py

Runs every workload once untraced and once traced with ``--smoke`` (tiny
job sizes) and asserts that each run passes its checks, emits every metric
of ``BENCHMARK.json`` with its unit, and reports the workload-specific
metrics; that the benchmark refuses a non-default ``COVERMEASURE_MAX_RANK``;
and that it fails, printing no result, without the library sources.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per workload: metrics of the report line that must be present, and
# per-layer counts that must be positive because the workload drives them.
WORKLOAD_REPORT = {
    "exact-r3": (),
    "mc-r4": ("mc_samples_per_s", "mc_time_to_target_s"),
    "enum-r5": (),
    "cli-ps": ("ps_converge_s", "cli_cmd_s", "ps_relation_held"),
}
DRIVEN_COUNTS = {
    "exact-r3": ("measure.integrate_exact.calls", "measure.lattice_sigma.atoms",
                 "invariants.systole.calls"),
    "mc-r4": ("measure.integrate_mc.samples", "functionals.kernel.calls",
              "functionals.kernel.rows"),
    "enum-r5": ("graphs.enumerate_trivalent.types", "graphs.canonical_form.calls",
                "graphs.automorphism_group.calls"),
    "cli-ps": ("asymptotics.synthesize_ensemble.points", "invariants.systole.calls",
               "asymptotics.ensemble.cap_reached", "asymptotics.ps_measure_expectation.calls"),
}
ENVIRONMENT_KEYS = {"nproc", "python", "numpy", "scipy", "openblas_threads",
                    "covermeasure_max_rank", "git_revision"}


def bench(cwd, workload, trace, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def check_helpers():
    assert [oracles.mass_formula(k) for k in range(2, 6)] == [
        oracles.MASS[k] for k in range(2, 6)]
    assert oracles.mass_formula(7) == Fraction(19675, 96)
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(20))) == {"pct": 50, "value": 9}
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10 ** 5)))
    tracer.wrap("outer", lambda: [inner() for _ in range(3)])()
    summ = tracer.summary()["spans"]
    assert summ["inner"]["calls"] == 3
    outer = summ["outer"]
    assert 0 <= outer["self_s"] <= outer["total_s"] - summ["inner"]["total_s"] + 1e-9


def check_workload(workload):
    spec = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for trace in (0, 1):
        proc = bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.strip().splitlines()
        result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert result["attempted"] >= 1 and report["error_rate"] == 0
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == spec[trace], (workload, trace, set(got) ^ set(spec[trace]))
        assert ENVIRONMENT_KEYS <= set(report["environment"])
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
            for name in WORKLOAD_REPORT[workload]:
                assert name in report["metrics"], (workload, name)
        else:
            for name in DRIVEN_COUNTS[workload]:
                assert result["metrics"][name]["value"] > 0, (workload, name)
        print(f"ok {workload} trace={trace}: {result['attempted']} checks", flush=True)


def check_refusals():
    env = dict(os.environ, COVERMEASURE_MAX_RANK="7")
    proc = bench(ROOT, "exact-r3", 0, env)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(tmp, "exact-r3", 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok refusals", flush=True)


def main():
    check_helpers()
    check_refusals()
    for workload in run.WORKLOADS:
        check_workload(workload)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    print("selftest passed")


if __name__ == "__main__":
    main()
