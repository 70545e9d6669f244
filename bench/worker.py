"""One repetition of one benchmark workload, in a fresh process.

    PYTHONPATH=src python3 bench/worker.py --workload W --seed S --rep R [--traced]

Set-up is the time from the parent's spawn (``BENCH_SPAWN_T``, a
``time.monotonic()`` reading) until ``import covermeasure`` and the
workload's first ``build_limit_measure`` are done.  The worker then runs
the workload's fixed job list and checks every result once its job's
timer has stopped.  It prints one JSON line with the set-up time, the job
timings, the checks, its peak RSS and, when traced, the per-layer summary.
The workload's wall time is the sum of its job times; set-up and wall
time are also given scaled to a reference speed (README, Steadiness).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from covermeasure import functionals, graphs, measure

import cli_child
import oracles

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = ROOT / "src" / "covermeasure" / "output.schema.json"


PROBE_REF_S = 0.020  # the probe's time at the reference speed


def probe() -> float:
    """Seconds taken by a fixed mix of Fraction, dict and numpy work like the
    library's, none of it library code: the median of three timings, so one
    outlier does not count.  The host's speed drifts by tens of percent
    within minutes; probes next to a job measure the speed it ran at (see
    README, Steadiness)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total, seen = Fraction(0), {}
        for i in range(1, 2000):
            total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
            seen[i % 50, i % 7] = sorted((i % 11, i % 5, i % 3))
        # small arrays and no numpy.random, so the probe adds nothing to peak RSS
        base = np.arange(float(1 << 12) * 9).reshape(-1, 9) % 17 + 1
        for _ in range(10):
            rows = base / base.sum(axis=1, keepdims=True)
            rows.min(axis=1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Rep:
    """Timings and check outcomes of one repetition."""

    def __init__(self, seed: int, rep: int, tracer, smoke: bool, in_process: bool):
        self.seed, self.rep, self.tracer, self.smoke = seed, rep, tracer, smoke
        self.in_process = in_process
        self.jobs: dict[str, float] = {}
        self.speed: dict[str, float] = {}  # job: reference speed over its speed
        self.attempted = 0
        self.failures: list[str] = []
        self.extra: dict = {}
        self.child_traces: list[dict] = []
        self.probes: list[float] = []  # after set-up, then after each in-process job

    def job_seed(self, job: int) -> int:
        """A 32-bit seed for job ``job``, drawn from (run seed, rep, job)."""
        return int(np.random.SeedSequence([self.seed, self.rep, job]).generate_state(1)[0])

    def check(self, name: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def expect(self, name: str, got, want) -> None:
        """Check an exact result; a job that raised was counted already."""
        if got is not None:
            self.check(name, got == want, f"{got} != {want}")

    def timed(self, name, fn, *args):
        """``fn(*args)`` timed as job ``name``: its result, or None if it
        raised.  In-process jobs are followed by a probe, outside the timer."""
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a crashed job is a failed attempt, not a crashed run
            self.attempted += 1
            self.failures.append(f"{name}: raised {exc!r}")
            return None
        finally:
            self.jobs[name] = time.perf_counter() - start
            if self.in_process:
                self.probes.append(probe())
                before, after = self.probes[-2:]
                self.speed[name] = PROBE_REF_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# exact-r3
# ---------------------------------------------------------------------------

def run_exact(rep, m3):
    for name, f, want in (("exact.r3.systole", functionals.SYSTOLE, oracles.E_SYSTOLE[3]),
                          ("exact.r3.minedge", functionals.MINEDGE, oracles.e_minedge(3)),
                          ("exact.r3.bridge", functionals.BRIDGE, oracles.E_BRIDGE[3])):
        rep.expect(name, rep.timed(name, measure.expectation, m3, f), want)
    got = rep.timed("exact.r2.systole", lambda: measure.expectation(
        measure.build_limit_measure(2), functionals.SYSTOLE))
    rep.expect("exact.r2.systole", got, oracles.E_SYSTOLE[2])
    for name, graph in (("dumbbell", graphs.dumbbell()), ("theta", graphs.theta_graph())):
        got = rep.timed(f"lattice.{name}.{oracles.LATTICE_N}", lambda graph=graph: (
            measure.lattice_sigma(graph, oracles.LATTICE_N).expectation(functionals.SYSTOLE)))
        rep.expect(f"lattice.{name}", got, oracles.LATTICE_SYSTOLE[name])


# ---------------------------------------------------------------------------
# mc-r4
# ---------------------------------------------------------------------------

MC_JOBS = (  # (job name, rank, functional name, samples)
    ("mc.r4.systole", 4, "systole", 4_000_000),
    ("mc.r4.minedge", 4, "minedge", 2_000_000),
    ("mc.r3.systole", 3, "systole", 2_000_000),
    ("mc.r2.systole", 2, "systole", 1_000_000),
    ("mc.r2.bridge", 2, "bridge", 1_000_000),
)
TARGET_STDERR = 1e-5


def mc_expected(fname: str, rank: int):
    """(mean, reference standard error) the estimate is checked against."""
    if (fname, rank) == ("systole", 4):
        return oracles.R4_SYSTOLE_MEAN, oracles.R4_SYSTOLE_SE
    exact = {"systole": oracles.E_SYSTOLE, "bridge": oracles.E_BRIDGE}
    want = exact[fname][rank] if fname in exact else oracles.e_minedge(rank)
    return float(want), 0.0


def run_mc(rep, m4):
    samples = 0
    errors = {}
    for j, (name, rank, fname, n) in enumerate(MC_JOBS):
        n = n // 100 if rep.smoke else n
        f = functionals.get_functional(fname)
        if rep.tracer is not None:
            import spans
            f = spans.traced_kernel(rep.tracer, f)
        got = rep.timed(name, lambda rank=rank, f=f, n=n, seed=rep.job_seed(j): (
            measure.integrate_mc(m4 if rank == 4 else measure.build_limit_measure(rank),
                                 f, n, seed)))
        samples += n
        if got is None:
            continue
        mean, errors[name] = got
        want, ref_se = mc_expected(fname, rank)
        tol = oracles.mc_tolerance(fname, rank, n, ref_se)
        rep.check(name, abs(mean - want) <= tol,
                  f"{mean!r} differs from {want!r} by more than {tol:.3g}")
    mc_wall = sum(rep.jobs[name] for name, *_ in MC_JOBS)
    rep.extra["mc_samples_per_s"] = samples / mc_wall
    stderr = errors.get("mc.r4.systole", float("nan"))
    rep.extra["mc_time_to_target_s"] = rep.jobs["mc.r4.systole"] * (stderr / TARGET_STDERR) ** 2


# ---------------------------------------------------------------------------
# enum-r5
# ---------------------------------------------------------------------------

RELABELINGS = 20


def relabeled(graph, perm):
    return graphs.TrivalentGraph(tuple(sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in graph.edges)))


def run_enum(rep, _):
    types = rep.timed("enumerate.r2-5",
                      lambda: {k: graphs.enumerate_trivalent(k) for k in range(2, 6)})
    if types is None:
        return
    for k, found in types.items():
        rep.check(f"types.r{k}", len(found) == oracles.TYPE_COUNTS[k], f"{len(found)} types")

    groups = rep.timed("automorphisms.r2-5", lambda: {
        k: [(graphs.automorphism_group(g), graphs.triv_subgroup(g)) for g in found]
        for k, found in types.items()})
    for k, pairs in (groups or {}).items():
        mass = Fraction(0)
        for aut, triv in pairs:
            mass += Fraction(1, len(aut))
            rep.check(f"triv.r{k}", len(aut) % len(triv) == 0 and set(triv) <= set(aut),
                      f"|Triv| = {len(triv)}")
        want = oracles.mass_formula(k)
        rep.check(f"mass.r{k}", mass == want == oracles.MASS[k], f"{mass} != {want}")

    m5 = rep.timed("build_limit_measure.r5", measure.build_limit_measure, 5)
    if m5 is not None:
        rep.check("measure.r5", len(m5.blocks) == 71 and
                  m5.normalization == 1 / oracles.MASS[5], f"{m5.normalization}")

    # Python's generator, so that numpy.random does not count in this
    # workload's peak RSS; the relabelings are built before the timer starts
    rng = random.Random(f"{rep.seed}/{rep.rep}")
    inputs = [(g, [relabeled(g, rng.sample(range(g.num_vertices), g.num_vertices))
                   for _ in range(1 if rep.smoke else RELABELINGS)])
              for g in types.get(5, [])]
    forms = rep.timed("canonical_form.relabel.r5", lambda: [
        (graphs.canonical_form(g), [graphs.canonical_form(h) for h in copies])
        for g, copies in inputs])
    for want, got in forms or []:
        for form in got:
            if form == want:
                rep.check("relabel.r5", True)
            else:
                rep.check("relabel.r5", False, f"{form.hex()} != {want.hex()}")


# ---------------------------------------------------------------------------
# cli-ps
# ---------------------------------------------------------------------------

PS_ARGV = ["ps", "converge", "--rank", "2", "--genus", "2", "--Lmax", "40",
           "--s-list", "1.5,1.1,1.02"]
SHORT_ARGV = (  # (job name, argv); checked in this order in run_cli
    ("cli.measure.weights", ["measure", "weights", "--rank", "2"]),
    ("cli.expect", ["expect", "--rank", "2", "--functional", "systole"]),
    ("cli.invariant", ["invariant", "systole", "--graph", "dumbbell",
                       "--lengths", "1/2,3/10,1/5"]),
    ("cli.pants.ortho", ["pants", "ortho", "--boundaries", "1,1,10"]),
    ("cli.count.subgroups", ["count", "subgroups", "--genus", "2", "--rank", "2",
                             "--L", "20"]),
)
SMOKE_CAP = 5000


def cli_job(rep, name, argv):
    """Run one CLI process, under ``bench/cli_child.py``, as job ``name``;
    its parsed JSON output, or None if it failed.  Untraced, the job's time
    excludes the child's speed sampler, and its speed is the mean over the
    child's ticks."""
    env = dict(os.environ, BENCH_SPAWN_T=repr(time.monotonic()))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    traced = ["--traced"] if rep.tracer is not None else []
    cmd = [sys.executable, str(ROOT / "bench" / "cli_child.py"), *traced, *argv]
    proc = rep.timed(name, lambda: subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120))
    if proc is None:
        return None
    lines = [line for line in proc.stderr.splitlines() if line.startswith(cli_child.PREFIX)]
    if proc.returncode != 0 or not lines:
        rep.check(name, False, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    child = json.loads(lines[-1][len(cli_child.PREFIX):])
    if traced:
        rep.child_traces.append(child)
    else:
        rep.jobs[name] -= child["sampler_s"]
        rep.speed[name] = statistics.fmean(cli_child.TICK_REF_S / t for t in child["ticks"])
    return json.loads(proc.stdout)


def run_cli(rep, _):
    import jsonschema

    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))

    def valid(name, out):
        errors = [e.message for e in validator.iter_errors(out)]
        rep.check(f"{name}.schema", not errors, "; ".join(errors[:3]))

    def rational(rec, prefix=""):
        return Fraction(rec[prefix + "exact_numerator"], rec[prefix + "exact_denominator"])

    ps_seed = rep.job_seed(0)
    cap = SMOKE_CAP if rep.smoke else 100_000
    out = cli_job(rep, "ps.converge", [*PS_ARGV, "--cap", str(cap), "--seed", str(ps_seed)])
    if out is not None:
        valid("ps.converge", out)
        params = out["params"]
        rep.check("ps.converge.params",
                  params["ensemble_size"] == params["cap"] == cap and
                  params["seed"] == ps_seed and
                  rational(params, "target_") == oracles.E_SYSTOLE[2],
                  json.dumps(params))
        by_s = {r["s"]: r for r in out["records"]}
        low = by_s[1.02]["estimate"]
        if not rep.smoke:  # the band is pinned at the full ensemble size
            rep.check("ps.converge.s1.02",
                      abs(low - oracles.PS_LOW_MEAN) <= oracles.PS_LOW_TOL,
                      f"{low!r} is more than {oracles.PS_LOW_TOL:.3g} from "
                      f"{oracles.PS_LOW_MEAN!r}")
        rep.extra["ps_relation_held"] = int(
            by_s[1.02]["abs_error"] < by_s[1.5]["abs_error"])
    rep.extra["ps_converge_s"] = rep.jobs["ps.converge"]

    def weights(out):
        return {r.get("name"): rational(r) for r in out["records"]}

    # c = (sum of 1/|Aut|) (4/3)^(3-3k) (pi^2 (g-1))^(1-k) / (3k-4)!, k = g = 2
    c = float(oracles.MASS[2]) * (4 / 3) ** -3 / math.pi ** 2 / 2
    checks = (
        lambda out: weights(out) == {"dumbbell": Fraction(3, 5), "theta": Fraction(2, 5)},
        lambda out: rational(out["records"][0]) == oracles.E_SYSTOLE[2],
        # the dumbbell's only cycles are its loops, 1/2 and 1/5
        lambda out: rational(out["records"][0]) == Fraction(1, 5),
        lambda out: math.isclose(out["records"][0]["length"], oracles.PANTS_ORTHO_1_1_10,
                                 rel_tol=1e-12),
        lambda out: math.isclose(out["records"][0]["count"], c * 20 ** 2 * math.exp(20),
                                 rel_tol=1e-12),
    )
    for (name, argv), ok in zip(SHORT_ARGV, checks):
        out = cli_job(rep, name, list(argv))
        if out is not None:
            valid(name, out)
            rep.check(name, ok(out), json.dumps(out["records"])[:300])
    rep.extra["cli_cmd_s"] = [rep.jobs[name] for name, _ in SHORT_ARGV]


# workload: (rank of the set-up's build_limit_measure, job list, whether the
# jobs run in this process).  enum-r5 sets up rank 2 only, so enumeration at
# ranks 3 to 5 stays cold for its jobs.
WORKLOADS = {
    "exact-r3": (3, run_exact, True),
    "mc-r4": (4, run_mc, True),
    "enum-r5": (2, run_enum, True),
    "cli-ps": (2, run_cli, False),
}


def environment() -> dict:
    import importlib.metadata as md
    import platform

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": md.version("scipy"),
        "openblas_threads": openblas_threads(),
        "covermeasure_max_rank": os.environ.get("COVERMEASURE_MAX_RANK"),
        "git_revision": git_revision(),
    }


def openblas_threads():
    """numpy's OpenBLAS thread count, read from the bundled library."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up, reporting only its time")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args()

    tracer = None
    if args.traced:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    rank, run, in_process = WORKLOADS[args.workload]
    rep = Rep(args.seed, args.rep, tracer, args.smoke, in_process)
    mixture = measure.build_limit_measure(rank)
    setup_s = time.monotonic() - float(os.environ["BENCH_SPAWN_T"])
    rep.probes.append(probe())  # scales set-up, and is the first in-process job's "before"
    setup_scaled_s = setup_s * PROBE_REF_S / rep.probes[0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "probes": rep.probes,
                          "setup_scaled_s": setup_scaled_s}), flush=True)
        return
    run(rep, mixture)
    # Each job's time at the reference speed: in process, from the probes
    # on either side of it; in a CLI child, from the child's own ticks.
    # Traced CLI children take no ticks, so their repetitions have no
    # scaled time (README, Steadiness).
    scaled = None
    if set(rep.speed) == set(rep.jobs):
        scaled = sum(t * rep.speed[name] for name, t in rep.jobs.items())

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-ps" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "setup_scaled_s": setup_scaled_s,
        "wall_s": sum(rep.jobs.values()),
        "wall_scaled_s": scaled,
        "jobs": rep.jobs,
        "attempted": rep.attempted,
        "failures": rep.failures,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "probes": rep.probes,
        **rep.extra,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(
            spans.merge([tracer.summary(), *rep.child_traces]))
    if args.rep == 0:
        result["environment"] = environment()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
