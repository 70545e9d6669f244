"""Run one covermeasure CLI command, for the benchmark's cli-ps workload.

    BENCH_SPAWN_T=<time.monotonic() at spawn> PYTHONPATH=src \
        python3 bench/cli_child.py [--traced] <covermeasure argv...>

Stdout is the command's own output, as ``python -m covermeasure`` prints
it.  The last stderr line is ``BENCH_CHILD <json>``:

- untraced, the speed the command ran at: every ``TICK_EVERY_S`` a SIGALRM
  handler times ``tick``, a short pure-Python probe, in this process and
  on its CPU, so the samples cover the whole command.  The line holds
  every tick's time and the total time spent in the handler, which the
  benchmark subtracts from the command's time;
- traced (``--traced``), the span summary of this process, including the
  interpreter start (spawn to first statement) and the import of
  ``covermeasure.cli`` as counters.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

PREFIX = "BENCH_CHILD "
TICK_EVERY_S = 0.05
TICK_REF_S = 0.0012  # a tick's time at the reference speed (bench/README.md, Steadiness)


def tick() -> None:
    """A fixed mix of Fraction, dict and sorting work, none of it library
    code: about 1.2 ms at the reference speed."""
    from fractions import Fraction

    total, seen = Fraction(0), {}
    for i in range(1, 160):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        seen[i % 50, i % 7] = sorted((i % 11, i % 5, i % 3))


class Sampler:
    """SIGALRM handler that times ``tick``."""

    def __init__(self):
        self.ticks: list[float] = []
        self.spent_s = 0.0

    def __call__(self, signum, frame):
        start = time.perf_counter()
        tick()
        self.ticks.append(time.perf_counter() - start)
        self.spent_s += time.perf_counter() - start


def run_sampled(argv) -> int:
    import fractions  # noqa: F401  (so that no tick pays for the import)

    sampler = Sampler()
    signal.signal(signal.SIGALRM, sampler)
    signal.setitimer(signal.ITIMER_REAL, 1e-3, TICK_EVERY_S)
    try:
        from covermeasure import cli

        code = cli.run(argv)
        sys.stdout.flush()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(PREFIX + json.dumps({"ticks": sampler.ticks, "sampler_s": sampler.spent_s}),
          file=sys.stderr)
    return code


def run_traced(argv) -> int:
    spawned = float(os.environ["BENCH_SPAWN_T"])
    t = time.perf_counter()
    from covermeasure import cli
    import_s = time.perf_counter() - t

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.count("cli.interpreter_s", START - spawned)
    tracer.count("cli.import_s", import_s)
    code = tracer.wrap("cli.run", cli.run)(argv)
    sys.stdout.flush()
    print(PREFIX + json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["--traced"]:
        sys.exit(run_traced(sys.argv[2:]))
    sys.exit(run_sampled(sys.argv[1:]))
