"""Recompute the pinned Monte Carlo references in ``bench/oracles.py``.

    PYTHONPATH=src python3 bench/pin_reference.py

Every draw here uses seeds of the form 2**32 + i.  The workloads derive
their seeds as 32-bit integers, so they never reuse these streams.

Prints, for pasting into ``oracles.py``:
- the rank-4 systole reference mean and its standard error, pooled over
  ``BLOCKS`` runs of 4e6 samples (1e8 samples);
- per Monte Carlo job, the standard deviation of one sample, taken from
  the same kind of long run (the tolerances use these, never the standard
  error of the run being checked);
- for ``ps converge`` at the workload's settings, the mean and standard
  deviation over ``oracles.PS_SEEDS`` seeds of the estimate at s = 1.02,
  the factor of the 99% upper confidence bound on that standard deviation,
  and how often |error| at s = 1.02 was below |error| at s = 1.5.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

from covermeasure import asymptotics, functionals, measure
from scipy.stats import chi2

import oracles

RESERVED = 2 ** 32
BLOCK = 4_000_000
BLOCKS = 25


def pooled(mixture, functional, blocks, offset):
    means, ses = [], []
    for i in range(blocks):
        mean, se = measure.integrate_mc(mixture, functional, BLOCK, RESERVED + offset + i)
        means.append(mean)
        ses.append(se)
    mean = statistics.fmean(means)
    sd_one = math.sqrt(statistics.fmean([(se * math.sqrt(BLOCK)) ** 2 for se in ses]))
    return mean, sd_one / math.sqrt(BLOCK * blocks), sd_one


def main():
    m4 = measure.build_limit_measure(4)
    mean, se, sd = pooled(m4, functionals.SYSTOLE, BLOCKS, 0)
    print(f"R4_SYSTOLE_MEAN = {mean!r}")
    print(f"R4_SYSTOLE_SE = {se!r}")
    print(f"# sample sd of rank-4 systole: {sd!r}")
    jobs = ((4, functionals.MINEDGE), (3, functionals.SYSTOLE),
            (2, functionals.SYSTOLE), (2, functionals.BRIDGE))
    for j, (k, f) in enumerate(jobs, start=1):
        _, _, sd = pooled(measure.build_limit_measure(k), f, 1, 1000 * j)
        print(f"# sample sd of rank-{k} {f.name}: {sd!r}")

    model = asymptotics.CountingModel(genus=2, rank=2)
    target = float(Fraction(23, 90))
    lows, held = [], 0
    for i in range(oracles.PS_SEEDS):
        ens = asymptotics.synthesize_ensemble(model, 40.0, "lattice-marker", RESERVED + i)
        low = asymptotics.ps_measure_expectation(ens, functionals.SYSTOLE, 1.02)
        high = asymptotics.ps_measure_expectation(ens, functionals.SYSTOLE, 1.5)
        lows.append(low)
        held += abs(low - target) < abs(high - target)
        print(f"# ps seed {RESERVED + i}: s=1.02 {low!r}, s=1.5 {high!r}", flush=True)
    print(f"PS_LOW_MEAN = {statistics.fmean(lows)!r}")
    print(f"PS_LOW_SD = {statistics.stdev(lows)!r}")
    dof = oracles.PS_SEEDS - 1
    print(f"PS_SD_FACTOR = {math.sqrt(dof / chi2.ppf(0.01, dof))!r}")
    print(f"# relation held on {held} of {oracles.PS_SEEDS} seeds")


if __name__ == "__main__":
    main()
