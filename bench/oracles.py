"""Reference values and tolerances for the benchmark's correctness checks.

Exact results are compared as ``Fraction``s.  Monte Carlo results are
compared with a tolerance of Z standard errors, where the standard error
comes from a per-sample standard deviation pinned here (from
``bench/pin_reference.py``, on seeds the workloads never use), so the
tolerance of a check never depends on the seed of the run being checked.
With Z = 6 a correct program fails one check with probability
P(|N(0,1)| > 6) = 2.0e-9.
"""

from __future__ import annotations

import math
from fractions import Fraction

Z = 6.0
NORMAL_TAIL_AT_Z = math.erfc(Z / math.sqrt(2.0))

# Exact expectations of the limit measure.
E_SYSTOLE = {2: Fraction(23, 90), 3: Fraction(317, 2250)}
E_BRIDGE = {2: Fraction(3, 5), 3: Fraction(2, 3)}


def e_minedge(rank: int) -> Fraction:
    """Mean of the smallest of E = 3k-3 uniform simplex coordinates: 1/E^2."""
    return Fraction(1, (3 * rank - 3) ** 2)


def sd_minedge(rank: int) -> float:
    """E * min is Beta(1, E-1), so Var(min) = (E-1) / (E^4 (E+1))."""
    e = 3 * rank - 3
    return math.sqrt((e - 1) / (e ** 4 * (e + 1)))


# Lattice expectations of the systole at N = 240, from the seed code
# (lattice_sigma(g, 240).expectation(SYSTOLE)).
LATTICE_N = 240
LATTICE_SYSTOLE = {"dumbbell": Fraction(481, 2868),
                   "theta": Fraction(133319, 341292)}

# Graph types and the mass formula sum over types of 1/|Aut| for k = 2..5.
TYPE_COUNTS = {2: 2, 3: 5, 4: 17, 5: 71}
MASS = {2: Fraction(5, 24), 3: Fraction(5, 16), 4: Fraction(1105, 1152),
        5: Fraction(565, 128)}


def mass_formula(k: int) -> Fraction:
    """[z^(k-1)] log sum_n (6n)! / (6^(2n) (2n)! 2^(3n) (3n)!) z^n, the sum
    over connected trivalent graphs of rank k of 1/|Aut| (dart level)."""
    f = math.factorial
    a = [Fraction(f(6 * n), 6 ** (2 * n) * f(2 * n) * 2 ** (3 * n) * f(3 * n))
         for n in range(k)]
    # log series b of a (a[0] = 1): n b_n = n a_n - sum_{j<n} j b_j a_{n-j}
    b = [Fraction(0)] * k
    for n in range(1, k):
        b[n] = a[n] - sum((j * b[j] * a[n - j] for j in range(1, n)), Fraction(0)) / n
    return b[k - 1]


# Monte Carlo: per-sample standard deviations (systole: from 4e6-sample
# runs, rounded up; the others exact), and the rank-4 systole reference
# pooled from 1e8 samples.
SD = {("systole", 4): 0.07288, ("systole", 3): 0.1029, ("systole", 2): 0.1681,
      ("bridge", 2): math.sqrt(0.6 * 0.4), ("minedge", 4): sd_minedge(4)}
R4_SYSTOLE_MEAN = 0.09571253027526821
R4_SYSTOLE_SE = 7.287064937927437e-06


def mc_tolerance(name: str, rank: int, n: int, reference_se: float = 0.0) -> float:
    return Z * (SD[(name, rank)] / math.sqrt(n) + reference_se)


# Separating orthogeodesic of the pants with boundaries (1, 1, 10), from the
# seed code's hexagon formula; its matrix oracle agrees to 1e-13.
PANTS_ORTHO_1_1_10 = 0.3706313066009037

# ps converge --rank 2 --genus 2 --Lmax 40 --s-list 1.5,1.1,1.02: the
# estimate at s = 1.02 over PS_SEEDS reference seeds.  Its band is Z times
# a 99% upper confidence bound on the standard deviation, which is
# PS_SD_FACTOR = sqrt((n-1) / chi2.ppf(0.01, n-1)) times the sample value
# for n = PS_SEEDS seeds; bench/pin_reference.py prints all three values.
# A correct program then falls outside the band with probability
# P(|t_23| > Z * PS_SD_FACTOR / sqrt(1 + 1/24)) = 7.8e-9.  On the same
# seeds |error| at s = 1.02 was below |error| at s = 1.5 every time (24 of 24).
PS_SEEDS = 24
PS_LOW_MEAN = 0.3032542507255276
PS_LOW_SD = 0.0066342325397951984
PS_SD_FACTOR = 1.5019485729654591
PS_LOW_TOL = Z * PS_SD_FACTOR * PS_LOW_SD
