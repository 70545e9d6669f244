"""Counting asymptotics, the exponent-weighted series, and synthetic ensembles.

The counting model packages the closed-form constants: the per-type box
constant c'_{g,k} = (4/3)^(3-3k) (pi^2 (g-1))^(1-k) and the global
constant c_{g,k} = (sum over types of 1/|Aut|) * c'_{g,k} / (3k-4)!,
against which the count of length-at-most-L subgroups grows like
c_{g,k} L^(3k-4) e^L.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from . import functionals
from ._lazy import np
from .graphs import TrivalentGraph, _is_integer, mass_formula
from .measure import (
    _FLOAT_VOLUME_TOL,
    MetricGraph,
    _draw_rows,
    build_limit_measure,
    expectation,
)


# natural logs of the least normal and the greatest float
_LOG_TINY = math.log(sys.float_info.min)
_LOG_HUGE = math.log(sys.float_info.max)

# points per slice: ensembles are drawn, inverted and scored this many
# points at a time, so scratch beyond their own arrays stays this size
_SLICE = 4096


class SeriesDivergenceError(ValueError):
    """The exponent-weighted series diverges at this exponent (s <= 1)."""


def _check_genus(genus) -> None:
    if not _is_integer(genus) or genus < 2:
        raise ValueError(f"genus must be an integer >= 2, got {genus!r}")


def _finite_count(length_bound: float, count) -> float:
    """count(L) at a positive finite length bound L.  A count past the
    float range raises OverflowError naming L, instead of returning inf."""
    if not 0 < length_bound < math.inf:
        raise ValueError(f"length bound must be positive and finite, got {length_bound!r}")
    try:
        value = count(length_bound)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise OverflowError(f"the count at L = {length_bound!r} is past the float range")
    return value


@dataclass(frozen=True)
class CountingModel:
    genus: int
    rank: int

    def __post_init__(self):
        _check_genus(self.genus)
        if not _is_integer(self.rank) or self.rank < 2:
            raise ValueError(f"rank must be an integer >= 2, got {self.rank!r}")
        object.__setattr__(self, "genus", int(self.genus))
        object.__setattr__(self, "rank", int(self.rank))

    @cached_property
    def sum_inv_aut(self) -> Fraction:
        return mass_formula(self.rank)

    @cached_property
    def c_prime(self) -> float:
        g, k = self.genus, self.rank
        return (4.0 / 3.0) ** (3 - 3 * k) * (math.pi ** 2 * (g - 1)) ** (1 - k)

    @cached_property
    def c(self) -> float:
        k = self.rank
        return float(self.sum_inv_aut) * self.c_prime / math.factorial(3 * k - 4)

    @property
    def unit_tangent_volume(self) -> float:
        return 8.0 * math.pi ** 2 * (self.genus - 1)

    def c_high_precision(self, dps: int = 50):
        """The global constant via mpmath, for cross-checking the float path."""
        import mpmath

        with mpmath.workdps(dps):
            g, k = self.genus, self.rank
            pi2 = mpmath.pi ** 2
            val = (
                mpmath.mpf(self.sum_inv_aut.numerator) / self.sum_inv_aut.denominator
                * (mpmath.mpf(4) / 3) ** (3 - 3 * k)
                * (pi2 * (g - 1)) ** (1 - k)
                / mpmath.factorial(3 * k - 4)
            )
            return +val

    def count_function_log(self, t: float) -> float:
        """log of the model counting function N(t) = c t^(3k-4) e^t."""
        if not 0 < t < math.inf:
            raise ValueError(f"t must be positive and finite, got {t!r}")
        return math.log(self.c) + (3 * self.rank - 4) * math.log(t) + t


def huber_count(length_bound: float) -> float:
    """Closed-geodesic count model e^L / (2L)."""
    return _finite_count(length_bound, lambda l: math.exp(l) / (2.0 * l))


def subgroup_count_asymptotic(model: CountingModel, length_bound: float) -> float:
    """c_{g,k} L^(3k-4) e^L."""
    k = model.rank
    return _finite_count(length_bound, lambda l: model.c * l ** (3 * k - 4) * math.exp(l))


def crit_count_asymptotic(graph: TrivalentGraph, genus: int,
                          length_bound: float) -> float:
    """Per-type count (2/3)^(3 chi) vol(T1)^chi / (-3 chi - 1)! L^(-3 chi -1) e^L."""
    _check_genus(genus)
    chi = graph.euler_characteristic
    vol_t1 = 8.0 * math.pi ** 2 * (genus - 1)
    return _finite_count(length_bound, lambda l: (
        (2.0 / 3.0) ** (3 * chi)
        * vol_t1 ** chi
        / math.factorial(-3 * chi - 1)
        * l ** (-3 * chi - 1)
        * math.exp(l)
    ))


def crit_box_asymptotic(graph: TrivalentGraph, genus: int, corner, h: float) -> float:
    """Count of critical maps in an edge-length box of side h at the given
    corner; depends on the corner only through its L1-norm."""
    _check_genus(genus)
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h!r}")
    corner = tuple(corner)
    if len(corner) != graph.num_edges or not all(0 < c < math.inf for c in corner):
        raise ValueError("corner must be a positive finite vector, one entry per edge")
    chi = graph.euler_characteristic
    vol_sigma = 4.0 * math.pi * (genus - 1)
    return (
        2.0 ** (4 * chi) / 3.0 ** (3 * chi)
        * math.pi ** chi
        * (math.expm1(h)) ** (-3 * chi)
        * math.exp(float(sum(corner)))
        / vol_sigma ** (-chi)
    )


# ---------------------------------------------------------------------------
# exponent-weighted sums
# ---------------------------------------------------------------------------

def ps_partial_sum(lengths, s: float, length_bound: float) -> float:
    """Sum of e^(-s l) over the lengths l <= L."""
    return math.fsum(math.exp(-s * l) for l in lengths if l <= length_bound)


def ps_via_stieltjes(lengths, s: float, length_bound: float) -> float:
    """The same partial sum through the step-function counting identity
    e^(-sL) N(L) + s * integral_0^L e^(-st) N(t) dt, with the integral
    evaluated exactly piece by piece.

    For s >= 0 every term is nonnegative and the identity holds to machine
    precision; for s < 0 the boundary term and the integral cancel and the
    float evaluation loses accuracy accordingly.
    """
    pts = sorted(l for l in lengths if l <= length_bound)
    if not pts:
        return 0.0
    boundary = math.exp(-s * length_bound) * len(pts)
    if s == 0:
        return float(len(pts))
    knots = pts + [length_bound]
    terms = [
        # s * int_a^b e^(-st) (j+1) dt over the j-th constant piece
        (j + 1) * (math.exp(-s * knots[j]) - math.exp(-s * knots[j + 1]))
        for j in range(len(pts))
    ]
    terms.append(boundary)
    return math.fsum(terms)


def ps_model_closed_form(model: CountingModel, s: float) -> float:
    """Exact value of s * integral_0^inf e^(-st) c t^(3k-4) e^t dt for s > 1:
    s c Gamma(3k-3) / (s-1)^(3k-3).  Where (s-1)^(3k-3) is past the normal
    float range the quotient is taken in logs; a value past the float
    range raises OverflowError naming s."""
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    if s <= 1:
        raise SeriesDivergenceError(
            f"the series diverges for s = {s} <= 1 (critical exponent 1)"
        )
    m = 3 * model.rank - 3
    numerator = s * model.c * math.factorial(m - 1)
    log_power = m * math.log(s - 1.0)
    if _LOG_TINY < log_power < _LOG_HUGE:
        value = numerator / (s - 1.0) ** m
    else:
        log_value = math.log(numerator) - log_power
        value = math.exp(log_value) if log_value < _LOG_HUGE else math.inf
    if value == math.inf:
        raise OverflowError(f"the closed form at s = {s!r} is past the float range")
    return value


# ---------------------------------------------------------------------------
# synthetic ensembles
# ---------------------------------------------------------------------------

ENSEMBLE_MODES = ("exact-marker", "lattice-marker")


class SyntheticSubgroup:
    """One point of a synthetic ensemble: its length and its marker, the
    metric graph drawn for it.  The marker is built from the ensemble's
    arrays on first access, so iterating over lengths stays cheap."""

    __slots__ = ("length", "_ensemble", "_index", "_marker")

    def __init__(self, ensemble: "SyntheticEnsemble", index: int):
        self.length = float(ensemble.lengths[index])
        self._ensemble = ensemble
        self._index = index
        self._marker = None

    @property
    def marker(self) -> MetricGraph:
        if self._marker is None:
            self._marker = self._ensemble.marker(self._index)
        return self._marker


@dataclass(frozen=True, eq=False)
class SyntheticEnsemble:
    """A synthetic length/marker ensemble held as arrays, one entry per
    point in order of increasing length.

    Point i has length ``lengths[i]`` and a marker on graph
    ``graphs[blocks[i]]`` given by ``rows[i]``: positive float edge lengths
    summing to one (exact markers; ``resolution`` is None), or positive
    integer edge counts summing to ``resolution[i]`` (lattice markers, with
    edge lengths ``rows[i] / resolution[i]``).  ``cap_reached`` is true when
    the point cap, not the length bound, stopped the arrival process.
    Iteration yields SyntheticSubgroup points.
    """

    lengths: np.ndarray
    blocks: np.ndarray
    rows: np.ndarray
    resolution: np.ndarray | None
    graphs: tuple[TrivalentGraph, ...]
    cap_reached: bool

    # the values of each Functional scored so far, by ``values``
    _scores: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.lengths, self.blocks, self.rows, self.resolution):
            if arr is not None:
                arr.flags.writeable = False
        rows, resolution = self.rows, self.resolution
        # checked _SLICE rows at a time, so the scratch stays slice-sized
        if resolution is None:
            if not all(np.all(part > 0)
                       and np.all(np.abs(part.sum(axis=1) - 1.0) <= _FLOAT_VOLUME_TOL)
                       for part in _slices(rows)):
                raise ValueError("marker lengths must be positive and sum to 1")
        elif not (len(rows) == len(resolution)
                  and all(np.all(part > 0) and np.array_equal(part.sum(axis=1), total)
                          for part, total in zip(_slices(rows), _slices(resolution)))):
            raise ValueError("marker counts must be positive and sum to the resolution")

    @property
    def effective_lmax(self) -> float:
        """The largest length kept (0 for an empty ensemble)."""
        return float(self.lengths.max(initial=0.0))

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        return (SyntheticSubgroup(self, i) for i in range(len(self)))

    def marker(self, i: int) -> MetricGraph:
        """The marker of point i, with Fraction lengths for lattice markers."""
        graph = self.graphs[self.blocks[i]]
        if self.resolution is None:
            return MetricGraph(graph, tuple(float(x) for x in self.rows[i]))
        n = int(self.resolution[i])
        return MetricGraph(graph, tuple(Fraction(int(c), n) for c in self.rows[i]))

    def values(self, f) -> np.ndarray:
        """f at every point, as floats.

        A Functional runs block by block, up to _SLICE points at a time,
        from its linear forms M / d: lattice markers divide their integer
        minimum once by d times the resolution, which gives
        float(f.scalar(marker)) exactly; exact markers use f.kernel.  It is
        scored once per ensemble, into a read-only array that later calls return.
        A plain callable runs on each marker in point order, at every call.
        """
        if not isinstance(f, functionals.Functional):
            return np.array([float(f(self.marker(i))) for i in range(len(self))])
        if f in self._scores:
            return self._scores[f]
        out = np.empty(len(self))
        # np.unique would also import numpy.ma, about 1 MB that is never used
        for b in np.flatnonzero(np.bincount(self.blocks)):
            graph, points = self.graphs[b], np.flatnonzero(self.blocks == b)
            if self.resolution is None:
                for at in _slices(points):
                    out[at] = f.kernel(graph, self.rows[at])
                continue
            rows, den = functionals._graph_forms(f.forms_for, graph)
            top = max(int(self.resolution[at].max()) for at in _slices(points))
            # counts are positive and sum to the resolution, so no form value
            # or denominator exceeds max(|M|, d) * top: below 2^53 both are
            # exact floats, and one division rounds the exact ratio correctly
            bound = max(den, *(abs(c) for row in rows for c in row)) * top
            if bound > 2 ** 53:
                raise OverflowError(f"form values up to {bound} are not exact in float64")
            mat = functionals.integer_matrix(rows, top)
            for at in _slices(points):
                out[at] = (functionals.integer_minimum(mat, self.rows[at])
                           / (den * self.resolution[at]))
        out.flags.writeable = False
        self._scores[f] = out
        return out


def _slices(arr: np.ndarray):
    """``arr`` in consecutive slices of _SLICE entries along its first axis."""
    return (arr[a:a + _SLICE] for a in range(0, len(arr), _SLICE))


def _invert_count_function(model: CountingModel, log_targets: np.ndarray,
                           t_max: float) -> np.ndarray:
    """Per target, the t in [1e-12, t_max] with log N(t) = target: 0.5 * (lo + hi)
    for the adjacent floats lo < hi where the test log c + (3k-4) log t + t
    < target turns from true to false.  The test is monotone in t, so
    bisection reaches that pair from any bracket that the test passes at
    both ends.  Newton finds the root, a bracket as wide as the test's
    rounding is checked by the test, and a few halvings follow, so the bits
    do not depend on t_max.  A target whose bracket fails the check is
    bisected from [1e-12, t_max] in at most 80 halvings, which stop short
    of the pair for roots below about t_max * 2^-28."""
    exponent = 3 * model.rank - 4
    logc = math.log(model.c)

    def below(t):
        return logc + exponent * np.log(t) + t < log_targets

    # g(t) = log N(t) - target is concave, so Newton steps from the root of
    # its bound by log t <= t - 1 stay left of its root; once every step is
    # below 2^-26 of t, the last one leaves an error below 2^-52 of t
    t = np.maximum((log_targets - logc + exponent) / (exponent + 1), 1e-12)
    for _ in range(64):
        step = (logc + exponent * np.log(t) + t - log_targets) * t / (exponent + t)
        new = np.maximum(t - step, 1e-12)
        done = np.all(np.abs(new - t) <= new * 2.0 ** -26)
        t = new
        if done:
            break
    # the test rounds to a few units of |log c| + |target|, and one unit
    # moves its root by t / (exponent + t)
    half = np.maximum(t, (abs(logc) + np.abs(log_targets)) * t / (exponent + t)) * 2.0 ** -50
    lo, hi = t - half, t + half
    ok = below(lo) & ~below(hi) & (hi <= t_max)
    lo = np.where(ok, lo, 1e-12)
    hi = np.where(ok, hi, t_max)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        too_low = below(mid)
        new_lo = np.where(too_low, mid, lo)
        new_hi = np.where(too_low, hi, mid)
        # unchanged brackets give the same mid again: a fixed point
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def _draw_compositions(rng: np.random.Generator, resolution: np.ndarray,
                       parts: int) -> np.ndarray:
    """A uniform positive composition of resolution[i] into ``parts`` parts
    per row, as int64 counts.

    Each row's parts - 1 cuts are a uniform subset of {0..resolution[i]-2},
    drawn for all rows at once by Floyd's algorithm: step j draws v below
    high = resolution - k + j with k = parts - 1, and takes high - 1
    instead when v is already a cut.  The cuts are held in the leading
    columns of the result, and the duplicate test runs a slice at a time.
    """
    n, k = len(resolution), parts - 1
    out = np.empty((n, parts), dtype=np.int64)
    for j in range(k):
        high = resolution - (k - j)
        v = rng.integers(0, high)
        for a in range(0, n, _SLICE):
            at = slice(a, a + _SLICE)
            taken = (out[at, :j] == v[at, None]).any(axis=1)
            out[at, j] = np.where(taken, high[at] - 1, v[at])
        # so the next step's arrays do not join these at the peak of synthesis
        del high, v
    # the sorted cuts, shifted by one, are the inner part boundaries; the
    # parts are their differences, taken in place from the right
    out[:, :k].sort(axis=1)
    out[:, :k] += 1
    out[:, k] = resolution
    for j in range(k, 0, -1):
        out[:, j] -= out[:, j - 1]
    return out


def synthesize_ensemble(model: CountingModel, l_max: float, mode: str,
                        seed: int, cap: int = 100_000) -> SyntheticEnsemble:
    """Draw a synthetic length/marker ensemble.

    Lengths follow a Poisson process with intensity N'(t) on (0, l_max],
    truncated to at most ``cap`` points from below (the process is stopped
    once the cap is reached; the result's ``cap_reached`` and
    ``effective_lmax`` say so).  Markers are drawn per point: exact-marker
    mode samples the limit measure itself; lattice-marker mode samples the
    lattice discretization at resolution N = max(ceil(length), E), a
    uniform composition of N into E parts drawn for every point in one
    pass, which carries a coarseness bias that fades as the length grows.
    """
    if mode not in ENSEMBLE_MODES:
        raise ValueError(f"mode must be one of {ENSEMBLE_MODES}, got {mode!r}")
    if not 0 < l_max < math.inf:
        raise ValueError(f"l_max must be positive and finite, got {l_max!r}")
    if not _is_integer(cap) or cap < 1:
        raise ValueError(f"cap must be an integer >= 1, got {cap!r}")
    log_n_max = model.count_function_log(l_max)
    if log_n_max < 0:
        raise ValueError(
            f"expected count N({l_max}) < 1; enlarge l_max for this model"
        )
    rng = np.random.default_rng(seed)

    # arrivals come in batches of one slice, each inverted on its own: a
    # point whose bisection bracket stops changing never changes again, so
    # this gives the bits of inverting them all at once
    pieces, n, running = [], 0, 0.0
    while n < cap:
        sums = running + np.cumsum(rng.standard_exponential(min(_SLICE, cap - n)))
        running = float(sums[-1])
        targets = np.log(sums)
        inside = targets[targets <= log_n_max]
        pieces.append(_invert_count_function(model, inside, l_max))
        n += len(inside)
        if len(inside) < len(targets):
            break
    lengths = np.concatenate(pieces)
    del pieces

    mixture = build_limit_measure(model.rank)
    cum = np.cumsum([float(w) for w in mixture.weights])
    block_idx = np.searchsorted(cum, rng.random(n), side="right")
    np.minimum(block_idx, len(mixture.blocks) - 1, out=block_idx)
    n_edges = mixture.blocks[0].graph.num_edges

    if mode == "exact-marker":
        rows, resolution = _draw_rows(rng, n, n_edges), None
    else:
        resolution = np.maximum(np.ceil(lengths), n_edges).astype(np.int64)
        rows = _draw_compositions(rng, resolution, n_edges)
    return SyntheticEnsemble(
        lengths=lengths, blocks=block_idx, rows=rows, resolution=resolution,
        graphs=tuple(b.graph for b in mixture.blocks),
        cap_reached=n >= cap,
    )


def ps_measure_expectation(ensemble: SyntheticEnsemble, f, s: float) -> float:
    """Expectation of f under the e^(-s length)-weighted probability measure
    over the ensemble, with f scored by ``SyntheticEnsemble.values``, which
    scores a Functional once per ensemble, whatever s.

    The weights are math.exp of -s * (length - least length), and the sums
    run left to right in point order: _SLICE points at a time, the terms
    are made in numpy and added by np.cumsum after the running total.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    if s <= 1:
        raise SeriesDivergenceError(
            f"the weighted measure needs s > 1, got s = {s}"
        )
    if not ensemble:
        raise ValueError("ensemble is empty")
    lengths, values = ensemble.lengths, ensemble.values(f)
    lmin = float(lengths.min())
    num = den = 0.0
    for part, vals in zip(_slices(lengths), _slices(values)):
        weights = np.fromiter(map(math.exp, ((-s) * (part - lmin)).tolist()),
                              dtype=float, count=len(part))
        num = np.cumsum(np.append(num, weights * vals))[-1]
        den = np.cumsum(np.append(den, weights))[-1]
    return float(num / den)


# ---------------------------------------------------------------------------
# expected systole
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _systole_slope(rank: int) -> Fraction:
    return expectation(build_limit_measure(rank), functionals.SYSTOLE)


def expected_systole_line(length_bound, rank: int = 2):
    """Leading-order expected systole at length bound L: the exact E[systole]
    of the rank-k limit measure times L, (23/90) L for rank 2.  Ranks the
    exact integrator cannot reach raise ExactWorkLimitError."""
    if not 0 <= length_bound < math.inf:
        raise ValueError(f"length bound must be nonnegative and finite, got {length_bound!r}")
    return _systole_slope(rank) * length_bound
