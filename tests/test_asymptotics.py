"""Counting constants, exponent-weighted sums, and synthetic ensembles."""

import hashlib
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from covermeasure import asymptotics as A
from covermeasure import cli
from covermeasure import functionals as FN
from covermeasure import graphs as G
from covermeasure import measure as M

F = Fraction


# --- counting model ------------------------------------------------------------

def test_model_constants_rank2_genus2():
    m = A.CountingModel(genus=2, rank=2)
    assert m.sum_inv_aut == F(5, 24)
    assert m.c_prime == pytest.approx((27 / 64) / math.pi ** 2, rel=1e-15)
    expected_c = (5 / 24) * (27 / 64) / math.pi ** 2 / 2
    assert m.c == pytest.approx(expected_c, rel=1e-15)
    assert m.c == pytest.approx(4.452591078e-3, rel=1e-9)
    assert m.unit_tangent_volume == pytest.approx(8 * math.pi ** 2, rel=1e-15)


def test_model_constant_needs_no_enumeration():
    # rank 7 is above the default enumeration cap; the mass formula gives it
    assert A.CountingModel(genus=2, rank=7).sum_inv_aut == F(19675, 96)


def test_model_constant_against_high_precision():
    m = A.CountingModel(genus=2, rank=2)
    reference = float(m.c_high_precision(dps=60))
    assert abs(m.c - reference) / reference < 1e-12


@pytest.mark.parametrize("rank", range(2, 60))
def test_model_constant_against_high_precision_to_rank_59(rank):
    # from rank 59, (3k - 4)! is past the float range
    m = A.CountingModel(genus=2, rank=rank)
    reference = float(m.c_high_precision())
    assert abs(m.c - reference) <= 1e-12 * reference


def test_model_validation():
    with pytest.raises(ValueError):
        A.CountingModel(genus=1, rank=2)
    with pytest.raises(ValueError):
        A.CountingModel(genus=2, rank=1)
    with pytest.raises(ValueError):
        A.CountingModel(genus=2, rank=True)


def test_model_accepts_numpy_integers():
    m = A.CountingModel(genus=np.int64(2), rank=np.int64(2))
    assert m == A.CountingModel(genus=2, rank=2)
    assert type(m.genus) is int and type(m.rank) is int


def test_huber_count():
    assert A.huber_count(2.0) == pytest.approx(math.e ** 2 / 4, rel=1e-15)
    ratio = A.huber_count(10.0) / A.huber_count(9.0)
    assert ratio == pytest.approx(math.e * 9 / 10, rel=1e-12)
    values = [A.huber_count(l) for l in (1.5, 2.0, 3.0, 5.0)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        A.huber_count(0.0)


def test_subgroup_count_shape():
    m = A.CountingModel(genus=2, rank=2)
    v10 = A.subgroup_count_asymptotic(m, 10.0)
    assert v10 == pytest.approx(m.c * 100 * math.exp(10), rel=1e-15)
    # value(L+1)/value(L) -> e for large L
    big = A.subgroup_count_asymptotic(m, 201.0) / A.subgroup_count_asymptotic(m, 200.0)
    assert big == pytest.approx(math.e, rel=2e-2)


def test_crit_count_euler_characteristic():
    db = G.dumbbell()
    assert db.euler_characteristic == -1
    m = A.CountingModel(genus=2, rank=2)
    # exponent of L is -3*chi - 1 = 2 = 3k - 4
    v1 = A.crit_count_asymptotic(db, 2, 10.0)
    v2 = A.crit_count_asymptotic(db, 2, 20.0)
    assert v2 / v1 == pytest.approx(4 * math.exp(10), rel=1e-12)
    assert A.subgroup_count_asymptotic(m, 7.0) > 0


def test_crit_sum_identity_random_models():
    rng = random.Random(99)
    for _ in range(20):
        genus = rng.randint(2, 5)
        rank = rng.randint(2, 4)
        length = rng.uniform(3.0, 40.0)
        model = A.CountingModel(genus=genus, rank=rank)
        lhs = sum(
            A.crit_count_asymptotic(g, genus, length)
            / len(G.automorphism_group(g))
            for g in G.enumerate_trivalent(rank)
        )
        rhs = A.subgroup_count_asymptotic(model, length)
        assert abs(lhs - rhs) / rhs < 1e-12


# --- box counts ------------------------------------------------------------------

def test_box_depends_only_on_corner_norm():
    db = G.dumbbell()
    a = A.crit_box_asymptotic(db, 2, (1.0, 2.0, 3.0), 0.1)
    b = A.crit_box_asymptotic(db, 2, (2.0, 2.0, 2.0), 0.1)
    assert a == pytest.approx(b, rel=1e-12)
    shifted = A.crit_box_asymptotic(db, 2, (2.0, 2.0, 3.0), 0.1)
    assert shifted / a == pytest.approx(math.e, rel=1e-12)


def test_box_sum_reconstructs_count():
    """Riemann sum of box counts over the corner grid, mirroring the proof.

    Summing the per-box asymptotic over all corners of norm at most L
    carries the discretization factor ((e^h - 1)/h)^(3k-3) that the proof
    removes in its final h -> 0 limit; after dividing it out the sum must
    land within 5% of the closed-form count at L = 40, h = 0.1.
    """
    db = G.dumbbell()
    genus, h, length = 2, 0.1, 40.0
    steps = int(round(length / h))
    # the |Omega(K)| boxes at corner norm K*h share one value; the K = 0 box
    # contributes ~(e^h - 1)^3 and is negligible against e^L
    total = sum(
        comb(k_norm + 2, 2)
        * A.crit_box_asymptotic(db, genus, (k_norm * h / 3.0,) * 3, h)
        for k_norm in range(1, steps + 1)
    )
    discretization = ((math.exp(h) - 1) / h) ** 3
    reference = A.crit_count_asymptotic(db, genus, length)
    assert abs(total / discretization / reference - 1) < 0.05


def test_box_validation():
    with pytest.raises(ValueError):
        A.crit_box_asymptotic(G.dumbbell(), 2, (1.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        A.crit_box_asymptotic(G.dumbbell(), 2, (1.0, -1.0, 1.0), 0.1)


# --- exponent-weighted sums ---------------------------------------------------------

def test_ps_partial_sum_example():
    val = A.ps_partial_sum([1.0, 2.0, 3.0], 2.0, 10.0)
    expected = math.exp(-2) + math.exp(-4) + math.exp(-6)
    assert val == pytest.approx(expected, rel=1e-15)
    assert A.ps_partial_sum([1.0, 2.0, 3.0], 0.0, 2.5) == 2.0
    assert A.ps_partial_sum([1.0, 2.0], 2.0, 10.0) \
        >= A.ps_partial_sum([1.0, 2.0], 3.0, 10.0)


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.floats(min_value=0.01, max_value=30.0),
                     min_size=0, max_size=60),
    s=st.floats(min_value=0.0, max_value=4.0),
    bound=st.floats(min_value=0.5, max_value=35.0),
)
def test_stieltjes_identity(lengths, s, bound):
    # s >= 0 keeps every term of the identity nonnegative; negative
    # exponents cancel the boundary term against the integral and float
    # agreement degrades with e^(|s| L)
    direct = A.ps_partial_sum(lengths, s, bound)
    via = A.ps_via_stieltjes(lengths, s, bound)
    if direct == 0.0:
        assert via == 0.0
    else:
        assert abs(direct - via) / direct < 1e-12


def test_stieltjes_negative_exponent_still_tracks():
    lengths = [0.5, 1.0, 2.5, 7.0]
    direct = A.ps_partial_sum(lengths, -0.8, 8.0)
    via = A.ps_via_stieltjes(lengths, -0.8, 8.0)
    assert abs(direct - via) / direct < 1e-9


def test_stieltjes_degenerate_cases():
    assert A.ps_via_stieltjes([], 2.0, 5.0) == 0.0
    assert A.ps_via_stieltjes([2.0], 3.0, 5.0) \
        == pytest.approx(math.exp(-6.0), rel=1e-14)


def test_model_closed_form_matches_quadrature():
    m = A.CountingModel(genus=2, rank=2)
    for s in (1.05, 1.1, 1.5):
        closed = A.ps_model_closed_form(m, s)
        integral, _ = quad(
            lambda t: s * m.c * t ** 2 * math.exp((1 - s) * t),
            0, np.inf, limit=300,
        )
        assert abs(closed - integral) / closed < 1e-3


def test_model_closed_form_monotone_and_divergent():
    m = A.CountingModel(genus=2, rank=2)
    assert A.ps_model_closed_form(m, 1.01) > A.ps_model_closed_form(m, 1.1) \
        > A.ps_model_closed_form(m, 1.5)
    for s in (1.0, 0.5, -2.0):
        with pytest.raises(A.SeriesDivergenceError):
            A.ps_model_closed_form(m, s)


def test_model_blowup_rate():
    m = A.CountingModel(genus=2, rank=2)
    gamma_limit = m.c * math.factorial(2)
    for eps in (0.1, 0.01):
        s = 1 + eps
        scaled = A.ps_model_closed_form(m, s) * eps ** 3
        assert abs(scaled / (s * gamma_limit) - 1) < 0.05


# --- synthetic ensembles --------------------------------------------------------------

def test_ensemble_markers_live_on_simplex():
    model = A.CountingModel(genus=2, rank=2)
    for mode in A.ENSEMBLE_MODES:
        ens = A.synthesize_ensemble(model, 10.0, mode, seed=1, cap=500)
        assert ens
        for point in list(ens)[:100]:
            assert point.length > 0
            assert abs(float(sum(point.marker.lengths)) - 1) < 1e-9


def test_ensemble_length_distribution_kolmogorov_smirnov():
    # cap chosen high enough that the process runs to L_max, so the length
    # law has distribution function N(t)/N(L_max)
    model = A.CountingModel(genus=2, rank=2)
    l_max = 10.0
    pooled = []
    for seed in range(6):
        ens = A.synthesize_ensemble(model, l_max, "exact-marker",
                                    seed=seed, cap=100_000)
        pooled.extend(p.length for p in ens)
    n_max = model.c * l_max ** 2 * math.exp(l_max)

    def cdf(t):
        t = np.asarray(t)
        out = np.zeros_like(t, dtype=float)
        pos = t > 0
        out[pos] = model.c * t[pos] ** 2 * np.exp(t[pos]) / n_max
        return np.clip(out, 0.0, 1.0)

    res = stats.kstest(np.array(pooled), cdf)
    assert res.pvalue > 0.001


def test_ensemble_block_frequencies_exact_marker():
    model = A.CountingModel(genus=2, rank=2)
    ens = A.synthesize_ensemble(model, 14.0, "exact-marker", seed=3,
                                cap=100_000)
    db_id = G.dumbbell().canonical_id()
    freq = sum(p.marker.graph.canonical_id() == db_id for p in ens) / len(ens)
    sigma = math.sqrt(0.6 * 0.4 / len(ens))
    assert abs(freq - 0.6) < 3 * sigma


def test_lattice_marker_coarse_grid():
    model = A.CountingModel(genus=2, rank=2)
    ens = A.synthesize_ensemble(model, 40.0, "lattice-marker", seed=2,
                                cap=3000)
    short = [p for p in ens if p.length < 6]
    assert short
    for p in short:
        assert all(f.denominator <= 6 for f in p.marker.lengths)
        resolution = max(math.ceil(p.length), 3)
        assert all((f * resolution).denominator == 1 for f in p.marker.lengths)


# (N, E) pairs grouped by E: one draw per E mixes the resolutions row by row
COMPOSITION_CASES = {3: (3, 5, 7), 6: (9,), 12: (13, 15)}


@pytest.mark.parametrize("parts", sorted(COMPOSITION_CASES))
def test_lattice_compositions_uniform_over_cut_sets(parts):
    sizes = COMPOSITION_CASES[parts]
    rng = np.random.default_rng(parts)
    resolution = np.resize(np.array(sizes, dtype=np.int64), 200_000 * len(sizes))
    rows = A._draw_compositions(rng, resolution, parts)
    assert rows.shape == (len(resolution), parts) and np.all(rows > 0)
    assert np.array_equal(rows.sum(axis=1), resolution)
    # the cuts of row i are the partial sums, shifted into {0..N-2}
    masks = (np.int64(1) << (np.cumsum(rows[:, :-1], axis=1) - 1)).sum(axis=1)
    for n_total in sizes:
        _, counts = np.unique(masks[resolution == n_total], return_counts=True)
        assert len(counts) == comb(n_total - 1, parts - 1)
        if len(counts) > 1:
            assert stats.chisquare(counts).pvalue > 0.001


def _invert_80_steps(model, log_targets, t_max):
    """80 halvings of [1e-12, t_max]: their midpoints and final brackets."""
    lo = np.full_like(log_targets, 1e-12)
    hi = np.full_like(log_targets, t_max)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        too_low = (math.log(model.c) + (3 * model.rank - 4) * np.log(mid) + mid
                   < log_targets)
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return 0.5 * (lo + hi), lo, hi


# a Newton iterate right of the root can step to a negative t, whose log warns
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_count_inversion_stops_at_its_fixed_point(rank):
    model = A.CountingModel(genus=2, rank=rank)
    exponent, logc = 3 * rank - 4, math.log(model.c)
    rng = np.random.default_rng(rank)
    for l_max in (9.0, 40.0, 100.0):
        log_top = model.count_function_log(l_max)
        # sorted arrivals up to N(Lmax), a fifth of them log-uniform with
        # roots down to 1e-11, far below where 80 halvings stop short
        arrivals = np.sort(np.concatenate([
            rng.random(80_000) * math.exp(log_top),
            np.exp(rng.uniform(model.count_function_log(1e-11), log_top, 20_000))]))
        targets = np.append(np.log(arrivals), log_top)
        got = A._invert_count_function(model, targets, l_max)
        want, lo, hi = _invert_80_steps(model, targets, l_max)
        reached = np.nextafter(lo, np.inf) == hi
        assert np.array_equal(got[reached], want[reached])
        # elsewhere the result is the midpoint of the adjacent floats at
        # which the test turns from true to false
        short = ~reached
        assert short.any()

        def below(t):
            return logc + exponent * np.log(t) + t < targets[short]

        res = got[short]
        pair_lo = np.where(below(res), res, np.nextafter(res, 0))
        pair_hi = np.nextafter(pair_lo, np.inf)
        assert below(pair_lo).all() and not below(pair_hi).any()
        assert np.array_equal(res, 0.5 * (pair_lo + pair_hi))
        assert A._invert_count_function(model, np.empty(0), l_max).shape == (0,)


def test_count_inversion_by_slices_matches_one_pass():
    # the ensemble inverts its arrivals one slice at a time
    model = A.CountingModel(genus=2, rank=3)
    rng = np.random.default_rng(9)
    arrivals = np.sort(rng.random(3 * A._SLICE + 5)) * math.exp(model.count_function_log(40.0))
    targets = np.log(arrivals)
    pieces = [A._invert_count_function(model, targets[a:a + A._SLICE], 40.0)
              for a in range(0, len(targets), A._SLICE)]
    assert np.array_equal(np.concatenate(pieces),
                          A._invert_count_function(model, targets, 40.0))


def test_ensemble_validation():
    model = A.CountingModel(genus=2, rank=2)
    with pytest.raises(ValueError):
        A.synthesize_ensemble(model, 40.0, "bogus-mode", seed=0)
    with pytest.raises(ValueError):
        A.synthesize_ensemble(model, 0.5, "exact-marker", seed=0)


EXACT_MARKER_REFUSAL = "marker lengths must be positive and sum to 1"
LATTICE_MARKER_REFUSAL = "marker counts must be positive and sum to the resolution"


def _one_point_ensemble(row, resolution):
    return A.SyntheticEnsemble(
        lengths=np.array([1.0]), blocks=np.array([0]), rows=np.array([row]),
        resolution=None if resolution is None else np.array([resolution]),
        graphs=(G.theta_graph(),), cap_reached=False)


@pytest.mark.parametrize("refused, accepted, resolution, message", [
    ([0.6, 0.6, -0.2], [0.6, 0.2, 0.2], None, EXACT_MARKER_REFUSAL),
    ([0.5, 0.3, 0.2 + 2e-9], [0.5, 0.3, 0.2 + 1e-12], None, EXACT_MARKER_REFUSAL),
    ([2, 0, 3], [2, 1, 2], 5, LATTICE_MARKER_REFUSAL),
    ([2, 1, 3], [2, 1, 2], 5, LATTICE_MARKER_REFUSAL),
], ids=["exact-nonpositive", "exact-sum", "lattice-zero", "lattice-sum"])
def test_ensemble_refuses_markers_off_the_simplex(refused, accepted, resolution, message):
    with pytest.raises(ValueError, match=message):
        _one_point_ensemble(refused, resolution)
    assert len(_one_point_ensemble(accepted, resolution)) == 1


# --- weighted expectations --------------------------------------------------------------

def test_ps_measure_constant_is_one():
    model = A.CountingModel(genus=2, rank=2)
    ens = A.synthesize_ensemble(model, 10.0, "lattice-marker", seed=0, cap=2000)
    assert A.ps_measure_expectation(ens, lambda mg: 1.0, 1.3) == 1.0


def test_ps_measure_exact_marker_near_target():
    model = A.CountingModel(genus=2, rank=2)
    ens = A.synthesize_ensemble(model, 12.0, "exact-marker", seed=4,
                                cap=100_000)
    exact = 23 / 90
    for s in (1.1, 1.5):
        weights = np.array([math.exp(-s * p.length) for p in ens])
        values = np.array([float(FN.SYSTOLE.scalar(p.marker)) for p in ens])
        est = A.ps_measure_expectation(ens, FN.SYSTOLE, s)
        agree = float(np.sum(weights * values) / np.sum(weights))
        assert est == pytest.approx(agree, rel=1e-12)
        wmean = np.sum(weights * values) / np.sum(weights)
        stderr = math.sqrt(
            float(np.sum(weights ** 2 * (values - wmean) ** 2))
        ) / float(np.sum(weights))
        assert abs(est - exact) < 3 * stderr


def test_ps_measure_directional_improvement():
    model = A.CountingModel(genus=2, rank=2)
    ens = A.synthesize_ensemble(model, 12.0, "lattice-marker", seed=0,
                                cap=5000)
    exact = 23 / 90
    err_low = abs(A.ps_measure_expectation(ens, FN.SYSTOLE, 1.02) - exact)
    err_high = abs(A.ps_measure_expectation(ens, FN.SYSTOLE, 1.5) - exact)
    assert err_low < err_high


def test_ps_measure_validation():
    model = A.CountingModel(genus=2, rank=2)
    ens = A.synthesize_ensemble(model, 8.0, "exact-marker", seed=0, cap=100)
    with pytest.raises(A.SeriesDivergenceError):
        A.ps_measure_expectation(ens, FN.SYSTOLE, 1.0)
    with pytest.raises(ValueError):
        A.ps_measure_expectation([], FN.SYSTOLE, 1.5)


def _sequential_reference(points, f, s):
    """The weighted expectation point by point: exact Fraction evaluation of
    f.scalar on each marker, then the sum in point order."""
    lmin = min(p.length for p in points)
    num = den = 0.0
    for p in points:
        w = math.exp(-s * (p.length - lmin))
        num += w * float(f.scalar(p.marker))
        den += w
    return num / den


@pytest.mark.parametrize("rank, seed, cap", [(2, 11, 3000), (3, 12, 1500)])
def test_ps_measure_lattice_matches_scalar_route_exactly(rank, seed, cap):
    model = A.CountingModel(genus=2, rank=rank)
    ens = A.synthesize_ensemble(model, 11.0, "lattice-marker", seed=seed, cap=cap)
    points = list(ens)
    for f in (FN.SYSTOLE, FN.MINEDGE, FN.BRIDGE):
        for s in (1.5, 1.1, 1.02):
            assert A.ps_measure_expectation(ens, f, s) \
                == _sequential_reference(points, f, s)


def test_ps_measure_exact_marker_rank3_matches_scalar_route():
    # the kernel sums a cycle's edges in another order than the shortest
    # path search, so agreement is to rounding, not bit for bit
    model = A.CountingModel(genus=2, rank=3)
    ens = A.synthesize_ensemble(model, 11.0, "exact-marker", seed=13, cap=1500)
    for s in (1.5, 1.02):
        assert A.ps_measure_expectation(ens, FN.SYSTOLE, s) == pytest.approx(
            _sequential_reference(list(ens), FN.SYSTOLE, s), rel=1e-14, abs=0)


def test_ps_measure_exact_marker_runs_forms_only_functional():
    cycles = FN.Functional(name="cycles", scalar=None, forms_for=FN.cycle_forms)
    model = A.CountingModel(genus=2, rank=2)
    ens = A.synthesize_ensemble(model, 10.0, "exact-marker", seed=6, cap=2000)
    assert A.ps_measure_expectation(ens, cycles, 1.1) \
        == A.ps_measure_expectation(ens, FN.SYSTOLE, 1.1)


def test_ensemble_arrays_and_points_agree():
    model = A.CountingModel(genus=2, rank=2)
    ens = A.synthesize_ensemble(model, 10.0, "lattice-marker", seed=5, cap=400)
    assert len(ens) == 400 and ens.cap_reached
    assert ens.effective_lmax == max(p.length for p in ens) == ens.lengths[-1]
    assert ens.effective_lmax < 10.0
    assert [p.length for p in list(ens)[10:13]] == ens.lengths[10:13].tolist()
    point = list(ens)[7]
    n = int(ens.resolution[7])
    assert point.marker.graph == ens.graphs[ens.blocks[7]]
    assert point.marker.lengths == tuple(F(int(c), n) for c in ens.rows[7])
    with pytest.raises(IndexError):
        ens.marker(400)
    with pytest.raises(ValueError):
        ens.lengths[0] = 1.0
    # the length bound, not the cap, stops a short process
    full = A.synthesize_ensemble(model, 8.0, "exact-marker", seed=5)
    assert not full.cap_reached and full.effective_lmax <= 8.0
    assert full.resolution is None
    assert isinstance(full.marker(0).lengths[0], float)


# lattice-marker estimates of the one-pass composition draw; the lengths,
# and so effective_lmax, are those of every earlier version
PINNED_PS_CONVERGE = [
    (["--rank", "2", "--Lmax", "9", "--seed", "2", "--s-list", "1.4,1.1",
      "--cap", "300"],
     [0.31837781792028225, 0.31799759396971844], 7.096854919475694),
    (["--rank", "3", "--Lmax", "10", "--seed", "5", "--s-list", "1.5,1.1",
      "--cap", "500"],
     [0.2149811765014567, 0.2135485434921397], 8.015923380307719),
    # exact markers print what they printed before the one-pass draw
    (["--rank", "2", "--Lmax", "9", "--seed", "2", "--s-list", "1.4,1.1",
      "--cap", "300", "--mode", "exact-marker"],
     [0.1405936268668762, 0.18358961432710297], 7.096854919475694),
    (["--rank", "3", "--Lmax", "10", "--seed", "5", "--s-list", "1.5,1.1",
      "--cap", "500", "--mode", "exact-marker"],
     [0.14260486762697158, 0.14056821172996908], 8.015923380307719),
]


@pytest.mark.parametrize("argv, estimates, effective_lmax", PINNED_PS_CONVERGE)
def test_ps_converge_pinned_estimates(argv, estimates, effective_lmax):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["ps", "converge", "--genus", "2", *argv], stdout=out, stderr=err)
    assert code == 0
    envelope = json.loads(out.getvalue())
    assert [r["estimate"] for r in envelope["records"]] == estimates
    params = envelope["params"]
    assert params["ensemble_size"] == params["cap"]
    assert params["cap_reached"] is True
    assert params["effective_lmax"] == effective_lmax
    assert err.getvalue() == (
        f"covermeasure: warning: the ensemble cap {params['cap']} stopped the "
        f"length process at {effective_lmax:.6g}, short of Lmax "
        f"{params['Lmax']:g}\n")


# sha256 of the whole stdout of ensembles spanning several slices, taken
# before synthesis and scoring ran in slices: the bench's argv at the
# default cap in both modes, rank 3 at cap 20,000, and runs that the length
# bound stops (2,956 points at Lmax 9, 32,316 at Lmax 11)
PS_CONVERGE_SHA256 = [
    (["--rank", "2", "--Lmax", "40", "--s-list", "1.5,1.1,1.02"],
     "1849fd31c0a48161834537370f47dab638fcd2a77d0a3974bf1d37c9454da4fe"),
    (["--rank", "2", "--Lmax", "40", "--s-list", "1.5,1.1,1.02", "--mode", "exact-marker"],
     "f477c16a940da5d6ded909d6c7d3fb6a2451e8bf49b9fa6e2daba456a88b4962"),
    (["--rank", "3", "--Lmax", "40", "--seed", "3", "--s-list", "1.5,1.1", "--cap", "20000"],
     "5a81f312c01513520ff9c89bc12eff5efd959db41444281ec938649971829940"),
    (["--rank", "3", "--Lmax", "40", "--seed", "3", "--s-list", "1.5,1.1", "--cap", "20000",
      "--mode", "exact-marker"],
     "47f020d34d62829f086693e680139f666a743573e43a7c22bdff82f91025ad5b"),
    (["--rank", "2", "--Lmax", "9", "--seed", "1", "--s-list", "1.5,1.1"],
     "32fdac3394f22d8c694d9a8e55bc4a56854f67db89615540a8b4819486bdf1b9"),
    (["--rank", "2", "--Lmax", "11", "--seed", "1", "--s-list", "1.5,1.1"],
     "72a0e69206fc6a12095576639de2da15d919e86f771e21a9549ff704ebdea5db"),
    (["--rank", "2", "--Lmax", "11", "--seed", "1", "--s-list", "1.5,1.1", "--mode", "exact-marker"],
     "8921724b01fbdbcb42bc412762336c05b4bc0fe153e32cf58bf5d4be2dfff604"),
]


@pytest.mark.parametrize("argv, digest", PS_CONVERGE_SHA256)
def test_ps_converge_stdout_pinned_across_slices(argv, digest):
    out = io.StringIO()
    assert cli.run(["ps", "converge", "--genus", "2", *argv], stdout=out,
                   stderr=io.StringIO()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", A.ENSEMBLE_MODES)
def test_ensemble_scratch_memory_is_bounded(mode):
    # numpy reports its buffers to tracemalloc.  Drawing and scoring 1e5
    # points whole took 10 MiB (lattice) and 7 MiB (exact markers) over the
    # ensemble's own 4.6 / 3.8 MiB; in slices, what remains is a few
    # whole-array random draws the streams need, about 2.4 / 1.7 MiB
    model = A.CountingModel(genus=2, rank=2)
    warm = A.synthesize_ensemble(model, 40.0, mode, seed=0, cap=10)
    A.ps_measure_expectation(warm, FN.SYSTOLE, 1.5)  # the measure and forms, cached
    tracemalloc.start()
    try:
        ens = A.synthesize_ensemble(model, 40.0, mode, seed=0, cap=100_000)
        for s in (1.5, 1.1, 1.02):
            A.ps_measure_expectation(ens, FN.SYSTOLE, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in (ens.lengths, ens.blocks, ens.rows, ens.resolution)
              if a is not None)
    assert peak - own < 3 * 2 ** 20, (peak, own)


def _ensemble_fields(ens, **changes):
    fields = dict(lengths=ens.lengths, blocks=ens.blocks, rows=ens.rows,
                  resolution=ens.resolution, graphs=ens.graphs,
                  cap_reached=ens.cap_reached)
    return {**fields, **changes}


@pytest.mark.parametrize("mode", A.ENSEMBLE_MODES)
def test_ensemble_check_scratch_is_slice_sized(mode):
    # checking 1e5 markers with whole-array temporaries took 1.53 MiB
    # (exact) and 0.86 MiB (lattice) of scratch; a slice at a time, a few
    # _SLICE-sized arrays
    model = A.CountingModel(genus=2, rank=2)
    ens = A.synthesize_ensemble(model, 40.0, mode, seed=0, cap=100_000)
    tracemalloc.start()
    try:
        A.SyntheticEnsemble(**_ensemble_fields(ens))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 18, peak


@pytest.mark.parametrize("mode, message", [("exact-marker", EXACT_MARKER_REFUSAL),
                                           ("lattice-marker", LATTICE_MARKER_REFUSAL)])
def test_ensemble_checks_markers_in_every_slice(mode, message):
    model = A.CountingModel(genus=2, rank=2)
    ens = A.synthesize_ensemble(model, 40.0, mode, seed=2, cap=2 * A._SLICE + 5)
    for at in (0, A._SLICE, len(ens) - 1):
        rows = ens.rows.copy()
        rows[at, 0] = 0
        with pytest.raises(ValueError, match=message):
            A.SyntheticEnsemble(**_ensemble_fields(ens, rows=rows))
    if ens.resolution is not None:
        for resolution in (ens.resolution[:-1], np.append(ens.resolution, 3)):
            with pytest.raises(ValueError, match=message):
                A.SyntheticEnsemble(**_ensemble_fields(ens, resolution=resolution))


@pytest.mark.parametrize("mode", A.ENSEMBLE_MODES)
def test_ps_measure_sums_left_to_right(mode):
    # the slice sums add every term in the order of a plain Python loop
    model = A.CountingModel(genus=2, rank=2)
    ens = A.synthesize_ensemble(model, 40.0, mode, seed=3, cap=3 * A._SLICE + 17)
    lengths, values = ens.lengths.tolist(), ens.values(FN.SYSTOLE).tolist()
    lmin = min(lengths)
    for s in (1.5, 1.1, 1.02):
        num = den = 0.0
        for l, v in zip(lengths, values):
            w = math.exp(-s * (l - lmin))
            num += w * v
            den += w
        assert A.ps_measure_expectation(ens, FN.SYSTOLE, s) == num / den


@pytest.mark.parametrize("mode", A.ENSEMBLE_MODES)
def test_ps_measure_scores_each_functional_once(mode):
    calls = []

    def forms_for(graph):
        calls.append("forms")
        return FN.cycle_forms(graph)

    def kernel(graph, rows):
        calls.append("kernel")
        return FN.SYSTOLE.kernel(graph, rows)

    counted = FN.Functional(name="counted", scalar=None, forms_for=forms_for, kernel=kernel)
    model = A.CountingModel(genus=2, rank=3)
    ens = A.synthesize_ensemble(model, 11.0, mode, seed=7, cap=1500)
    first = A.ps_measure_expectation(ens, counted, 1.5)
    scored = len(calls)
    assert scored > 0
    assert [A.ps_measure_expectation(ens, counted, s) for s in (1.5, 1.1, 1.02)][0] == first
    assert len(calls) == scored
    with pytest.raises(ValueError):
        ens.values(counted)[0] = 1.0


def test_ps_converge_mc_target_beyond_work_limit(monkeypatch):
    monkeypatch.setattr(M, "EXACT_WORK_LIMIT", 10)
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["ps", "converge", "--rank", "3", "--genus", "2", "--Lmax", "9",
                    "--seed", "1", "--s-list", "1.5", "--cap", "200"],
                   stdout=out, stderr=err)
    assert code == 0
    params = json.loads(out.getvalue())["params"]
    assert params["target_method"] == "mc"
    assert "target_exact_numerator" not in params
    assert abs(params["target_estimate"] - 317 / 2250) < 3 * params["target_stderr"]


def test_ps_converge_no_warning_below_cap():
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["ps", "converge", "--rank", "2", "--genus", "2", "--Lmax", "8",
                    "--seed", "0", "--s-list", "1.5"], stdout=out, stderr=err)
    assert code == 0 and err.getvalue() == ""
    params = json.loads(out.getvalue())["params"]
    assert params["cap_reached"] is False
    assert params["ensemble_size"] < params["cap"]
    assert params["effective_lmax"] <= 8.0


# --- expected systole line ---------------------------------------------------------------

def test_expected_systole_line():
    assert A.expected_systole_line(90) == 23
    assert A.expected_systole_line(F(90)) == 23
    assert A.expected_systole_line(0) == 0
    line = A.expected_systole_line(F(1))
    assert line == F(23, 90)
    assert A.expected_systole_line(10, rank=3) == F(317, 2250) * 10
