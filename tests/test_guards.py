"""Input guards: NaN and infinity are refused, and integer arguments accept
numpy integers but not bool or floats, with errors that name the value."""

import io
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from covermeasure import asymptotics as A
from covermeasure import cli
from covermeasure import functionals as FN
from covermeasure import graphs as G
from covermeasure import invariants as IV
from covermeasure import measure as M

NON_FINITE = [math.nan, math.inf, -math.inf]
MODEL = A.CountingModel(genus=2, rank=2)


@pytest.fixture(scope="module")
def ensemble():
    return A.synthesize_ensemble(MODEL, 8.0, "exact-marker", seed=0, cap=100)


# --- NaN and infinity ----------------------------------------------------------------

COUNTS = {
    "huber": A.huber_count,
    "subgroups": lambda l: A.subgroup_count_asymptotic(MODEL, l),
    "crit": lambda l: A.crit_count_asymptotic(G.dumbbell(), 2, l),
}


@pytest.mark.parametrize("value", NON_FINITE)
def test_length_bounds_refuse_non_finite(value):
    for count in (*COUNTS.values(), A.expected_systole_line):
        with pytest.raises(ValueError, match="length bound must be"):
            count(value)
    with pytest.raises(ValueError, match="t must be positive and finite"):
        MODEL.count_function_log(value)


@pytest.mark.parametrize("name", COUNTS)
def test_overflowing_counts_raise_naming_the_bound(name):
    count = COUNTS[name]
    assert math.isfinite(count(700.0))
    with pytest.raises(OverflowError, match=re.escape("L = 1000.0")):
        count(1000.0)
    if name != "huber":  # e^709 / 1418 is still a float
        with pytest.raises(OverflowError, match=re.escape("L = 709.0")):
            count(709.0)


@pytest.mark.parametrize("value", NON_FINITE)
def test_ensemble_refuses_non_finite_l_max(value):
    with pytest.raises(ValueError, match="l_max must be positive and finite"):
        A.synthesize_ensemble(MODEL, value, "exact-marker", seed=0)


@pytest.mark.parametrize("s", NON_FINITE)
def test_exponents_refuse_non_finite(s, ensemble):
    with pytest.raises(ValueError, match="s must be finite"):
        A.ps_model_closed_form(MODEL, s)
    with pytest.raises(ValueError, match="s must be finite"):
        A.ps_measure_expectation(ensemble, FN.SYSTOLE, s)


@pytest.mark.parametrize("value", NON_FINITE)
def test_box_refuses_non_finite(value):
    with pytest.raises(ValueError, match="h must be positive and finite"):
        A.crit_box_asymptotic(G.dumbbell(), 2, (1.0, 1.0, 1.0), value)
    with pytest.raises(ValueError, match="corner must be a positive finite vector"):
        A.crit_box_asymptotic(G.dumbbell(), 2, (1.0, 1.0, value), 0.5)


@pytest.mark.parametrize("value", NON_FINITE)
def test_pants_refuse_non_finite(value):
    for lengths in ((value, 1.0, 1.0), (1.0, value, 1.0), (1.0, 1.0, value)):
        with pytest.raises(IV.InfeasibleGeometryError, match="positive and finite"):
            IV.PantsBoundary(*lengths)
    with pytest.raises(IV.InfeasibleGeometryError):
        IV.pants_boundary_from_dumbbell(value, 1.0, 1.0)


@pytest.mark.parametrize("value", NON_FINITE)
def test_edge_lengths_refuse_non_finite(value):
    with pytest.raises(ValueError):
        M.MetricGraph(G.theta_graph(), (value, 0.5, 0.5))
    if not value > 0:
        with pytest.raises(G.InvalidGraphError):
            IV.systole_from_lengths(G.theta_graph().edges, (value, 0.5, 0.5))


# --- integer arguments ---------------------------------------------------------------

@pytest.mark.parametrize("n", [True, 12.0, Fraction(12), "12"])
def test_lattice_resolution_must_be_an_integer(n):
    with pytest.raises(ValueError, match=re.escape(f"N must be an integer, got {n!r}")):
        M.lattice_sigma(G.theta_graph(), n)


def test_lattice_resolution_accepts_numpy_integers():
    sigma = M.lattice_sigma(G.theta_graph(), np.int64(12))
    assert type(sigma.n_slices) is int
    assert sigma.expectation(FN.SYSTOLE) == M.lattice_sigma(G.theta_graph(), 12) \
        .expectation(FN.SYSTOLE)


@pytest.mark.parametrize("n_norm", [True, 6.0, Fraction(6)])
def test_omega_norm_must_be_an_integer(n_norm):
    with pytest.raises(ValueError, match=re.escape(f"N must be an integer, got {n_norm!r}")):
        M.omega_counts(2, n_norm, lambda x: True)


@pytest.mark.parametrize("k", [1, 0, True, 2.0])
def test_omega_rank_must_be_an_integer_at_least_2(k):
    message = re.escape(f"rank must be an integer >= 2, got {k!r}")
    with pytest.raises(G.InvalidRankError, match=message):
        M.omega_counts(k, 3, lambda x: True)


def test_omega_accepts_numpy_integers():
    def below_half(x):
        return max(x) < Fraction(1, 2)
    want = M.omega_counts(2, 6, below_half)
    assert M.omega_counts(np.int64(2), np.int32(6), below_half) == want


@pytest.mark.parametrize("genus", [2.5, 2.0, True, 1])
def test_crit_genus_must_be_an_integer_at_least_2(genus):
    message = re.escape(f"genus must be an integer >= 2, got {genus!r}")
    with pytest.raises(ValueError, match=message):
        A.crit_count_asymptotic(G.dumbbell(), genus, 10.0)
    with pytest.raises(ValueError, match=message):
        A.crit_box_asymptotic(G.dumbbell(), genus, (1.0, 1.0, 1.0), 0.5)
    with pytest.raises(ValueError, match=message):
        A.CountingModel(genus=genus, rank=2)


def test_crit_accepts_numpy_genus():
    assert A.crit_count_asymptotic(G.dumbbell(), np.int64(2), 10.0) \
        == A.crit_count_asymptotic(G.dumbbell(), 2, 10.0)


@pytest.mark.parametrize("cap", [True, 2.5, 100.0, Fraction(100), 0, -3])
def test_ensemble_cap_must_be_an_integer_at_least_1(cap):
    message = re.escape(f"cap must be an integer >= 1, got {cap!r}")
    with pytest.raises(ValueError, match=message):
        A.synthesize_ensemble(MODEL, 8.0, "exact-marker", seed=0, cap=cap)


def test_ensemble_cap_accepts_numpy_integers():
    got = A.synthesize_ensemble(MODEL, 8.0, "exact-marker", seed=0, cap=np.int32(50))
    want = A.synthesize_ensemble(MODEL, 8.0, "exact-marker", seed=0, cap=50)
    assert len(got) == 50 and got.cap_reached
    assert np.array_equal(got.lengths, want.lengths)
    assert np.array_equal(got.rows, want.rows)


# --- values past the float range -----------------------------------------------------

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_ps_model_past_float_range_raises_naming_s():
    # (s - 1)^33 underflows to 0 at this s, and the true value is past 1e308
    model = A.CountingModel(genus=2, rank=12)
    with pytest.raises(OverflowError, match=re.escape("s = 1.0000000000000002")):
        A.ps_model_closed_form(model, 1.0000000000000002)
    code, out, err = run_cli(["ps", "model", "--genus", "2", "--rank", "12",
                              "--s", "1.0000000000000002"])
    assert (code, out) == (1, "")
    assert "s = 1.0000000000000002" in err


def test_ps_model_in_float_range_is_taken_in_logs_past_the_power_range():
    # (s - 1)^33 = 1e-330 is below every float, yet the value is about 4e289
    model = A.CountingModel(genus=1000, rank=12)
    s = 1 + 1e-10
    with mpmath.workdps(40):
        want = (mpmath.mpf(s) * mpmath.mpf(model.c) * mpmath.factorial(32)
                / (mpmath.mpf(s) - 1) ** 33)
    got = A.ps_model_closed_form(model, s)
    assert math.isfinite(got)
    assert abs(got - want) <= 1e-12 * want
    # far above 1 the power overflows and the value is below every float
    assert A.ps_model_closed_form(model, 1e30) == 0.0


@pytest.mark.parametrize("name, lengths", [("l1", (2000.0, 1.0, 1.0)),
                                           ("l2", (1.0, 2000.0, 1.0))])
def test_orthogeodesic_past_boundary_limit_raises_naming_it(name, lengths):
    message = re.escape(f"boundary {name} = 2000.0 is past {IV.BOUNDARY_LIMIT!r}")
    with pytest.raises(OverflowError, match=message):
        IV.separating_orthogeodesic_length(IV.PantsBoundary(*lengths))
    code, out, err = run_cli(["pants", "ortho", "--boundaries", ",".join(map(str, lengths))])
    assert (code, out) == (1, "")
    assert f"boundary {name} = 2000.0" in err
