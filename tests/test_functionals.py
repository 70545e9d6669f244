"""The views of each named functional must agree: scalar evaluator,
min-of-forms descriptor, and the kernel derived from the forms."""

import random
from fractions import Fraction

import numpy as np
import pytest

from covermeasure import functionals as FN
from covermeasure import graphs as G
from covermeasure.measure import MetricGraph

F = Fraction


def rational_point(rng, count):
    nums = [rng.randint(1, 40) for _ in range(count)]
    total = sum(nums)
    return tuple(F(a, total) for a in nums)


@pytest.mark.parametrize("name", sorted(FN.FUNCTIONALS))
@pytest.mark.parametrize("k", [2, 3])
def test_forms_reproduce_scalar(name, k):
    f = FN.get_functional(name)
    rng = random.Random(17)
    for g in G.enumerate_trivalent(k):
        forms = f.forms_for(g)
        for _ in range(10):
            x = rational_point(rng, g.num_edges)
            by_forms = min(sum(c * xi for c, xi in zip(form, x))
                           for form in forms)
            assert by_forms == F(f.scalar(MetricGraph(g, x)))


@pytest.mark.parametrize("name", sorted(FN.FUNCTIONALS))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_kernel_reproduces_scalar(name, k):
    f = FN.get_functional(name)
    rng = np.random.default_rng(23)
    for g in G.enumerate_trivalent(k):
        exps = rng.standard_exponential((50, g.num_edges))
        rows = exps / exps.sum(axis=1, keepdims=True)
        fast = f.kernel(g, rows)
        slow = np.array([
            float(f.scalar(MetricGraph(g, tuple(float(x) for x in row))))
            for row in rows
        ])
        assert np.allclose(fast, slow, atol=1e-12, rtol=0)


def test_kernel_keeps_constant_forms_exact():
    # on the simplex a constant c is the form (c, ..., c), and the kernel
    # returns c itself, not a float sum of c * x_i
    third = FN.Functional(name="third", scalar=None,
                          forms_for=lambda graph: ((F(1, 3),) * graph.num_edges,))
    rng = np.random.default_rng(5)
    for f, g, c in ((third, G.complete_graph_k4(), 1 / 3), (FN.BRIDGE, G.dumbbell(), 1.0)):
        rows = rng.dirichlet(np.ones(g.num_edges), size=40)
        assert f.kernel(g, rows).tolist() == [c] * 40


# forms as columns of M^T: coefficients 0, 1, -2 and 7, an all-zero form,
# and a form whose first used coefficient is not 1
INTEGER_FORMS = ((1, 0, 1, 1), (0, 0, 0, 0), (7, -2, 0, 1), (0, 1, 1, 0), (-2, 7, 7, 0))


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("forms", [INTEGER_FORMS, INTEGER_FORMS[2:3]], ids=["five", "single"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n_rows", [0, 1, 37])
def test_integer_minimum_matches_matmul(dtype, forms, order, n_rows):
    rng = np.random.default_rng(n_rows)
    counts = np.asarray(rng.integers(1, 2 ** 20, (n_rows, 4)), order=order)
    mat = np.array(forms, dtype=dtype).T
    if dtype is object:
        # Python ints past int64, as integer_matrix gives for large norms
        mat = mat * 2 ** 70
    got = FN.integer_minimum(mat, counts)
    want = (counts.astype(dtype) @ mat).min(axis=1) if n_rows else np.zeros(0, dtype)
    assert got.dtype == mat.dtype
    assert got.tolist() == want.tolist()


def test_bridge_constants():
    assert FN.BRIDGE.scalar(MetricGraph(G.dumbbell(), (0.4, 0.4, 0.2))) == 1
    assert FN.BRIDGE.scalar(MetricGraph(G.theta_graph(), (0.4, 0.4, 0.2))) == 0


def test_unknown_functional():
    with pytest.raises(KeyError):
        FN.get_functional("girth")
