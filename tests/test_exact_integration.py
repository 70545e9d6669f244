"""Exact simplex integration checked against a brute-force grid oracle.

The oracle is a plain Riemann sum over the positive lattice points of a
fixed mesh, written before and independently of the exact
integrator; agreement is required within twice the mesh.
"""

import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covermeasure import cli
from covermeasure import functionals as FN
from covermeasure import graphs as G
from covermeasure import measure as M

F = Fraction


# --- oracle ------------------------------------------------------------------

def grid_expectation(forms, n_coords, mesh):
    """Mean of min(forms) over {n/mesh : n positive integers, sum = mesh}."""
    total = F(0)
    count = 0

    def rec(prefix, remaining, parts):
        nonlocal total, count
        if parts == 1:
            if remaining >= 1:
                point = tuple(F(c, mesh) for c in prefix + (remaining,))
                total += min(sum(c * x for c, x in zip(form, point))
                             for form in forms)
                count += 1
            return
        for first in range(1, remaining - parts + 2):
            rec(prefix + (first,), remaining - first, parts - 1)

    rec((), mesh, n_coords)
    return total / count


def test_grid_oracle_constant_sanity():
    const = ((F(1),) * 3,)
    assert grid_expectation(const, 3, 40) == 1


# --- integrator vs oracle ------------------------------------------------------

@pytest.mark.parametrize("graph,functional", [
    (G.dumbbell(), FN.SYSTOLE),
    (G.theta_graph(), FN.SYSTOLE),
    (G.dumbbell(), FN.MINEDGE),
    (G.theta_graph(), FN.MINEDGE),
    (G.dumbbell(), FN.BRIDGE),
    (G.theta_graph(), FN.BRIDGE),
])
def test_integrator_matches_grid_oracle(graph, functional):
    mesh = 200
    exact = M.integrate_exact(graph, functional)
    approx = grid_expectation(functional.forms_for(graph),
                              graph.num_edges, mesh)
    assert abs(exact - approx) < F(2, mesh)


def test_integrator_matches_grid_oracle_rank3_minedge():
    k4 = G.complete_graph_k4()
    mesh = 24  # E = 6 makes finer grids explode combinatorially
    exact = M.integrate_exact(k4, FN.MINEDGE)
    approx = grid_expectation(FN.MINEDGE.forms_for(k4), 6, mesh)
    assert abs(exact - approx) < F(2, mesh)


# --- known closed-form values ---------------------------------------------------

def test_dumbbell_systole_block_values():
    db = G.dumbbell()
    assert M.integrate_exact(db, FN.SYSTOLE) == F(1, 6)
    assert M.quotient_integral(db, FN.SYSTOLE) == F(1, 12)


def test_theta_systole_block_values():
    th = G.theta_graph()
    assert M.integrate_exact(th, FN.SYSTOLE) == F(7, 18)
    assert M.quotient_integral(th, FN.SYSTOLE) == F(7, 108)


def test_volume_form_integrates_to_one():
    for g in G.enumerate_trivalent(2):
        total = M.integrate_exact(g, [(F(1),) * g.num_edges])
        assert total == 1


def test_minedge_closed_forms():
    # E[min of E coordinates] on the simplex is 1/E^2
    assert M.integrate_exact(G.dumbbell(), FN.MINEDGE) == F(1, 9)
    assert M.integrate_exact(G.complete_graph_k4(), FN.MINEDGE) == F(1, 36)


def test_expectation_systole_is_23_90():
    m2 = M.build_limit_measure(2)
    value = M.expectation(m2, FN.SYSTOLE)
    assert value == F(23, 90)


def test_expectation_decomposition():
    m2 = M.build_limit_measure(2)
    total = F(0)
    for block, weight in zip(m2.blocks, m2.weights):
        coeff = m2.normalization / len(G.triv_subgroup(block.graph))
        assert coeff == weight / block.mass
        total += coeff * M.quotient_integral(block.graph, FN.SYSTOLE)
    assert total == F(23, 90)


def test_expectation_bridge_and_constant():
    m2 = M.build_limit_measure(2)
    assert M.expectation(m2, FN.BRIDGE) == F(3, 5)
    assert M.expectation(m2, FN.MINEDGE) == F(1, 9)
    const = [(F(1),) * 3]
    total = sum(w * M.integrate_exact(b.graph, const)
                for b, w in zip(m2.blocks, m2.weights))
    assert total == 1


# --- symmetry check ---------------------------------------------------------------

def test_asymmetric_functional_rejected_on_theta():
    with pytest.raises(M.SymmetryViolationError):
        M.integrate_exact(G.theta_graph(), [(F(1), F(0), F(0))])


def test_bar_length_is_symmetric_on_dumbbell():
    # the bar (edge 2) is fixed by the edge action, so its length is a
    # legitimate functional there; E[x] = 1/3 for one simplex coordinate
    db = G.dumbbell()
    assert M.integrate_exact(db, [(F(0), F(0), F(1))]) == F(1, 3)
    with pytest.raises(M.SymmetryViolationError):
        M.integrate_exact(db, [(F(1), F(0), F(0))])  # one loop only


def test_non_invariant_form_sets_rejected():
    # no set is closed under the edge action, and no minimum is invariant:
    # the loop swap moves min(loop0, bar), an edge swap of the theta moves
    # min(x0, x1), and the loop swap moves the last minimum at (1, 2, 1/10)
    # from 3/5 to 11/10, though not wherever the bar is at least both loops
    with pytest.raises(M.SymmetryViolationError):
        M.integrate_exact(G.dumbbell(), [(F(1), F(0), F(0)), (F(0), F(0), F(1))])
    with pytest.raises(M.SymmetryViolationError):
        M.integrate_exact(G.theta_graph(), [(F(1), F(0), F(0)), (F(0), F(1), F(0))])
    with pytest.raises(M.SymmetryViolationError):
        M.integrate_exact(G.dumbbell(), [(F(1), F(1), F(0)), (F(1, 2), F(0), F(1))])


def _orbit(graph, form):
    """The images of a form under the edge action (entry i moves to perm[i])."""
    images = set()
    for perm in G.edge_action(graph):
        image = [0] * len(form)
        for i, c in enumerate(form):
            image[perm[i]] = c
        images.add(tuple(image))
    return sorted(images)


def test_closed_form_sets_run_no_check(monkeypatch):
    # a set closed under the edge action has an invariant minimum, so the
    # only cells built are the one per orbit that the integral needs
    calls = []
    cell_rays = M._cell_rays
    monkeypatch.setattr(M, "_cell_rays", lambda *args: calls.append(args) or cell_rays(*args))
    m3 = M.build_limit_measure(3)
    assert M.expectation(m3, FN.SYSTOLE) == RANK3_VALUES["systole"][1]
    cells = 0
    for block in m3.blocks:
        forms = {tuple(int(c) for c in form) for form in FN.SYSTOLE.forms_for(block.graph)}
        assert all(set(_orbit(block.graph, form)) <= forms for form in forms)
        cells += len({tuple(_orbit(block.graph, form)) for form in forms})
    assert len(calls) == cells


_TYPES = [g for k in (2, 3) for g in G.enumerate_trivalent(k)]
_COEFFS = st.integers(min_value=0, max_value=3)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), index=st.integers(min_value=0, max_value=len(_TYPES) - 1))
def test_dominated_extras_leave_the_union_of_orbits(data, index):
    # a form above a kept form is never the strict minimum, so adding it to
    # a union of whole orbits leaves the value alone, closed or not; a
    # single form whose orbit has more than one member is not invariant
    graph = _TYPES[index]
    n = graph.num_edges
    vector = st.tuples(*[_COEFFS] * n).filter(any)
    seeds = data.draw(st.lists(vector, min_size=1, max_size=2))
    union = sorted({image for seed in seeds for image in _orbit(graph, seed)})
    extras = [tuple(a + b for a, b in zip(union[i], lift)) for i, lift in data.draw(
        st.lists(st.tuples(st.integers(0, len(union) - 1), vector), min_size=1, max_size=3))]
    want = M.integrate_exact(graph, union)
    assert M.integrate_exact(graph, union + extras) == want
    assert M.integrate_exact(graph, extras + union) == want
    if len(_orbit(graph, seeds[0])) > 1:
        with pytest.raises(M.SymmetryViolationError):
            M.integrate_exact(graph, [seeds[0]])


def test_malformed_forms_rejected():
    with pytest.raises(ValueError):
        M.integrate_exact(G.theta_graph(), [])
    with pytest.raises(ValueError):
        M.integrate_exact(G.theta_graph(), [(F(1), F(1))])


# --- pinned values at ranks 3 and 4 -----------------------------------------------

# per type, in build_limit_measure(3) order, with the mixture value last
RANK3_VALUES = {
    "systole": ([F(539, 2700), F(157, 1350), F(97, 360), F(2, 27), F(1, 18)],
                F(317, 2250)),
    "minedge": ([F(1, 36)] * 5, F(1, 36)),
    "bridge": ([F(0), F(1), F(0), F(1), F(1)], F(2, 3)),
}

RANK4_SYSTOLE = F(7870476811, 82232718750)


@pytest.mark.parametrize("name", sorted(RANK3_VALUES))
def test_rank3_values_pinned(name):
    f = FN.get_functional(name)
    per_type, mixed = RANK3_VALUES[name]
    m3 = M.build_limit_measure(3)
    assert [M.integrate_exact(b.graph, f) for b in m3.blocks] == per_type
    assert M.expectation(m3, f) == mixed


def test_forms_not_closed_under_edge_action():
    # the loop swap adds bar + loop1; the minimum is the bar throughout
    bar, bar_loop0 = (0, 0, 1), (1, 0, 1)
    assert M.integrate_exact(G.dumbbell(), [bar, bar_loop0]) == F(1, 3)


def test_forms_with_different_denominators():
    # each form has its own denominator, so the cells are cut out by rows
    # over their common denominator
    db = [(F(1, 2), F(0), F(1, 3)), (F(0), F(1, 2), F(1, 3)), (F(0), F(0), F(3, 5))]
    assert M.integrate_exact(G.dumbbell(), db) == F(43, 279)
    theta = sorted(set(permutations((F(1, 2), F(-1, 3), F(5, 7))))) + [(F(2, 9),) * 3]
    assert M.integrate_exact(G.theta_graph(), theta) == F(6163, 452196)


def test_cell_of_measure_zero():
    # 2 * sum(x) is never the minimum, so its cell lies in no open region
    assert M.integrate_exact(G.theta_graph(), [(1, 1, 1), (2, 2, 2)]) == 1


def brute_cell_rays(constraints, n):
    """Sorted (ray, tight mask) pairs of {y >= 0, h.y <= 0 for h in
    constraints}: the primitive feasible solutions of every n - 1 of the
    constraints whose rows have rank n - 1, by Gaussian elimination in
    Fractions."""
    rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rows += [tuple(-c for c in h) for h in constraints]
    found = set()
    for subset in combinations(rows, n - 1):
        m = [list(map(F, r)) for r in subset]
        pivots = []
        for col in range(n):
            at = next((i for i in range(len(pivots), n - 1) if m[i][col]), None)
            if at is None:
                continue
            i = len(pivots)
            m[i], m[at] = m[at], m[i]
            m[i] = [x / m[i][col] for x in m[i]]
            for j in range(n - 1):
                if j != i and m[j][col]:
                    m[j] = [a - m[j][col] * b for a, b in zip(m[j], m[i])]
            pivots.append(col)
        if len(pivots) != n - 1:
            continue
        free = next(c for c in range(n) if c not in pivots)
        ray = [F(0)] * n
        ray[free] = F(1)
        for i, col in enumerate(pivots):
            ray[col] = -m[i][free]
        scale = math.lcm(*(x.denominator for x in ray))
        ray = [int(x * scale) for x in ray]
        ray = [x // math.gcd(*ray) for x in ray]
        for sign in (1, -1):
            vals = [sum(a * sign * x for a, x in zip(r, ray)) for r in rows]
            if all(v >= 0 for v in vals):
                mask = sum(1 << i for i, v in enumerate(vals) if v == 0)
                found.add((tuple(sign * x for x in ray), mask))
    return sorted(found)


def test_cell_rays_match_brute_force():
    # Random integer cones: the double description's rays and tight masks,
    # sorted as a list so that a duplicate shows, are the brute-force ones,
    # and it gives None exactly when those rays span fewer than n dimensions.
    rng = random.Random(20261020)
    outcomes = set()
    for _ in range(120):
        n = rng.randint(3, 5)
        cuts = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        expected = brute_cell_rays(cuts, n)
        full = np.linalg.matrix_rank(np.array([r for r, _ in expected] or [[0] * n])) == n
        cell = M._cell_rays(cuts, n, M._WorkMeter(G.theta_graph()))
        assert (cell is not None) == full, cuts
        if full:
            assert sorted(zip(*cell)) == expected, cuts
        outcomes.add(full)
    assert outcomes == {True, False}
    # A zero cut holds everywhere.  In the second cone y_0 >= 0 and the
    # cut -y_0 <= 0 both hold the square e2, e1+e2, e1+e3, e3, so its
    # diagonal shares n - 2 tight constraints without being an edge.
    for cuts in ([(1, -1, 0), (0, 0, 0)], [(0, 1, -1, -1), (-1, 0, 0, 0), (0, 0, 1, -1)]):
        n = len(cuts[0])
        cell = M._cell_rays(cuts, n, M._WorkMeter(G.theta_graph()))
        assert sorted(zip(*cell)) == brute_cell_rays(cuts, n)


def test_rank4_systole_exact_and_within_mc():
    m4 = M.build_limit_measure(4)
    assert M.expectation(m4, FN.SYSTOLE) == RANK4_SYSTOLE
    mean, err = M.integrate_mc(m4, FN.SYSTOLE, 10**6, seed=0)
    assert abs(mean - float(RANK4_SYSTOLE)) < 3 * err


def test_rank4_types_within_kernel_mc():
    rng = np.random.default_rng(4)
    for block in M.build_limit_measure(4).blocks:
        g = block.graph
        vals = FN.SYSTOLE.kernel(g, M._draw_rows(rng, 200_000, g.num_edges))
        err = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - float(M.integrate_exact(g, FN.SYSTOLE))) < 4 * err


def test_ps_converge_rank4_has_exact_target():
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["ps", "converge", "--rank", "4", "--genus", "2",
                    "--Lmax", "12", "--s-list", "1.5", "--cap", "1000"],
                   stdout=out, stderr=err)
    assert code == 0
    params = json.loads(out.getvalue())["params"]
    assert params["target_method"] == "exact"
    assert params["target_exact_numerator"] == RANK4_SYSTOLE.numerator
    assert params["target_exact_denominator"] == RANK4_SYSTOLE.denominator


# --- work limit -------------------------------------------------------------------

def test_work_limit_raises(monkeypatch):
    monkeypatch.setattr(M, "EXACT_WORK_LIMIT", 50)
    k4 = G.complete_graph_k4()
    with pytest.raises(M.ExactWorkLimitError, match=k4.canonical_id()) as info:
        M.integrate_exact(k4, FN.SYSTOLE)
    assert "limit of 50" in str(info.value)
    assert isinstance(info.value, ValueError)


def test_work_limit_reported_by_cli(monkeypatch):
    monkeypatch.setattr(M, "EXACT_WORK_LIMIT", 50)
    out, err = io.StringIO(), io.StringIO()
    argv = ["expect", "--rank", "3", "--functional", "systole"]
    assert cli.run(argv, stdout=out, stderr=err) == 1
    assert err.getvalue().startswith("covermeasure: error: exact integration")
    assert out.getvalue() == ""
