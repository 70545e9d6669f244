"""Array-backed lattice measures against per-point oracles.

The oracles are the set-orbit loop over a recursive composition generator
and the per-atom Fraction sums of the scalar invariants, which share no
code with the integer min-of-forms evaluation.
"""

import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from covermeasure import asymptotics as A
from covermeasure import functionals as FN
from covermeasure import graphs as G
from covermeasure import invariants as INV
from covermeasure import measure as M

F = Fraction


def _positive_compositions(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions(total - first, parts - 1):
            yield (first,) + rest


def _set_orbit_points(graph, n_slices):
    """Orbit minima and sizes by building each orbit as a set."""
    permuters = M._permuters(graph)
    seen, out = set(), []
    for point in _positive_compositions(n_slices, graph.num_edges):
        if point in seen:
            continue
        orbit = {permute(point) for permute in permuters}
        seen |= orbit
        out.append((min(orbit), len(orbit)))
    return sorted(out)


def _petersen():
    edges = ([(i, (i + 1) % 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
             + [(i, i + 5) for i in range(5)])
    return G.TrivalentGraph(tuple(sorted(tuple(sorted(e)) for e in edges)))


SCALARS = (
    (FN.SYSTOLE, INV.systole),
    (FN.MINEDGE, INV.min_edge_length),
    (FN.BRIDGE, lambda mg: INV.bridge_indicator(mg.graph)),
)


def _sigma_points(graph, n_slices):
    """The orbits of ``lattice_sigma`` as (point, multiplicity) pairs."""
    sigma = M.lattice_sigma(graph, n_slices)
    return list(zip(map(tuple, sigma.points.tolist()), sigma.multiplicities.tolist()))


def _per_atom(sigma, scalar):
    return sum(w * scalar(mg) for mg, w in sigma.atoms) / sigma.total_mass


def _types(ranks=(2, 3)):
    return [g for k in ranks for g in G.enumerate_trivalent(k)]


@pytest.mark.parametrize("total,parts", [(1, 1), (5, 1), (2, 3), (3, 3), (7, 3),
                                         (9, 6), (12, 4)])
def test_compositions_match_recursive_generator(total, parts):
    got = M._compositions(total, parts)
    assert got.dtype == np.int64 and got.shape[1] == parts
    assert list(map(tuple, got.tolist())) == list(_positive_compositions(total, parts))


def test_lattice_points_match_set_orbits():
    for g in _types():
        for n in range(g.num_edges - 1, 12):
            assert _sigma_points(g, n) == _set_orbit_points(g, n)


def test_integer_expectation_matches_per_atom_scalars():
    for g in _types():
        for n in range(g.num_edges, 20 if g.rank == 2 else 14):
            sigma = M.lattice_sigma(g, n)
            for f, scalar in SCALARS:
                assert sigma.expectation(f) == _per_atom(sigma, scalar)


def test_integer_expectation_rank2_at_240():
    for g in _types((2,)):
        sigma = M.lattice_sigma(g, 240)
        for f, scalar in SCALARS:
            assert sigma.expectation(f) == _per_atom(sigma, scalar)


def test_rank6_points_past_int64_keys():
    g, n = _petersen(), 20
    assert g.rank == 6 and n ** g.num_edges > 2 ** 63
    pts = _sigma_points(g, n)
    assert sum(mult for _, mult in pts) == comb(19, 14)
    assert pts == _set_orbit_points(g, n)
    sigma = M.lattice_sigma(g, n)
    assert sigma.expectation(FN.MINEDGE) == _per_atom(sigma, INV.min_edge_length)


def test_lazy_atoms_equal_per_point_tuple(monkeypatch):
    built = []
    metric_graph = M.MetricGraph

    def counting(graph, lengths):
        built.append(lengths)
        return metric_graph(graph, lengths)

    monkeypatch.setattr(M, "MetricGraph", counting)
    for g in _types((2,)):
        n = 9
        block = M.SimplexBlock.for_graph(g)
        sigma = M.lattice_sigma(g, n)
        assert sigma.total_mass == block.mass
        sigma.expectation(FN.SYSTOLE)
        assert built == []
        want = tuple((metric_graph(g, tuple(F(c, n) for c in point)),
                      block.mass * F(mult, comb(n - 1, g.num_edges - 1)))
                     for point, mult in _set_orbit_points(g, n))
        assert sigma.atoms == want
        assert len(built) == len(want)
        assert sigma.atoms is sigma.atoms
        built.clear()


def test_plain_callable_takes_per_atom_path():
    sigma = M.lattice_sigma(G.theta_graph(), 12)
    seen = []

    def scalar(mg):
        seen.append(mg)
        return INV.systole(mg)

    assert sigma.expectation(scalar) == sigma.expectation(FN.SYSTOLE)
    assert seen == [mg for mg, _ in sigma.atoms]


def test_empty_lattice_has_zero_mass():
    for n in (1, 2):
        sigma = M.lattice_sigma(G.theta_graph(), n)
        assert sigma.total_mass == 0 and sigma.atoms == ()
        with pytest.raises(ValueError, match="zero mass"):
            sigma.expectation(FN.SYSTOLE)


def test_expectation_past_int64_uses_python_ints(monkeypatch):
    # every entry and every point's value fits in int64, but the sum over
    # the C(14, 2) = 91 compositions would wrap; the forms are closed under
    # the swap of the dumbbell's loops
    g, n = G.dumbbell(), 15
    forms = ((F(2 ** 56),) * 3, (F(1), F(2 ** 55), F(5, 7)), (F(2 ** 55), F(1), F(5, 7)))
    big = FN.Functional(name="big", scalar=None, forms_for=lambda graph: forms)
    sigma = M.lattice_sigma(g, n)
    want = _per_atom(sigma, lambda mg: min(sum(c * x for c, x in zip(form, mg.lengths))
                                           for form in forms))
    dtypes = {}
    integer_matrix = M.integer_matrix

    def spy(rows, norm):
        mat = integer_matrix(rows, norm)
        dtypes[norm] = mat.dtype
        return mat

    monkeypatch.setattr(M, "integer_matrix", spy)
    assert sigma.expectation(big) == want
    assert dtypes == {n * comb(n - 1, 2): object}


def _orbit_sum(graph, n_slices, f):
    """The normalized lattice expectation as the orbit-weighted sum."""
    points, mults = M._lattice_orbits(graph, n_slices)
    rows, den = FN.integer_forms(f.forms_for(graph), graph.num_edges)
    mat = FN.integer_matrix(rows, n_slices)
    values = FN.integer_minimum(mat, points)
    total = sum(m * v for m, v in zip(mults.tolist(), values.tolist()))
    return F(total, comb(n_slices - 1, graph.num_edges - 1) * den * n_slices)


def test_composition_sum_equals_orbit_sum():
    for g in _types():
        for n in range(g.num_edges, 15):
            sigma = M.lattice_sigma(g, n)
            for f, _ in SCALARS:
                assert sigma.expectation(f) == _orbit_sum(g, n, f)


def test_functional_expectation_builds_no_orbits(monkeypatch):
    def refuse(*args):
        raise AssertionError("orbits or atoms built")

    monkeypatch.setattr(M, "_lattice_orbits", refuse)
    monkeypatch.setattr(M, "MetricGraph", refuse)
    for g in _types():
        for f, _ in SCALARS:
            M.lattice_sigma(g, 11).expectation(f)


def test_closed_form_sets_run_no_check(monkeypatch):
    # SYSTOLE's cycles are closed under the edge action, so their minimum is
    # invariant without a check
    def refuse(*args):
        raise AssertionError("cell built for a closed form set")

    want = [M.lattice_sigma(g, 11).expectation(FN.SYSTOLE) for g in _types()]
    monkeypatch.setattr(M, "_cell_rays", refuse)
    assert [M.lattice_sigma(g, 11).expectation(FN.SYSTOLE) for g in _types()] == want


def _ensemble(mode):
    return A.synthesize_ensemble(A.CountingModel(genus=2, rank=2), 10.0, mode, seed=0, cap=50)


# every path that scores a Functional on the rank-2 types, whose 3 edges
# the forms below miss or overshoot
_SCORING_PATHS = {
    "lattice-sum": lambda f: M.lattice_sigma(G.theta_graph(), 9).expectation(f),
    "exact": lambda f: M.integrate_exact(G.dumbbell(), f),
    "mc": lambda f: M.integrate_mc(M.build_limit_measure(2), f, 100, 0),
    "exact-marker": lambda f: _ensemble("exact-marker").values(f),
    "lattice-marker": lambda f: _ensemble("lattice-marker").values(f),
}


@pytest.mark.parametrize("path", sorted(_SCORING_PATHS))
@pytest.mark.parametrize("forms,message", [
    (((F(1), F(1)),), "forms must have one coefficient per edge"),
    (((1, 1, 1), (1, 1, 1, 1)), "forms must have one coefficient per edge"),
    ((), "need at least one linear form"),
], ids=["short", "long", "empty"])
def test_wrong_length_forms_raise(path, forms, message):
    f = FN.Functional(name="malformed", scalar=None, forms_for=lambda graph: forms)
    with pytest.raises(ValueError, match=message):
        _SCORING_PATHS[path](f)


def test_non_invariant_forms_raise():
    # the dumbbell's loops are edges 0 and 1; weighting one of them more
    # breaks the loop swap.  The second set agrees with its loop swaps
    # wherever the bar is at least both loops, but the swap moves its
    # minimum at (1, 2, 1/10)
    for forms in (((F(2), F(1), F(0)),), ((F(1), F(1), F(0)), (F(1, 2), F(0), F(1)))):
        lopsided = FN.Functional(name="lopsided", scalar=None,
                                 forms_for=lambda graph, forms=forms: forms)
        with pytest.raises(M.SymmetryViolationError):
            M.lattice_sigma(G.dumbbell(), 9).expectation(lopsided)


@pytest.mark.parametrize("total,parts", [(0, 3), (2, 3), (3, 3), (9, 4), (13, 5)])
def test_composition_chunks_split_in_order(monkeypatch, total, parts):
    monkeypatch.setattr(M, "_CHUNK_ROWS", 4)
    chunks = list(M._composition_chunks(total, parts))
    assert all(len(chunk) <= 4 for chunk in chunks)
    rows = [tuple(row) for chunk in chunks for row in chunk.tolist()]
    assert rows == list(_positive_compositions(total, parts))
    for chunk in chunks:
        # each column is one contiguous run of memory
        assert chunk.dtype == np.int64 and chunk.T.flags.c_contiguous
    if len(chunks) > 1:
        # every block of a split fixes at least its first part
        assert all(len(set(chunk[:, 0].tolist())) == 1 for chunk in chunks)


def test_lattice_sum_holds_one_block_of_scratch():
    # rank 3, N = 36: C(35, 5) = 324,632 compositions in blocks of C(34 - j, 4)
    # rows for first part j; the largest holds 46,376 rows of 6 columns.
    # Whole (rows x forms) products, a copy of each block per fixed leading
    # part and the previous block alive while the next was made took about
    # 15 row vectors on top of the largest block; the column sums and the
    # levels of the generator take about 3
    n_slices, rows = 36, comb(34, 4)
    for g in _types((3,)):
        sigma = M.lattice_sigma(g, n_slices)
        M.lattice_sigma(g, 9).expectation(FN.SYSTOLE)  # the forms, cached
        tracemalloc.start()
        try:
            sigma.expectation(FN.SYSTOLE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = 8 * rows * g.num_edges
        assert peak < block + 5 * 8 * rows, (g, peak, block)


def test_small_chunks_give_same_results(monkeypatch):
    cases = [(g, n) for g in _types() for n in (g.num_edges, 11)]
    want = [(_sigma_points(g, n), [M.lattice_sigma(g, n).expectation(f)
                                    for f, _ in SCALARS]) for g, n in cases]
    want_omega = [M.omega_counts(k, 7, lambda x: max(x) < F(1, 2)) for k in (2, 3)]
    monkeypatch.setattr(M, "_CHUNK_ROWS", 3)
    got = [(_sigma_points(g, n), [M.lattice_sigma(g, n).expectation(f)
                                   for f, _ in SCALARS]) for g, n in cases]
    assert got == want
    assert [M.omega_counts(k, 7, lambda x: max(x) < F(1, 2)) for k in (2, 3)] == want_omega


@pytest.mark.parametrize("n", [0, -3])
def test_resolution_below_one_is_refused(n):
    with pytest.raises(ValueError, match=f"N must be at least 1, got {n}"):
        M.lattice_sigma(G.theta_graph(), n)


def test_integer_forms_clear_denominators():
    rows, d = FN.integer_forms(((F(1, 2), F(0), F(3)), (F(2, 3), F(1), F(1, 6))), 3)
    assert d == 6
    assert rows == ((3, 0, 18), (4, 6, 1))
    with pytest.raises(ValueError):
        FN.integer_forms((), 3)


def test_lattice_marker_values_check_float64_bound():
    def values(forms):
        ensemble = A.SyntheticEnsemble(
            lengths=np.array([6.0]), blocks=np.array([0]),
            rows=np.array([[1, 2, 3]], dtype=np.int64),
            resolution=np.array([6], dtype=np.int64),
            graphs=(G.theta_graph(),), cap_reached=False)
        return ensemble.values(FN.Functional(name="forms", scalar=None,
                                             forms_for=lambda graph: forms))

    got = values(((F(1), F(1, 3), F(0)), (F(0), F(0), F(1))))
    assert got.tolist() == [float(F(5, 3) / 6)]
    with pytest.raises(OverflowError):
        values(((F(2 ** 51), F(1), F(1)),))


def test_lattice_convergence_script():
    script = Path(__file__).resolve().parent.parent / "scripts" / "lattice_convergence.py"
    out = subprocess.run([sys.executable, str(script), "--rank", "2", "--N-list", "12,24",
                          "--json"], capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert report["exact"] == float(F(23, 90))
    mixture = M.build_limit_measure(2)
    assert [row["N"] for row in report["rows"]] == [12, 24]
    for row in report["rows"]:
        want = sum(w * M.lattice_sigma(block.graph, row["N"]).expectation(FN.SYSTOLE)
                   for block, w in zip(mixture.blocks, mixture.weights))
        assert row["lattice_expectation"] == float(want)
