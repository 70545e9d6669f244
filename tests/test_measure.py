"""Limit-measure construction, lattice discretizations, and sampling."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from covermeasure import functionals as FN
from covermeasure import graphs as G
from covermeasure import measure as M

F = Fraction


# --- mixture weights ----------------------------------------------------------

def test_rank2_weights_exact():
    m2 = M.build_limit_measure(2)
    by_id = {b.graph.canonical_id(): w for b, w in zip(m2.blocks, m2.weights)}
    assert by_id[G.dumbbell().canonical_id()] == F(3, 5)
    assert by_id[G.theta_graph().canonical_id()] == F(2, 5)
    assert m2.normalization == F(24, 5)
    assert m2.normalization == 1 / (F(1, 8) + F(1, 12))


def test_rank2_block_masses():
    m2 = M.build_limit_measure(2)
    by_id = {b.graph.canonical_id(): b for b in m2.blocks}
    assert by_id[G.dumbbell().canonical_id()].mass == F(1, 2)
    assert by_id[G.theta_graph().canonical_id()].mass == F(1, 6)
    assert all(b.graph.num_edges - 1 == 2 for b in m2.blocks)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_weights_sum_to_one(k):
    m = M.build_limit_measure(k)
    assert sum(m.weights) == 1
    assert all(w > 0 for w in m.weights)


def test_weight_lookup():
    m2 = M.build_limit_measure(2)
    weight_of = {G.canonical_form(b.graph): w for b, w in zip(m2.blocks, m2.weights)}
    assert weight_of[G.canonical_form(G.dumbbell())] == F(3, 5)
    with pytest.raises(KeyError):
        weight_of[G.canonical_form(G.complete_graph_k4())]


# --- lattice points and sigma measures -------------------------------------------

def _orbits(graph, n_slices):
    sigma = M.lattice_sigma(graph, n_slices)
    return sigma.points.tolist(), sigma.multiplicities.tolist()


def test_lattice_points_examples():
    th, db = G.theta_graph(), G.dumbbell()
    assert _orbits(th, 3) == ([[1, 1, 1]], [1])
    assert _orbits(th, 4) == ([[1, 1, 2]], [3])
    # dumbbell edges are (loop, loop, bar): the loops swap, the bar is fixed
    assert _orbits(db, 4) == ([[1, 1, 2], [1, 2, 1]], [1, 2])


def test_lattice_points_empty_below_edge_count():
    assert M.lattice_sigma(G.theta_graph(), 2).points.shape == (0, 3)
    assert M.lattice_sigma(G.theta_graph(), 2).atoms == ()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=3, max_value=40),
       use_theta=st.booleans())
def test_lattice_multiplicities_sum(n, use_theta):
    g = G.theta_graph() if use_theta else G.dumbbell()
    reps, mults = _orbits(g, n)
    assert sum(mults) == comb(n - 1, g.num_edges - 1)
    assert reps == sorted(reps)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 19, 30, 60])
def test_lattice_sigma_mass_identity(n):
    for g in G.enumerate_trivalent(2):
        block = M.SimplexBlock.for_graph(g)
        sigma = M.lattice_sigma(g, n)
        assert sigma.total_mass == block.mass
        for mg, w in sigma.atoms:
            assert w > 0
            assert all(x > 0 for x in mg.lengths)
            assert sum(mg.lengths) == 1


def test_lattice_expectation_converges_per_block():
    for g in G.enumerate_trivalent(2):
        exact = M.integrate_exact(g, FN.SYSTOLE)
        errs = [abs(M.lattice_sigma(g, n).expectation(FN.SYSTOLE) - exact)
                for n in (30, 60, 120)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 2 * errs[1]


# --- omega counts -----------------------------------------------------------------

def test_omega_counts_examples():
    total, hits = M.omega_counts(2, 2, lambda x: True)
    assert total == 6 == comb(4, 2)
    assert hits == 6


def test_omega_counts_predicate():
    total, hits = M.omega_counts(2, 6, lambda x: max(x) < F(1, 2))
    assert total == comb(8, 2)
    brute = sum(
        1
        for a in range(7)
        for b in range(7 - a)
        if max(a, b, 6 - a - b) < 3
    )
    assert hits == brute


def test_omega_zero_norm():
    total, hits = M.omega_counts(2, 0, lambda x: True)
    assert total == 1 and hits == 0


@pytest.mark.parametrize("n_norm", [-1, -5])
def test_omega_counts_refuse_negative_norm(n_norm):
    with pytest.raises(ValueError, match=f"N must be nonnegative, got {n_norm}"):
        M.omega_counts(2, n_norm, lambda x: True)


def test_omega_growth_ratio():
    # |Omega(K)| ~ K^(3k-4)/(3k-4)!
    for k_norm, tol in ((100, 0.05), (400, 0.02)):
        total, _ = M.omega_counts(2, k_norm, lambda x: False)
        model = k_norm ** 2 / 2
        assert abs(total / model - 1) < tol


# --- sampling ------------------------------------------------------------------------

def test_sample_is_deterministic_and_on_simplex():
    m2 = M.build_limit_measure(2)
    [(idx_a, a)] = M.sample_chunks(m2, 1, seed=123)
    [(idx_b, b)] = M.sample_chunks(m2, 1, seed=123)
    assert np.array_equal(idx_a, idx_b) and np.array_equal(a, b)
    assert a.shape == (1, 3) and np.all(a > 0)
    assert abs(a.sum() - 1) < 1e-12


def test_sample_block_frequencies():
    m2 = M.build_limit_measure(2)
    n = 40_000
    db_id = G.dumbbell().canonical_id()
    hits = sum(
        1
        for idx, _ in M.sample_chunks(m2, n, seed=2)
        for b in idx
        if m2.blocks[int(b)].graph.canonical_id() == db_id
    )
    sigma = math.sqrt(0.6 * 0.4 / n)
    assert abs(hits / n - 0.6) < 3 * sigma


def test_sampler_symmetry_kolmogorov_smirnov():
    # sorted coordinates restricted to the theta block are exchangeable:
    # coordinate 0 against coordinate 2 of an independent batch
    m2 = M.build_limit_measure(2)
    th_id = G.theta_graph().canonical_id()
    rows = []
    for idx, chunk in M.sample_chunks(m2, 30_000, seed=5):
        mask = np.array([m2.blocks[int(b)].graph.canonical_id() == th_id
                         for b in idx])
        rows.append(chunk[mask])
    rows = np.concatenate(rows)
    half = len(rows) // 2
    res = stats.ks_2samp(rows[:half, 0], rows[half:, 2])
    assert res.pvalue > 0.001


def test_sample_chunks_are_block_ordered_on_simplex(monkeypatch):
    monkeypatch.setattr(M, "_SAMPLE_CHUNK", 3000)
    m3 = M.build_limit_measure(3)
    sizes = []
    for idx, rows in M.sample_chunks(m3, 10_000, seed=4):
        sizes.append(len(idx))
        assert rows.shape == (len(idx), 6)
        assert np.all(np.diff(idx) >= 0)
        assert np.all(rows > 0)
        assert np.max(np.abs(rows.sum(axis=1) - 1)) < 1e-12
    assert sizes == [3000, 3000, 3000, 1000]


def test_integrate_mc_memory_is_bounded():
    m2 = M.build_limit_measure(2)
    tracemalloc.start()
    try:
        M.integrate_mc(m2, FN.SYSTOLE, 4_000_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_integrate_mc_constant():
    m2 = M.build_limit_measure(2)
    mean, err = M.integrate_mc(m2, lambda mg: 1.0, 1000, seed=0)
    assert mean == 1.0
    assert err == 0.0


def test_integrate_mc_deterministic():
    m2 = M.build_limit_measure(2)
    assert M.integrate_mc(m2, FN.SYSTOLE, 20_000, seed=9) \
        == M.integrate_mc(m2, FN.SYSTOLE, 20_000, seed=9)


@pytest.mark.parametrize("k", [2, 3])
def test_integrate_mc_kernel_matches_scalar_path(k):
    mixture = M.build_limit_measure(k)
    fast = M.integrate_mc(mixture, FN.SYSTOLE, 4000, seed=11)
    slow = M.integrate_mc(mixture, FN.SYSTOLE.scalar, 4000, seed=11)
    assert math.isclose(fast[0], slow[0], abs_tol=1e-12)
    assert math.isclose(fast[1], slow[1], abs_tol=1e-12)


def test_integrate_mc_runs_forms_only_functional_batched():
    # no scalar to fall back on: the kernel derived from the forms does it all
    cycles = FN.Functional(name="cycles", scalar=None, forms_for=FN.cycle_forms)
    m2 = M.build_limit_measure(2)
    assert M.integrate_mc(m2, cycles, 20_000, seed=4) \
        == M.integrate_mc(m2, FN.SYSTOLE, 20_000, seed=4)


# (mean, stderr) of integrate_mc(build_limit_measure(k), f, 10**5, seed=0),
# so that a change of the random stream or of the kernels' rounding shows;
# another BLAS may sum in another order, hence the relative 1e-12
MC_PINS = {
    (2, "systole"): (0.2558046055651144, 0.0005311443932575045),
    (2, "minedge"): (0.11106178797729956, 0.0002484690400115303),
    (2, "bridge"): (0.59739, 0.0015508629632431448),
    (3, "systole"): (0.14076975306133915, 0.00032457110922670776),
    (3, "minedge"): (0.027737811363634093, 7.426164839885173e-05),
    (3, "bridge"): (0.6663999999999998, 0.0014910173142275423),
    (4, "systole"): (0.09589455642391473, 0.00023064558229679558),
    (4, "minedge"): (0.012336501507120423, 3.495858498860734e-05),
    (4, "bridge"): (0.6808700000000001, 0.0014740699304380367),
}


@pytest.mark.parametrize("k, name", sorted(MC_PINS))
def test_integrate_mc_pinned(k, name):
    got = M.integrate_mc(M.build_limit_measure(k), FN.get_functional(name), 10**5, seed=0)
    assert got == pytest.approx(MC_PINS[k, name], rel=1e-12, abs=0)


def test_integrate_mc_same_bits_for_any_blas_thread_count():
    # the squared deviations were once summed by a BLAS dot product, whose
    # order follows OpenBLAS's thread count: at these arguments the last bit
    # of the standard error then differed between 1 and 2 threads
    src = str(Path(M.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("from covermeasure import functionals as FN, measure as M\n"
            "print(repr(M.integrate_mc(M.build_limit_measure(2), FN.SYSTOLE, 200_000, 0)))")
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONPATH=path,
                                                OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("k, name", sorted(MC_PINS))
def test_mc_pins_lie_near_exact(k, name):
    # the pins are estimates: each lies within 4 of its standard errors of
    # the exact expectation, which is 1/E^2 for the least of E edges
    exact = M.expectation(M.build_limit_measure(k), FN.get_functional(name))
    if name == "minedge":
        assert exact == F(1, (3 * k - 3) ** 2)
    mean, err = MC_PINS[k, name]
    assert abs(mean - exact) < 4 * err


def _serial_mc(mixture, f, n, seed):
    """integrate_mc as one serial _merge_moments fold over sample_chunks."""
    kernel = f.kernel if isinstance(f, FN.Functional) else (lambda graph, rows: np.array(
        [f(M.MetricGraph(graph, row)) for row in rows.tolist()], dtype=float))
    moments = (0, 0.0, 0.0)
    for idx, rows in M.sample_chunks(mixture, n, seed):
        counts = np.bincount(idx, minlength=len(mixture.blocks))
        for block, count, end in zip(mixture.blocks, counts, np.cumsum(counts)):
            if count:
                moments = M._merge_moments(moments, kernel(block.graph, rows[end - count:end]))
    _, mean, m2 = moments
    return mean, float(np.sqrt(m2 / (n - 1) / n))


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("f", [FN.SYSTOLE, lambda mg: 2 * mg.lengths[0] + max(mg.lengths)],
                         ids=["systole", "callable"])
def test_integrate_mc_equals_serial_fold_for_any_worker_count(monkeypatch, workers, f):
    # 21 chunks, the last partial, each reusing a buffer; more workers than
    # cores and a short switch interval give a reused buffer every chance
    # to be overwritten before its values are merged
    monkeypatch.setattr(M, "_SAMPLE_CHUNK", 1000)
    monkeypatch.setattr(M, "_MC_WORKERS", workers)
    m3 = M.build_limit_measure(3)
    got = []
    runner = threading.Thread(target=lambda: got.append(M.integrate_mc(m3, f, 20_500, seed=6)),
                              daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [_serial_mc(m3, f, 20_500, seed=6)]


def test_integrate_mc_raises_what_a_worker_raised():
    with pytest.raises(ZeroDivisionError):
        M.integrate_mc(M.build_limit_measure(2), lambda mg: 1 / 0, 100_000, seed=0)


def test_integrate_mc_memory_is_bounded_at_rank4():
    # two buffers of 9 x 2^15 floats are 4.5 MiB and the kernels' products
    # about as much again; keeping each chunk's values would take 30 MiB
    m4 = M.build_limit_measure(4)
    tracemalloc.start()
    try:
        M.integrate_mc(m4, FN.SYSTOLE, 4_000_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_integrate_mc_close_to_exact():
    m2 = M.build_limit_measure(2)
    mean, err = M.integrate_mc(m2, FN.SYSTOLE, 200_000, seed=0)
    assert abs(mean - 23 / 90) < 3 * err


def test_integrate_mc_sample_count_validation():
    m2 = M.build_limit_measure(2)
    with pytest.raises(M.InvalidSampleCountError):
        M.integrate_mc(m2, FN.SYSTOLE, 1, seed=0)


def test_integrate_mc_accepts_numpy_integer_count():
    m2 = M.build_limit_measure(2)
    assert M.integrate_mc(m2, FN.SYSTOLE, np.int64(1000), 0) \
        == M.integrate_mc(m2, FN.SYSTOLE, 1000, 0)
    with pytest.raises(M.InvalidSampleCountError):
        M.integrate_mc(m2, FN.SYSTOLE, True, 0)


@pytest.mark.parametrize("count", [-3, 2.5, True])
def test_sample_count_validation(count):
    m2 = M.build_limit_measure(2)
    with pytest.raises(M.InvalidSampleCountError):
        list(M.sample_chunks(m2, count, seed=0))
    assert list(M.sample_chunks(m2, 0, seed=0)) == []


# --- metric graphs ---------------------------------------------------------------------

def test_metric_graph_validation():
    th = G.theta_graph()
    M.MetricGraph(th, (F(1, 3), F(1, 3), F(1, 3)))
    with pytest.raises(ValueError):
        M.MetricGraph(th, (F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        M.MetricGraph(th, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        M.MetricGraph(th, (0.5, 0.5, 0.0))
    mg = M.MetricGraph(th, (0.2, 0.3, 0.5))
    assert not mg.is_exact

