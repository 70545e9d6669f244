"""Hexagon identities against the matrix-model oracle."""

import math

import mpmath
import pytest

from covermeasure import invariants as IV

GRID_L12 = [0.5, 0.875, 1.25, 1.625, 2.0]
GRID_L3 = [1.0 + 19.0 * i / 9.0 for i in range(10)]


def test_translation_length_roundtrip():
    for l in (1.0, 2.0, 5.0):
        mat = ((math.exp(l / 2), 0.0), (0.0, math.exp(-l / 2)))
        assert abs(IV.translation_length(mat) - l) < 1e-12


def test_translation_length_rejects_elliptic():
    rot = ((math.cos(0.3), -math.sin(0.3)), (math.sin(0.3), math.cos(0.3)))
    with pytest.raises(IV.InfeasibleGeometryError):
        IV.translation_length(rot)


def test_generators_realize_traces():
    b = IV.PantsBoundary(1.6, 2.2, 3.0)
    a_mat, b_mat = IV.pants_group_generators(b)
    assert abs(IV.trace(a_mat) - 2 * math.cosh(0.8)) < 1e-12
    assert abs(IV.trace(b_mat) - 2 * math.cosh(1.1)) < 1e-12
    ab = ((a_mat[0][0] * b_mat[0][0] + a_mat[0][1] * b_mat[1][0],
           a_mat[0][0] * b_mat[0][1] + a_mat[0][1] * b_mat[1][1]),
          (a_mat[1][0] * b_mat[0][0] + a_mat[1][1] * b_mat[1][0],
           a_mat[1][0] * b_mat[0][1] + a_mat[1][1] * b_mat[1][1]))
    assert abs(IV.trace(ab) + 2 * math.cosh(1.5)) < 1e-12


def test_hexagon_agrees_with_matrix_oracle_on_grid():
    worst = 0.0
    for l1 in GRID_L12:
        for l2 in GRID_L12:
            for l3 in GRID_L3:
                b = IV.PantsBoundary(l1, l2, l3)
                hexa = IV.separating_orthogeodesic_length(b)
                mat = IV.matrix_pants_oracle(b)
                worst = max(worst, abs(hexa - mat))
    assert worst < 1e-9


def test_symmetric_in_first_two_boundaries():
    for l1, l2, l3 in ((0.7, 1.9, 4.0), (0.5, 2.0, 11.0), (1.2, 1.3, 2.0)):
        a = IV.separating_orthogeodesic_length(IV.PantsBoundary(l1, l2, l3))
        b = IV.separating_orthogeodesic_length(IV.PantsBoundary(l2, l1, l3))
        assert abs(a - b) < 1e-12
        am = IV.matrix_pants_oracle(IV.PantsBoundary(l1, l2, l3))
        bm = IV.matrix_pants_oracle(IV.PantsBoundary(l2, l1, l3))
        assert abs(am - bm) < 1e-12


def test_strictly_decreasing_in_l3():
    for l1 in GRID_L12:
        for l2 in GRID_L12:
            values = [
                IV.separating_orthogeodesic_length(IV.PantsBoundary(l1, l2, l3))
                for l3 in GRID_L3
            ]
            assert all(a > b for a, b in zip(values, values[1:]))


def test_decay_along_l3():
    v5 = IV.separating_orthogeodesic_length(IV.PantsBoundary(1, 1, 5))
    v10 = IV.separating_orthogeodesic_length(IV.PantsBoundary(1, 1, 10))
    v20 = IV.separating_orthogeodesic_length(IV.PantsBoundary(1, 1, 20))
    assert v20 < v10 < v5
    # asymptotic rate: for l1 = l2 the length is ~ 4 cosh(l1/2) exp(-l3/4),
    # so each doubling of the long boundary roughly squares-down the value,
    # and the ratio below tends to cosh(1/2) ~ 1.128
    assert v20 < v10 * v10
    ratio = v20 / (4 * math.exp(-20 / 4.0))
    assert 0.9 < ratio < 1.3


def _hexagon_reference(l1, l2, l3):
    """The orthogeodesic from the hexagon identities, at 320 digits:
    cosh(seam) = (cosh(l3/2) + cosh(l1/2) cosh(l2/2)) / (sinh(l1/2) sinh(l2/2))
    and cosh(d/2) = sinh(seam) sinh(l1/2) sinh(l2/2) / sinh(l3/2)."""
    with mpmath.workdps(320):
        h1, h2, h3 = (mpmath.mpf(x) / 2 for x in (l1, l2, l3))
        s1, s2 = mpmath.sinh(h1), mpmath.sinh(h2)
        cosh_seam = (mpmath.cosh(h3) + mpmath.cosh(h1) * mpmath.cosh(h2)) / (s1 * s2)
        cosh_p = mpmath.sqrt(cosh_seam ** 2 - 1) * s1 * s2 / mpmath.sinh(h3)
        return 2 * mpmath.acosh(cosh_p)


def test_long_boundary_keeps_relative_precision():
    # cosh(d/2) tends to 1 as l3 grows, so a length taken as acosh of it
    # cancels away; the value must keep full relative precision instead.
    grid3 = [10.0 * i for i in range(1, 21)]
    for l1 in (0.1, 1.0, 3.0):
        for l2 in (0.1, 1.0, 3.0):
            values = []
            for l3 in grid3:
                got = IV.separating_orthogeodesic_length(IV.PantsBoundary(l1, l2, l3))
                ref = _hexagon_reference(l1, l2, l3)
                assert abs(got - ref) <= 1e-12 * ref, (l1, l2, l3, got, float(ref))
                values.append(got)
            assert all(v > 0 for v in values)
            assert all(a > b for a, b in zip(values, values[1:]))


def test_oracle_infeasible_inputs():
    with pytest.raises(IV.InfeasibleGeometryError):
        IV.PantsBoundary(0.0, 1.0, 1.0)


def test_quotients_past_the_float_range_keep_relative_precision():
    # sinh of the seam part u1 (the first three) or cosh(l1/2) / sinh(u1)
    # (the last two) is past the float range, while the orthogeodesic is not
    for l1, l2, l3 in ((1400.0, 1.0, 1500.0), (1420.0, 1.0, 1422.0),
                       (700.0, 600.0, 1700.0), (IV.BOUNDARY_LIMIT, 1.0, 1.0),
                       (1420.0, 3.0, 0.5)):
        got = IV.separating_orthogeodesic_length(IV.PantsBoundary(l1, l2, l3))
        ref = _hexagon_reference(l1, l2, l3)
        assert abs(got - ref) <= 1e-12 * ref, (l1, l2, l3, got, float(ref))


def test_short_seam_and_long_second_boundary_keep_relative_precision():
    # the log form of the seam part u1 cancels when l3 is short or l2 much
    # longer than l1; there u1 is taken as atanh of tanh(u1), which does not
    for l1, l2, l3 in ((1.0, 3.0, 1e-12), (0.05, 6.0, 1e-5), (1.0, 1.0, 1e-300),
                       (1.0, 3.0, 1e-300), (1.0, 60.0, 1.0), (1.0, 40.0, 1.0),
                       (60.0, 0.05, 1e-200), (6.0, 6.0, 0.5)):
        got = IV.separating_orthogeodesic_length(IV.PantsBoundary(l1, l2, l3))
        ref = _hexagon_reference(l1, l2, l3)
        assert abs(got - ref) <= 1e-12 * ref, (l1, l2, l3, got, float(ref))


def test_short_first_boundary_against_the_longest_second_keeps_relative_precision():
    # r = cosh(l1/2) / cosh(l2/2) is subnormal here, so 2/r overflows unless
    # the longer of l1 and l2 is taken as l1; the mirror image must agree
    for l1, l2, l3 in ((0.05, IV.BOUNDARY_LIMIT, 1e-5), (0.05, IV.BOUNDARY_LIMIT, 1.0),
                       (0.05, 1420.0, 1e-10)):
        ref = _hexagon_reference(l1, l2, l3)
        for b in (IV.PantsBoundary(l1, l2, l3), IV.PantsBoundary(l2, l1, l3)):
            got = IV.separating_orthogeodesic_length(b)
            assert abs(got - ref) <= 1e-12 * ref, (b, got, float(ref))


def test_least_subnormal_third_boundary_has_a_finite_length():
    # tanh(u1) rounds to 0 at the least subnormal l3, so it is taken in logs
    for l1, l2 in ((1.0, 1.0), (0.05, 3.0), (IV.BOUNDARY_LIMIT, 0.05)):
        got = IV.separating_orthogeodesic_length(IV.PantsBoundary(l1, l2, 5e-324))
        ref = _hexagon_reference(l1, l2, 5e-324)
        assert abs(got - ref) <= 1e-12 * ref, (l1, l2, got, float(ref))
