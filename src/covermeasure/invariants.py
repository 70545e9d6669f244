"""Geometric functionals on metric graphs and hyperbolic pants geometry.

The systole routine works on arbitrary connected metric multigraphs via
edge removal plus shortest paths.  The pants functions compute the length
of the simple orthogeodesic from one boundary to itself that separates
the other two boundaries, once by right-angled pentagon identities (the
halves of the pants' right-angled hexagons) and once by an explicit
matrix model in PSL(2, R).
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .graphs import InvalidGraphError, _is_connected, _links, bridges


class InfeasibleGeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# metric-graph functionals
# ---------------------------------------------------------------------------

def _shortest_path(links, lengths, n, src, dst, skip_edge):
    """Dijkstra distance src -> dst over the ``_links`` incidence lists,
    ignoring edge ``skip_edge``; None if absent."""
    dist = [None] * n
    heap = [(0, src)]
    while heap:
        d, x = heapq.heappop(heap)
        if dist[x] is not None:
            continue
        dist[x] = d
        if x == dst:
            return d
        for y, eid in links[x]:
            if eid != skip_edge and dist[y] is None:
                heapq.heappush(heap, (d + lengths[eid], y))
    return None


def systole_from_lengths(edges: Sequence[tuple[int, int]], lengths: Sequence):
    """Length of the shortest cycle of a connected metric multigraph.

    Candidates are every loop, and for each non-loop edge e = (u, v) the
    value len(e) plus the shortest u-v path avoiding e.  Exact when the
    lengths are exact (Fractions survive untouched).
    """
    if len(edges) == 0:
        raise InvalidGraphError("empty edge list")
    if len(edges) != len(lengths):
        raise InvalidGraphError("one length per edge required")
    if not all(l > 0 for l in lengths):
        raise InvalidGraphError("edge lengths must be positive")
    n = max(max(u, v) for u, v in edges) + 1
    if not _is_connected(edges, n):
        raise InvalidGraphError("systole requires a connected graph")
    links = _links(edges, n)
    best = None
    for i, (u, v) in enumerate(edges):
        if u == v:
            cand = lengths[i]
        else:
            back = _shortest_path(links, lengths, n, u, v, i)
            if back is None:
                continue
            cand = lengths[i] + back
        if best is None or cand < best:
            best = cand
    if best is None:
        raise InvalidGraphError("graph has no cycle")
    return best


def systole(mg):
    """Systole of a volume-one metric graph (see systole_from_lengths)."""
    return systole_from_lengths(mg.graph.edges, mg.lengths)


def bridge_indicator(graph) -> int:
    """1 if the graph has a separating (bridge) edge, else 0."""
    return 1 if bridges(graph) else 0


def min_edge_length(mg):
    """Minimum edge length; the graph is l-long iff this exceeds l."""
    return min(mg.lengths)


# ---------------------------------------------------------------------------
# hyperbolic pants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PantsBoundary:
    """Boundary lengths of a hyperbolic pair of pants, all positive and finite."""

    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        if not all(0 < l < math.inf for l in (self.l1, self.l2, self.l3)):
            raise InfeasibleGeometryError("boundary lengths must be positive and finite")


def pants_boundary_from_dumbbell(x, y, z) -> PantsBoundary:
    """Boundary triple of the pants thickening a dumbbell with loop lengths
    x, y and bar length z, in the long-cover limit: (x, y, x + y + 2z)."""
    if not (x > 0 and y > 0 and z > 0):
        raise InfeasibleGeometryError("dumbbell lengths must be positive")
    return PantsBoundary(x, y, x + y + 2 * z)


# the longest boundary l whose cosh(l / 2) is a float: 2 ln(2 * DBL_MAX)
BOUNDARY_LIMIT = 2 * (math.log(2) + math.log(sys.float_info.max))


def _half_cosh(name: str, length: float) -> float:
    if length > BOUNDARY_LIMIT:
        raise OverflowError(f"boundary {name} = {length!r} is past {BOUNDARY_LIMIT!r}, "
                            f"where cosh({name}/2) leaves the float range")
    return math.cosh(length / 2)


def separating_orthogeodesic_length(b: PantsBoundary) -> float:
    """Length of the simple orthogeodesic from boundary 3 to itself that
    separates boundaries 1 and 2.

    Cut the pants into two congruent right-angled hexagons along the three
    seams.  The perpendicular p from the l3/2 side to the opposite seam
    splits each hexagon into two right-angled pentagons, and splits the
    l3/2 side into u1 + u2 = l3/2.  The pentagon identity gives

        cosh(l1/2) = sinh(u1) sinh(p),    cosh(l2/2) = sinh(u2) sinh(p).

    The length is symmetric in l1 and l2, so l1 is taken as the longer of
    the two.  With r = cosh(l1/2) / cosh(l2/2) >= 1 and h = l3/2 these
    solve to

        tanh(u1) = x = sinh(h) / (1/r + cosh(h)).

    Where x <= 1/2, u1 = atanh(x), with x evaluated as
    (1 - e^-l3) / (1 + e^-h (e^-h + 2/r)), a quotient of positive terms.
    Otherwise u1 >= atanh(1/2), which bounds the cancellation in the log
    form u1 = (h + ln r + log1p(e^-h / r) - log1p(r e^-h)) / 2.  The
    orthogeodesic doubles p across the seam:
    d = 2 asinh(cosh(l1/2) / sinh(u1)).  Unlike acosh of cosh(p), which
    tends to 1 as l3 grows, no step loses the relative precision: for l1,
    l2 from 0.05 to BOUNDARY_LIMIT and l3 from the least subnormal float
    to 1500 the result is within 1e-13 relative, and within 2e-14 for l3
    up to 400 (d ~ 4 cosh(l1/2) e^(-l3/4) when l1 = l2, so the error
    grows with the conditioning, l3/4).  Where x is below the
    normal range, d = 2 ln(2 cosh(l1/2) / x) with x in logs; where sinh(u1)
    or c1 / sinh(u1) is past the float range, the quotient is taken in
    logs.  An l1 or l2 past BOUNDARY_LIMIT, where its cosh is past the
    float range, raises OverflowError naming it.
    """
    c1, c2 = _half_cosh("l1", b.l1), _half_cosh("l2", b.l2)
    # the length is symmetric in l1 and l2: the longer one is taken as l1
    c1, c2 = max(c1, c2), min(c1, c2)
    r = c1 / c2
    h = b.l3 / 2
    e = math.exp(-h)
    top, bottom = -math.expm1(-b.l3), 1 + e * (e + 2 / r)
    x = top / bottom
    if x < sys.float_info.min:
        # below the normal range u1 = sinh(u1) = x to double precision, and
        # asinh(y) = ln(2y) for y = c1 / x; the logs keep x's lost bits
        return 2.0 * (math.log(2) + math.log(c1) - math.log(top) + math.log(bottom))
    if x <= 0.5:
        u1 = math.atanh(x)
    else:
        u1 = 0.5 * (h + math.log(r) + math.log1p(e / r) - math.log1p(r * e))
    try:
        ratio = c1 / math.sinh(u1)
    except OverflowError:  # past the float range sinh(u1) is e^u1 / 2
        ratio = math.exp(math.log(c1) + math.log(2) - u1)
    if ratio == math.inf:  # past the float range asinh(x) is ln(2x)
        return 2.0 * (math.log(2) + math.log(c1) - math.log(math.sinh(u1)))
    return 2.0 * math.asinh(ratio)


# --- independent matrix-model oracle ---------------------------------------

def _mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def trace(m) -> float:
    return m[0][0] + m[1][1]


def translation_length(m) -> float:
    """Translation length of a hyperbolic isometry given as an SL(2,R) matrix."""
    t = abs(trace(m))
    if t <= 2.0:
        raise InfeasibleGeometryError(f"matrix with |trace| = {t} is not hyperbolic")
    return 2.0 * math.acosh(t / 2.0)


def _axis_endpoints(m):
    (p, q), (r, s) = m
    disc = (p + s) ** 2 - 4.0
    if disc <= 0:
        raise InfeasibleGeometryError("matrix is not hyperbolic, no axis")
    if abs(r) < 1e-14:
        if abs(s - p) < 1e-14:
            raise InfeasibleGeometryError("degenerate axis")
        return (q / (s - p), math.inf)
    root = math.sqrt(disc)
    return ((p - s + root) / (2 * r), (p - s - root) / (2 * r))


def _dist_between_axes(e1, e2) -> float:
    u, v = e1

    def mob(z):
        if v is math.inf:
            return z - u
        if z is math.inf:
            return 1.0
        return (z - u) / (z - v)

    pp, qq = mob(e2[0]), mob(e2[1])
    m = (pp + qq) / 2.0
    r = abs(pp - qq) / 2.0
    if abs(m) <= r:
        raise InfeasibleGeometryError("axes intersect; no common perpendicular")
    return math.acosh(abs(m) / r)


def pants_group_generators(b: PantsBoundary):
    """Explicit A, B in SL(2,R) with translation lengths l1, l2 and with
    tr(AB) = -2 cosh(l3/2); that sign makes <A, B> a pants group."""
    lam = math.exp(b.l1 / 2)
    t_b = 2.0 * math.cosh(b.l2 / 2)
    t_ab = -2.0 * math.cosh(b.l3 / 2)
    a_mat = ((lam, 0.0), (0.0, 1.0 / lam))
    p = (t_ab - t_b / lam) / (lam - 1.0 / lam)
    s = t_b - p
    q = p * s - 1.0
    if abs(q) < 1e-14:
        raise InfeasibleGeometryError("failed to realize the trace conditions")
    b_mat = ((p, q), (1.0, s))
    return a_mat, b_mat


def matrix_pants_oracle(b: PantsBoundary) -> float:
    """Separating orthogeodesic length computed without hexagon identities.

    Builds A, B realizing the boundary traces, then measures the common
    perpendicular between the axis of AB and the axis of BA; both project
    to boundary 3 and the perpendicular projects to the orthogeodesic.

    Range: the axes of AB and BA close up as l3 grows, so double precision
    loses digits fast.  At l1 = l2 = 1 the relative error is about 2e-12
    up to l3 = 20 (the grids the tests use), 2e-8 at l3 = 40 and 5e-4 at
    l3 = 60; by l3 = 90 rounding makes the axes appear to meet and it
    raises InfeasibleGeometryError("axes intersect...") although they do
    not.  Use separating_orthogeodesic_length for long boundaries.
    """
    a_mat, b_mat = pants_group_generators(b)
    ab = _mat_mul(a_mat, b_mat)
    ba = _mat_mul(b_mat, a_mat)
    return _dist_between_axes(_axis_endpoints(ab), _axis_endpoints(ba))
