"""The limit measure on moduli space, lattice discretizations, and integrators.

The measure is a mixture of simplex blocks, one per trivalent graph type:
block X carries mass |Triv(X)|/|Aut(X)| and mixture weight
(1/|Aut(X)|) / sum(1/|Aut(X')|).  All weights stay exact rationals;
floating point enters only in Monte Carlo sampling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from fractions import Fraction
from math import comb, gcd, prod
from operator import itemgetter
from typing import Callable

from ._lazy import np
from .functionals import (Functional, _graph_forms, integer_forms, integer_matrix,
                          integer_minimum)
from .graphs import (
    InvalidRankError,
    TrivalentGraph,
    _is_integer,
    automorphism_group,
    edge_action,
    enumerate_trivalent,
    triv_subgroup,
)

_FLOAT_VOLUME_TOL = 1e-9
# the most rows of compositions held at once by lattice sums and orbits
_CHUNK_ROWS = 1 << 16
# Monte Carlo draws per chunk; unlike _CHUNK_ROWS it fixes the random stream
_SAMPLE_CHUNK = 1 << 15
# threads that draw and score chunks in integrate_mc; the estimate does not depend on it
_MC_WORKERS = 2


class InvalidSampleCountError(ValueError):
    pass


class SymmetryViolationError(ValueError):
    pass


class ExactWorkLimitError(ValueError):
    pass


@dataclass(frozen=True)
class MetricGraph:
    """A point of moduli space: a graph type plus positive edge lengths
    summing to one (exactly for rational lengths, to 1e-9 for floats)."""

    graph: TrivalentGraph
    lengths: tuple

    def __post_init__(self):
        lengths = tuple(self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if len(lengths) != self.graph.num_edges:
            raise ValueError("one length per edge required")
        if not all(l > 0 for l in lengths):
            raise ValueError("edge lengths must be positive")
        total = sum(lengths)
        if self.is_exact:
            if total != 1:
                raise ValueError(f"exact lengths must sum to 1, got {total}")
        elif not abs(total - 1.0) <= _FLOAT_VOLUME_TOL:
            raise ValueError(f"lengths must sum to 1, got {total!r}")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(l, (Fraction, int)) for l in self.lengths)


@dataclass(frozen=True)
class SimplexBlock:
    """One open simplex of moduli space with its sigma-measure mass."""

    graph: TrivalentGraph
    mass: Fraction

    @classmethod
    def for_graph(cls, graph: TrivalentGraph) -> "SimplexBlock":
        mass = Fraction(len(triv_subgroup(graph)), len(automorphism_group(graph)))
        return cls(graph=graph, mass=mass)


@dataclass(frozen=True)
class MeasureMixture:
    """The limit measure: weighted simplex blocks, weights summing to one."""

    blocks: tuple[SimplexBlock, ...]
    weights: tuple[Fraction, ...]
    normalization: Fraction  # reciprocal of sum over types of 1/|Aut|

    def __post_init__(self):
        if len(self.blocks) != len(self.weights):
            raise ValueError("one weight per block required")
        if sum(self.weights) != 1:
            raise ValueError("block weights must sum to 1")


def build_limit_measure(k: int) -> MeasureMixture:
    """The limit probability measure for rank k, one block per graph type.

    Block weight is (1/|Aut X|) / sum_X'(1/|Aut X'|); for k = 2 this gives
    3/5 on the dumbbell block and 2/5 on the theta block.
    """
    graphs = enumerate_trivalent(k)
    blocks = tuple(SimplexBlock.for_graph(g) for g in graphs)
    inv_auts = [Fraction(1, len(automorphism_group(g))) for g in graphs]
    total = sum(inv_auts)
    weights = tuple(w / total for w in inv_auts)
    return MeasureMixture(blocks=blocks, weights=weights, normalization=1 / total)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _draw_rows(rng, count: int, n_edges: int) -> np.ndarray:
    exps = rng.standard_exponential((count, n_edges))
    exps /= exps.sum(axis=1, keepdims=True)
    return exps


def _chunks(n: int, seed: int) -> list[tuple[np.random.SeedSequence, int]]:
    """(child, m) per chunk: chunk c draws m = min(_SAMPLE_CHUNK, rest) of
    the n samples from the c-th spawn of SeedSequence(seed)."""
    children = np.random.SeedSequence(seed).spawn(-(-n // _SAMPLE_CHUNK))
    return [(child, min(_SAMPLE_CHUNK, n - c * _SAMPLE_CHUNK))
            for c, child in enumerate(children)]


def _draw_chunk(child, m: int, weights: np.ndarray, exps: np.ndarray,
                sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(block_counts, length_rows) of one chunk of m draws from ``child``.

    Block counts come from the multinomial of the weights, then lengths
    from one (E, m) array of exponentials normalised along the edge axis.
    The exponentials are drawn into the C-contiguous (E, >= m) buffer
    ``exps``, and ``sums`` (>= m floats) holds their column sums, so a
    caller may reuse both chunk after chunk; the rows are a view of ``exps``.
    """
    rng = np.random.default_rng(child)
    counts = rng.multinomial(m, weights)
    block = exps.reshape(-1)[:len(exps) * m].reshape(len(exps), m)
    rng.standard_exponential(out=block)
    np.divide(block, np.sum(block, axis=0, out=sums[:m]), out=block)
    return counts, block.T


def sample_chunks(mixture: MeasureMixture, n: int, seed: int):
    """Yield (block_indices, length_rows) chunks of _SAMPLE_CHUNK draws, n in all.

    Each chunk is drawn by ``_draw_chunk`` from its own spawn of
    SeedSequence(seed), so results are reproducible for a fixed chunk
    layout regardless of scheduling.  Block indices are sorted, so each
    block's rows are one contiguous slice; given the counts, the rows are
    i.i.d. uniform on the open simplex.  A negative or non-integer n (a
    bool included) raises InvalidSampleCountError.
    """
    if not _is_integer(n) or n < 0:
        raise InvalidSampleCountError(f"need a nonnegative sample count, got {n!r}")
    n_edges = mixture.blocks[0].graph.num_edges
    weights = np.array([float(w) for w in mixture.weights])
    blocks = np.arange(len(weights))
    for child, m in _chunks(n, seed):
        counts, rows = _draw_chunk(child, m, weights, np.empty((n_edges, m)), np.empty(m))
        yield np.repeat(blocks, counts), rows


def _merge_moments(moments, values: np.ndarray):
    """(count, mean, M2) of the union of ``moments`` and ``values`` by the
    pairwise update of Chan, Golub and LeVeque (1983).  The squares are
    summed by numpy's pairwise sum, not a BLAS dot product, whose order
    depends on the BLAS thread count."""
    n_a, mean_a, m2_a = moments
    n_b = len(values)
    mean_b = float(values.mean())
    dev = values - mean_b
    dev *= dev
    n = n_a + n_b
    delta = mean_b - mean_a
    return (n, mean_a + delta * n_b / n,
            m2_a + float(dev.sum()) + delta * delta * n_a * n_b / n)


def integrate_mc(mixture: MeasureMixture, f, n: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of f over the mixture.

    A Functional runs batched through its kernel, one call per block of
    each chunk; a plain callable is evaluated per sample on MetricGraph
    values.  Either may run on a worker thread: _MC_WORKERS threads each
    draw and score whole chunks of ``sample_chunks``'s stream, at most one
    chunk in flight per buffer, while the calling thread merges the
    (count, mean, M2) of each block segment into running totals in chunk
    order.  The estimate is therefore the same bits for any worker count,
    and memory is O(_MC_WORKERS * _SAMPLE_CHUNK) whatever n is.
    """
    from concurrent.futures import ThreadPoolExecutor

    if not _is_integer(n) or n < 2:
        raise InvalidSampleCountError(f"need at least 2 samples, got {n!r}")
    kernel = f.kernel if isinstance(f, Functional) else (lambda graph, rows: np.array(
        [f(MetricGraph(graph, row)) for row in rows.tolist()], dtype=float))
    n_edges = mixture.blocks[0].graph.num_edges
    # the first use of a lazily imported numpy, here on the calling thread,
    # loads it before the pool starts: its loader is not thread-safe before 3.12
    weights = np.array([float(w) for w in mixture.weights])

    def score(child, m, exps, sums):
        counts, rows = _draw_chunk(child, m, weights, exps, sums)
        return [kernel(block.graph, rows[end - count:end])
                for block, count, end in zip(mixture.blocks, counts, np.cumsum(counts))
                if count]

    width = min(_SAMPLE_CHUNK, n)
    buffers = [(np.empty((n_edges, width)), np.empty(width)) for _ in range(_MC_WORKERS)]
    moments = (0, 0.0, 0.0)
    pending = deque()
    with ThreadPoolExecutor(_MC_WORKERS) as pool:
        for c, (child, m) in enumerate(_chunks(n, seed)):
            if len(pending) == _MC_WORKERS:
                # chunk c reuses the buffers of chunk c - _MC_WORKERS, merged here
                moments = reduce(_merge_moments, pending.popleft().result(), moments)
            pending.append(pool.submit(score, child, m, *buffers[c % _MC_WORKERS]))
        for future in pending:
            moments = reduce(_merge_moments, future.result(), moments)
    _, mean, m2 = moments
    return mean, float(np.sqrt(m2 / (n - 1) / n))


# ---------------------------------------------------------------------------
# lattice measures
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int, lead: tuple = ()) -> np.ndarray:
    """The positive compositions of ``total`` into ``parts`` parts, one per
    row of an int64 array in lexicographic order, each after the fixed
    leading parts ``lead``.

    The array is the transpose of a C-contiguous (columns, rows) block, so
    each column is one contiguous run of memory.  Level j lists, in order,
    the distinct prefixes of j parts with how many children each prefix of
    j - 1 parts has.  From the last level up, each column is expanded once
    from its level by np.repeat over the number of rows each prefix heads,
    and each level is released once its column is written."""
    levels = []
    rest = np.array([total] if total >= parts else [], dtype=np.int64)
    for later in range(parts - 1, 0, -1):
        # a prefix with ``rest`` left takes 1 .. rest - later next, in order
        counts = rest - later
        part = np.arange(1, counts.sum() + 1) - np.repeat(np.cumsum(counts) - counts, counts)
        rest = np.repeat(rest, counts) - part
        levels.append((counts, part))
    block = np.empty((len(lead) + parts, len(rest)), dtype=np.int64)
    block[:len(lead)] = np.array(lead, dtype=np.int64)[:, None]
    block[-1] = rest
    del rest
    heads = None  # rows headed by each prefix of this level: one each on the last
    for row in range(len(block) - 2, len(lead) - 1, -1):
        counts, part = levels.pop()
        block[row] = part if heads is None else np.repeat(part, heads)
        if levels:
            heads = counts if heads is None else np.add.reduceat(heads, np.cumsum(counts) - counts)
    return block.T


def _composition_chunks(total: int, parts: int):
    """The rows of ``_compositions(total, parts)`` in order, as blocks of at
    most _CHUNK_ROWS rows made by fixing leading parts, each written once
    by ``_compositions`` with those parts filled; none if total < parts."""

    def split(total, parts, lead):
        if comb(total - 1, parts - 1) <= _CHUNK_ROWS:
            yield _compositions(total, parts, lead)
            return
        for first in range(1, total - parts + 2):
            yield from split(total - first, parts - 1, lead + (first,))

    if total >= parts:
        yield from split(total, parts, ())


def _lattice_orbits(graph: TrivalentGraph, n_slices: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(points, multiplicities) as int64 arrays: the lexicographically least
    point of each orbit, in lexicographic order, and each orbit's size.

    Each permutation's inverse, itself an element, acts on all candidate
    rows of a chunk at once: the image's column j is the chunk's column
    perm[j], so rows are compared with their images one contiguous column
    at a time (base-N keys would pass 2^63 at rank 6).  A row with a
    lexicographically smaller image is no orbit minimum and leaves the
    candidates.  The permutations fixing a row form its stabiliser, and
    the orbit size is |G| / |Stab|.  Both are per row, so chunks are
    filtered one at a time and concatenated in order.
    """
    perms = edge_action(graph)
    points = [np.zeros((0, graph.num_edges), dtype=np.int64)]
    mults = [np.zeros(0, dtype=np.int64)]
    for block in _composition_chunks(n_slices, graph.num_edges):
        cols = block.T  # one contiguous row per edge
        stabiliser = np.zeros(cols.shape[1], dtype=np.int64)
        for perm in perms:
            smaller = np.zeros(cols.shape[1], dtype=bool)
            equal = np.ones(cols.shape[1], dtype=bool)
            for j, src in enumerate(perm):
                if src != j:
                    smaller |= equal & (cols[src] < cols[j])
                    equal &= cols[src] == cols[j]
            keep = ~smaller
            cols = cols[:, keep]
            stabiliser = stabiliser[keep] + equal[keep]
        points.append(cols.T)
        mults.append(len(perms) // stabiliser)
    return np.concatenate(points), np.concatenate(mults)


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """A block's lattice at resolution N >= 1: an atom at n/N per orbit of
    positive compositions n of N under the edge action, weighted by mass *
    orbit size / C(N - 1, E - 1).  Orbits are built on first access to
    them; the expectation of a Functional needs none."""

    graph: TrivalentGraph
    n_slices: int
    mass: Fraction  # the block mass |Triv|/|Aut|

    def __post_init__(self):
        if not _is_integer(self.n_slices):
            raise ValueError(f"lattice resolution N must be an integer, got {self.n_slices!r}")
        if self.n_slices < 1:
            raise ValueError(f"lattice resolution N must be at least 1, got {self.n_slices}")
        object.__setattr__(self, "n_slices", int(self.n_slices))

    @property
    def count(self) -> int:  # C(N - 1, E - 1) positive compositions
        return comb(self.n_slices - 1, self.graph.num_edges - 1)

    @property
    def total_mass(self):
        return self.mass if self.count else 0

    @cached_property
    def _orbits(self) -> tuple[np.ndarray, np.ndarray]:
        return _lattice_orbits(self.graph, self.n_slices)

    # (m, E) int64 orbit representatives in lexicographic order; their sizes
    points = property(lambda self: self._orbits[0])
    multiplicities = property(lambda self: self._orbits[1])

    def weights(self) -> list[Fraction]:
        return [self.mass * Fraction(mult, self.count)
                for mult in self.multiplicities.tolist()]

    @cached_property
    def atoms(self) -> tuple[tuple[MetricGraph, Fraction], ...]:
        n = self.n_slices
        return tuple((MetricGraph(self.graph, tuple(Fraction(c, n) for c in point)), w)
                     for point, w in zip(self.points.tolist(), self.weights()))

    def expectation(self, f):
        """Normalized integral of f.  A plain callable is evaluated per atom.
        A Functional, with forms M / d invariant under the edge action, gives
        sum_n min_j(M_j . n) / (C(N-1, E-1) * d * N) over all compositions n,
        in integers: the orbit sum, as the minimum is constant on orbits."""
        if self.total_mass == 0:
            raise ValueError("empirical measure has zero mass")
        if not isinstance(f, Functional):
            return sum(w * f(mg) for mg, w in self.atoms) / self.total_mass
        rows, den = _graph_forms(f.forms_for, self.graph)
        _invariant_forms(self.graph, rows, _WorkMeter(self.graph))
        mat = integer_matrix(rows, self.n_slices * self.count)
        # map keeps no block past its call, so one block is held at a time
        minima = map(partial(integer_minimum, mat),
                     _composition_chunks(self.n_slices, self.graph.num_edges))
        total = sum(int(values.sum()) for values in minima)
        return Fraction(total, self.count * den * self.n_slices)


def lattice_sigma(graph: TrivalentGraph, n_slices: int) -> EmpiricalMeasure:
    """The lattice discretization of the block measure at resolution N; its
    total mass is exactly |Triv|/|Aut| at every N >= E, and 0 below."""
    return EmpiricalMeasure(graph, n_slices, SimplexBlock.for_graph(graph).mass)


def omega_counts(k: int, n_norm: int, predicate: Callable) -> tuple[int, int]:
    """(|Omega(N)|, |Omega_A(N)|): nonnegative integer vectors of length
    3k-3 with L1-norm N, and those whose projectivization n/N satisfies the
    predicate.  The zero vector (N = 0) has no projectivization and never
    counts toward Omega_A."""
    if not _is_integer(k) or k < 2:
        raise InvalidRankError(f"rank must be an integer >= 2, got {k!r}")
    if not _is_integer(n_norm):
        raise ValueError(f"lattice norm N must be an integer, got {n_norm!r}")
    if n_norm < 0:
        raise ValueError(f"lattice norm N must be nonnegative, got {n_norm}")
    n_edges = 3 * k - 3
    total = comb(n_norm + n_edges - 1, n_edges - 1)
    if n_norm == 0:
        return total, 0
    # nonnegative compositions of N are positive ones of N + E, less one
    # each: part c is the coordinate (c - 1)/N, built once per value
    coords = [Fraction(c - 1, n_norm) for c in range(n_norm + 2)]
    hits = sum(1 for chunk in _composition_chunks(n_norm + n_edges, n_edges)
               for point in chunk.tolist()
               if predicate(tuple(map(coords.__getitem__, point))))
    return total, hits


# ---------------------------------------------------------------------------
# exact integration of min-of-linear-forms functionals
# ---------------------------------------------------------------------------

# Work allowed to one integrate_exact call, counted as the cell rays created
# plus the simplices integrated.  The largest rank-4 type needs 4535; the
# rank-5 types need up to 2.6e5 simplices each, minutes for the whole rank.
EXACT_WORK_LIMIT = 20_000


def _dot(coeffs, vec):
    return sum(c * x for c, x in zip(coeffs, vec))


class _WorkMeter:
    """Counts the work of one integrate_exact call against EXACT_WORK_LIMIT."""

    def __init__(self, graph: TrivalentGraph):
        self.graph = graph
        self.count = 0

    def add(self, amount: int = 1) -> None:
        self.count += amount
        if self.count > EXACT_WORK_LIMIT:
            raise ExactWorkLimitError(
                f"exact integration of graph {self.graph.canonical_id()} "
                f"stopped at {self.count} rays and simplices, over the work "
                f"limit of {EXACT_WORK_LIMIT}"
            )


def _bit_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rays_tight_on(tight, n_constraints: int) -> list[int]:
    """Per constraint, the bit mask of the rays whose tight set holds it."""
    masks = [0] * n_constraints
    for i, t in enumerate(tight):
        for c in _bit_indices(t):
            masks[c] |= 1 << i
    return masks


def _cell_rays(constraints, n: int, meter: _WorkMeter):
    """Extreme rays of the cone {y >= 0, h.y <= 0 for h in constraints} by
    double description, or None when the cone has measure zero.

    Rays are primitive integer vectors.  Constraint j < n is y_j >= 0 and
    constraint n + k is constraints[k]; each ray comes with the bit mask of
    the constraints tight on it.  Two rays p and q that share at least
    n - 2 tight constraints are adjacent exactly when no third ray's mask
    contains tight[p] & tight[q] (Fukuda and Prodon, 1996); p and q
    themselves always do, hence the count of 2.
    """
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    tight = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    for k, h in enumerate(constraints):
        bit = 1 << (n + k)
        vals = [_dot(h, r) for r in rays]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg and any(h):
            # Full dimension survives a cut that keeps an interior point;
            # without one the cone lies in the hyperplane h.y = 0, unless
            # h is zero and holds everywhere.
            return None
        new_rays, new_tight = [], []
        for p in (i for i, v in enumerate(vals) if v > 0):
            for q in neg:
                common = tight[p] & tight[q]
                if (common.bit_count() < n - 2
                        or sum(t & common == common for t in tight) > 2):
                    continue
                a, b = vals[p], vals[q]
                ray = [a * y - b * x for x, y in zip(rays[p], rays[q])]
                g = gcd(*ray)
                new_rays.append(tuple(v // g for v in ray))
                new_tight.append(common | bit)
        meter.add(len(new_rays))
        keep = [i for i, v in enumerate(vals) if v <= 0]
        rays = [rays[i] for i in keep] + new_rays
        tight = [tight[i] | (bit if vals[i] == 0 else 0) for i in keep] + new_tight
    return rays, tight


def _pulling_simplices(face: int, dim: int, facet_masks):
    """Yield the simplices of a pulling triangulation of a cone face.

    A face is the bit mask of its rays; facet_masks holds, per constraint,
    the mask of the rays tight on it.  The facets of a face are the maximal
    proper subsets face & m.  The face's lowest ray is pulled: it is joined
    to a triangulation of every facet that misses it.
    """
    if face.bit_count() == dim:
        yield face
        return
    apex = face & -face
    subs = {face & m for m in facet_masks}
    subs.discard(face)
    for sub in subs:
        if sub & apex or any(sub != o and sub & o == sub for o in subs):
            continue
        for simplex in _pulling_simplices(sub, dim - 1, facet_masks):
            yield simplex | apex


def _bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - factor * top[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _cuts(rep, forms) -> list[tuple]:
    """The cuts rep - L <= 0 of rep's cell, one per form L other than rep, in order."""
    return [tuple(a - b for a, b in zip(rep, form)) for form in forms if form != rep]


def _cell_integral(rep, forms, n: int, meter: _WorkMeter) -> Fraction:
    """Integral of rep over {x in the simplex : rep(x) <= L(x) for all L in
    forms}, relative to the simplex volume, for integer rows rep and forms.

    A simplicial cone with integer generators v_i and coordinate sums s_i
    meets the simplex in relative volume |det V| / prod s_i, and a linear
    form averages to (1/n) sum L(v_i) / s_i over it.
    """
    constraints = _cuts(rep, forms)
    cell = _cell_rays(constraints, n, meter)
    if cell is None:
        return Fraction(0)
    rays, tight = cell
    facet_masks = _rays_tight_on(tight, n + len(constraints))
    sums = [sum(r) for r in rays]
    values = [_dot(rep, r) for r in rays]
    total = Fraction(0)
    for simplex in _pulling_simplices((1 << len(rays)) - 1, n, facet_masks):
        meter.add()
        idx = list(_bit_indices(simplex))
        scale = prod(sums[i] for i in idx)
        num = sum(values[i] * (scale // sums[i]) for i in idx)
        det = _bareiss_det([rays[i] for i in idx])
        total += Fraction(abs(det) * num, scale * scale)
    return total / n


def _invariant_forms(graph: TrivalentGraph, rows, meter: _WorkMeter):
    """The edge-action orbits that lie wholly among the integer rows of a
    functional's forms.

    The minimum is invariant under the action exactly when no row whose
    orbit leaves the set is ever the strict minimum, i.e. each such row's
    cell among the rows has measure zero (``_cell_rays`` gives None): an
    invariant minimum's essential forms are closed under the action, and
    if every other row is inessential the minimum is that over whole
    orbits.  Otherwise SymmetryViolationError is raised.  A closed set
    builds no cells."""
    present = set(rows)
    # each maps a vector to its image under the inverse of an element, itself an element
    permuters = [itemgetter(*perm) for perm in edge_action(graph)]
    orbits, kept = [], set()
    for row in dict.fromkeys(rows):
        if row in kept:
            continue
        orbit = sorted({permute(row) for permute in permuters})
        if present.issuperset(orbit):
            orbits.append(orbit)
            kept.update(orbit)
        elif _cell_rays(_cuts(row, rows), graph.num_edges, meter) is not None:
            raise SymmetryViolationError("functional is not invariant under the edge action")
    return orbits


def integrate_exact(graph: TrivalentGraph, f) -> Fraction:
    """Normalized block expectation of a min-of-linear-forms functional,
    i.e. the integral against sigma_X divided by the block mass.

    The functional must be invariant under the edge action, as
    ``_invariant_forms`` decides exactly.  Its minimum is then the minimum
    over the whole orbits it keeps, with every cell unchanged up to measure
    zero, so E[min L] is the sum over those orbits O of |O| times the
    integral of L_rep over the cell where L_rep is minimal among them.
    Raises ExactWorkLimitError when the check and the cells need more than
    EXACT_WORK_LIMIT rays and simplices.
    """
    rows, den = (_graph_forms(f.forms_for, graph) if isinstance(f, Functional)
                 else integer_forms(f, graph.num_edges))
    meter = _WorkMeter(graph)
    orbits = _invariant_forms(graph, rows, meter)
    kept = [form for orbit in orbits for form in orbit]
    total = Fraction(0)
    for orbit in orbits:
        total += len(orbit) * _cell_integral(orbit[0], kept, graph.num_edges, meter)
    return total / den


def quotient_integral(graph: TrivalentGraph, f) -> Fraction:
    """The block integral in the quotient-domain normalization, i.e.
    block mass times the normalized expectation."""
    return SimplexBlock.for_graph(graph).mass * integrate_exact(graph, f)


def expectation(mixture: MeasureMixture, f) -> Fraction:
    """Exact expectation of f against the mixture: sum of block weights
    times normalized block expectations."""
    return sum(w * integrate_exact(block.graph, f)
               for block, w in zip(mixture.blocks, mixture.weights))
