"""Connected trivalent multigraphs: enumeration, automorphisms, canonical forms.

A graph of rank k has V = 2k-2 vertices and E = 3k-3 edges; loops and
parallel edges are allowed.  Edges are stored as sorted vertex pairs; the
dart structure (two darts per edge) is derived from the edge list, with
darts 2i and 2i+1 belonging to edge i.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, permutations
from numbers import Integral

# hashlib's own blake2b; importing hashlib would also load OpenSSL, which
# adds about 3.6 MB of resident memory for nothing used here
from _blake2 import blake2b

from ._lazy import np

DEFAULT_MAX_RANK = 6
_MAX_RANK_ENV = "COVERMEASURE_MAX_RANK"


class InvalidRankError(ValueError):
    pass


def _is_integer(value) -> bool:
    """True for ints and numpy integers; False for bool and the rest."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class InvalidGraphError(ValueError):
    pass


class EnumerationCertificateError(ValueError):
    """The classes found fall short of the mass formula: two classes share
    an invariant key."""


@dataclass(frozen=True)
class TrivalentGraph:
    """Connected multigraph with every vertex of degree 3 (loops count twice).

    ``edges`` is a tuple of sorted pairs (u, v) with u <= v; a loop has
    u == v.  Vertices are 0..V-1.
    """

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            edges = tuple(tuple(map(operator.index, e)) for e in self.edges)
        except TypeError:
            raise InvalidGraphError("vertex labels must be integers") from None
        object.__setattr__(self, "edges", edges)
        if not edges:
            raise InvalidGraphError("empty edge list")
        if any(len(e) != 2 or e[0] > e[1] or e[0] < 0 for e in edges):
            raise InvalidGraphError("edges must be sorted pairs (u, v) with 0 <= u <= v")
        n = self.num_vertices
        deg = [0] * n
        for u, v in edges:
            if u >= n or v >= n:
                raise InvalidGraphError("vertex index out of range")
            deg[u] += 1
            deg[v] += 1
        if any(d != 3 for d in deg):
            raise InvalidGraphError("every vertex must have degree exactly 3")
        if not _is_connected(edges, n):
            raise InvalidGraphError("graph must be connected")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_vertices(self) -> int:
        # sum of degrees is 2E = 3V
        return (2 * len(self.edges)) // 3

    @property
    def rank(self) -> int:
        """Rank k of the free fundamental group; Euler characteristic is 1 - k."""
        return self.num_edges // 3 + 1

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges

    def canonical_id(self) -> str:
        return canonical_form(self).hex()


def _links(edges, n):
    """Per vertex, one (neighbour, edge index) pair for each non-loop edge
    at it, in edge order."""
    links = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        if u != v:
            links[u].append((v, i))
            links[v].append((u, i))
    return links


def _is_connected(edges, n) -> bool:
    links = _links(edges, n)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        for y, _ in links[stack.pop()]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


# ---------------------------------------------------------------------------
# canonical labeling
# ---------------------------------------------------------------------------

def _min_code(edges, n):
    """Lexicographically minimal level code over all vertex labelings, and
    every labelling that attains it, as bytes lam with lam[x] the new label
    of vertex x.

    Entry i lists, in sorted order, the smaller endpoints of all edges whose
    larger endpoint is i (a loop at i contributes i itself).  Each vertex
    keeps its entry, extended as its neighbours are labelled.  A node
    branches on the vertices of least entry, and while tight (prefix equal
    to the best code's) it is cut if that entry exceeds the best's.  A node
    not tight finds a new best below its first child, so after any child it
    is tight with the least entry: it visits the nodes of a search over all
    vertices in order of entry.  The prune is strict, so there is one tie
    per automorphism sigma: x -> lam0[sigma^-1[x]] matches lam0 throughout.
    """
    links = _links(edges, n)
    loop = [(x, x) in edges for x in range(n)]
    ent_of = [()] * n
    free = list(range(n))
    new = [0] * n
    prefix = []
    best = [()]
    ties: list[bytes] = []

    def rec(level, tight):
        if level == n:
            if not tight:
                best[0] = tuple(prefix)
                ties.clear()
            ties.append(bytes(new))
            return
        lv = (level,)
        ents = [ent_of[x] + lv if loop[x] else ent_of[x] for x in free]
        least = min(ents)
        if tight:
            if least > best[0][level]:
                return
            tight = least == best[0][level]
        prefix.append(least)
        for i, ent in enumerate(ents):
            if ent != least:
                continue
            x = free.pop(i)
            new[x] = level
            for y, _ in links[x]:
                ent_of[y] += lv
            rec(level + 1, tight)
            for y, _ in links[x]:
                ent_of[y] = ent_of[y][:-1]
            free.insert(i, x)
            tight = True
        prefix.pop()

    rec(0, False)
    return best[0], ties


def _canonical_ties(ties):
    """The ties i -> lam[lam0^-1[i]] that a search on the canonical graph
    finds (its vertex automorphisms), from the ties lam of any search."""
    unlabel = sorted(range(len(ties[0])), key=ties[0].__getitem__)
    return [bytes(lam[x] for x in unlabel) for lam in ties]


def _edges_from_code(code):
    edges = []
    for i, ent in enumerate(code):
        for j in ent:
            edges.append((j, i))
    return tuple(sorted(edges))


# _min_code of the graphs in canonical labelling, so a type is searched
# once per process.  The ties of a canonical labelling are its vertex
# automorphisms.  Relabelled inputs are not stored.
_codes: dict[TrivalentGraph, tuple[tuple, list[bytes]]] = {}

# Per enumerated rank k >= 3, invariant key -> canonical class: exact once
# the mass certificate proves that the keys separate the rank's classes.
_classes: dict[int, dict[bytes, TrivalentGraph]] = {}


def _code_of(graph: TrivalentGraph):
    found = _codes.get(graph)
    if found is None:
        found = _min_code(graph.edges, graph.num_vertices)
        if _edges_from_code(found[0]) == graph.edges:
            _codes[graph] = found
    return found


def _searched(graph: TrivalentGraph) -> TrivalentGraph:
    code, ties = _code_of(graph)
    canonical = TrivalentGraph(_edges_from_code(code))
    _codes.setdefault(canonical, (code, _canonical_ties(ties)))
    return canonical


def canonical_graph(graph: TrivalentGraph) -> TrivalentGraph:
    """The canonical representative of the isomorphism class of ``graph``:
    by invariant key at an enumerated rank k >= 3, else by search."""
    if graph in _codes:
        return graph
    table = _classes.get(graph.rank)
    if table is None:
        return _searched(graph)
    return table[_invariant_keys([graph.edges], graph.num_vertices)[0]]


def canonical_form(graph: TrivalentGraph) -> bytes:
    """Canonical byte string: isomorphic graphs map to the same value.

    Layout: rank, V, E, then the canonically relabeled edge list as byte
    pairs.  Only graphs with fewer than 256 vertices are supported.
    """
    out = bytearray((graph.rank, graph.num_vertices, graph.num_edges))
    for u, v in canonical_graph(graph).edges:
        out.extend((u, v))
    return bytes(out)


def graph_from_canonical_form(blob: bytes) -> TrivalentGraph:
    if len(blob) < 3:
        raise InvalidGraphError("canonical form too short")
    rank, n_vertices, n_edges = blob[0], blob[1], blob[2]
    if len(blob) != 3 + 2 * n_edges:
        raise InvalidGraphError("canonical form has wrong length")
    edges = tuple(
        (blob[3 + 2 * i], blob[4 + 2 * i]) for i in range(n_edges)
    )
    g = TrivalentGraph(tuple(sorted(tuple(sorted(e)) for e in edges)))
    if g.rank != rank or g.num_vertices != n_vertices:
        raise InvalidGraphError("inconsistent canonical form header")
    return canonical_graph(g)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _children(edges, n):
    """The C(E+1, 2) + E edge lists of rank k+1 that ``_enumerate`` grows
    from a graph of rank k with E edges on n vertices, as sorted pairs.

    The new vertices are a = n and b = n + 1.  Per edge u-v: u-a, a-b, a-b,
    b-v (subdivided twice, joined again), then u-a, v-a, a-b and a loop at
    b; per pair of edges i < j: i subdivided at a, j at b, and a-b.
    """
    a, b = n, n + 1
    for i, (u, v) in enumerate(edges):
        rest = edges[:i] + edges[i + 1:]
        yield tuple(sorted(rest + ((u, a), (a, b), (a, b), (v, b))))
        yield tuple(sorted(rest + ((u, a), (v, a), (a, b), (b, b))))
        for j in range(i, len(rest)):
            x, y = rest[j]
            yield tuple(sorted(rest[:j] + rest[j + 1:]
                               + ((u, a), (v, a), (a, b), (x, b), (y, b))))


# Candidates keyed per numpy batch: 64 is as fast per candidate as 256 and
# keeps a batch's walk counts, (n, 64, n, n) int64, at 256 KB at rank 5.
_KEY_CHUNK = 64


def _invariant_keys(chunk, n) -> list[bytes]:
    """An isomorphism-invariant digest of each edge list in ``chunk``.

    With A the adjacency matrix (a loop counts 2 on the diagonal), vertex v
    gets diag(A^j)[v] and its sorted row of A^j for j = 1..n.  Relabelling
    the vertices permutes these feature rows, so the digest of the rows in
    sorted order is the same for isomorphic graphs.  The sorted rows matter:
    diagonals and row sums alone merge two pairs of classes at rank 7.
    """
    ends = np.array(chunk)  # candidate, edge, endpoint
    m = len(ends)
    cells = ends[..., 0] * n + ends[..., 1] + np.arange(0, m * n * n, n * n)[:, None]
    adj = np.bincount(cells.ravel(), minlength=m * n * n).reshape(m, n, n)
    # A^1..A^n by doubling; int64 walk counts never call BLAS and stay
    # exact up to n = 39
    powers = np.empty((n, m, n, n), dtype=np.int64)  # power, candidate, vertex, column
    powers[0] = adj + adj.transpose(0, 2, 1)  # a loop adds 2 on the diagonal
    done = 1
    while done < n:
        step = min(done, n - done)
        np.matmul(powers[:step], powers[done - 1], out=powers[done:done + step])
        done += step
    # every row of A sums to 3, so no walk count exceeds 3^n and the
    # narrowest type holding 3^n is lossless
    rows = np.empty((m, n, n, n + 1),  # candidate, vertex, power, features
                    dtype=np.min_scalar_type(3 ** n))
    rows[..., 0] = np.diagonal(powers, axis1=2, axis2=3).transpose(1, 2, 0)
    powers.sort(axis=3)
    rows[..., 1:] = powers.transpose(1, 2, 0, 3)
    # one opaque record per vertex, so a sort orders whole feature rows
    rows = rows.reshape(m, n, -1).view(
        np.dtype((np.void, n * (n + 1) * rows.itemsize)))[..., 0]
    rows.sort(axis=1)
    return [blake2b(r.tobytes()).digest() for r in rows]


def mass_formula(k: int) -> Fraction:
    """Sum over the connected trivalent graphs of rank k of 1/|Aut| (dart
    level): [z^(k-1)] log sum_n (6n)! / (6^(2n) (2n)! 2^(3n) (3n)!) z^n
    (Bender and Canfield, 1978)."""
    f = math.factorial
    a = [Fraction(f(6 * n), 6 ** (2 * n) * f(2 * n) * 2 ** (3 * n) * f(3 * n))
         for n in range(k)]
    # log series b of a (a[0] = 1): n b_n = n a_n - sum_{j<n} j b_j a_{n-j}
    b = [Fraction(0)] * k
    for n in range(1, k):
        b[n] = a[n] - sum((j * b[j] * a[n - j] for j in range(1, n)), Fraction(0)) / n
    return b[k - 1]


def max_enumeration_rank() -> int:
    """The rank cap from COVERMEASURE_MAX_RANK, or the default when unset."""
    raw = os.environ.get(_MAX_RANK_ENV, "")
    if not raw:
        return DEFAULT_MAX_RANK
    try:
        return int(raw)
    except ValueError:
        raise InvalidRankError(
            f"{_MAX_RANK_ENV} must be an integer, got {raw!r}") from None


@lru_cache(maxsize=None)
def _enumerate(k: int) -> tuple[TrivalentGraph, ...]:
    """One graph per class, canonicalised once per invariant key.

    The candidates at rank k >= 3 are the ``_children`` of the rank-(k-1)
    classes: per edge pair, subdivide both edges (an edge twice, when the
    pair is one edge) and join the new vertices; per edge, subdivide it and
    hang a new vertex with a loop there.  Every class arises: remove a
    non-loop edge that is no bridge and smooth its ends, and a rank-(k-1)
    graph remains.  If every non-loop edge is a bridge, the graph without
    its loops is a tree; a leaf of it carries a loop, and removing both and
    smoothing leaves one too.  Rank 2 has two candidates, the dumbbell and
    the theta graph, and they are not isomorphic, so it keys none.

    Different keys are never isomorphic, so each class is counted at most
    once; the sum of 1/|Aut| over the classes then equals the mass formula
    exactly when every class was found.
    """
    n = 2 * k - 2
    keyed: dict[bytes, tuple] = {}
    if k == 2:
        reps = [dumbbell().edges, theta_graph().edges]
    else:
        candidates = (child for g in _enumerate(k - 1)
                      for child in _children(g.edges, n - 2))
        for chunk in iter(lambda: list(islice(candidates, _KEY_CHUNK)), []):
            for key, cand in zip(_invariant_keys(chunk, n), chunk):
                keyed.setdefault(key, cand)
        reps = list(keyed.values())
    classes = [_searched(TrivalentGraph(cand)) for cand in reps]
    found = tuple(sorted(classes, key=lambda g: _code_of(g)[0]))
    total = sum(Fraction(1, len(automorphism_group(g))) for g in found)
    want = mass_formula(k)
    if total != want:
        raise EnumerationCertificateError(
            f"rank {k}: the {len(found)} classes found have sum of 1/|Aut| "
            f"{total}, short of the mass formula {want} by {want - total}"
        )
    if keyed:
        _classes[k] = dict(zip(keyed, classes))
    return found


def enumerate_trivalent(k: int) -> tuple[TrivalentGraph, ...]:
    """All connected trivalent multigraphs of rank k, one per homeomorphism
    class, in canonical order.

    Completeness is certified against the mass formula on every call that
    computes the list.  The rank is capped by the COVERMEASURE_MAX_RANK
    environment variable (default 6); the cap holds for k, not for the
    lower ranks that k is grown from.  On 2 vCPUs rank 7 (2,592 types)
    takes 13 to 16 s: keys for its 52,380 candidates about 2.5 s, canonical
    search 11 to 12 s, the rest 1 s.
    """
    if not _is_integer(k) or k < 2:
        raise InvalidRankError(f"rank must be an integer >= 2, got {k!r}")
    cap = max_enumeration_rank()
    if k > cap:
        raise InvalidRankError(
            f"rank {k} exceeds the enumeration cap {cap} "
            f"(set {_MAX_RANK_ENV} to raise it)"
        )
    return _enumerate(int(k))


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def automorphism_group(graph: TrivalentGraph) -> tuple[tuple[int, ...], ...]:
    """The full automorphism group as dart permutations, sorted.

    Darts 2i and 2i+1 belong to edge i = (u, v), at u and at v.  A dart
    permutation is an automorphism when it commutes with the edge pairing
    2i <-> 2i+1 and maps the three darts at each vertex onto the three
    darts at one vertex; reversing a loop is a nontrivial automorphism.

    The vertex automorphisms sigma[x] = lam0^-1[lam[x]] come from the ties
    lam of the canonical search.  The automorphisms fixing every vertex
    form a normal subgroup K: each bundle of parallel edges is permuted
    within itself, and each loop (at most one per vertex) maps either way.
    Each sigma preserves edge multiplicities, so it has a base lift that
    matches the bundle at (u, v) in order onto the bundle at (sigma u,
    sigma v), a non-loop edge in the orientation sigma gives it and a loop
    unreversed; its lifts are the compositions base o k, k in K.
    """
    edges = graph.edges
    bundles: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(edges):
        bundles.setdefault(e, []).append(i)

    def match(perm, src, images, flip):
        for e, f in zip(src, images):
            perm[2 * e], perm[2 * e + 1] = 2 * f + flip, 2 * f + 1 - flip
        return perm

    kernel = [list(range(2 * len(edges)))]
    for (u, v), src in bundles.items():
        kernel = [match(k.copy(), src, images, flip) for k in kernel
                  for images in permutations(src)
                  for flip in ((0, 1) if u == v else (0,))]
    # p(base) is base o k as a tuple of exact size
    precompose = [operator.itemgetter(*k) for k in kernel]
    _, ties = _code_of(graph)
    unlabel = sorted(range(graph.num_vertices), key=ties[0].__getitem__)
    auts = []
    for lam in ties:
        sigma = [unlabel[label] for label in lam]
        base = [0] * (2 * len(edges))
        for (u, v), src in bundles.items():
            su, sv = sigma[u], sigma[v]
            match(base, src, bundles[min(su, sv), max(su, sv)], int(su > sv))
        auts.extend(p(base) for p in precompose)
    return tuple(sorted(auts))


def triv_subgroup(graph: TrivalentGraph) -> tuple[tuple[int, ...], ...]:
    """Automorphisms acting trivially on edge lengths: each maps dart 2i to
    2i or 2i+1 (edge reversals allowed)."""
    return tuple(a for a in automorphism_group(graph)
                 if all(a[d] // 2 == d // 2 for d in range(0, len(a), 2)))


def edge_action(graph: TrivalentGraph) -> tuple[tuple[int, ...], ...]:
    """Image of the automorphism group on edges, as a set of permutations."""
    perms = {tuple(d // 2 for d in a[::2]) for a in automorphism_group(graph)}
    return tuple(sorted(perms))


# ---------------------------------------------------------------------------
# bridges and cycles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bridges(graph: TrivalentGraph) -> frozenset[int]:
    """Indices of edges whose removal disconnects the graph: the edges on no
    simple cycle, so never a loop or one of a parallel pair."""
    on_cycle = {e for cycle in simple_cycles(graph) for e in cycle}
    return frozenset(range(graph.num_edges)) - on_cycle


def simple_cycles(graph: TrivalentGraph) -> tuple[tuple[int, ...], ...]:
    """All simple cycles as sorted tuples of edge indices, in sorted order.

    A loop is a cycle on its own.  Every other cycle is found once by a
    walk over edges from its smallest vertex s through larger vertices
    only, leaving s by a lower edge index than the one it returns by; so a
    parallel pair is a 2-cycle like any other.
    """
    links = _links(graph.edges, graph.num_vertices)
    cycles = [(i,) for i, (u, v) in enumerate(graph.edges) if u == v]
    path: list[int] = []
    on_path = set()

    def walk(s, x):
        for y, e in links[x]:
            if y == s:
                if e > path[0]:
                    cycles.append(tuple(sorted(path + [e])))
            elif y > s and y not in on_path:
                on_path.add(y)
                path.append(e)
                walk(s, y)
                path.pop()
                on_path.remove(y)

    for s in range(graph.num_vertices):
        walk(s, s)
    return tuple(sorted(cycles))


# ---------------------------------------------------------------------------
# named graphs and identifiers
# ---------------------------------------------------------------------------

def dumbbell() -> TrivalentGraph:
    """Two loops joined by a bar: edges (loop at 0, loop at 1, bar)."""
    return TrivalentGraph(((0, 0), (1, 1), (0, 1)))


def theta_graph() -> TrivalentGraph:
    """Two vertices joined by three parallel edges."""
    return TrivalentGraph(((0, 1), (0, 1), (0, 1)))


def complete_graph_k4() -> TrivalentGraph:
    return TrivalentGraph(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


_ALIASES = {
    "dumbbell": dumbbell,
    "theta": theta_graph,
    "k4": complete_graph_k4,
}


def resolve_graph(identifier: str) -> TrivalentGraph:
    """Look a graph up by alias (dumbbell, theta, k4) or canonical hex id."""
    key = identifier.strip().lower()
    if key in _ALIASES:
        return canonical_graph(_ALIASES[key]())
    try:
        blob = bytes.fromhex(key)
    except ValueError:
        raise InvalidGraphError(f"unknown graph identifier {identifier!r}") from None
    return graph_from_canonical_form(blob)

