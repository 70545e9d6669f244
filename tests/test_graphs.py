"""Graph enumeration, automorphisms, and canonical forms.

The oracles here are deliberately naive: enumeration is checked against a
generate-all-dart-matchings generator deduplicated by brute-force
isomorphism over vertex permutations, and automorphism groups against an
exhaustive search over vertex bijections with naive dart lifts.
"""

import hashlib
import os
import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covermeasure import graphs as G


# --- oracles ---------------------------------------------------------------

def brute_canonical(edges, n):
    return min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
        for p in permutations(range(n))
    )


def level_code(edges, lam, n):
    """The level code of the labelling x -> lam[x]: entry i lists, sorted,
    the smaller new endpoint of every edge whose larger one is i."""
    ends = [sorted((lam[u], lam[v])) for u, v in edges]
    return tuple(tuple(sorted(a for a, b in ends if b == i)) for i in range(n))


def naive_classes(n):
    """All connected cubic multigraphs on n vertices from raw dart matchings,
    deduplicated by exhaustive isomorphism search."""
    darts = [(v, i) for v in range(n) for i in range(3)]
    classes = set()

    def match(rest, acc):
        if not rest:
            edges = tuple(sorted(tuple(sorted((a[0], b[0]))) for a, b in acc))
            if _connected(edges, n):
                classes.add(brute_canonical(edges, n))
            return
        a = rest[0]
        for j in range(1, len(rest)):
            match(rest[1:j] + rest[j + 1:], acc + [(a, rest[j])])

    def _connected(edges, nv):
        adj = {i: set() for i in range(nv)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == nv

    match(darts, [])
    return classes


def dart_views(graph):
    """(pairing, vertex of each dart): darts 2i and 2i+1 belong to edge
    i = (u, v), at u and at v, so the pairing is d -> d ^ 1."""
    pairing = tuple(d ^ 1 for d in range(2 * graph.num_edges))
    return pairing, tuple(x for edge in graph.edges for x in edge)


def naive_automorphisms(graph):
    """All dart permutations satisfying the automorphism conditions, found
    by trying every vertex bijection and every per-edge image/orientation."""
    edges = graph.edges
    n_edges = len(edges)
    pairing, vod = dart_views(graph)
    results = set()
    for sigma in permutations(range(graph.num_vertices)):
        # possible image edges for each edge under sigma
        options = []
        feasible = True
        for (u, v) in edges:
            tgt = (min(sigma[u], sigma[v]), max(sigma[u], sigma[v]))
            cand = [j for j, e in enumerate(edges) if e == tgt]
            if not cand:
                feasible = False
                break
            options.append(cand)
        if not feasible:
            continue
        for images in product(*options):
            if len(set(images)) != n_edges:
                continue
            for orientations in product((0, 1), repeat=n_edges):
                perm = [0] * (2 * n_edges)
                for i, (j, o) in enumerate(zip(images, orientations)):
                    perm[2 * i] = 2 * j + o
                    perm[2 * i + 1] = 2 * j + 1 - o
                if any(perm[pairing[d]] != pairing[perm[d]]
                       for d in range(2 * n_edges)):
                    continue
                if any(sigma[vod[d]] != vod[perm[d]]
                       for d in range(2 * n_edges)):
                    continue
                results.add(tuple(perm))
    return results


def compose(a, b):
    """The dart permutation a after b."""
    return tuple(a[d] for d in b)


def identity_automorphism(graph):
    return tuple(range(2 * graph.num_edges))


# --- enumeration against the naive generator --------------------------------

def test_enumeration_matches_naive_oracle_rank2():
    mine = {brute_canonical(g.edges, g.num_vertices)
            for g in G.enumerate_trivalent(2)}
    assert mine == naive_classes(2)
    assert len(mine) == 2


def test_enumeration_matches_naive_oracle_rank3():
    mine = {brute_canonical(g.edges, g.num_vertices)
            for g in G.enumerate_trivalent(3)}
    oracle = naive_classes(4)
    assert mine == oracle
    assert len(oracle) == 5


def _candidate_edge_lists(n):
    """Connected cubic multigraphs on n vertices, in first-seen labelings.

    The active vertex is always the lowest one with remaining degree; while
    it stays active its targets are chosen in non-decreasing order, and a
    previously untouched target must be the lowest untouched index.  Every
    isomorphism class shows up (possibly several times), one edge list at a
    time; classes are separated afterwards.
    """
    rem = [3] * n
    edges: list[tuple[int, int]] = []

    def rec(last_active, last_floor):
        v = next((i for i in range(n) if rem[i] > 0), None)
        if v is None:
            yield tuple(edges)
            return
        if rem[v] == 3 and v > 0:
            return  # the component built so far is closed: disconnected
        floor = last_floor if v == last_active else v
        first_fresh = next((u for u in range(v + 1, n) if rem[u] == 3), None)
        for u in range(floor, n):
            if u == v:
                if rem[v] >= 2:
                    rem[v] -= 2
                    edges.append((v, v))
                    yield from rec(v, v)
                    edges.pop()
                    rem[v] += 2
                continue
            if rem[u] == 0:
                continue
            if rem[u] == 3 and u != first_fresh:
                continue
            rem[v] -= 1
            rem[u] -= 1
            edges.append((v, u))
            yield from rec(v, u)
            edges.pop()
            rem[v] += 1
            rem[u] += 1

    return rec(0, 0)


def exhaustive_enumeration(k):
    """Every candidate canonicalised, one class per minimal code, in code
    order: no invariant keys and no certificate."""
    n = 2 * k - 2
    seen = {}
    for cand in _candidate_edge_lists(n):
        code, _ = G._min_code(cand, n)
        if code not in seen:
            seen[code] = G.TrivalentGraph(G._edges_from_code(code))
    return tuple(seen[c] for c in sorted(seen))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_enumeration_matches_exhaustive_canonicalisation(k):
    found = G.enumerate_trivalent(k)
    oracle = exhaustive_enumeration(k)
    assert [g.canonical_id() for g in found] == [g.canonical_id() for g in oracle]
    assert [g.edges for g in found] == [g.edges for g in oracle]


# sha256 of the rank-6 canonical ids, one per line in canonical order, from
# the exhaustive canonicalisation of all 19,215 candidates
RANK6_IDS_SHA256 = "475ca0d38a6dd477e38d71950d1e4730081b9dcedb9951e846000def7ece6520"


def test_rank6_enumeration_pinned():
    found = G.enumerate_trivalent(6)
    assert len(found) == 388
    ids = "\n".join(g.canonical_id() for g in found).encode()
    assert hashlib.sha256(ids).hexdigest() == RANK6_IDS_SHA256
    assert sum(Fraction(1, len(G.automorphism_group(g))) for g in found) \
        == Fraction(82825, 3072)


def test_mass_formula_values():
    assert [G.mass_formula(k) for k in range(2, 8)] == [
        Fraction(5, 24), Fraction(5, 16), Fraction(1105, 1152),
        Fraction(565, 128), Fraction(82825, 3072), Fraction(19675, 96)]


def test_certificate_rejects_merged_classes(monkeypatch):
    # one key for every candidate keeps a single class of the five; the
    # uncached function leaves the enumerations cached for later tests.
    # Rank 3 grows from rank 2, so rank 2 is enumerated before the patch.
    G.enumerate_trivalent(2)
    monkeypatch.setattr(G, "_invariant_keys", lambda chunk, n: [b""] * len(chunk))
    with pytest.raises(G.EnumerationCertificateError,
                       match=r"rank 3: the 1 classes .* short of the mass "
                             r"formula 5/16 by"):
        G._enumerate.__wrapped__(3)


def test_canonical_form_computed_once_per_graph(monkeypatch):
    found = G.enumerate_trivalent(4)
    # the codes enumeration seeds are the graphs' own minimal codes
    assert all(G._codes[g][0] == G._min_code(g.edges, g.num_vertices)[0]
               for g in found)
    calls = []
    monkeypatch.setattr(G, "_min_code", lambda *a: calls.append(a) or None)
    assert [G.resolve_graph(g.canonical_id()) for g in found] == list(found)
    assert calls == []


def test_canonical_form_cache_keeps_canonical_labellings_only():
    relabelled = G.TrivalentGraph(((0, 1), (0, 0), (1, 1)))
    assert G.canonical_form(relabelled) == G.canonical_form(G.dumbbell())
    assert relabelled not in G._codes
    assert G.canonical_graph(relabelled) in G._codes


def test_rank2_types_are_dumbbell_and_theta():
    ids = {g.canonical_id() for g in G.enumerate_trivalent(2)}
    assert ids == {G.dumbbell().canonical_id(), G.theta_graph().canonical_id()}


def test_enumeration_deterministic_order():
    assert [g.edges for g in G.enumerate_trivalent(3)] \
        == [g.edges for g in G.enumerate_trivalent(3)]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_enumerated_graphs_are_valid(k):
    found = G.enumerate_trivalent(k)
    assert len({G.canonical_form(g) for g in found}) == len(found)
    for g in found:
        assert g.rank == k
        assert g.num_vertices == 2 * k - 2
        assert g.num_edges == 3 * k - 3
        assert g.euler_characteristic == 1 - k
        degrees = [0] * g.num_vertices
        for u, v in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        assert all(d == 3 for d in degrees)


def test_invalid_rank_rejected():
    with pytest.raises(G.InvalidRankError):
        G.enumerate_trivalent(1)
    with pytest.raises(G.InvalidRankError):
        G.enumerate_trivalent(0)


def test_numpy_integer_rank_accepted():
    assert G.enumerate_trivalent(np.int64(3)) is G.enumerate_trivalent(3)
    with pytest.raises(G.InvalidRankError):
        G.enumerate_trivalent(True)


def test_rank_cap_env(monkeypatch):
    monkeypatch.setenv("COVERMEASURE_MAX_RANK", "2")
    with pytest.raises(G.InvalidRankError):
        G.enumerate_trivalent(3)
    monkeypatch.delenv("COVERMEASURE_MAX_RANK")
    assert len(G.enumerate_trivalent(3)) == 5


def test_rank_cap_env_rejects_non_integer(monkeypatch):
    monkeypatch.setenv("COVERMEASURE_MAX_RANK", "abc")
    with pytest.raises(G.InvalidRankError, match="COVERMEASURE_MAX_RANK.*'abc'"):
        G.enumerate_trivalent(2)



@pytest.mark.parametrize("k, total", [(2, 18), (3, 135), (4, 918), (5, 6390)])
def test_children_of_each_class(k, total):
    count = 0
    for g in G.enumerate_trivalent(k):
        e = g.num_edges
        children = list(G._children(g.edges, g.num_vertices))
        assert len(children) == (e + 1) * e // 2 + e
        # the constructor checks sorted pairs, degrees and connectivity
        assert all(G.TrivalentGraph(c).rank == k + 1 for c in children)
        assert all(list(c) == sorted(c) for c in children)
        count += len(children)
    assert count == total


def test_rank_cap_applies_to_requested_rank_only(monkeypatch):
    monkeypatch.setenv("COVERMEASURE_MAX_RANK", "4")
    assert len(G.enumerate_trivalent(4)) == 17
    with pytest.raises(G.InvalidRankError):
        G.enumerate_trivalent(5)

# --- automorphism groups -----------------------------------------------------

def test_dumbbell_symmetries():
    db = G.dumbbell()
    assert len(G.automorphism_group(db)) == 8
    assert len(G.triv_subgroup(db)) == 4
    action = G.edge_action(db)
    assert len(action) == 2
    assert (0, 1, 2) in action      # identity on (loop, loop, bar)
    assert (1, 0, 2) in action      # swap the loops, fix the bar


def test_theta_symmetries():
    th = G.theta_graph()
    assert len(G.automorphism_group(th)) == 12
    assert len(G.triv_subgroup(th)) == 2
    assert set(G.edge_action(th)) == set(permutations(range(3)))


def test_k4_symmetries_against_naive_search():
    k4 = G.complete_graph_k4()
    mine = set(G.automorphism_group(k4))
    assert mine == naive_automorphisms(k4)
    assert len(mine) == 24
    assert len(G.triv_subgroup(k4)) == 1
    assert len(G.edge_action(k4)) == 24


def relabelled(graph, seed):
    perm = list(range(graph.num_vertices))
    random.Random(seed).shuffle(perm)
    return G.TrivalentGraph(tuple(sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in graph.edges)))


@pytest.mark.parametrize("graph", [G.dumbbell(), G.theta_graph()])
def test_small_groups_against_naive_search(graph):
    mine = set(G.automorphism_group(graph))
    assert mine == naive_automorphisms(graph)


# enumerated types use their stored automorphisms; a relabelling that is not
# canonical runs a fresh search
@pytest.mark.parametrize("k, relabel", [(3, False), (3, True), (4, True)])
def test_enumerated_groups_against_naive_search(k, relabel):
    for i, g in enumerate(G.enumerate_trivalent(k)):
        graph = relabelled(g, seed=i) if relabel else g
        mine = G.automorphism_group(graph)
        assert set(mine) == naive_automorphisms(graph)
        assert len(set(mine)) == len(mine)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_triv_subgroup_and_edge_action_against_naive_search(k):
    for g in G.enumerate_trivalent(k):
        naive = naive_automorphisms(g)
        edge_images = {p: tuple(p[2 * i] // 2 for i in range(g.num_edges))
                       for p in naive}
        identity = tuple(range(g.num_edges))
        assert G.triv_subgroup(g) == tuple(sorted(
            p for p, image in edge_images.items() if image == identity))
        assert G.edge_action(g) == tuple(sorted(set(edge_images.values())))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_min_code_ignores_edge_order(k):
    # candidate edge lists reach the search unsorted
    rng = random.Random(k)
    for i, g in enumerate(G.enumerate_trivalent(k)):
        edges = list(relabelled(g, seed=i).edges)
        rng.shuffle(edges)
        code, ties = G._min_code(edges, g.num_vertices)
        want_code, want_ties = G._min_code(sorted(edges), g.num_vertices)
        assert code == want_code
        assert set(ties) == set(want_ties)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_min_code_against_every_labelling(k):
    # the search's prune rules against the definition: the minimum of the
    # level code over all n! labellings, and every labelling attaining it
    rng = random.Random(k)
    for i, g in enumerate(G.enumerate_trivalent(k)):
        shuffled = list(relabelled(g, seed=i).edges)
        rng.shuffle(shuffled)
        for edges in (g.edges, shuffled):
            n = g.num_vertices
            codes = {bytes(lam): level_code(edges, lam, n)
                     for lam in permutations(range(n))}
            want = min(codes.values())
            code, ties = G._min_code(edges, n)
            assert code == want
            assert len(ties) == len(set(ties))
            assert set(ties) == {lam for lam, c in codes.items() if c == want}


def test_stored_ties_are_the_canonical_search_ties():
    for g in G.enumerate_trivalent(4):
        assert set(G._codes[g][1]) == set(G._min_code(g.edges, g.num_vertices)[1])


def test_groups_of_enumerated_graphs_run_no_search(monkeypatch):
    found = [g for k in (2, 3, 4) for g in G.enumerate_trivalent(k)]
    groups = [G.automorphism_group(g) for g in found]
    calls = []
    monkeypatch.setattr(G, "_min_code", lambda *a: calls.append(a) or None)
    G.automorphism_group.cache_clear()
    assert [G.automorphism_group(g) for g in found] == groups
    assert calls == []


@pytest.mark.parametrize("k", [2, 3, 4])
def test_group_structure(k):
    for g in G.enumerate_trivalent(k):
        auts = G.automorphism_group(g)
        assert identity_automorphism(g) in auts
        n_aut, n_triv = len(auts), len(G.triv_subgroup(g))
        assert n_aut % n_triv == 0
        assert len(G.edge_action(g)) * n_triv == n_aut


@pytest.mark.parametrize("k", [2, 3])
def test_group_closure(k):
    for g in G.enumerate_trivalent(k):
        auts = set(G.automorphism_group(g))
        for a in auts:
            for b in auts:
                assert compose(a, b) in auts


def test_automorphisms_commute_with_pairing():
    for g in G.enumerate_trivalent(3):
        pairing, vod = dart_views(g)
        for perm in G.automorphism_group(g):
            assert all(perm[pairing[d]] == pairing[perm[d]]
                       for d in range(len(perm)))
            image = {}
            for d in range(len(perm)):
                image.setdefault(vod[d], set()).add(vod[perm[d]])
            assert all(len(s) == 1 for s in image.values())


# --- bridges -----------------------------------------------------------------

def naive_bridges(edges, n):
    out = set()
    for i, (u, v) in enumerate(edges):
        if u == v:
            continue
        rest = [e for j, e in enumerate(edges) if j != i]
        adj = {x: set() for x in range(n)}
        for a, b in rest:
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != n:
            out.add(i)
    return frozenset(out)


def test_bridges_examples():
    db = G.dumbbell()
    assert G.bridges(db) == frozenset({2})  # the bar
    assert G.bridges(G.theta_graph()) == frozenset()
    assert G.bridges(G.complete_graph_k4()) == frozenset()


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_bridges_against_naive_check(k):
    for g in G.enumerate_trivalent(k):
        assert G.bridges(g) == naive_bridges(g.edges, g.num_vertices)


def test_bridges_cached_per_graph(monkeypatch):
    calls = []
    cycles = G.simple_cycles
    monkeypatch.setattr(G, "simple_cycles", lambda g: calls.append(g) or cycles(g))
    G.bridges.cache_clear()
    g = G.complete_graph_k4()
    first = G.bridges(g)
    assert calls == [g]
    assert G.bridges(g) is first
    assert calls == [g]


# --- canonical forms ----------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_canonical_form_is_relabeling_invariant(data):
    pool = list(G.enumerate_trivalent(3)) + list(G.enumerate_trivalent(4))
    g = data.draw(st.sampled_from(pool))
    perm = data.draw(st.permutations(range(g.num_vertices)))
    relabeled = tuple(sorted(tuple(sorted((perm[u], perm[v])))
                             for u, v in g.edges))
    assert G.canonical_form(G.TrivalentGraph(relabeled)) == G.canonical_form(g)


def test_canonical_forms_distinct_across_classes():
    forms = set()
    for k in (2, 3, 4):
        for g in G.enumerate_trivalent(k):
            forms.add(G.canonical_form(g))
    assert len(forms) == 2 + 5 + 17


def test_canonical_form_stable_value():
    # frozen on-disk identifier; a change here breaks stored references
    assert G.dumbbell().canonical_id() == "020203000000010101"
    assert G.theta_graph().canonical_id() == "020203000100010001"


def test_dumbbell_theta_not_isomorphic():
    assert G.canonical_form(G.dumbbell()) != G.canonical_form(G.theta_graph())


def test_resolve_graph_roundtrip():
    for g in G.enumerate_trivalent(3):
        again = G.resolve_graph(g.canonical_id())
        assert G.canonical_form(again) == G.canonical_form(g)
    assert G.resolve_graph("theta").canonical_id() \
        == G.theta_graph().canonical_id()
    with pytest.raises(G.InvalidGraphError):
        G.resolve_graph("zz-not-a-graph")


def test_text_record_format():
    line = G.text_record(G.dumbbell())
    assert line.startswith("rank=2; vertices=2; edges: 0:0-0 1:1-1 2:0-1;")
    assert "canonical=" in line


# --- cycles -------------------------------------------------------------------

def test_simple_cycle_counts():
    assert len(G.simple_cycles(G.dumbbell())) == 2     # the two loops
    assert len(G.simple_cycles(G.theta_graph())) == 3  # three parallel pairs
    assert len(G.simple_cycles(G.complete_graph_k4())) == 7


def test_dart_structure():
    g = G.theta_graph()
    darts = range(2 * g.num_edges)
    pairing, vod = dart_views(g)
    assert len(pairing) == len(vod) == len(darts)
    assert all(pairing[pairing[d]] == d and pairing[d] != d for d in darts)
    groups = [[d for d in darts if vod[d] == v] for v in range(g.num_vertices)]
    assert all(len(group) == 3 for group in groups)


def test_invalid_graphs_rejected():
    with pytest.raises(G.InvalidGraphError):
        G.TrivalentGraph(((0, 1), (0, 1)))  # degree 2
    with pytest.raises(G.InvalidGraphError):
        # two disjoint theta graphs: right degrees, not connected
        G.TrivalentGraph(((0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)))


# an edge count that 3 does not divide never reaches a check of its own:
# some endpoint is past n = 2E // 3 or some degree is not 3
@pytest.mark.parametrize("edges, message", [
    (((0, 1), (0, 1)), "out of range"),
    (((0, 0), (0, 1), (1, 1), (0, 1)), "degree"),
    (((0, 0), (0, 1), (1, 2), (1, 2), (2, 2)), "degree"),
], ids=["E=2", "E=4", "E=5"])
def test_edge_count_not_divisible_by_three_rejected(edges, message):
    with pytest.raises(G.InvalidGraphError, match=message):
        G.TrivalentGraph(edges)
