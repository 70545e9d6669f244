"""Systole and friends, checked against an edge-subset cycle oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covermeasure import graphs as G
from covermeasure import invariants as IV
from covermeasure.measure import MetricGraph

F = Fraction


# --- oracle: cycles as edge subsets -------------------------------------------

def subset_cycles(edges, n):
    """Simple cycles as the edge subsets that are connected with every
    touched vertex of subset-degree two (loops contribute two)."""
    out = []
    m = len(edges)
    for mask in range(1, 1 << m):
        chosen = [i for i in range(m) if mask >> i & 1]
        deg = [0] * n
        for i in chosen:
            u, v = edges[i]
            deg[u] += 1
            deg[v] += 1
        touched = [x for x in range(n) if deg[x]]
        if any(deg[x] != 2 for x in touched):
            continue
        adj = {x: set() for x in touched}
        for i in chosen:
            u, v = edges[i]
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        seen, stack = {touched[0]}, [touched[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == len(touched):
            out.append(tuple(chosen))
    return out


def oracle_systole(edges, lengths, n):
    cycles = subset_cycles(edges, n)
    return min(sum(lengths[i] for i in cyc) for cyc in cycles)


def random_rational_lengths(rng, count):
    nums = [rng.randint(1, 50) for _ in range(count)]
    total = sum(nums)
    return tuple(F(a, total) for a in nums)


# --- systole -------------------------------------------------------------------

def test_systole_examples():
    db, th = G.dumbbell(), G.theta_graph()
    assert IV.systole(MetricGraph(db, (0.5, 0.3, 0.2))) == pytest.approx(0.3)
    assert IV.systole(MetricGraph(th, (0.2, 0.3, 0.5))) == pytest.approx(0.5)
    thirds = (F(1, 3),) * 3
    assert IV.systole(MetricGraph(th, thirds)) == F(2, 3)


@pytest.mark.parametrize("k", [2, 3])
def test_systole_matches_subset_oracle(k):
    rng = random.Random(41)
    for g in G.enumerate_trivalent(k):
        for _ in range(20):
            lengths = random_rational_lengths(rng, g.num_edges)
            mine = IV.systole_from_lengths(g.edges, lengths)
            ref = oracle_systole(g.edges, lengths, g.num_vertices)
            assert mine == ref


@pytest.mark.parametrize("k", [2, 3, 4])
def test_simple_cycles_match_subset_oracle(k):
    # the walk's direction rule reads edge indices, so each type is also
    # checked relabelled with its edge list shuffled
    rng = random.Random(k)
    for g in G.enumerate_trivalent(k):
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        edges = [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges]
        rng.shuffle(edges)
        for graph in (g, G.TrivalentGraph(tuple(edges))):
            assert G.simple_cycles(graph) \
                == tuple(sorted(subset_cycles(graph.edges, graph.num_vertices)))


def test_systole_invariant_under_edge_action():
    rng = random.Random(7)
    for g in G.enumerate_trivalent(3):
        lengths = random_rational_lengths(rng, g.num_edges)
        base = IV.systole_from_lengths(g.edges, lengths)
        for perm in G.edge_action(g):
            permuted = [F(0)] * len(lengths)
            for i, p in enumerate(perm):
                permuted[p] = lengths[i]
            assert IV.systole_from_lengths(g.edges, tuple(permuted)) == base


@settings(max_examples=40, deadline=None)
@given(scale_num=st.integers(min_value=1, max_value=20),
       scale_den=st.integers(min_value=1, max_value=20),
       seed=st.integers(min_value=0, max_value=10_000))
def test_systole_homogeneous_degree_one(scale_num, scale_den, seed):
    rng = random.Random(seed)
    g = G.theta_graph() if seed % 2 else G.dumbbell()
    lengths = tuple(F(rng.randint(1, 30)) for _ in range(g.num_edges))
    scale = F(scale_num, scale_den)
    scaled = tuple(scale * l for l in lengths)
    assert IV.systole_from_lengths(g.edges, scaled) \
        == scale * IV.systole_from_lengths(g.edges, lengths)


def test_dumbbell_systole_is_min_loop():
    rng = random.Random(3)
    db = G.dumbbell()
    for _ in range(30):
        lengths = random_rational_lengths(rng, 3)
        assert IV.systole_from_lengths(db.edges, lengths) \
            == min(lengths[0], lengths[1])


def test_theta_systole_at_least_twice_min_edge():
    rng = random.Random(5)
    th = G.theta_graph()
    for _ in range(30):
        lengths = random_rational_lengths(rng, 3)
        assert IV.systole_from_lengths(th.edges, lengths) >= 2 * min(lengths)


def test_systole_disconnected_rejected():
    with pytest.raises(G.InvalidGraphError):
        IV.systole_from_lengths(((0, 1), (0, 1), (2, 3), (2, 3)),
                                (F(1), F(1), F(1), F(1)))


def test_systole_empty_edge_list_rejected():
    with pytest.raises(G.InvalidGraphError, match="empty edge list"):
        IV.systole_from_lengths([], [])


def test_systole_nonpositive_length_rejected():
    with pytest.raises(G.InvalidGraphError):
        IV.systole_from_lengths(G.theta_graph().edges, (F(1), F(1), F(0)))


# --- indicator and min edge -------------------------------------------------------

def test_separating_edge_indicator():
    assert IV.bridge_indicator(G.dumbbell()) == 1
    assert IV.bridge_indicator(G.theta_graph()) == 0
    assert IV.bridge_indicator(G.complete_graph_k4()) == 0


def test_min_edge_length_examples():
    assert IV.min_edge_length(MetricGraph(G.dumbbell(), (0.5, 0.3, 0.2))) \
        == pytest.approx(0.2)
    assert IV.min_edge_length(MetricGraph(G.theta_graph(), (F(1, 3),) * 3)) \
        == F(1, 3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_min_edge_pigeonhole(seed):
    rng = random.Random(seed)
    g = G.theta_graph()
    lengths = random_rational_lengths(rng, 3)
    assert IV.min_edge_length(MetricGraph(g, lengths)) <= F(1, 3)


# --- pants boundary map -------------------------------------------------------------

def test_pants_boundary_from_dumbbell_examples():
    b = IV.pants_boundary_from_dumbbell(0.4, 0.4, 0.2)
    assert (b.l1, b.l2, b.l3) == (0.4, 0.4, pytest.approx(1.2))
    b = IV.pants_boundary_from_dumbbell(1, 1, 1)
    assert (b.l1, b.l2, b.l3) == (1, 1, 4)


def test_pants_boundary_homogeneous():
    base = IV.pants_boundary_from_dumbbell(F(2, 5), F(1, 5), F(1, 10))
    scaled = IV.pants_boundary_from_dumbbell(F(4, 5), F(2, 5), F(1, 5))
    assert (scaled.l1, scaled.l2, scaled.l3) \
        == (2 * base.l1, 2 * base.l2, 2 * base.l3)


def test_pants_boundary_validation():
    with pytest.raises(IV.InfeasibleGeometryError):
        IV.pants_boundary_from_dumbbell(1, 0, 1)
    with pytest.raises(IV.InfeasibleGeometryError):
        IV.PantsBoundary(1.0, -1.0, 2.0)
