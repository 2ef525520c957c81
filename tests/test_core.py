import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from container_bench import (
    Graph,
    Hypergraph,
    WorkCapExceeded,
    enumerate_independent_sets,
    is_independent,
)
from container_bench import core
from container_bench.core import as_mask, bits_of, comb_exceeds, mask_of

from conftest import degree, edge_lists, induced_subgraph, oracle_independent_sets


def small_graphs():
    return st.integers(2, 7).flatmap(
        lambda n: st.builds(
            lambda picks: Graph.from_edges(
                n, [e for e, keep in zip(itertools.combinations(range(n), 2), picks) if keep]
            ),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                     max_size=n * (n - 1) // 2),
        )
    )


def test_mask_helpers_roundtrip():
    assert bits_of(mask_of([5, 1, 3])) == (1, 3, 5)
    assert as_mask((0, 2), 3) == 0b101
    assert as_mask(0b101, 3) == 0b101
    with pytest.raises(ValueError):
        as_mask((3,), 3)


def test_graph_rejects_self_loops_and_asymmetry():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, 4, [(0, 1, 1)])
    with pytest.raises(ValueError):
        Hypergraph(2, 3, (0b011, 0b011))
    # labels must give distinct variables inside every edge
    with pytest.raises(ValueError):
        Hypergraph.from_edges(2, 2, [(0, 1)], labels=[(0, 0), (0, 1)])


def test_induced_subgraph_identity(triangle_graph):
    sub, mapping = induced_subgraph(triangle_graph, range(3))
    assert sub == triangle_graph
    assert mapping == (0, 1, 2)


def test_induced_subgraph_pair(triangle_graph):
    sub, mapping = induced_subgraph(triangle_graph, (0, 1))
    assert sub.edges() == ((0, 1),)
    assert mapping == (0, 1)


def test_induced_subhypergraph_direct_containment():
    h = Hypergraph.from_edges(3, 4, [(0, 1, 2), (1, 2, 3)])
    sub, mapping = induced_subgraph(h, (1, 2, 3))
    assert len(sub.edges) == 1
    assert mapping == (1, 2, 3)
    assert edge_lists(sub) == [(0, 1, 2)]


def test_is_independent_trivial(triangle_graph):
    assert is_independent(triangle_graph, ())
    assert not is_independent(triangle_graph, (0, 1, 2))
    h = Hypergraph.from_edges(3, 3, [(0, 1, 2)])
    assert is_independent(h, (0, 1))  # partial containment does not block


def test_enumerate_empty_graph_all_subsets():
    g = Graph.from_edges(3, [])
    assert len(list(enumerate_independent_sets(g))) == 8


def test_enumerate_triangle_size_two(triangle_graph):
    assert [s for s in enumerate_independent_sets(triangle_graph) if len(s) == 2] == []


def test_enumerate_variable_distinct_triangle_coloring(triangle_csp):
    # Unsatisfiable instance: no variable-distinct independent set covers all
    # variables.  Expected count derived by exhaustive enumeration over all
    # 2^6 subsets (see conftest oracle).
    from container_bench import build_hypergraph

    h = build_hypergraph(triangle_csp)
    got = [s for s in enumerate_independent_sets(h, variable_distinct=True)
           if len(s) == 3]
    assert got == []
    oracle = oracle_independent_sets(h, size=3, variable_distinct=True)
    assert oracle == []


def test_enumerate_lexicographic_order():
    g = Graph.from_edges(3, [(1, 2)])
    assert list(enumerate_independent_sets(g)) == [
        (), (0,), (0, 1), (0, 2), (1,), (2,)]


def test_enumerate_cap(monkeypatch):
    g = Graph.from_edges(31, [])
    with pytest.raises(WorkCapExceeded):
        list(enumerate_independent_sets(g))
    monkeypatch.setattr(core, "ENUMERATION_CAP", 31)
    assert next(enumerate_independent_sets(g)) == ()


@pytest.mark.parametrize("exhaust", [True, False])
@pytest.mark.parametrize("make_host", [
    lambda: Graph.from_edges(4, [(0, 1), (2, 3)]),
    lambda: Hypergraph.from_edges(3, 5, [(0, 1, 2), (2, 3, 4)]),
], ids=["graph", "hypergraph"])
def test_enumeration_frees_its_host_without_the_cyclic_collector(make_host,
                                                                 exhaust):
    import gc
    import weakref

    host = make_host()
    ref = weakref.ref(host)
    gc.disable()
    try:
        sets = enumerate_independent_sets(host)
        if exhaust:
            assert len(list(sets)) > 2
        else:
            next(sets), next(sets)
        del sets, host
        assert ref() is None
    finally:
        gc.enable()


def test_degree_examples(triangle_graph):
    g = Graph.from_edges(2, [])
    assert degree(g, (0, 1), 0) == 0
    assert degree(triangle_graph, range(3), 0) == 2
    h = Hypergraph.from_edges(3, 4, [(0, 1, 2), (0, 1, 3)])
    assert degree(h, (0, 1, 2), 0) == 1
    with pytest.raises(ValueError):
        degree(triangle_graph, (1, 2), 0)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_induced_subgraph_monotone(g, data):
    big = data.draw(st.sets(st.integers(0, g.n - 1)))
    small = data.draw(st.sets(st.sampled_from(sorted(big)) if big else st.nothing()))\
        if big else set()
    sub_small, map_small = induced_subgraph(g, small)
    sub_big, map_big = induced_subgraph(g, big)
    edges_small = {tuple(sorted((map_small[a], map_small[b])))
                   for a, b in sub_small.edges()}
    edges_big = {tuple(sorted((map_big[a], map_big[b])))
                 for a, b in sub_big.edges()}
    assert edges_small <= edges_big


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_degree_monotone_in_container(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    others = [w for w in range(g.n) if w != v]
    big = set(data.draw(st.sets(st.sampled_from(others)))) | {v} if others else {v}
    small = {v} | set(data.draw(st.sets(st.sampled_from(sorted(big - {v})))
                                if big - {v} else st.just(set())))
    assert degree(g, small, v) <= degree(g, big, v)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_enumeration_matches_subset_filter(g):
    got = sorted(enumerate_independent_sets(g))
    expected = sorted(
        sub for sub in (tuple(s) for size in range(g.n + 1)
                        for s in itertools.combinations(range(g.n), size))
        if is_independent(g, sub)
    )
    assert got == expected


def test_enumeration_matches_subset_filter_at_cap_scale():
    # oracle equivalence on 14-vertex hosts (2^14 subsets per instance)
    from container_bench import gen_er_graph, gen_random_hypergraph

    hosts = [gen_er_graph(14, 0.5, seed=1),
             gen_random_hypergraph(14, 3, 0.15, seed=2)]
    for host in hosts:
        got = sorted(enumerate_independent_sets(host))
        expected = sorted(
            sub for size in range(host.n + 1)
            for sub in itertools.combinations(range(host.n), size)
            if is_independent(host, sub)
        )
        assert got == expected


def _enumeration_hosts():
    """(host, variable_distinct) pairs: seeded graphs, unlabelled 3-uniform
    hypergraphs and CSP encodings (labelled), the last with and without
    variable_distinct; at most 8 vertices each."""
    from fractions import Fraction

    from container_bench import build_hypergraph, gen_er_graph, gen_random_csp
    from container_bench import gen_random_hypergraph

    for seed in range(400):
        density = Fraction(1 + seed % 7, 8)
        yield gen_er_graph(seed % 9, density, seed=seed), False
        yield gen_random_hypergraph(3 + seed % 6, 3, density / 2, seed=seed), False
        n, k = (2, 3) if seed % 4 == 0 else (2 + seed % 3, 2)  # n * k <= 8
        csp = gen_random_csp(n, k, 2 + seed % 2 * (n > 2), density, Fraction(1, 2),
                             seed=seed)
        yield build_hypergraph(csp), False
        yield build_hypergraph(csp), True


def test_enumeration_order_matches_the_oracle_exactly():
    hosts = 0
    for host, variable_distinct in _enumeration_hosts():
        got = list(enumerate_independent_sets(host, variable_distinct=variable_distinct))
        assert got == sorted(oracle_independent_sets(
            host, variable_distinct=variable_distinct)), (host, variable_distinct)
        hosts += 1
    assert hosts >= 1000


def test_comb_exceeds_agrees_with_math_comb():
    for n in range(0, 40):
        for k in range(0, n + 1):
            exact = math.comb(n, k)
            for cap in {0, 1, exact - 1, exact, exact + 1, exact // 2, 10**6}:
                assert comb_exceeds(n, k, cap) == (exact > cap), (n, k, cap)
