import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from container_bench import (
    Csp,
    Hypergraph,
    NotFarError,
    WorkCapExceeded,
    build_hypergraph,
    check_closure,
    check_container_degree,
    check_edges_bound,
    deg_leq_n,
    distance_to_sat,
    enumerate_independent_sets,
    run_generator,
    verify_gcl_sat,
)
from container_bench import core
from container_bench.core import bits_of, mask_of
from container_bench.generators import gen_random_hypergraph

from conftest import edge_lists, oracle_deg_leq_n


# ------------------------------------------------------------------ deg_leq_n

def test_deg_isolated_vertex():
    h = Hypergraph.from_edges(2, 4, [(1, 2)])
    assert deg_leq_n(h, range(4), 2, 0).value == 0


def test_deg_small_container_forces_full_degree():
    h = Hypergraph.from_edges(2, 5, [(0, 1), (0, 2), (0, 3)])
    # |C| <= n: monotonicity forces D = C
    res = deg_leq_n(h, (0, 1, 2), 5, 0)
    assert res.value == 2
    assert res.witness == (0, 1, 2)


def test_deg_budgeted_star():
    # q=2, edges {(0,1),(0,2),(0,3)}, C = {0..5}, n = 3, v = 0 -> 2.
    # Derived by exhaustive enumeration over all D with |D| <= 3, 0 in D.
    h = Hypergraph.from_edges(2, 6, [(0, 1), (0, 2), (0, 3)])
    res = deg_leq_n(h, range(6), 3, 0)
    assert res.value == 2
    assert res.value == oracle_deg_leq_n(h, range(6), 3, 0)
    # lexicographically smallest optimal support {1,2}, padded to size 3
    assert res.witness == (0, 1, 2)


def test_deg_witness_is_maximal_and_consistent():
    h = Hypergraph.from_edges(3, 7, [(0, 1, 2), (0, 2, 3), (0, 4, 5), (1, 2, 6)])
    res = deg_leq_n(h, range(7), 4, 0)
    assert len(res.witness) == 4
    inside = set(res.witness)
    deg_inside = sum(1 for e in edge_lists(h)
                     if 0 in e and set(e) <= inside)
    assert deg_inside == res.value == oracle_deg_leq_n(h, range(7), 4, 0)


def test_deg_requires_membership():
    h = Hypergraph.from_edges(2, 3, [(0, 1)])
    with pytest.raises(ValueError):
        deg_leq_n(h, (0, 1), 2, 2)


@pytest.mark.parametrize("n_bound", [0, -2])
def test_deg_rejects_a_bound_below_one(n_bound):
    """A bound below 1 has no subset holding v: no negative value, no witness
    larger than the bound."""
    h = Hypergraph.from_edges(2, 3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="at least 1"):
        deg_leq_n(h, range(3), n_bound, 0)
    assert deg_leq_n(h, range(3), 1, 0).value == 0


def test_deg_relevant_cap(monkeypatch):
    edges = [(0, i, j) for i in range(1, 6) for j in range(i + 1, 7)]
    h = Hypergraph.from_edges(3, 7, edges)
    monkeypatch.setattr(core, "PARTNER_CAP", 3)
    with pytest.raises(WorkCapExceeded):
        deg_leq_n(h, range(7), 4, 0)


@pytest.mark.parametrize("seed", range(12))
def test_deg_matches_naive_oracle_random(seed):
    q = 2 + seed % 2
    n = 8 + seed % 3
    h = gen_random_hypergraph(n, q, Fraction(1, 3), seed=seed * 7 + 1)
    container = tuple(v for v in range(n) if v % 3 != seed % 3 or v == 0)
    bound = 2 + seed % 4
    for v in container[:4]:
        got = deg_leq_n(h, container, bound, v).value
        assert got == oracle_deg_leq_n(h, container, bound, v)


def _reference_max_cover(pmasks, allowed, budget, base_mask, target=None):
    """The covered + reachable branch and bound that the weighted search
    replaced, kept here as a differential reference."""
    suffix = [0] * (len(allowed) + 1)
    for i in range(len(allowed) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << allowed[i])
    best = 0

    def rec(i, cur, left):
        nonlocal best
        covered = reachable = 0
        for pm in pmasks:
            missing = pm & ~cur
            if missing == 0:
                covered += 1
            elif missing & ~suffix[i] == 0 and missing.bit_count() <= left:
                reachable += 1
        best = max(best, covered)
        if target is not None and best >= target:
            return
        if covered + reachable <= best or left == 0 or i == len(allowed):
            return
        rec(i + 1, cur | (1 << allowed[i]), left - 1)
        if target is not None and best >= target:
            return
        rec(i + 1, cur, left)

    rec(0, base_mask, budget)
    return best


def _reference_deg_leq_n(h, container, n_bound, v):
    """(value, witness) by the reference search plus a greedy reconstruction
    of the lexicographically smallest optimal support."""
    c_mask = mask_of(container)
    budget = min(n_bound, c_mask.bit_count()) - 1
    pmasks = tuple(e & ~(1 << v) for e in h.edges
                   if (e >> v) & 1 and e & ~c_mask == 0)
    partners = bits_of(mask_of(u for pm in pmasks for u in bits_of(pm)))
    value = _reference_max_cover(pmasks, partners, budget, 0)
    support, forced = [], 0
    while _reference_max_cover(pmasks, (), 0, forced) < value:
        lo = support[-1] + 1 if support else 0
        u = next(u for u in partners if u >= lo and _reference_max_cover(
            pmasks, tuple(w for w in partners if w > u), budget - len(support) - 1,
            forced | (1 << u), target=value) >= value)
        support.append(u)
        forced |= 1 << u
    witness = (1 << v) | forced
    pad_from = c_mask & ~witness
    while witness.bit_count() < min(n_bound, c_mask.bit_count()):
        low = pad_from & -pad_from
        witness, pad_from = witness | low, pad_from ^ low
    return value, bits_of(witness)


@pytest.mark.parametrize("block", range(12))
def test_deg_matches_reference_search_and_oracle(block):
    """1,200 seeded (hypergraph, container, n, v) cases, q in {2, 3, 4}:
    value and witness against the reference search, value against the
    brute-force oracle."""
    rnd = random.Random(f"deg_leq_n/{block}")
    for case in range(100):
        q = 2 + case % 3
        n = rnd.randint(q + 1, 11)
        density = Fraction(rnd.choice((1, 2, 3, 4)), 5)
        h = gen_random_hypergraph(n, q, density, seed=block * 100 + case)
        v = rnd.randrange(n)
        container = sorted({v} | {w for w in range(n) if rnd.random() < 0.8})
        bound = rnd.randint(1, n)
        got = deg_leq_n(h, container, bound, v)
        assert (got.value, got.witness) == _reference_deg_leq_n(h, container, bound, v)
        assert got.value == oracle_deg_leq_n(h, container, bound, v)


# -------------------------------------------------------------- run_generator

def test_generator_empty_independent_set(nae_csp):
    h = build_hypergraph(nae_csp)
    trace = run_generator(h, 3, ())
    assert trace.iterations == ()
    assert bits_of(trace.fingerprint_at(0)) == ()
    assert bits_of(trace.container_at(0)) == tuple(range(6))
    # extension region: C_t = F_t = I = empty
    assert bits_of(trace.container_at(5)) == ()


def test_generator_triangle_hand_simulation(triangle_csp):
    """Frozen hand simulation with smallest-index tie-breaking.

    Encoding vertices: (x0,0)=0,(x0,1)=1,(x1,0)=2,(x1,1)=3,(x2,0)=4,(x2,1)=5;
    the instance encodes to two disjoint triangles {0,2,4} and {1,3,5}.
    I = {0,3}: iteration 1 picks 0 (all deg-values tie at 2, smallest index),
    drops its optimal-subset neighbours {2,4} as 1-edges, then iteration 2
    picks 3 and empties the container.
    """
    h = build_hypergraph(triangle_csp)
    trace = run_generator(h, 3, (0, 3))
    assert trace.iteration_count == 2
    it1, it2 = trace.iterations
    assert it1.selected == (0,)
    assert bits_of(it1.fingerprint) == (0,)
    assert bits_of(it1.one_edge_removals) == (2, 4)
    assert bits_of(it1.container) == (1, 3, 5)
    assert [(ell, bits_of(xs)) for ell, xs in it1.exclusions] == [(2, ())]
    assert it2.selected == (3,)
    assert bits_of(it2.fingerprint) == (0, 3)
    assert bits_of(it2.one_edge_removals) == (1, 5)
    assert bits_of(it2.container) == ()
    # nesting + membership invariants
    assert set(bits_of(it2.fingerprint)) >= set(bits_of(it1.fingerprint))
    assert set(bits_of(it2.container)) <= set(bits_of(it1.container))


def test_generator_is_deterministic(triangle_csp):
    h = build_hypergraph(triangle_csp)
    a = run_generator(h, 3, (0, 3))
    b = run_generator(h, 3, (0, 3))
    assert a == b


def test_generator_rejects_bad_inputs(triangle_csp):
    h = build_hypergraph(triangle_csp)
    with pytest.raises(ValueError):
        run_generator(h, 3, (0, 2))  # edge {0,2} inside the set
    with pytest.raises(ValueError):
        run_generator(h, 6, (0, 3))  # n must stay below |V|
    with pytest.raises(ValueError):
        run_generator(h, 0, (0, 3))


def test_generator_degenerate_level_flagged():
    """Frozen from a hand simulation: the optimal subset for vertex 0 contains
    no other independent-set vertex, so level 2 falls back to selecting the
    smallest remaining one (5) and drops the positive-degree level vertices."""
    h = Hypergraph.from_edges(3, 6, [(0, 1, 2)])
    trace = run_generator(h, 4, (0, 5))
    assert trace.iteration_count == 1
    it = trace.iterations[0]
    assert it.degenerate
    assert it.selected == (0, 5)
    assert bits_of(it.container) == (3, 4)
    assert [(ell, bits_of(xs)) for ell, xs in it.exclusions] == [(3, ()), (2, (1, 2))]
    assert it.levels[-1].edges == ()


def test_generator_truncated_final_iteration(nae_csp):
    # |I| = 3 with q = 3: first iteration selects two, the final selects the
    # leftover vertex and truncates the level loop.
    h = build_hypergraph(nae_csp)
    iset = (0, 3)  # labels x0=0, x1=1: independent, variable-distinct
    trace = run_generator(h, 3, iset)
    assert bits_of(trace.iterations[-1].fingerprint) == iset
    three = (0, 3, 4)
    assert not any(set(e) <= set(three) for e in
                   ((0, 2, 4), (1, 3, 5)))
    trace3 = run_generator(h, 3, three)
    last = trace3.iterations[-1]
    assert trace3.iteration_count == 2
    assert last.truncated
    assert len(last.selected) == 1
    assert bits_of(last.one_edge_removals) == ()
    assert bits_of(last.fingerprint) == three


def test_trace_invariants_on_random_runs():
    h = gen_random_hypergraph(9, 3, Fraction(1, 4), seed=11)
    for iset in enumerate_independent_sets(h):
        if len(iset) > 4:
            continue
        trace = run_generator(h, 4, iset)
        prev_f, prev_c = set(), set(range(h.n))
        for it in trace.iterations:
            f, c = set(bits_of(it.fingerprint)), set(bits_of(it.container))
            assert prev_f <= f <= set(iset)
            assert c <= prev_c
            assert set(iset) - f <= c
            assert len(set(it.selected)) == len(it.selected)
            prev_f, prev_c = f, c


# ------------------------------------------------------------------- closure

def test_closure_trivial_and_triangle(triangle_csp):
    h = build_hypergraph(triangle_csp)
    assert check_closure(h, 3, ()).ok
    for iset in enumerate_independent_sets(h, variable_distinct=True):
        assert check_closure(h, 3, iset).ok


def test_closure_random_small_corpus():
    for seed in range(4):
        h = gen_random_hypergraph(8, 2, Fraction(1, 3), seed=100 + seed)
        for iset in enumerate_independent_sets(h):
            if len(iset) > 4:
                continue
            assert check_closure(h, 3, iset).ok


# --------------------------------------------------------------- edges bound

def test_edges_bound_single_edge():
    h = Hypergraph.from_edges(2, 2, [(0, 1)])
    out = check_edges_bound(h)
    assert out.threshold == Fraction(1, 2)
    assert out.heavy_count == 2
    assert out.lower_bound == 1
    assert out.ok


def test_edges_bound_k4(k4):
    h = Hypergraph.from_edges(2, 4, k4.edges())
    out = check_edges_bound(h)
    assert out.threshold == Fraction(6, 4)
    assert out.heavy_count == 4
    assert out.lower_bound == 2
    assert out.ok


def test_edges_bound_requires_edges():
    with pytest.raises(ValueError):
        check_edges_bound(Hypergraph.from_edges(2, 3, []))


def test_edges_bound_random_sample():
    produced = 0
    seed = 0
    while produced < 60:
        ell = 2 + seed % 3
        n = max(ell + 1, 5 + seed % 8)
        h = gen_random_hypergraph(n, ell, Fraction(1, 4), seed=seed)
        seed += 1
        if not h.edges:
            continue
        produced += 1
        assert check_edges_bound(h).ok


# ----------------------------------------------------------- container degree

def test_container_degree_trivial(triangle_csp):
    h = build_hypergraph(triangle_csp)
    trace = run_generator(h, 3, (0, 3))
    out = check_container_degree(trace, 2, 3)
    assert out.ok
    # t = 1 bound: 2kq * C(n-1, q-1) = 8 * 2 = 16 beats the max degree
    assert out.records[0].bound == Fraction(16, 1)
    assert out.records[0].max_degree <= 2


def test_container_degree_edgeless():
    free = Csp.of(3, 2, 2, [])
    h = build_hypergraph(free)
    trace = run_generator(h, 3, (0, 3, 5))
    out = check_container_degree(trace, 2, 3)
    assert out.ok
    assert all(r.max_degree == 0 for r in out.records)


def test_container_degree_validates_vertex_count(triangle_csp):
    h = build_hypergraph(triangle_csp)
    trace = run_generator(h, 3, (0, 3))
    with pytest.raises(ValueError):
        check_container_degree(trace, 3, 3)


# ------------------------------------------------------------------- gcl-sat

def test_gcl_sat_triangle_every_variable_distinct_set(triangle_csp):
    dist = distance_to_sat(triangle_csp)
    h = build_hypergraph(triangle_csp)
    eps = Fraction(1, 3)
    for iset in enumerate_independent_sets(h, variable_distinct=True):
        out = verify_gcl_sat(triangle_csp, eps, iset, distance=dist)
        assert out.ok, iset
        assert out.witness_t <= out.t_max == 96  # floor(8kq/eps)


def test_gcl_sat_witness_in_extension_region(triangle_csp):
    # I = {0, 3}: loop vars stay at 3 for t=1, drop to 0 at t=2 (hand trace)
    out = verify_gcl_sat(triangle_csp, Fraction(1, 3), (0, 3))
    assert out.ok and out.witness_t == 2
    assert [c.vars_in_container for c in out.checks] == [3, 0]
    # I = {0}: the loop ends at t=1 with vars(C_1) = 3 = n failing the bound;
    # the extension C_2 = I gives vars 1 and the witness.
    out1 = verify_gcl_sat(triangle_csp, Fraction(1, 3), (0,))
    assert out1.ok and out1.witness_t == out1.loop_iterations + 1


def test_gcl_sat_requires_farness(nae_csp):
    with pytest.raises(NotFarError):
        verify_gcl_sat(nae_csp, Fraction(1, 10), ())


def test_gcl_sat_rejects_non_variable_distinct(triangle_csp):
    with pytest.raises(ValueError):
        verify_gcl_sat(triangle_csp, Fraction(1, 3), (0, 1))


# ----------------------------------------------------------------------- memo

def _fresh(h: Hypergraph) -> Hypergraph:
    """An equal hypergraph with an empty memo."""
    return Hypergraph(h.q, h.n, h.edges, h.labels)


def test_a_refusal_writes_no_memo_entry(monkeypatch):
    """A cap is not part of a memo key: a refused call stores nothing, so the
    same call under a larger cap computes its entry."""
    edges = [(0, i, j) for i in range(1, 6) for j in range(i + 1, 7)]
    h = Hypergraph.from_edges(3, 7, edges)
    monkeypatch.setattr(core, "PARTNER_CAP", 3)
    with pytest.raises(WorkCapExceeded):
        deg_leq_n(h, range(7), 4, 0)
    with pytest.raises(WorkCapExceeded):
        run_generator(h, 4, (1,))
    assert (h._memo.deg, h._memo.tables, h._memo.traces) == ({}, {}, {})
    monkeypatch.undo()
    assert deg_leq_n(h, range(7), 4, 0).value == oracle_deg_leq_n(h, range(7), 4, 0)


def test_memo_keeps_the_bound_in_its_key():
    h = gen_random_hypergraph(9, 3, Fraction(1, 2), seed=3)
    container = (0, 1, 2, 4, 5, 7, 8)
    for bound in (5, 2, 7, 3, 2, 6):
        for v in (0, 4, 8):
            assert deg_leq_n(h, container, bound, v).value == \
                oracle_deg_leq_n(h, container, bound, v)


def test_memo_leaves_equality_hash_repr_and_pickle_alone(triangle_csp):
    csp = Csp(triangle_csp.n, triangle_csp.k, triangle_csp.q, triangle_csp.constraints)
    h = build_hypergraph(csp)
    assert build_hypergraph(csp) is h
    for iset in enumerate_independent_sets(h, variable_distinct=True):
        assert check_closure(h, 3, iset).ok
    fresh = _fresh(h)
    assert h.__dict__.get("_memo") is not None
    assert h == fresh and hash(h) == hash(fresh) and repr(h) == repr(fresh)
    assert len(pickle.dumps(h)) == len(pickle.dumps(fresh))
    assert "_memo" not in pickle.loads(pickle.dumps(h)).__dict__
    fresh_csp = Csp(csp.n, csp.k, csp.q, csp.constraints)
    assert csp == fresh_csp and hash(csp) == hash(fresh_csp)
    assert len(pickle.dumps(csp)) == len(pickle.dumps(fresh_csp))


@st.composite
def _hypergraph_and_bound(draw):
    q = draw(st.integers(2, 3))
    n = draw(st.integers(q + 1, 8))
    pool = list(itertools.combinations(range(n), q))
    edges = draw(st.lists(st.sampled_from(pool), max_size=10, unique=True))
    return Hypergraph.from_edges(q, n, edges), draw(st.integers(1, n - 1))


@settings(max_examples=60, deadline=None)
@given(_hypergraph_and_bound(), st.data())
def test_memo_warm_results_equal_fresh_results(case, data):
    h, bound = case
    isets = [s for s in enumerate_independent_sets(h) if len(s) <= 4]
    # Warm the memo on other sets and bounds first.
    warm = st.tuples(st.sampled_from(isets), st.integers(1, h.n - 1))
    for iset, other_bound in data.draw(st.lists(warm, max_size=6)):
        run_generator(h, other_bound, iset)
        check_closure(h, other_bound, iset)
    iset = data.draw(st.sampled_from(isets))
    assert run_generator(h, bound, iset) == run_generator(_fresh(h), bound, iset)
    assert check_closure(h, bound, iset) == check_closure(_fresh(h), bound, iset)
