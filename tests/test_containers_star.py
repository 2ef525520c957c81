import itertools
import math
import pickle
import random
import weakref
from fractions import Fraction
from functools import partial

import pytest

from container_bench import (
    Graph,
    NotFarError,
    StarContainerTrace,
    build_hypergraph,
    check_shrinking,
    check_star_closure,
    distance_to_rho_is,
    enumerate_independent_sets,
    gen_er_graph,
    run_generator,
    run_star_generator,
    verify_gcl_star,
)
from container_bench.containers_star import (
    RhoDistance,
    ShrinkingOutcome,
    StarBounds,
    _bullet_threshold,
)
from container_bench import core
from container_bench.core import WorkCapExceeded, as_mask, bits_of, mask_of
from container_bench.rationals import ceil_frac, le_with_ln, sign_with_ln
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    is_star,
    oracle_is_independent,
    oracle_min_edges_subset,
    stepped_floor_times_ln,
    subsets,
)


# ------------------------------------------------------------------- is_star

def test_is_star_trivial_cases(triangle_graph):
    g = Graph.from_edges(4, [])
    ok, why = is_star(g, (0, 2), (1, 3))
    assert ok and why is None
    ok, why = is_star(triangle_graph, (0,), ())
    assert ok
    ok, why = is_star(Graph.from_edges(2, [(0, 1)]), (0,), (1,))
    assert not ok and "adjacent" in why


def test_is_star_overlap_is_diagnosed_not_raised():
    g = Graph.from_edges(3, [])
    ok, why = is_star(g, (0, 1), (1, 2))
    assert not ok and "overlap" in why


def test_is_star_requires_independent_core(triangle_graph):
    ok, why = is_star(triangle_graph, (0, 1), ())
    assert not ok and "independent" in why


# ------------------------------------------------------------ star generator

def test_star_generator_hand_simulation():
    """Frozen hand simulation: G on {0,1,2,3} with the single edge (0,1),
    I = {2,3}.  Tie on container degree breaks to u=2, then v=3; vertices 0,1
    beat degree 0 and leave the inner container; the outer keeps everything."""
    g = Graph.from_edges(4, [(0, 1)])
    trace = run_star_generator(g, (2, 3))
    assert trace.iteration_count == 1
    it = trace.iterations[0]
    assert (it.u, it.v) == (2, 3)
    assert bits_of(it.fingerprint) == (2, 3)
    assert bits_of(it.inner) == (2, 3)
    assert bits_of(it.outer) == (0, 1, 2, 3)


def test_star_generator_empty_set(k4):
    trace = run_star_generator(k4, ())
    assert trace.iterations == ()
    assert bits_of(trace.inner_at(3)) == ()
    assert bits_of(trace.outer_at(3)) == (0, 1, 2, 3)


def test_star_generator_rejects_dependent_set(k4):
    with pytest.raises(ValueError):
        run_star_generator(k4, (0, 1))


def test_star_generator_odd_core_truncates():
    g = Graph.from_edges(5, [(0, 1), (1, 2)])
    trace = run_star_generator(g, (0, 2, 4))
    last = trace.iterations[-1]
    assert last.v is None
    assert bits_of(trace.fingerprint_at(trace.iteration_count)) == (0, 2, 4)


def test_star_trace_invariants_exhaustive_small():
    for seed in range(6):
        g = gen_er_graph(7, Fraction(1, 2), seed=seed)
        no_neighbour_masks = {}
        for iset in enumerate_independent_sets(g):
            trace = run_star_generator(g, iset)
            i_mask = mask_of(iset)
            blocked = 0
            for v in iset:
                blocked |= g.adj[v]
            prev_f, prev_c, prev_d = set(), set(range(7)), set(range(7))
            for it in trace.iterations:
                f, c, d = (set(bits_of(m)) for m in (it.fingerprint, it.inner, it.outer))
                assert prev_f <= f <= set(iset) <= c <= prev_c
                assert c <= d <= prev_d
                # no-neighbour-in-I vertices survive in D forever
                for w in range(7):
                    if not (blocked >> w) & 1:
                        assert w in d
                prev_f, prev_c, prev_d = f, c, d


def test_star_containment_of_every_star():
    # J is inside D_t at every t, for every star of every small graph
    for seed in range(3):
        g = gen_er_graph(6, Fraction(1, 2), seed=40 + seed)
        for iset in enumerate_independent_sets(g):
            blocked = 0
            for v in iset:
                blocked |= g.adj[v]
            candidates = [w for w in range(6)
                          if w not in iset and not (blocked >> w) & 1]
            trace = run_star_generator(g, iset)
            for j_size in range(len(candidates) + 1):
                for outer in itertools.combinations(candidates, j_size):
                    ok, _ = is_star(g, iset, outer)
                    assert ok
                    for t in range(trace.iteration_count + 2):
                        assert set(outer) <= set(bits_of(trace.outer_at(t)))


def test_star_closure_exhaustive_small():
    assert check_star_closure(complete_graph(4), ()).ok
    for seed in range(6):
        g = gen_er_graph(7, Fraction(2, 5), seed=seed + 10)
        for iset in enumerate_independent_sets(g):
            assert check_star_closure(g, iset).ok, (seed, iset)


def _reference_star_iterations(g: Graph, independent_set):
    """The generator as it was before the mask-native rewrite and its memo
    (closures recomputing every degree, `max` with a key), kept as the
    reference: (t, u, v, fingerprint, inner, outer) per iteration."""
    i_mask = as_mask(independent_set, g.n)
    f_mask = 0
    c_mask = d_mask = (1 << g.n) - 1
    iterations = []
    t = 0
    while i_mask & ~f_mask:
        t += 1
        remaining = i_mask & ~f_mask

        def c_deg(w: int) -> int:
            return (g.adj[w] & c_mask).bit_count()

        def d_deg(w: int) -> int:
            return (g.adj[w] & d_mask).bit_count()

        u = max(bits_of(remaining), key=lambda w: (c_deg(w), -w))
        rest = remaining & ~(1 << u)
        v = None
        if rest:
            v = max(bits_of(rest), key=lambda w: (d_deg(w), -w))
        neighbours = g.adj[u] | (g.adj[v] if v is not None else 0)
        picked = (1 << u) | (0 if v is None else 1 << v)
        high = 0
        for w in bits_of(c_mask & ~picked):
            if c_deg(w) > c_deg(u) or (v is not None and d_deg(w) > d_deg(v)):
                high |= 1 << w
        f_mask |= picked
        c_new = c_mask & ~neighbours & ~high
        d_new = d_mask & ~neighbours
        iterations.append((t, u, v, bits_of(f_mask), bits_of(c_new), bits_of(d_new)))
        c_mask, d_mask = c_new, d_new
    return iterations


def _as_rows(trace):
    return [(it.t, it.u, it.v, bits_of(it.fingerprint), bits_of(it.inner),
             bits_of(it.outer)) for it in trace.iterations]


def _differential_graphs():
    """Edge cases (n = 0 and 1, edgeless and complete graphs) plus seeded ER
    graphs with n up to 12 over a spread of densities."""
    yield Graph(0, ())
    yield Graph(1, (0,))
    for n in (2, 5, 9):
        yield Graph.from_edges(n, [])
        yield complete_graph(n)
    for seed in range(120):
        n = 1 + seed % 12
        yield gen_er_graph(n, Fraction(1 + seed % 7, 8), seed=seed)


def test_star_generator_matches_reference_cold_and_warm():
    pairs = 0
    for g in _differential_graphs():
        isets = list(enumerate_independent_sets(g))
        want = {iset: _reference_star_iterations(g, iset) for iset in isets}
        for iset in isets:  # cold: the first run of each set on this graph
            trace = run_star_generator(g, iset)
            assert bits_of(trace.independent_set) == iset
            assert _as_rows(trace) == want[iset], (g, iset)
        assert len(g.__dict__["_memo"]) == len(isets)
        for iset in reversed(isets):  # warm: every set is a memo hit
            assert _as_rows(run_star_generator(g, mask_of(iset))) == want[iset]
        pairs += len(isets)
    assert pairs >= 1000


def _vertex_sets(trace) -> list:
    """Every vertex set a trace holds or its accessors return."""
    star = isinstance(trace, StarContainerTrace)
    names = ("fingerprint", "inner", "outer") if star else ("fingerprint", "container")
    sets = [trace.independent_set]
    for t in range(trace.iteration_count + 2):
        sets += [getattr(trace, f"{name}_at")(t) for name in names]
    for it in trace.iterations:
        sets += [getattr(it, name) for name in names]
        if not star:
            sets += [it.one_edge_removals, *(xs for _, xs in it.exclusions)]
            for level in it.levels:
                sets += [level.vertices, *level.edges]
    return sets


def test_trace_vertex_sets_are_int_masks(triangle_csp, nae_csp):
    g = gen_er_graph(9, Fraction(1, 3), seed=2)
    runs = [partial(run_star_generator, g, max(enumerate_independent_sets(g), key=len))]
    runs += [partial(run_generator, build_hypergraph(csp), 3, iset)
             for csp, iset in ((triangle_csp, (0, 3)), (nae_csp, (0, 3, 4)))]
    for run in runs:
        for trace in (run(), run()):  # cold, then replayed from the memo
            assert trace.iterations
            assert all(type(m) is int for m in _vertex_sets(trace))


# ---------------------------------------------------------------- star memo

def _warm_graph():
    g = gen_er_graph(9, Fraction(2, 5), seed=5)
    for iset in enumerate_independent_sets(g):
        assert check_star_closure(g, iset).ok
    assert g.__dict__.get("_memo")
    return g


def test_star_memo_leaves_equality_hash_repr_and_pickle_alone():
    g = _warm_graph()
    fresh = Graph(g.n, g.adj)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert pickle.dumps(g) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and "_memo" not in back.__dict__


def test_star_memo_is_freed_with_its_graph_by_refcount():
    g = gen_er_graph(9, Fraction(2, 5), seed=5)
    for iset in ((0,), (1,), (0,), ()):
        run_star_generator(g, iset)
    assert len(g.__dict__["_memo"]) == 3
    ref = weakref.ref(g)
    del g
    assert ref() is None  # no cycle through the memo, so no gc pass is needed


def test_warm_star_memo_still_validates_every_call():
    g = _warm_graph()
    u, v = g.edges()[0]
    with pytest.raises(ValueError, match="not independent"):
        run_star_generator(g, (u, v))
    with pytest.raises(ValueError, match="out of range"):
        run_star_generator(g, 1 << g.n)
    with pytest.raises(ValueError, match="out of range"):
        run_star_generator(g, -1)


# ------------------------------------------------------------ distance oracle

def test_distance_edgeless():
    g = Graph.from_edges(5, [])
    assert distance_to_rho_is(g, Fraction(1, 2)).min_edits == 0


def test_distance_k4(k4):
    d = distance_to_rho_is(k4, Fraction(1, 2))
    assert (d.min_edits, d.distance) == (1, Fraction(1, 16))
    assert d.target_size == 2
    assert d.witness == (0, 1)


def test_distance_matches_independent_subset_sweep():
    # second, independently coded subset sweep
    for seed in range(5):
        g = gen_er_graph(9, Fraction(4, 5), seed=seed)
        rho = Fraction(1, 2)
        target = -((-rho.numerator * g.n) // rho.denominator)
        best = None
        for sub in itertools.combinations(range(g.n), target):
            edges = sum(1 for a, b in itertools.combinations(sub, 2)
                        if g.has_edge(a, b))
            best = edges if best is None else min(best, edges)
        assert distance_to_rho_is(g, rho).min_edits == best


def test_distance_matches_brute_force_oracle():
    rhos = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
            Fraction(3, 4), Fraction(1)]
    densities = [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)]
    for seed in range(1000):
        n = 1 + seed % 13
        g = gen_er_graph(n, densities[seed % 3], seed=seed)
        rho = rhos[(seed // 13) % len(rhos)]
        got = distance_to_rho_is(g, rho)
        assert (got.min_edits, got.witness) == \
            oracle_min_edges_subset(g, ceil_frac(rho * n)), (seed, rho)


def plain_distance_to_rho_is(g, rho):
    """distance_to_rho_is before its lower bound: enumeration in
    itertools.combinations order with only the running-count cut."""
    n = g.n
    target = ceil_frac(rho * n)
    if target == 0:
        return RhoDistance(0, Fraction(0), (), 0)
    best = math.comb(target, 2) + 1
    best_mask = 0
    adj = g.adj

    def rec(start, chosen, size, count):
        nonlocal best, best_mask
        if count >= best:
            return
        if size == target:
            best, best_mask = count, chosen
            return
        for v in range(start, n - (target - size) + 1):
            rec(v + 1, chosen | 1 << v, size + 1,
                count + (adj[v] & chosen).bit_count())
            if best == 0:
                return

    rec(0, 0, 0, 0)
    return RhoDistance(best, Fraction(best, n * n), bits_of(best_mask), target)


def test_distance_with_a_single_leaf_needs_no_deep_recursion():
    # rho = 1 admits one subset, all n vertices; finding it once recursed n
    # deep, a RecursionError (exit 3 from certify) past about 1,000 vertices.
    g = Graph.from_edges(3000, [(0, 1), (0, 2), (1, 2), (2, 3), (2999, 5)])
    got = distance_to_rho_is(g, Fraction(1))
    assert (got.min_edits, got.witness) == (5, tuple(range(3000)))


def test_bounded_distance_matches_plain_enumeration():
    # Every (n, graph kind, rho) for n in 1..18, twice with different seeds;
    # RhoDistance equality covers min_edits, distance, witness and target_size.
    from container_bench import gen_planted_is_graph

    rhos = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
            Fraction(3, 4), Fraction(1)]
    densities = [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), Fraction(7, 10)]
    for seed in range(1296):
        n, kind = 1 + seed % 18, (seed // 18) % 6
        rho = rhos[(seed // 108) % 6]
        if kind < 4:
            g = gen_er_graph(n, densities[kind], seed=seed)
        elif kind == 4:
            g = gen_planted_is_graph(n, Fraction(1, 3), Fraction(4, 5), seed=seed)
        else:
            g = Graph.from_edges(n, []) if seed < 648 else complete_graph(n)
        assert distance_to_rho_is(g, rho) == plain_distance_to_rho_is(g, rho), \
            (seed, n, kind, rho)


def recursive_distance_to_rho_is(g, rho):
    """The bounded search as it was, one recursion level per chosen vertex,
    kept as the reference for the explicit-stack loop that replaced it."""
    n = g.n
    target = ceil_frac(rho * n)
    if target == 0:
        return RhoDistance(0, Fraction(0), (), 0)
    best = math.comb(target, 2) + 1
    best_mask = 0
    adj = g.adj
    full = (1 << n) - 1

    def rec(start, chosen, size, count):
        nonlocal best, best_mask
        if count >= best:
            return
        need = target - size
        if need == 0:
            best, best_mask = count, chosen
            return
        slack = n - start - need
        if not slack:
            for v in range(start, n):
                count += (adj[v] & chosen).bit_count()
                chosen |= 1 << v
                if count >= best:
                    return
            best, best_mask = count, chosen
            return
        rest = full >> start << start
        twice_f = sorted([
            2 * (a & chosen).bit_count()
            + (d - slack if (d := (a & rest).bit_count()) > slack else 0)
            for a in adj[start:]])
        if 2 * count + sum(twice_f[:need]) >= 2 * best:
            return
        for v in range(start, start + slack + 1):
            rec(v + 1, chosen | 1 << v, size + 1,
                count + (adj[v] & chosen).bit_count())
            if best == 0:
                return

    rec(0, 0, 0, 0)
    return RhoDistance(best, Fraction(best, n * n), bits_of(best_mask), target)


def test_distance_loop_matches_the_recursive_search():
    # 1,200 seeded graphs, n 1..20, ER at four densities and a planted
    # independent set; RhoDistance equality includes the witness.
    from container_bench import gen_planted_is_graph

    rhos = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5),
            Fraction(3, 4), Fraction(9, 10), Fraction(1)]
    for seed in range(1200):
        rnd = random.Random(seed)
        n, rho = rnd.randint(1, 20), rnd.choice(rhos)
        if seed % 5 == 4:
            g = gen_planted_is_graph(n, Fraction(1, 2), Fraction(rnd.randint(1, 9), 10), seed=seed)
        else:
            g = gen_er_graph(n, Fraction(1 + seed % 5, 6), seed=seed)
        assert distance_to_rho_is(g, rho) == recursive_distance_to_rho_is(g, rho), (seed, n, rho)


def test_distance_is_not_bounded_by_the_recursion_limit():
    # At rho = 2999/3000 every root-to-leaf path is 2,999 vertices long; the
    # recursive search raised RecursionError (exit 3 from certify).
    g = Graph.from_edges(3000, [(0, 1), (0, 2), (1, 2), (2, 3), (5, 2999)])
    got = distance_to_rho_is(g, Fraction(2999, 3000))
    assert (got.min_edits, got.target_size) == (2, 2999)
    assert got.witness == tuple(v for v in range(3000) if v != 2)


def test_distance_cap(monkeypatch):
    g = Graph.from_edges(24, [])
    monkeypatch.setattr(core, "SUBSET_CAP", 100)
    with pytest.raises(WorkCapExceeded):
        distance_to_rho_is(g, Fraction(1, 2))


def test_distance_cap_refuses_a_huge_graph_at_once():
    # C(200000, 100000) has about 60,000 digits; the cap check must not form it.
    g = Graph.from_edges(200_000, [])
    with pytest.raises(WorkCapExceeded):
        distance_to_rho_is(g, Fraction(1, 2))


# ---------------------------------------------------------------- shrinking

def certified_graph(seed=3, n=10, p=Fraction(3, 5)):
    g = gen_er_graph(n, p, seed=seed)
    dist = distance_to_rho_is(g, Fraction(1, 2))
    assert dist.min_edits >= 1
    return g, dist


def test_shrinking_vacuous_pass():
    g, dist = certified_graph()
    rho, eps = Fraction(1, 2), dist.distance
    iset = next(s for s in enumerate_independent_sets(g) if len(s) >= 3)
    trace = run_star_generator(g, iset)
    # deliberately violate the size premise: D empty
    out = check_shrinking(g, rho, eps, trace, 0, (), rho, distance=dist)
    assert not out.premises_hold
    assert out.conclusion_holds or not out.premises_hold


def test_shrinking_d_equals_next_outer():
    g, dist = certified_graph()
    rho, eps = Fraction(1, 2), dist.distance
    for iset in enumerate_independent_sets(g):
        if len(iset) < 3:
            continue
        trace = run_star_generator(g, iset)
        t = 0
        d_next = bits_of(trace.outer_at(t + 1))
        alpha = rho - Fraction(len(d_next), g.n)
        out = check_shrinking(g, rho, eps, trace, t, d_next, alpha,
                              distance=dist)
        # |D_{t+1} \ D| = 0, so the conclusion holds whenever the factor >= 0
        if out.premises_hold:
            assert out.conclusion_holds
        assert out.shrink_lhs == 0


def test_shrinking_requires_farness():
    g = Graph.from_edges(6, [])
    trace = run_star_generator(g, (0, 1, 2))
    with pytest.raises(NotFarError):
        check_shrinking(g, Fraction(1, 2), Fraction(1, 10), trace, 0, (), Fraction(1, 10))


def test_shrinking_rejects_late_t():
    g, dist = certified_graph()
    iset = next(s for s in enumerate_independent_sets(g) if len(s) >= 3)
    trace = run_star_generator(g, iset)
    with pytest.raises(ValueError):
        check_shrinking(g, Fraction(1, 2), dist.distance, trace,
                        len(iset), (), Fraction(1, 4), distance=dist)


def test_shrinking_randomized_search_no_counterexample():
    from container_bench.rng import make_rng

    rng = make_rng(77)
    tried = premise_hits = 0
    for seed in range(6):
        g, dist = certified_graph(seed=seed, n=9, p=Fraction(3, 5))
        rho, eps = Fraction(1, 2), dist.distance
        isets = [s for s in enumerate_independent_sets(g) if len(s) >= 3]
        for iset in isets:
            trace = run_star_generator(g, iset)
            t_limit = (len(iset) - 1) // 2
            if t_limit < 1:
                continue
            for _ in range(20):
                t = int(rng.integers(0, t_limit))
                d_mask = trace.outer_at(t + 1)
                if d_mask == 0:
                    continue
                keep = int(rng.integers(1, d_mask.bit_count() + 1))
                while d_mask.bit_count() > keep:
                    victims = [b for b in range(g.n) if (d_mask >> b) & 1]
                    d_mask &= ~(1 << victims[int(rng.integers(0, len(victims)))])
                alpha = rho - Fraction(d_mask.bit_count(), g.n)
                out = check_shrinking(g, rho, eps, trace, t, d_mask, alpha,
                                      distance=dist)
                tried += 1
                if out.premises_hold:
                    premise_hits += 1
                    assert out.conclusion_holds
    assert tried > 200


def fraction_check_shrinking(g, rho, epsilon, trace, t, d_set, alpha, distance):
    """check_shrinking as it was written in Fraction arithmetic: the
    reference for the integer cross-multiplication version."""
    rho, epsilon, alpha = Fraction(rho), Fraction(epsilon), Fraction(alpha)
    n = g.n
    d_mask = as_mask(d_set, n)
    dt_mask = trace.outer_at(t)
    dt1_mask = trace.outer_at(t + 1)
    ct1_mask = trace.inner_at(t + 1)
    d_size = d_mask.bit_count()
    want = (rho - alpha) * n
    want_ceil = -((-want.numerator) // want.denominator)

    def sqrt_le(value, bound_sq):
        if value <= 0:
            return True
        return value * value <= bound_sq

    inter = (d_mask & ct1_mask).bit_count()
    full_iteration = (t + 1 <= trace.iteration_count
                      and trace.iterations[t].v is not None)
    flags = (
        ("outer_container_large", Fraction(dt_mask.bit_count()) >= rho * n),
        ("alpha_positive", alpha > 0),
        ("alpha_small", alpha > 0 and sqrt_le(alpha, epsilon / 4)),
        ("d_inside_next_outer", d_mask & ~dt1_mask == 0),
        ("d_exact_size", d_size == want_ceil),
        ("d_sparse", Fraction(g.edges_inside(d_mask)) <= Fraction(3, 8) * epsilon * n * n),
        ("d_meets_inner", sqrt_le(rho - Fraction(inter, n), epsilon / 4)),
        ("full_iteration", full_iteration),
    )
    premises = all(ok for _, ok in flags)
    near_miss = (not premises and abs(d_size - want_ceil) == 1
                 and all(ok for name, ok in flags if name != "d_exact_size"))
    lhs = (dt1_mask & ~d_mask).bit_count()
    m = (dt_mask & ~d_mask).bit_count()
    if alpha > 0:
        rhs = (1 - epsilon / (4 * rho * alpha)) * m
    else:
        rhs = Fraction(m)
    return ShrinkingOutcome(premises, Fraction(lhs) <= rhs, flags, near_miss,
                            lhs, rhs)


_rationals = st.builds(Fraction, st.integers(-6, 40), st.integers(1, 24))


@st.composite
def shrinking_cases(draw):
    """A graph, trace, t and D, with (rho, eps, alpha) either drawn freely or
    built so that the rational premises hold: eps is the least value that
    meets them, times a factor that keeps it at equality, just short of it
    or above it."""
    n = draw(st.integers(5, 10))
    g = gen_er_graph(n, draw(st.sampled_from([Fraction(1, 5), Fraction(2, 5)])),
                     seed=draw(st.integers(0, 1 << 16)))
    isets = [s for s in enumerate_independent_sets(g) if len(s) >= 3]
    assume(isets)
    iset = draw(st.sampled_from(isets))
    trace = run_star_generator(g, iset)
    t = draw(st.integers(0, (len(iset) - 1) // 2))
    d_mask = mask_of(draw(st.lists(st.sampled_from(bits_of(trace.outer_at(t + 1))),
                                   unique=True)))
    d_size, dt_size = d_mask.bit_count(), trace.outer_at(t).bit_count()
    if not draw(st.booleans()) or d_size >= dt_size:
        rho = draw(_rationals.filter(lambda r: 0 < r <= 1))
        return g, trace, t, d_mask, rho, draw(_rationals.filter(lambda e: e > 0)), \
            draw(_rationals)
    scale = draw(st.integers(1, 4))
    rho = Fraction(draw(st.integers(d_size * scale + 1, dt_size * scale)), n * scale)
    # An off-by-one size target makes near misses instead of premise hits.
    alpha = rho - Fraction(d_size + draw(st.sampled_from([0, 0, -1, 1])), n)
    inter = (d_mask & trace.inner_at(t + 1)).bit_count()
    eps = max(4 * alpha * alpha,
              Fraction(8 * g.edges_inside(d_mask), 3 * n * n),
              4 * max(rho - Fraction(inter, n), Fraction(0)) ** 2)
    eps *= draw(st.sampled_from([Fraction(1), Fraction(99, 100), Fraction(3, 2)]))
    return g, trace, t, d_mask, rho, eps, alpha


def test_check_shrinking_matches_fraction_reference():
    premise_hits = []

    @settings(max_examples=400, deadline=None)
    @given(shrinking_cases())
    def run(case):
        g, trace, t, d_mask, rho, eps, alpha = case
        distance = RhoDistance(1, eps, (), 0)  # farness is not under test here
        got = check_shrinking(g, rho, eps, trace, t, d_mask, alpha, distance=distance)
        want = fraction_check_shrinking(g, rho, eps, trace, t, d_mask, alpha, distance)
        assert got == want
        assert type(got.shrink_rhs) is Fraction
        premise_hits.append(want.premises_hold)

    run()
    assert any(premise_hits)


# ------------------------------------------------------------------ gcl-star

@pytest.mark.parametrize("n, rho, eps", [
    (0, Fraction(1, 2), Fraction(1, 16)),
    (4, Fraction(1, 2), Fraction(1, 16)),
    (8, Fraction(1, 2), Fraction(3, 64)),
    (12, Fraction(1, 3), Fraction(1, 144)),
    (12, Fraction(2, 3), Fraction(7, 144)),
    (14, Fraction(1, 2), Fraction(9, 196)),
    (10, Fraction(1, 2), Fraction(1, 2)),
    (10, Fraction(1), Fraction(19, 10)),
])
def test_star_bounds_size_table_matches_guarded_comparator(n, rho, eps):
    bounds = StarBounds.of(n, rho, eps)
    reach = set(range(1, min(n + 1, bounds.t_max) + 1))
    if bounds.threshold_t <= bounds.t_max:
        reach.add(bounds.threshold_t)
    assert set(bounds.max_size) == reach
    x = 2 * rho / eps
    for t, largest in bounds.max_size.items():
        for size in range(n + 1):
            gap = rho * n - size
            fits = gap > 0 and le_with_ln(Fraction(t) * eps * n / (8 * rho * gap),
                                          Fraction(1), x)
            assert (size <= largest) == fits, (t, size, largest)
    assert bounds.edge_cap == math.floor(eps * n * n / 4)


def _stepped_bullet_threshold(rho: Fraction, epsilon: Fraction) -> int:
    """The earlier _bullet_threshold: a float estimate, stepped to by units."""
    x = 2 * rho / epsilon
    est = math.floor(4 * float(rho) * math.log(float(x)) / math.sqrt(float(epsilon)))
    est = max(est, 0)

    def at_least(t: int) -> bool:
        return sign_with_ln((Fraction(t * t) * epsilon, Fraction(0), -16 * rho * rho), x) >= 0
    while est > 0 and at_least(est - 1):
        est -= 1
    while not at_least(est):
        est += 1
    return est


def _stepped_max_container_size(n: int, rho: Fraction, epsilon: Fraction, t: int) -> int:
    """The earlier per-t size search: a float estimate, stepped to by units."""
    x = 2 * rho / epsilon

    def fits(size: int) -> bool:
        gap = rho * n - size
        if gap <= 0:
            return False
        return le_with_ln(t * epsilon * n / (8 * rho * gap), Fraction(1), x)

    est = (float(rho) - t * float(epsilon) / (8 * float(rho) * math.log(x))) * n
    est = min(max(math.floor(est), -1), n)
    while est >= 0 and not fits(est):
        est -= 1
    while est < n and fits(est + 1):
        est += 1
    return est


def _random_star_instance(rng: random.Random) -> tuple[int, Fraction, Fraction]:
    den = rng.randint(1, 12)
    rho = Fraction(rng.randint(1, den), den)
    eps = 2 * rho * Fraction(rng.randint(1, 999), 1000) / 10 ** rng.randint(0, 3)
    return rng.randint(0, 16), rho, eps


def test_bullet_threshold_matches_the_stepped_search():
    rng = random.Random(7001)
    for _ in range(1200):
        _, rho, eps = _random_star_instance(rng)
        assert _bullet_threshold(rho, eps) == _stepped_bullet_threshold(rho, eps), (rho, eps)


def test_star_bounds_match_the_stepped_searches():
    rng = random.Random(7002)
    for _ in range(1000):
        n, rho, eps = _random_star_instance(rng)
        bounds = StarBounds.of(n, rho, eps)
        t_max = stepped_floor_times_ln(8 * rho * rho / eps, 2 * rho / eps)
        threshold = _stepped_bullet_threshold(rho, eps)
        ts = list(range(1, min(n + 1, t_max) + 1))
        if threshold <= t_max:
            ts.append(threshold)
        assert (bounds.t_max, bounds.threshold_t) == (t_max, threshold), (n, rho, eps)
        assert bounds.max_size == {t: _stepped_max_container_size(n, rho, eps, t)
                                   for t in ts}, (n, rho, eps)


def test_gcl_star_bounds_are_per_instance(k4):
    rho, eps = Fraction(1, 2), Fraction(1, 16)
    bounds = StarBounds.of(k4.n, rho, eps)
    for iset in [(), (0,), (3,)]:
        assert verify_gcl_star(k4, rho, eps, iset, bounds=bounds) == \
            verify_gcl_star(k4, rho, eps, iset)
    with pytest.raises(ValueError):
        verify_gcl_star(k4, rho, Fraction(1, 32), (0,), bounds=bounds)


def test_gcl_star_empty_core_witness_in_extension(k4):
    out = verify_gcl_star(k4, Fraction(1, 2), Fraction(1, 16), ())
    assert out.ok
    assert out.witness_t == out.threshold_t == 23
    assert out.witness_branch == "inner"
    assert out.t_max == 88


def test_gcl_star_singleton_core(k4):
    out = verify_gcl_star(k4, Fraction(1, 2), Fraction(1, 16), (0,))
    assert out.ok and out.witness_t == 1 and out.witness_branch == "outer"
    assert out.restated_ok


def test_gcl_star_exhaustive_small_corpus():
    for seed in range(8):
        g = gen_er_graph(8, Fraction(1, 2), seed=seed)
        dist = distance_to_rho_is(g, Fraction(1, 2))
        if dist.min_edits < 1:
            continue
        eps = dist.distance
        for iset in enumerate_independent_sets(g):
            out = verify_gcl_star(g, Fraction(1, 2), eps, iset, distance=dist)
            assert out.ok, (seed, iset)
            assert out.restated_ok, (seed, iset)


def test_gcl_star_requires_farness():
    g = Graph.from_edges(6, [])
    with pytest.raises(NotFarError):
        verify_gcl_star(g, Fraction(1, 2), Fraction(1, 100), ())
