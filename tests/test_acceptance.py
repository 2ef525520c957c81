"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The exact small-scale oracles certify every instance before a bound is
checked, all thresholds are exact rationals (logarithms go through the
guarded comparator), and every randomized piece runs on fixed seeds, so the
whole gate is deterministic.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from fractions import Fraction

import pytest

from container_bench import (
    Csp,
    Graph,
    Hypergraph,
    SHPPSpec,
    StarBounds,
    TesterSpec,
    build_hypergraph,
    canonical_is_tester,
    canonical_sat_tester,
    check_closure,
    check_container_degree,
    check_edges_bound,
    check_shrinking,
    check_star_closure,
    colorability_to_sat,
    deg_leq_n,
    distance_to_rho_is,
    distance_to_sat,
    enumerate_independent_sets,
    gen_er_graph,
    gen_planted_is_graph,
    gen_planted_sat_csp,
    gen_random_csp,
    gen_random_hypergraph,
    is_satisfiable,
    run_generator,
    run_star_generator,
    shpp_to_sat,
    star_tester,
    verify_gcl_sat,
    verify_gcl_star,
    wilson_interval,
)
from container_bench.core import bits_of, mask_of
from container_bench.rng import make_rng, substream_seed

from conftest import (
    falsified_count,
    oracle_deg_leq_n,
    oracle_k_colorable,
    oracle_max_independent_set,
    oracle_shpp_member,
)


def criterion(number: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {number}: {label}")
                raise
            elapsed = time.monotonic() - start
            print(f"\n[PASS] criterion {number}: {label} ({elapsed:.1f}s)")
            return result
        return wrapper
    return deco


# ----------------------------------------------------------------- corpora


def _far_csp_corpus() -> list[tuple[Csp, Fraction]]:
    """>= 100 certified eps-far CSPs with exact rational certification."""
    shapes = [(4, 2, 2), (5, 2, 2), (6, 2, 2), (4, 3, 2),
              (5, 3, 2), (6, 3, 2), (4, 2, 3), (5, 2, 3)]
    corpus: list[tuple[Csp, Fraction]] = []
    seed = 0
    per_shape = 13
    for n, k, q in shapes:
        found = 0
        while found < per_shape:
            seed += 1
            csp = gen_random_csp(n, k, q, Fraction(7, 10), Fraction(1, 2),
                                 seed=seed)
            if not csp.constraints:
                continue
            dist = distance_to_sat(csp)
            if dist.min_falsified < 1:
                continue
            corpus.append((csp, dist.distance))
            found += 1
    # one structured instance: the odd-cycle colouring encoding
    triangle = Csp.of(3, 2, 2, [((i, j), [(0, 0), (1, 1)])
                                for i in range(3) for j in range(i + 1, 3)])
    corpus.append((triangle, distance_to_sat(triangle).distance))
    assert len(corpus) >= 100
    return corpus


def _far_graph_corpus() -> list[tuple[Graph, Fraction, Fraction]]:
    """>= 50 certified eps-far graphs (n <= 14) as (graph, rho, eps)."""
    recipes = [(8, Fraction(3, 5), Fraction(1, 2)),
               (10, Fraction(1, 2), Fraction(1, 2)),
               (12, Fraction(3, 5), Fraction(1, 2)),
               (14, Fraction(1, 2), Fraction(1, 2)),
               (14, Fraction(7, 10), Fraction(1, 2)),
               (12, Fraction(1, 2), Fraction(1, 3)),
               (12, Fraction(7, 10), Fraction(2, 3))]
    corpus = []
    seed = 1000
    per_recipe = 8
    for n, p, rho in recipes:
        found = 0
        while found < per_recipe:
            seed += 1
            g = gen_er_graph(n, p, seed=seed)
            dist = distance_to_rho_is(g, rho)
            if dist.min_edits < 1:
                continue
            corpus.append((g, rho, dist.distance))
            found += 1
    assert len(corpus) >= 50
    return corpus


@pytest.fixture(scope="module")
def far_csps():
    return _far_csp_corpus()


@pytest.fixture(scope="module")
def far_graphs():
    return _far_graph_corpus()


@pytest.fixture(scope="module")
def criterion3_corpus():
    """Fixed corpus with n <= 5, k = 2, q in {2, 3}."""
    corpus = []
    for q, base in ((2, 2000), (3, 3000)):
        count = 0
        seed = base
        while count < 8:
            seed += 1
            n = 4 + seed % 2
            csp = gen_random_csp(n, 2, q, Fraction(3, 5), Fraction(2, 5),
                                 seed=seed)
            if not csp.constraints:
                continue
            corpus.append(csp)
            count += 1
    triangle = Csp.of(3, 2, 2, [((i, j), [(0, 0), (1, 1)])
                                for i in range(3) for j in range(i + 1, 3)])
    corpus.append(triangle)
    return corpus


# ---------------------------------------------------------------- criteria


@criterion(1, "one-sided error, exact: planted-satisfiable always accepted")
def test_criterion_01_one_sided_exact():
    shapes = [(6, 2, 2), (8, 2, 2), (10, 2, 2), (6, 3, 2), (8, 3, 2),
              (10, 3, 2), (6, 2, 3), (8, 2, 3), (5, 3, 3), (7, 3, 3)]
    start = time.monotonic()
    runs = 0
    counter = 0
    for idx in range(200):
        n, k, q = shapes[idx % len(shapes)]
        csp, _ = gen_planted_sat_csp(n, k, q, Fraction(1, 2), seed=5000 + idx)
        specs = {s: TesterSpec.of("sat", csp, {"epsilon": Fraction(1, 4), "s": s})
                 for s in range(2, n + 1)}
        for s in range(2, n + 1):
            for _ in range(50):
                counter += 1
                seed = substream_seed(424242, counter)
                report = canonical_sat_tester(specs[s], make_rng(seed), seed)
                runs += 1
                assert report.accepted, (idx, s, seed)
    elapsed = time.monotonic() - start
    assert runs == sum(50 * (shapes[i % len(shapes)][0] - 1) for i in range(200))
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s (budget 60s)"


@criterion(2, "falsified-count equals induced edge count, exhaustively")
def test_criterion_02_edge_constraint_equivalence():
    instances: list[Csp] = []
    for seed in range(30):
        n = 4 + seed % 3
        k = 2 + seed % 2
        q = 2 + (seed // 3) % 2
        instances.append(gen_random_csp(n, k, q, Fraction(3, 5),
                                        Fraction(1, 2), seed=7000 + seed))
    instances.append(Csp.of(3, 2, 2, [((i, j), [(0, 0), (1, 1)])
                                      for i in range(3) for j in range(i + 1, 3)]))
    for idx, csp in enumerate(instances):
        h = build_hypergraph(csp)
        for assignment in itertools.product(range(csp.k), repeat=csp.n):
            vs = mask_of(x * csp.k + a for x, a in enumerate(assignment))
            assert h.edges_inside(vs) == falsified_count(csp, assignment), idx


@criterion(3, "trace invariants and closure, exhaustive on the small corpus")
def test_criterion_03_invariants_and_closure(criterion3_corpus):
    start = time.monotonic()
    traces = 0
    for csp in criterion3_corpus:
        h = build_hypergraph(csp)
        full = tuple(range(h.n))
        for iset in enumerate_independent_sets(h, variable_distinct=True):
            trace = run_generator(h, csp.n, iset)
            prev_f, prev_c = (), full
            for it in trace.iterations:
                f, c = bits_of(it.fingerprint), bits_of(it.container)
                assert set(prev_f) <= set(f) <= set(iset)
                assert set(c) <= set(prev_c)
                assert set(iset) - set(f) <= set(c)
                assert len(set(it.selected)) == len(it.selected)
                assert set(it.selected) <= set(iset)
                prev_f, prev_c = f, c
            outcome = check_closure(h, csp.n, iset)
            assert outcome.ok, (csp, iset, outcome.first_mismatch_t)
            traces += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 3 took {elapsed:.1f}s (budget 300s)"
    print(f"  checked {traces} traces", end="")


@criterion(4, "satisfiability container lemma witness on every certified instance")
def test_criterion_04_gcl_sat(far_csps):
    checked = 0
    for csp, eps in far_csps:
        dist = distance_to_sat(csp)
        h = build_hypergraph(csp)
        for iset in enumerate_independent_sets(h, variable_distinct=True):
            out = verify_gcl_sat(csp, eps, iset, distance=dist)
            assert out.ok, (csp, eps, iset)
            checked += 1
    print(f"  {checked} independent sets over {len(far_csps)} instances", end="")


@criterion(5, "heavy-vertex lower bound on 1000 random hypergraphs")
def test_criterion_05_edges_bound():
    produced = 0
    seed = 0
    while produced < 1000:
        seed += 1
        ell = (2, 3, 4)[seed % 3]
        n = max(ell + 1, 4 + seed % 9)  # |V| <= 12
        h = gen_random_hypergraph(n, ell, Fraction(1 + seed % 3, 6),
                                  seed=9000 + seed)
        if not h.edges:
            continue
        produced += 1
        out = check_edges_bound(h)
        assert out.ok, (seed, ell, n)


@criterion(6, "container degree bound at every iteration of the certified corpus")
def test_criterion_06_container_degree(far_csps):
    worst = None
    tighter_violations = 0
    traces = 0
    for csp, _eps in far_csps:
        h = build_hypergraph(csp)
        for iset in enumerate_independent_sets(h, variable_distinct=True):
            trace = run_generator(h, csp.n, iset)
            if not trace.iterations:
                continue
            out = check_container_degree(trace, csp.k, csp.n)
            traces += 1
            assert out.ok, (csp, iset)
            if not out.tighter_ok:
                tighter_violations += 1
            if worst is None or out.worst_slack < worst:
                worst = out.worst_slack
    print(f"  {traces} traces, worst slack {worst}, "
          f"tighter-constant violations {tighter_violations}", end="")


@criterion(7, "bounded-subgraph degree equals the naive subset maximum")
def test_criterion_07_deg_oracle_equivalence():
    checked = 0
    seed = 0
    while checked < 500:
        seed += 1
        q = 2 + seed % 2
        n = 8 + seed % 7  # container sizes up to 14
        h = gen_random_hypergraph(n, q, Fraction(1, 3), seed=11000 + seed)
        rng = make_rng(substream_seed(11000, seed))
        container = tuple(v for v in range(n) if rng.random() < 0.85)
        if not container:
            continue
        bound = 2 + seed % 4
        v = container[int(rng.integers(0, len(container)))]
        got = deg_leq_n(h, container, bound, v).value
        want = oracle_deg_leq_n(h, container, bound, v)
        assert got == want, (seed, v, got, want)
        checked += 1


@criterion(8, "star trace invariants, closure, and the two-bullet lemma")
def test_criterion_08_gcl_star(far_graphs):
    start = time.monotonic()
    checked = 0
    for g, rho, eps in far_graphs:
        dist = distance_to_rho_is(g, rho)
        bounds = StarBounds.of(g.n, rho, eps)
        blocked_cache: dict[tuple[int, ...], int] = {}
        for iset in enumerate_independent_sets(g):
            trace = run_star_generator(g, iset)
            # invariants
            blocked = blocked_cache.get(iset)
            if blocked is None:
                blocked = 0
                for v in iset:
                    blocked |= g.adj[v]
                blocked_cache[iset] = blocked
            prev_f, prev_c, prev_d = set(), set(range(g.n)), set(range(g.n))
            for it in trace.iterations:
                f, c, d = (set(bits_of(m)) for m in (it.fingerprint, it.inner, it.outer))
                assert prev_f <= f <= set(iset) <= c <= prev_c
                assert c <= d <= prev_d
                for w in range(g.n):
                    if not (blocked >> w) & 1 and w not in d:
                        raise AssertionError((iset, it.t, w))
                prev_f, prev_c, prev_d = f, c, d
            # Prop 4 closure
            assert check_star_closure(g, iset).ok, iset
            # two-bullet witness plus the restated inner bound
            out = verify_gcl_star(g, rho, eps, iset, distance=dist, bounds=bounds)
            assert out.ok, (rho, eps, iset)
            assert out.restated_ok, (rho, eps, iset)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"criterion 8 took {elapsed:.1f}s (budget 600s)"
    print(f"  {checked} independent sets over {len(far_graphs)} graphs", end="")


@criterion(9, "outer-container shrinking: no premises-true conclusion-false tuple")
def test_criterion_09_shrinking_search(far_graphs):
    rng = make_rng(314159)
    samples = 0
    premise_hits = 0
    target = 100_000
    graphs = [(g, rho, eps, distance_to_rho_is(g, rho),
               [s for s in enumerate_independent_sets(g) if len(s) >= 3])
              for g, rho, eps in far_graphs]
    graphs = [g for g in graphs if g[4]]
    while samples < target:
        g, rho, eps, dist, isets = graphs[int(rng.integers(0, len(graphs)))]
        iset = isets[int(rng.integers(0, len(isets)))]
        trace = run_star_generator(g, iset)
        t_limit = (len(iset) - 1) // 2
        if t_limit < 1:
            continue
        t = int(rng.integers(0, t_limit))
        d_mask = trace.outer_at(t + 1)
        if d_mask == 0:
            continue
        if rng.random() < 0.5:
            keep = d_mask.bit_count()  # D = D_{t+1} itself
        else:
            keep = 1 + int(rng.integers(0, d_mask.bit_count()))
        while d_mask.bit_count() > keep:
            victims = bits_of(d_mask)
            d_mask &= ~(1 << victims[int(rng.integers(0, len(victims)))])
        alpha = rho - Fraction(d_mask.bit_count(), g.n)
        out = check_shrinking(g, rho, eps, trace, t, d_mask, alpha,
                              distance=dist)
        samples += 1
        if out.premises_hold:
            premise_hits += 1
            assert out.conclusion_holds, (rho, eps, iset, t, bits_of(d_mask))
    print(f"  {samples} tuples, {premise_hits} with premises satisfied", end="")


@criterion(10, "star tester completeness on planted instances")
def test_criterion_10_star_completeness():
    start = time.monotonic()
    g = gen_planted_is_graph(40, Fraction(1, 2), Fraction(1), seed=606060)
    spec = TesterSpec.of("indepset", g, {"rho": Fraction(1, 2),
                                         "epsilon": Fraction(1, 100), "r": 8, "s": 16})
    accepts = 0
    trials = 2000
    for i in range(trials):
        seed = substream_seed(777777, i)
        report = star_tester(spec, make_rng(seed), seed)
        accepts += report.accepted
    rate = accepts / trials
    low, _high = wilson_interval(accepts, trials)
    elapsed = time.monotonic() - start
    assert rate >= 0.2, f"accept rate {rate}"
    assert low > 0.2, f"Wilson lower bound {low}"
    assert elapsed < 120, f"criterion 10 took {elapsed:.1f}s (budget 120s)"
    print(f"  rate {rate:.3f}, Wilson low {low:.3f}", end="")


@criterion(11, "star tester at full sampling equals the exact property decision")
def test_criterion_11_star_exactness(far_graphs):
    cases = [g for g, _rho, _eps in far_graphs if g.n <= 12]
    for seed in range(10):
        cases.append(gen_er_graph(8 + seed % 5, Fraction(2, 5), seed=12000 + seed))
    for seed in range(5):
        cases.append(gen_planted_is_graph(10, Fraction(1, 2), Fraction(4, 5),
                                          seed=13000 + seed))
    rho = Fraction(1, 2)
    for idx, g in enumerate(cases):
        target = -((-rho.numerator * g.n) // rho.denominator)
        expected = oracle_max_independent_set(g) >= target
        spec = TesterSpec.of("indepset", g, {"rho": rho, "epsilon": Fraction(1, 100),
                                             "r": g.n, "s": g.n})
        report = star_tester(spec, make_rng(substream_seed(14000, idx)))
        assert report.accepted == expected, idx
    print(f"  {len(cases)} graphs", end="")


@criterion(12, "query accounting is exact")
def test_criterion_12_query_accounting():
    rho = Fraction(1, 2)
    for seed in range(60):
        g = gen_er_graph(13 + seed % 3, Fraction(1, 2), seed=15000 + seed)
        r, s = 4 + seed % 2, 7 + seed % 2
        spec = TesterSpec.of("indepset", g, {"rho": rho, "epsilon": Fraction(1, 8), "r": r,
                                             "s": s, "disjoint": seed % 5 == 0})
        report = star_tester(spec, make_rng(substream_seed(16000, seed)))
        rset, sset = set(report.core_sample), set(report.sample)
        pairs = {frozenset((a, b)) for a in rset for b in rset if a != b}
        pairs |= {frozenset((a, b)) for a in rset for b in sset if a != b}
        assert report.query_count == len(pairs)
        assert report.query_count <= math.comb(r, 2) + r * s
        baseline = canonical_is_tester(
            TesterSpec.of("canonical-is", g, {"rho": rho, "s": r + s - 2}),
            make_rng(substream_seed(17000, seed)))
        assert baseline.query_count == math.comb(r + s - 2, 2)


def _all_graphs_upto(n_max: int):
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for picks in itertools.product((0, 1), repeat=len(pairs)):
            yield Graph.from_edges(
                n, [e for e, keep in zip(pairs, picks) if keep])


@criterion(13, "reduction satisfiability equals the direct brute-force oracle")
def test_criterion_13_reductions():
    checked = 0
    # colorability: exhaustive over all graphs with n <= 5, seeded sample at 6
    for g in _all_graphs_upto(5):
        h = Hypergraph.from_edges(2, g.n, g.edges()) if g.n >= 2 else None
        if h is None:
            continue
        for k in (2, 3):
            got = is_satisfiable(colorability_to_sat(h, k)).satisfiable
            assert got == oracle_k_colorable(h, k)
            checked += 1
    for seed in range(400):
        g = gen_er_graph(6, Fraction(1 + seed % 4, 6), seed=18000 + seed)
        h = Hypergraph.from_edges(2, 6, g.edges())
        k = 2 + seed % 2
        assert is_satisfiable(colorability_to_sat(h, k)).satisfiable == \
            oracle_k_colorable(h, k)
        checked += 1
    # 3-uniform hypergraphs: exhaustive at n = 4, sampled at n in {5, 6}
    triples4 = list(itertools.combinations(range(4), 3))
    for picks in itertools.product((0, 1), repeat=len(triples4)):
        h = Hypergraph.from_edges(3, 4,
                                  [e for e, keep in zip(triples4, picks) if keep])
        for k in (2, 3):
            assert is_satisfiable(colorability_to_sat(h, k)).satisfiable == \
                oracle_k_colorable(h, k)
            checked += 1
    for seed in range(300):
        n = 5 + seed % 2
        h = gen_random_hypergraph(n, 3, Fraction(1 + seed % 5, 8),
                                  seed=19000 + seed)
        k = 2 + seed % 2
        assert is_satisfiable(colorability_to_sat(h, k)).satisfiable == \
            oracle_k_colorable(h, k)
        checked += 1
    # SHPP with random 0/1 specs, n <= 6, k <= 3
    rng = make_rng(271828)
    for trial in range(250):
        k = 2 + trial % 2
        lower = [[0] * k for _ in range(k)]
        upper = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                lo = int(rng.integers(0, 2))
                hi = max(lo, int(rng.integers(0, 2)))
                lower[i][j] = lower[j][i] = lo
                upper[i][j] = upper[j][i] = hi
        spec = SHPPSpec(k, tuple(map(tuple, lower)), tuple(map(tuple, upper)))
        n = 4 + trial % 3
        g = gen_er_graph(n, Fraction(1, 2), seed=20000 + trial)
        got = is_satisfiable(shpp_to_sat(g, spec)).satisfiable
        assert got == oracle_shpp_member(g, spec), (trial, spec)
        checked += 1
    print(f"  {checked} reduction/oracle comparisons", end="")


@criterion(14, "canonical tester rejection rate is nondecreasing in the sample size")
def test_criterion_14_soundness_trend(far_csps):
    picked = [(csp, eps) for csp, eps in far_csps if csp.n == 6][:6]
    assert picked
    trials = 300
    for idx, (csp, _eps) in enumerate(picked):
        rates = {}
        intervals = {}
        for s in range(2, csp.n + 1):
            rejects = 0
            spec = TesterSpec.of("sat", csp, {"epsilon": Fraction(1, 4), "s": s})
            for i in range(trials):
                seed = substream_seed(909090 + idx, s * trials + i)
                report = canonical_sat_tester(spec, make_rng(seed), seed)
                rejects += not report.accepted
            rates[s] = rejects / trials
            intervals[s] = wilson_interval(rejects, trials)
        for s in range(2, csp.n):
            if rates[s + 1] < rates[s]:
                # allowed only while the confidence intervals overlap
                assert intervals[s + 1][1] >= intervals[s][0], (idx, s, rates)
        assert rates[csp.n] == 1.0, (idx, rates)
