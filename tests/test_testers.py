import itertools
import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from container_bench import (
    Csp,
    Graph,
    Hypergraph,
    SHPPSpec,
    SatTesterParams,
    StarTesterParams,
    TesterSpec,
    canonical_is_tester,
    canonical_sat_tester,
    certify_far,
    colorability_to_sat,
    distance_to_rho_is,
    distance_to_sat,
    estimate_acceptance,
    gen_er_graph,
    gen_planted_is_graph,
    gen_planted_sat_csp,
    gen_random_csp,
    gen_random_hypergraph,
    is_satisfiable,
    run_tester,
    serialize,
    shpp_to_sat,
    star_tester,
    testers,
)
from container_bench.cli import main
from container_bench.core import WorkCapExceeded, bits_of, check_subset_cap, mask_of, memo_of
from container_bench.rationals import ceil_frac, ln_interval, sign_with_ln
from container_bench.rng import (GENERATOR_NAME, make_rng, sample_without_replacement,
                                 substream_seed)
from container_bench.testers import TesterReport as Report, has_independent_set_of_size

from conftest import (
    complete_graph,
    oracle_k_colorable,
    oracle_max_independent_set,
    oracle_shpp_member,
    subsets,
)


# ------------------------------------------------------------- canonical sat

def sat_spec(csp, s, epsilon=Fraction(1, 4)):
    return TesterSpec.of("sat", csp, {"epsilon": epsilon, "s": s})


def test_sat_tester_one_sided_exact():
    # every satisfiable instance accepts on every seed, literally
    for seed in range(30):
        csp, _ = gen_planted_sat_csp(6, 2, 2, Fraction(1, 2), seed=seed)
        for s in range(2, 7):
            report = canonical_sat_tester(
                sat_spec(csp, s), make_rng(substream_seed(99, seed * 10 + s)))
            assert report.accepted


def test_sat_tester_full_sample_is_exact(triangle_csp, nae_csp):
    for csp in (triangle_csp, nae_csp):
        report = canonical_sat_tester(sat_spec(csp, csp.n), make_rng(5))
        assert report.accepted == is_satisfiable(csp).satisfiable


def test_sat_tester_rejects_when_covering_false_constraint():
    always_false = Csp.of(5, 2, 2,
                          [((0, 1), list(itertools.product((0, 1), repeat=2)))])
    for seed in range(50):
        report = canonical_sat_tester(sat_spec(always_false, 4), make_rng(seed), seed)
        covered = {0, 1} <= set(report.sample)
        assert report.accepted == (not covered)


def test_sat_tester_rejection_monotone_in_sample(triangle_csp):
    # rejection on S forces rejection on every superset of S
    for sub in subsets(range(3)):
        if is_satisfiable(triangle_csp, sub).satisfiable:
            continue
        for sup in subsets(range(3)):
            if set(sub) <= set(sup):
                assert not is_satisfiable(triangle_csp, sup).satisfiable


def test_sat_params_derivation_and_validation():
    params = SatTesterParams(Fraction(1, 4))
    derived = params.resolve_s(10**9, 2, 2)
    assert derived == math.ceil(2 * 8 * 4 * math.log(16) ** 2)
    with pytest.raises(ValueError):
        SatTesterParams(Fraction(1, 4), s=11).resolve_s(10, 2, 2)
    with pytest.raises(ValueError):
        SatTesterParams(Fraction(1, 4), s=0).resolve_s(10, 2, 2)


def test_sat_params_derived_s_matches_float_away_from_boundaries():
    for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 7), Fraction(1, 10)):
        for k, q in itertools.product((1, 2, 3), (1, 2, 3)):
            for c in (Fraction(1, 1000), Fraction(1, 7), Fraction(1), Fraction(5, 2)):
                value = float(c) * k * q**3 / float(eps) * math.log(k * q / float(eps)) ** 2
                if abs(value - round(value)) < 1e-6:
                    continue
                derived = SatTesterParams(eps, c=c).resolve_s(10**9, k, q)
                assert derived == math.ceil(value)


def test_sat_params_derived_s_is_exact_at_a_boundary():
    # c chosen so that c * k q^3 / eps * ln^2(kq/eps) lies within 1e-25 of
    # 1000 (k = q = 2, eps = 1/4: x = 16, lead = 64c), above it or below it.
    lo, hi = ln_interval(Fraction(16), terms=64)
    assert hi - lo < Fraction(1, 10**40)
    just_above = Fraction(1000) / (64 * lo * lo) * (1 + Fraction(1, 10**25))
    just_below = Fraction(1000) / (64 * hi * hi) * (1 - Fraction(1, 10**25))
    eps = Fraction(1, 4)
    assert SatTesterParams(eps, c=just_above).resolve_s(10**9, 2, 2) == 1001
    assert SatTesterParams(eps, c=just_below).resolve_s(10**9, 2, 2) == 1000
    # the float formula cannot tell the two apart
    for c in (just_above, just_below):
        assert float(c) * 2 * 8 / float(eps) * math.log(16) ** 2 == pytest.approx(1000, abs=1e-9)


@pytest.mark.parametrize("c, eps", [
    (10**20, Fraction(1, 4)), (-10**200, Fraction(1, 4)), (10**400, Fraction(1, 4)),
    (1, Fraction(1, 10**300)), (1, Fraction(1, 10**400))])
def test_sat_params_far_out_of_range_fail_fast(c, eps):
    """A derived s far beyond n, or beyond the float range, is a ValueError
    at once: stepping from the estimate stays within [0, n + 1]."""
    with pytest.raises(ValueError, match="derived sample size"):
        SatTesterParams(eps, c=Fraction(c)).resolve_s(6, 2, 2)


def _stepped_resolve_s(eps: Fraction, c: Fraction, n: int, k: int, q: int):
    """The earlier derived resolve_s: a float estimate, stepped to by units
    within [0, n + 1].  None where it raised."""
    lead = c * k * q**3 / eps
    x = k * q / eps
    estimate = math.ceil(float(lead) * math.log(x) ** 2)
    s = min(max(estimate, 0), n + 1)
    while s > 0 and sign_with_ln((Fraction(s - 1), 0, -lead), x) >= 0:
        s -= 1
    while s <= n and sign_with_ln((Fraction(s), 0, -lead), x) < 0:
        s += 1
    return s if 1 <= s <= n else None


def test_sat_params_derived_s_matches_the_stepped_search():
    rng = random.Random(8001)
    raised = 0
    for _ in range(1200):
        eps = Fraction(rng.randint(1, 999), 1000) / 10 ** rng.randint(0, 4)
        k, q = rng.randint(1, 4), rng.randint(1, 4)
        c = Fraction(rng.randint(-3, 10 ** rng.randint(1, 6)), 10 ** rng.randint(0, 6))
        n = rng.randint(1, 10 ** rng.randint(1, 8))
        want = _stepped_resolve_s(eps, c, n, k, q)
        params = SatTesterParams(eps, c=c)
        if want is None:
            raised += 1
            with pytest.raises(ValueError, match="derived sample size"):
                params.resolve_s(n, k, q)
        else:
            assert params.resolve_s(n, k, q) == want, (eps, c, n, k, q)
    assert 100 < raised < 1100


def test_sat_tester_report_fields(triangle_csp):
    report = canonical_sat_tester(sat_spec(triangle_csp, 2, Fraction(1, 3)),
                                  make_rng(7), seed=7)
    assert report.generator == "pcg64"
    assert report.kind == "canonical-sat"
    assert report.seed == 7
    assert report.query_count is None
    assert len(report.sample) == 2


# ----------------------------------------------------------------- verdict memo

def test_sat_estimate_searches_each_distinct_sample_once(tmp_path, monkeypatch):
    # At s = n every trial samples the same set, so 40 trials make one search.
    csp, _ = gen_planted_sat_csp(6, 2, 2, Fraction(1, 2), seed=4)
    path = tmp_path / "csp.json"
    path.write_text(serialize.canonical_dumps(serialize.csp_to_dict(csp)))
    calls = []

    def counting(*args):
        calls.append(args)
        return is_satisfiable(*args)

    monkeypatch.setattr(testers, "is_satisfiable", counting)
    assert main(["estimate", "sat", "--csp", str(path), "--epsilon", "1/4",
                 "--s", "6", "--seed", "3", "--trials", "40", "--workers", "1",
                 "--out", str(tmp_path / "est")]) == 0
    assert len(calls) == 1


def test_a_csp_pickled_after_trials_carries_no_verdict_memo():
    csp, _ = gen_planted_sat_csp(8, 2, 2, Fraction(1, 2), seed=1)
    spec = TesterSpec.of("sat", csp, {"epsilon": Fraction(1, 4), "s": 5})
    for seed in range(20):
        run_tester(spec, seed)
    assert csp.__dict__["_memo"]
    copy = pickle.loads(pickle.dumps(csp))
    assert "_memo" not in copy.__dict__
    assert copy == csp


def _far_csp(n, k, q, seed):
    """The first random CSP from seed on that is 1/10-far from satisfiable."""
    while True:
        csp = gen_random_csp(n, k, q, Fraction(1), Fraction(1, 2), seed=seed)
        if certify_far(csp, Fraction(1, 10)) is not None:
            return csp
        seed += 1


def test_memoized_verdicts_equal_fresh_searches():
    """2,000 seeded trials of sat, color and shpp over planted and far
    instances: every verdict, memoized or not, equals a fresh is_satisfiable
    on the report's sample, and the memo is hit."""
    eps = Fraction(1, 4)
    bipartite = SHPPSpec(2, ((0, 0), (0, 0)), ((0, 1), (1, 0)))
    runs = [
        ("sat", gen_planted_sat_csp(9, 2, 2, Fraction(1, 2), seed=3)[0], {"s": 7}),
        ("sat", gen_planted_sat_csp(8, 3, 3, Fraction(1, 2), seed=5)[0], {"s": 6}),
        ("sat", _far_csp(8, 2, 2, seed=0), {"s": 6}),
        ("sat", _far_csp(7, 3, 2, seed=0), {"s": 5}),
        ("color", gen_random_hypergraph(9, 3, Fraction(1, 4), seed=2), {"k": 2, "s": 7}),
        ("color", gen_random_hypergraph(8, 2, Fraction(3, 4), seed=2), {"k": 2, "s": 6}),
        ("shpp", gen_planted_is_graph(9, Fraction(1, 2), Fraction(1, 2), seed=1),
         {"spec": bipartite, "s": 7}),
        ("shpp", gen_er_graph(8, Fraction(1, 2), seed=1), {"spec": bipartite, "s": 6}),
    ]
    verdicts = set()
    for index, (kind, instance, options) in enumerate(runs):
        spec = TesterSpec.of(kind, instance, {"epsilon": eps, **options})
        for trial in range(250):
            report = run_tester(spec, substream_seed(index, trial))
            fresh = is_satisfiable(spec.instance, report.sample).satisfiable
            assert report.accepted == fresh, (kind, index, trial)
            verdicts.add(report.verdict)
        assert len(spec.instance.__dict__["_memo"]) < 250
    assert verdicts == {"accept", "reject"}


# ------------------------------------------------------------------- reductions

def test_colorability_reduction_examples(triangle_graph):
    edgeless = Hypergraph.from_edges(3, 5, [])
    assert is_satisfiable(colorability_to_sat(edgeless, 2)).satisfiable

    tri = Hypergraph.from_edges(2, 3, [(0, 1), (0, 2), (1, 2)])
    csp = colorability_to_sat(tri, 2)
    assert not is_satisfiable(csp).satisfiable  # odd cycle is not 2-colourable
    assert csp.constraints[0].falsifying == ((0, 0), (1, 1))


def test_colorability_reduction_matches_direct_oracle():
    for seed in range(40):
        n = 4 + seed % 3
        q = 2 + seed % 2
        rng = make_rng(seed + 1000)
        edges = [e for e in itertools.combinations(range(n), q)
                 if rng.random() < 0.4]
        h = Hypergraph.from_edges(q, n, edges)
        for k in (2, 3):
            assert (is_satisfiable(colorability_to_sat(h, k)).satisfiable
                    == oracle_k_colorable(h, k)), (seed, k)


def test_colorability_distance_preserved():
    tri = Hypergraph.from_edges(2, 3, [(0, 1), (0, 2), (1, 2)])
    csp = colorability_to_sat(tri, 2)
    # one edge removal 2-colours a triangle; distances agree at 1/C(3,2)
    assert distance_to_sat(csp).distance == Fraction(1, 3)


def test_shpp_colorability_spec_sets():
    k = 3
    lower = tuple(tuple(0 for _ in range(k)) for _ in range(k))
    upper = tuple(tuple(0 if i == j else 1 for j in range(k)) for i in range(k))
    spec = SHPPSpec(k, lower, upper)
    for a, b in itertools.product(range(k), repeat=2):
        assert spec.pair_allowed(False, a, b)
        assert spec.pair_allowed(True, a, b) == (a != b)


def test_shpp_biclique_spec_sets():
    spec = SHPPSpec(2, ((0, 1), (1, 0)), ((0, 1), (1, 0)))
    for a, b in itertools.product(range(2), repeat=2):
        assert spec.pair_allowed(False, a, b) == (a == b)
        assert spec.pair_allowed(True, a, b) == (a != b)


@pytest.mark.parametrize("k", [1, 2])
def test_shpp_pair_allowed_matches_the_spec_sets(k):
    """On every 0/1 spec with k parts: (a, b) is allowed iff it and (b, a)
    are both compatible part pairs: upper = 1 (adjacent) or lower = 0 (not
    adjacent)."""
    for lower, upper in itertools.product(itertools.product((0, 1), repeat=k * k),
                                          repeat=2):
        if any(lo > up for lo, up in zip(lower, upper)):
            continue
        spec = SHPPSpec(k, *(tuple(cells[i * k:(i + 1) * k] for i in range(k))
                             for cells in (lower, upper)))
        pairs = list(itertools.product(range(k), repeat=2))
        compatible = {False: {(i, j) for i, j in pairs if spec.lower[i][j] == 0},
                      True: {(i, j) for i, j in pairs if spec.upper[i][j] == 1}}
        for adjacent, allowed in compatible.items():
            for a, b in itertools.product(range(k), repeat=2):
                assert spec.pair_allowed(adjacent, a, b) == (
                    (a, b) in allowed and (b, a) in allowed)


def test_shpp_rejects_non_semi_homogeneous():
    with pytest.raises(ValueError):
        SHPPSpec(2, ((0, 0), (0, 0)), ((1, 1), (1, 0.5)))
    with pytest.raises(ValueError):
        SHPPSpec(2, ((1, 0), (0, 0)), ((0, 1), (1, 1)))


def test_shpp_reduction_matches_partition_oracle():
    specs = [
        SHPPSpec(2, ((0, 0), (0, 0)), ((0, 1), (1, 0))),  # 2-colourability
        SHPPSpec(2, ((0, 1), (1, 0)), ((0, 1), (1, 0))),  # biclique
        SHPPSpec(2, ((0, 0), (0, 1)), ((1, 1), (1, 1))),  # one clique part
        SHPPSpec(3, tuple(tuple(0 for _ in range(3)) for _ in range(3)),
                 tuple(tuple(1 for _ in range(3)) for _ in range(3))),  # free
    ]
    for seed in range(12):
        g = gen_er_graph(5, Fraction(1, 2), seed=seed)
        for spec in specs:
            got = is_satisfiable(shpp_to_sat(g, spec)).satisfiable
            assert got == oracle_shpp_member(g, spec), (seed, spec)


def test_shpp_biclique_concrete():
    spec = SHPPSpec(2, ((0, 1), (1, 0)), ((0, 1), (1, 0)))
    biclique = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_satisfiable(shpp_to_sat(biclique, spec)).satisfiable
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert is_satisfiable(shpp_to_sat(path, spec)).satisfiable
    not_biclique = Graph.from_edges(3, [(0, 1)])
    # isolated vertex 2 cannot join either side of a complete bipartition
    assert not is_satisfiable(shpp_to_sat(not_biclique, spec)).satisfiable


# ------------------------------------------------------------------ star tester

def make_star_params(rho, eps, r, s, disjoint=False):
    return StarTesterParams(rho=Fraction(rho), epsilon=Fraction(eps),
                            r=r, s=s, disjoint=disjoint)


def star_spec(g, rho, eps, r, s, disjoint=False):
    return TesterSpec.of("indepset", g, {"rho": Fraction(rho), "epsilon": Fraction(eps),
                                         "r": r, "s": s, "disjoint": disjoint})


def test_star_tester_edgeless_accepts():
    g = Graph.from_edges(10, [])
    report = star_tester(star_spec(g, "1/2", "1/8", 4, 6), make_rng(3))
    assert report.accepted


def test_star_tester_complete_rejects():
    g = complete_graph(10)
    for seed in range(10):
        report = star_tester(star_spec(g, "1/2", "1/8", 4, 6), make_rng(seed))
        assert not report.accepted


def test_star_tester_full_sampling_matches_brute_force():
    rho = Fraction(1, 2)
    for seed in range(25):
        g = gen_er_graph(8, Fraction((seed % 4) + 1, 5), seed=seed)
        target = -((-rho.numerator * g.n) // rho.denominator)
        expected = oracle_max_independent_set(g) >= target
        report = star_tester(star_spec(g, rho, "1/8", g.n, g.n), make_rng(seed))
        assert report.accepted == expected, seed


def test_star_tester_query_accounting():
    for seed in range(12):
        g = gen_er_graph(12, Fraction(1, 2), seed=seed + 5)
        r, s = 4, 7
        report = star_tester(star_spec(g, "1/2", "1/8", r, s), make_rng(seed))
        # recompute the distinct queried pairs independently
        rset = set(report.core_sample)
        sset = set(report.sample)
        pairs = {frozenset((a, b)) for a in rset for b in rset if a != b}
        pairs |= {frozenset((a, b)) for a in rset for b in sset if a != b}
        assert report.query_count == len(pairs)
        assert report.query_count <= math.comb(r, 2) + r * s


def test_star_tester_disjoint_mode():
    g = gen_er_graph(12, Fraction(1, 2), seed=3)
    report = star_tester(star_spec(g, "1/2", "1/8", 4, 6, disjoint=True), make_rng(11))
    assert not set(report.core_sample) & set(report.sample)


def recursive_core_search(graph, report, m_core, m_body):
    """star_tester's core search as it was, one recursion level per core
    vertex, on the adjacency its queries revealed: every pair inside the core
    sample and every core x body pair."""
    core_list = sorted(report.core_sample)
    seen = mask_of(core_list) | mask_of(report.sample)
    adj_known = {u: graph.adj[u] & seen for u in core_list}
    body_mask = mask_of(report.sample)

    def compatible_count(core_mask):
        blocked = 0
        for u in bits_of(core_mask):
            blocked |= adj_known[u]
        return (body_mask & ~blocked & ~core_mask).bit_count() + (
            body_mask & core_mask).bit_count()

    def search(start, core_mask, size):
        if size == m_core:
            compatible = compatible_count(core_mask)
            if compatible >= m_body:
                return {"core": bits_of(core_mask), "compatible": compatible}
            return None
        for idx in range(start, len(core_list)):
            if len(core_list) - idx < m_core - size:
                return None
            v = core_list[idx]
            if adj_known[v] & core_mask:
                continue
            witness = search(idx + 1, core_mask | (1 << v), size + 1)
            if witness is not None:
                return witness
        return None

    return search(0, 0, 0)


@pytest.mark.parametrize("block", range(2))
def test_star_tester_loop_matches_the_recursive_search(block):
    """600 seeded draws per block: n 2..16, ER graphs of five densities, both
    sampling modes; verdict and witness must match the recursion's."""
    rhos = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]
    for seed in range(600 * block, 600 * block + 600):
        rnd = random.Random(seed)
        n = rnd.randint(2, 16)
        disjoint = seed % 3 == 0
        r = rnd.randint(1, n // 2 if disjoint else n)
        s = rnd.randint(r, n - r if disjoint else n)
        g = gen_er_graph(n, Fraction(seed % 5, 4), seed=seed)
        rho = rnd.choice(rhos)
        report = star_tester(star_spec(g, rho, "1/8", r, s, disjoint), make_rng(seed), seed)
        witness = recursive_core_search(g, report, ceil_frac(rho * r), ceil_frac(rho * s))
        assert report.witness == witness, seed
        assert report.accepted == (witness is not None)


def test_star_tester_is_not_bounded_by_the_recursion_limit():
    # A core of 1,099 vertices; the recursive search raised RecursionError
    # (exit 3 from test indepset).
    g = Graph.from_edges(1200, [])
    report = star_tester(star_spec(g, "1099/1100", "1/100", 1100, 1100), make_rng(1), 1)
    assert report.accepted
    assert report.witness["core"] == tuple(sorted(report.core_sample))[:1099]


def test_star_tester_pure_function_of_seed():
    g = gen_er_graph(12, Fraction(1, 2), seed=9)
    spec = star_spec(g, "1/2", "1/8", 4, 6)
    a = star_tester(spec, make_rng(42), seed=42)
    b = star_tester(spec, make_rng(42), seed=42)
    assert a == b


def test_star_params_validation():
    with pytest.raises(ValueError):
        make_star_params("1/2", "1/8", 6, 4).resolve(10)  # r > s
    with pytest.raises(ValueError):
        make_star_params("1/2", "1/8", 4, 40).resolve(10)  # s > n
    derived = StarTesterParams(Fraction(1, 2), Fraction(1, 8)).resolve(10**6)
    eps = 1 / 8
    assert derived[0] == math.ceil(0.25 / eps**1.5 * math.log(1 / eps) ** 2)
    assert derived[1] == math.ceil(0.125 / eps**2 * math.log(1 / eps) ** 3)
    for params in (StarTesterParams(Fraction(1, 2), Fraction(1, 4), c1=Fraction(10**400)),
                   StarTesterParams(Fraction(1, 2), Fraction(1, 10**400))):
        with pytest.raises(ValueError, match="exceeds n"):
            params.resolve(10)


def _interval_star_sizes(rho: Fraction, eps: Fraction, c1: Fraction, c2: Fraction):
    """ceil(c1 rho^2 eps^{-3/2} L^2) and ceil(c2 rho^3 eps^{-2} L^3) for
    L = ln(1/eps), 0 < eps < 1, each clamped at 0, from the 64-term rational
    bounds on L; r through its square.  Asserts the bounds decide both."""
    lo, hi = ln_interval(1 / eps, 64)

    def least_root(a: Fraction) -> int:  # least r >= 0 with r^2 >= a
        r = math.isqrt(a.numerator // a.denominator)
        return r if r * r >= a else r + 1

    rs = {0 if c1 <= 0 else least_root(c1**2 * rho**4 * L**4 / eps**3) for L in (lo, hi)}
    ss = {max(ceil_frac(c2 * rho**3 * L**3 / eps**2), 0) for L in (lo, hi)}
    assert len(rs) == len(ss) == 1, (rho, eps, c1, c2)
    return rs.pop(), ss.pop()


def _star_boundary_cases():
    """(rho, eps, c1, c2, index, want): r (index 0) or s (index 1) lies within
    1e-25 of an integer N, above it (want N + 1) or below it (want N).  eps
    is a square, so eps^{3/2} is rational."""
    cases = []
    for rho, root, big in ((Fraction(1, 2), Fraction(1, 2), 37), (Fraction(1, 3), Fraction(1, 3), 500),
                           (Fraction(2, 3), Fraction(1, 10), 12345), (Fraction(1), Fraction(2, 3), 2)):
        eps = root * root
        lo, hi = ln_interval(1 / eps, 64)
        for L, shift, want in ((lo, 1 + Fraction(1, 10**25), big + 1),
                               (hi, 1 - Fraction(1, 10**25), big)):
            cases.append((rho, eps, big * root**3 / (rho**2 * L**2) * shift, Fraction(1000), 0, want))
            cases.append((rho, eps, Fraction(1, 10**9), big * eps**2 / (rho**3 * L**3) * shift, 1, want))
    return cases


def test_star_params_derived_sizes_match_an_interval_reference():
    rng = random.Random(8002)
    grid = []
    for _ in range(400):
        den = rng.randint(1, 10)
        rho = Fraction(rng.randint(1, den), den)
        eps = Fraction(rng.randint(1, 999), 1000) / 10 ** rng.randint(0, 3)
        c1 = Fraction(rng.randint(-2, 10 ** rng.randint(0, 4)), 10 ** rng.randint(0, 4))
        c2 = Fraction(rng.randint(-2, 10 ** rng.randint(0, 4)), 10 ** rng.randint(0, 4))
        grid.append((rho, eps, c1, c2))
    boundary = _star_boundary_cases()
    derived = 0
    for rho, eps, c1, c2 in grid + [case[:4] for case in boundary]:
        r, s = _interval_star_sizes(rho, eps, c1, c2)
        params = StarTesterParams(rho, eps, c1=c1, c2=c2)
        if 1 <= r <= s <= 10**12:
            derived += 1
            assert params.resolve(10**12) == (r, s), (rho, eps, c1, c2)
        else:
            with pytest.raises(ValueError):
                params.resolve(10**12)
    assert derived > 150
    # each boundary case lands on its side of N, where the float formula
    # cannot tell the two sides apart
    for rho, eps, c1, c2, index, want in boundary:
        assert StarTesterParams(rho, eps, c1=c1, c2=c2).resolve(10**12)[index] == want
        rho_f, eps_f = float(rho), float(eps)
        value = (float(c1) * rho_f**2 / eps_f**1.5 * math.log(1 / eps_f) ** 2 if index == 0
                 else float(c2) * rho_f**3 / eps_f**2 * math.log(1 / eps_f) ** 3)
        assert value == pytest.approx(round(value), abs=1e-9)


# ------------------------------------------------------------- canonical IS

def is_spec(g, rho, s):
    return TesterSpec.of("canonical-is", g, {"rho": rho, "s": s})


def test_canonical_is_edgeless_and_complete():
    edgeless = Graph.from_edges(8, [])
    assert canonical_is_tester(is_spec(edgeless, Fraction(1, 2), 4), make_rng(0)).accepted
    comp = complete_graph(8)
    report = canonical_is_tester(is_spec(comp, Fraction(1, 2), 4), make_rng(0))
    assert not report.accepted


def test_canonical_is_full_sample_exact():
    rho = Fraction(1, 2)
    for seed in range(15):
        g = gen_er_graph(7, Fraction(2, 5), seed=seed)
        target = -((-rho.numerator * g.n) // rho.denominator)
        expected = oracle_max_independent_set(g) >= target
        report = canonical_is_tester(is_spec(g, rho, g.n), make_rng(seed))
        assert report.accepted == expected


def test_canonical_is_query_count_exact():
    g = gen_er_graph(10, Fraction(1, 2), seed=2)
    for s in (2, 5, 9):
        report = canonical_is_tester(is_spec(g, Fraction(1, 2), s), make_rng(s))
        assert report.query_count == math.comb(s, 2)


class PairQueries:
    """The per-pair adapter the graph testers used: answers one pair query
    at a time and counts the distinct pairs asked."""

    def __init__(self, graph):
        self.graph = graph
        self.asked = set()

    def query(self, u, v):
        assert u != v
        self.asked.add(frozenset((u, v)))
        return self.graph.has_edge(u, v)


def per_pair_star_tester(graph, params, rng, seed=0):
    """star_tester as it was, reading its sample through PairQueries; kept
    as the reference for the mask-native tester."""
    n = graph.n
    r, s = params.resolve(n)
    if params.disjoint and r + s > n:
        raise ValueError(f"disjoint samples need r + s <= n, got {r}+{s} > {n}")
    core = sample_without_replacement(rng, n, r)
    if params.disjoint:
        outside = sorted(set(range(n)).difference(core))
        picks = sample_without_replacement(rng, len(outside), s)
        body = tuple(outside[i] for i in picks)
    else:
        body = sample_without_replacement(rng, n, s)
    m_core = ceil_frac(params.rho * r)
    m_body = ceil_frac(params.rho * s)
    check_subset_cap(r, m_core)

    counted = PairQueries(graph)
    core_list = sorted(core)
    body_list = sorted(body)
    adj_known = dict.fromkeys(core_list, 0)
    for i, u in enumerate(core_list):
        for v in core_list[i + 1:] + [w for w in body_list if w != u]:
            if counted.query(u, v):
                adj_known[u] |= 1 << v
                if v in adj_known:
                    adj_known[v] |= 1 << u
    body_mask = mask_of(body_list)

    def compatible_count(core_mask):
        blocked = 0
        for u in bits_of(core_mask):
            blocked |= adj_known[u]
        return (body_mask & ~blocked & ~core_mask).bit_count() + (
            body_mask & core_mask).bit_count()

    witness = None
    stack = [(0, 0, 0)]
    while stack:
        start, core_mask, size = stack.pop()
        if size == m_core:
            compatible = compatible_count(core_mask)
            if compatible >= m_body:
                witness = {"core": bits_of(core_mask), "compatible": compatible}
                break
            continue
        last = len(core_list) - (m_core - size)
        for idx in range(last, start - 1, -1):
            v = core_list[idx]
            if not adj_known[v] & core_mask:
                stack.append((idx + 1, core_mask | (1 << v), size + 1))

    return Report(
        kind="star", verdict="reject" if witness is None else "accept",
        seed=seed, generator=GENERATOR_NAME,
        params={"rho": str(params.rho), "epsilon": str(params.epsilon),
                "r": r, "s": s, "c1": str(params.c1), "c2": str(params.c2),
                "disjoint": params.disjoint},
        sample=body, core_sample=core, query_count=len(counted.asked),
        witness=witness)


def per_pair_canonical_is_tester(graph, rho, sample_size, rng, seed=0):
    """canonical_is_tester as it was, reading its sample through PairQueries."""
    n = graph.n
    if not 1 <= sample_size <= n:
        raise ValueError(f"sample size {sample_size} must lie in [1, {n}]")
    target = ceil_frac(Fraction(rho) * sample_size)
    check_subset_cap(sample_size, target)
    sample = sample_without_replacement(rng, n, sample_size)
    counted = PairQueries(graph)
    sample_list = sorted(sample)
    adj_known = [0] * n
    for i, u in enumerate(sample_list):
        for v in sample_list[i + 1:]:
            if counted.query(u, v):
                adj_known[u] |= 1 << v
                adj_known[v] |= 1 << u
    accepted = has_independent_set_of_size(adj_known, mask_of(sample_list), target)
    return Report(
        kind="canonical-is", verdict="accept" if accepted else "reject",
        seed=seed, generator=GENERATOR_NAME,
        params={"rho": str(Fraction(rho)), "s": sample_size},
        sample=sample, query_count=len(counted.asked))


def _report_or_refusal(trial):
    try:
        return trial()
    except WorkCapExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("block", range(2))
def test_graph_testers_match_their_per_pair_versions(block):
    """600 seeded draws per block: n 4..30, ER graphs of densities 0..1, the
    star tester in both sampling modes (its core and body overlap unless
    disjoint), every fifth draw at r = s = n and every fifth canonical-is
    draw at s = n; the whole TesterReport must match, query count included."""
    rhos = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]
    for seed in range(600 * block, 600 * block + 600):
        rnd = random.Random(seed)
        n = rnd.randint(4, 30)
        g = gen_er_graph(n, Fraction(rnd.randint(0, 8), 8), seed=seed)
        rho = rnd.choice(rhos)
        disjoint = seed % 3 == 0
        if seed % 5 == 0 and not disjoint:
            r = s = n
        else:
            r = rnd.randint(1, min(n // 2 if disjoint else n, 12))
            s = rnd.randint(r, n - r if disjoint else n)
        params = make_star_params(rho, "1/8", r, s, disjoint)
        assert _report_or_refusal(
            lambda: star_tester(star_spec(g, rho, "1/8", r, s, disjoint), make_rng(seed), seed)) == \
            _report_or_refusal(
                lambda: per_pair_star_tester(g, params, make_rng(seed), seed)), seed
        size = n if seed % 5 == 1 else rnd.randint(1, n)
        assert _report_or_refusal(
            lambda: canonical_is_tester(is_spec(g, rho, size), make_rng(seed), seed)) == \
            _report_or_refusal(lambda: per_pair_canonical_is_tester(
                g, rho, size, make_rng(seed), seed)), seed


# -------------------------------------------------------------- bound testers
#
# The trials as they were before TesterSpec.of bound every per-run constant:
# each one resolved its sizes, made its refusals and built its report's params
# itself.  Kept as the reference for the bound trials.

def per_trial_canonical_sat_tester(csp, params, rng, seed=0):
    s = params.resolve_s(csp.n, csp.k, csp.q)
    sample = sample_without_replacement(rng, csp.n, s)
    verdicts = memo_of(csp, lambda _: {})
    key = tuple(sorted(sample))
    satisfiable = verdicts.get(key)
    if satisfiable is None:
        satisfiable = verdicts[key] = is_satisfiable(csp, sample).satisfiable
    return Report(
        kind="canonical-sat", verdict="accept" if satisfiable else "reject",
        seed=seed, generator=GENERATOR_NAME,
        params={"epsilon": str(params.epsilon), "s": s, "c": str(params.c)},
        sample=sample, query_count=None)


def per_trial_star_tester(graph, params, rng, seed=0):
    n = graph.n
    r, s = params.resolve(n)
    if params.disjoint and r + s > n:
        raise ValueError(f"disjoint samples need r + s <= n, got {r}+{s} > {n}")
    core = sample_without_replacement(rng, n, r)
    if params.disjoint:
        outside = sorted(set(range(n)).difference(core))
        picks = sample_without_replacement(rng, len(outside), s)
        body = tuple(outside[i] for i in picks)
    else:
        body = sample_without_replacement(rng, n, s)

    m_core = ceil_frac(params.rho * r)
    m_body = ceil_frac(params.rho * s)
    check_subset_cap(r, m_core)

    core_list = sorted(core)
    body_mask = mask_of(body)
    seen = mask_of(core) | body_mask
    adj_known = {u: graph.adj[u] & seen for u in core_list}
    query_count = r * (seen.bit_count() - 1) - r * (r - 1) // 2

    def compatible_count(core_mask):
        blocked = 0
        for u in bits_of(core_mask):
            blocked |= adj_known[u]
        return (body_mask & ~blocked & ~core_mask).bit_count() + (
            body_mask & core_mask).bit_count()

    witness = None
    stack = [(0, 0, 0)]
    while stack:
        start, core_mask, size = stack.pop()
        if size == m_core:
            compatible = compatible_count(core_mask)
            if compatible >= m_body:
                witness = {"core": bits_of(core_mask), "compatible": compatible}
                break
            continue
        last = len(core_list) - (m_core - size)
        for idx in range(last, start - 1, -1):
            v = core_list[idx]
            if not adj_known[v] & core_mask:
                stack.append((idx + 1, core_mask | (1 << v), size + 1))

    return Report(
        kind="star", verdict="reject" if witness is None else "accept",
        seed=seed, generator=GENERATOR_NAME,
        params={"rho": str(params.rho), "epsilon": str(params.epsilon),
                "r": r, "s": s, "c1": str(params.c1), "c2": str(params.c2),
                "disjoint": params.disjoint},
        sample=body, core_sample=core, query_count=query_count, witness=witness)


def per_trial_canonical_is_tester(graph, rho, sample_size, rng, seed=0):
    n = graph.n
    if not 1 <= sample_size <= n:
        raise ValueError(f"sample size {sample_size} must lie in [1, {n}]")
    target = ceil_frac(Fraction(rho) * sample_size)
    check_subset_cap(sample_size, target)
    sample = sample_without_replacement(rng, n, sample_size)
    sample_mask = mask_of(sample)
    adj_known = {u: graph.adj[u] & sample_mask for u in sample}
    accepted = has_independent_set_of_size(adj_known, sample_mask, target)
    return Report(
        kind="canonical-is", verdict="accept" if accepted else "reject",
        seed=seed, generator=GENERATOR_NAME,
        params={"rho": str(Fraction(rho)), "s": sample_size},
        sample=sample, query_count=sample_size * (sample_size - 1) // 2)


def per_trial_reports(kind, instance, options, seeds):
    """Each seed's report, as the per-trial testers made it, or the message
    of the refusal its trial raised."""
    def trial(seed):
        rng = make_rng(seed)
        if kind == "indepset":
            return per_trial_star_tester(instance, StarTesterParams(**options), rng, seed)
        if kind == "canonical-is":
            return per_trial_canonical_is_tester(instance, options["rho"], options["s"],
                                                 rng, seed)
        report = per_trial_canonical_sat_tester(csp, params, rng, seed)
        if kind == "sat":
            return report
        return replace(report, kind=kind, params={**report.params, "k": csp.k})

    if kind in ("sat", "color", "shpp"):
        params = SatTesterParams(**{f: options[f] for f in ("epsilon", "s", "c") if f in options})
        # A copy, so the two sides keep separate verdict memos.
        csp = {"sat": lambda: pickle.loads(pickle.dumps(instance)),
               "color": lambda: colorability_to_sat(instance, options["k"]),
               "shpp": lambda: shpp_to_sat(instance, options["spec"])}[kind]()
    return [_report_or_message(lambda: trial(seed)) for seed in seeds]


def _report_or_message(make):
    try:
        return make()
    except (ValueError, WorkCapExceeded) as exc:
        return str(exc)


def _bound_cases():
    """300 seeded (kind, instance, options), 60 of each kind; some refuse."""
    rnd = random.Random(2201)
    specs = [SHPPSpec(2, ((0, 0), (0, 0)), ((0, 1), (1, 0))),
             SHPPSpec(2, ((0, 1), (1, 0)), ((0, 1), (1, 0))),
             SHPPSpec(3, ((0,) * 3,) * 3, ((1,) * 3,) * 3)]
    rhos = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    cases = []
    for index in range(300):
        kind = ("sat", "color", "shpp", "indepset", "canonical-is")[index % 5]
        big = index % 20 in (3, 4)  # a 30-vertex graph, past the subset cap
        n = 30 if big else rnd.randint(3, 10)
        density = Fraction(rnd.randint(0, 4), 4)
        sat = ({"s": rnd.randint(1, n), "epsilon": Fraction(1, rnd.randint(3, 10)),
                "c": Fraction(rnd.randint(1, 9), 3)} if rnd.random() < 0.7
               else {"epsilon": Fraction(1, 4),
                     "c": rnd.choice([Fraction(1, 1000), Fraction(1, 100)])})
        rho = Fraction(1, 2) if big else rnd.choice(rhos)
        if kind == "sat":
            cases.append((kind, gen_random_csp(n, rnd.randint(1, 3), 2, density,
                                               Fraction(1, 3), seed=index), sat))
        elif kind == "color":
            cases.append((kind, gen_random_hypergraph(n, rnd.randint(2, 3), density,
                                                      seed=index), {**sat, "k": rnd.randint(1, 3)}))
        elif kind == "shpp":
            cases.append((kind, gen_er_graph(n, density, seed=index),
                          {**sat, "spec": rnd.choice(specs)}))
        elif kind == "indepset":
            disjoint = rnd.random() < 0.5
            r = 28 if big else rnd.randint(1, n)
            s = rnd.randint(r, n)  # disjoint r + s > n refuses
            options = {"rho": rho, "epsilon": Fraction(1, rnd.randint(5, 9)), "r": r, "s": s,
                       "disjoint": disjoint, "c1": Fraction(rnd.randint(1, 9), 100),
                       "c2": Fraction(rnd.randint(1, 9), 100)}
            if rnd.random() < 0.2 and not big:  # derived sizes
                options.update(r=None, s=None, epsilon=Fraction(1, 4))
            cases.append((kind, gen_er_graph(n, density, seed=index), options))
        else:
            cases.append((kind, gen_er_graph(n, density, seed=index),
                          {"rho": rho, "s": 28 if big else rnd.randint(0, n + 1)}))
    return cases


def test_bound_testers_match_the_per_trial_testers():
    """300 seeded runs of five trials of sat, color, shpp, indepset (disjoint
    off and on, given and derived sizes) and canonical-is: each TesterReport
    equals the per-trial tester's, and a run the per-trial tester refused in
    its trials is refused by TesterSpec.of with the same message."""
    reports = refusals = 0
    kinds = set()
    for index, (kind, instance, options) in enumerate(_bound_cases()):
        seeds = [substream_seed(index, trial) for trial in range(5)]
        want = per_trial_reports(kind, instance, options, seeds)
        try:
            spec = TesterSpec.of(kind, instance, options)
        except (ValueError, WorkCapExceeded) as exc:
            got = [str(exc)] * len(seeds)
            refusals += 1
        else:
            got = [run_tester(spec, seed) for seed in seeds]
            reports += len(seeds)
            kinds.add((kind, options.get("disjoint")))
        assert got == want, (index, kind, options)
    assert reports >= 1000 and refusals >= 15
    assert {("indepset", False), ("indepset", True)} <= kinds and len(kinds) == 6


@pytest.mark.parametrize("kind, instance, options, message", [
    ("indepset", complete_graph(10),
     {"rho": Fraction(1, 2), "epsilon": Fraction(1, 8), "r": 4, "s": 7, "disjoint": True},
     "disjoint samples need r + s <= n, got 4+7 > 10"),
    ("canonical-is", complete_graph(10), {"rho": Fraction(1, 2), "s": 0},
     "sample size 0 must lie in [1, 10]"),
    ("canonical-is", complete_graph(10), {"rho": Fraction(1, 2), "s": 11},
     "sample size 11 must lie in [1, 10]"),
    ("indepset", Graph.from_edges(40, []),
     {"rho": Fraction(1, 2), "epsilon": Fraction(1, 8), "r": 30, "s": 30},
     "C(n, m) = C(30,15) exceeds the subset cap 10000000"),
    ("canonical-is", Graph.from_edges(40, []), {"rho": Fraction(1, 2), "s": 30},
     "C(n, m) = C(30,15) exceeds the subset cap 10000000"),
    ("color", Hypergraph.from_edges(2, 3, [(0, 1)]),
     {"epsilon": Fraction(1, 4), "s": 2, "k": 0}, "need at least one colour"),
])
def test_tester_refusals_happen_at_bind(kind, instance, options, message):
    with pytest.raises((ValueError, WorkCapExceeded)) as raised:
        TesterSpec.of(kind, instance, options)
    assert str(raised.value) == message


@pytest.mark.parametrize("trials", [1, 2000])
def test_per_run_constants_are_resolved_once_per_estimate(monkeypatch, trials):
    counts = {"resolve": 0, "resolve_s": 0, "check_subset_cap": 0}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    for owner, name in ((StarTesterParams, "resolve"), (SatTesterParams, "resolve_s"),
                        (testers, "check_subset_cap")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    g = gen_er_graph(12, Fraction(1, 2), seed=1)
    runs = [("sat", gen_planted_sat_csp(8, 2, 2, Fraction(1, 2), seed=1)[0],
             {"epsilon": Fraction(1, 4), "s": 5}, "resolve_s"),
            ("indepset", g, {"rho": Fraction(1, 2), "epsilon": Fraction(1, 8),
                             "r": 4, "s": 6}, "resolve"),
            ("canonical-is", g, {"rho": Fraction(1, 2), "s": 6}, None)]
    for kind, instance, options, resolver in runs:
        before = dict(counts)
        estimate_acceptance(TesterSpec.of(kind, instance, options), trials, 7)
        resolved = {name: counts[name] - before[name] for name in counts}
        assert resolved == {"resolve": resolver == "resolve",
                            "resolve_s": resolver == "resolve_s",
                            "check_subset_cap": kind != "sat"}, (kind, trials)


def test_has_independent_set_bb_matches_oracle():
    for seed in range(20):
        g = gen_er_graph(9, Fraction(1, 2), seed=seed + 77)
        alpha = oracle_max_independent_set(g)
        full = (1 << g.n) - 1
        for target in range(g.n + 1):
            assert has_independent_set_of_size(g.adj, full, target) == (target <= alpha)


def recursive_has_independent_set_of_size(adj, candidates, target):
    """has_independent_set_of_size as it was, one recursion level per
    branch, kept as the reference for the loop that replaced it."""
    def rec(mask, need):
        if need <= 0:
            return True
        if mask.bit_count() < need:
            return False
        best_v, best_d = -1, -1
        m = mask
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            d = (adj[w] & mask).bit_count()
            if d > best_d:
                best_v, best_d = w, d
        if best_d == 0:
            return True
        bit = 1 << best_v
        if rec(mask & ~bit & ~adj[best_v], need - 1):
            return True
        return rec(mask & ~bit, need)

    return rec(candidates, target)


def test_has_independent_set_loop_matches_the_recursive_search():
    # 1,200 seeded (graph, candidate mask, target) triples, n 1..18.
    for seed in range(1200):
        rnd = random.Random(seed)
        n = rnd.randint(1, 18)
        g = gen_er_graph(n, Fraction(rnd.randint(0, 10), 10), seed=seed)
        candidates = rnd.getrandbits(n)
        target = rnd.randint(-1, n + 1)
        assert has_independent_set_of_size(g.adj, candidates, target) == \
            recursive_has_independent_set_of_size(g.adj, candidates, target), seed


def test_has_independent_set_is_not_bounded_by_the_recursion_limit():
    # On K_1100 every branch drops one vertex: 1,100 levels deep.
    g = complete_graph(1100)
    full = (1 << g.n) - 1
    assert not has_independent_set_of_size(g.adj, full, 2)
    assert has_independent_set_of_size(g.adj, full, 1)
