import itertools
import math
import random
from fractions import Fraction

import pytest

from container_bench import (
    Csp,
    Graph,
    Hypergraph,
    SHPPSpec,
    SatTesterParams,
    StarTesterParams,
    canonical_is_tester,
    canonical_sat_tester,
    colorability_to_sat,
    distance_to_rho_is,
    distance_to_sat,
    gen_er_graph,
    gen_planted_sat_csp,
    is_satisfiable,
    restrict,
    shpp_to_sat,
    star_tester,
)
from container_bench.rationals import ceil_frac, ln_interval, sign_with_ln
from container_bench.rng import make_rng, substream_seed
from container_bench.testers import QueryCountingGraph, has_independent_set_of_size

from conftest import (
    complete_graph,
    oracle_k_colorable,
    oracle_max_independent_set,
    oracle_shpp_member,
    subsets,
)


# ------------------------------------------------------------- canonical sat

def test_sat_tester_one_sided_exact():
    # every satisfiable instance accepts on every seed, literally
    for seed in range(30):
        csp, _ = gen_planted_sat_csp(6, 2, 2, Fraction(1, 2), seed=seed)
        for s in range(2, 7):
            report = canonical_sat_tester(
                csp, SatTesterParams(Fraction(1, 4), s=s),
                make_rng(substream_seed(99, seed * 10 + s)))
            assert report.accepted


def test_sat_tester_full_sample_is_exact(triangle_csp, nae_csp):
    for csp in (triangle_csp, nae_csp):
        report = canonical_sat_tester(csp, SatTesterParams(Fraction(1, 4), s=csp.n),
                                      make_rng(5))
        assert report.accepted == is_satisfiable(csp).satisfiable


def test_sat_tester_rejects_when_covering_false_constraint():
    always_false = Csp.of(5, 2, 2,
                          [((0, 1), list(itertools.product((0, 1), repeat=2)))])
    for seed in range(50):
        report = canonical_sat_tester(always_false,
                                      SatTesterParams(Fraction(1, 4), s=4),
                                      make_rng(seed), seed)
        covered = {0, 1} <= set(report.sample)
        assert report.accepted == (not covered)


def test_sat_tester_rejection_monotone_in_sample(triangle_csp):
    # rejection on S forces rejection on every superset of S
    for sub in subsets(range(3)):
        if is_satisfiable(restrict(triangle_csp, sub).csp).satisfiable:
            continue
        for sup in subsets(range(3)):
            if set(sub) <= set(sup):
                assert not is_satisfiable(restrict(triangle_csp, sup).csp).satisfiable


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
    report = canonical_sat_tester(triangle_csp,
                                  SatTesterParams(Fraction(1, 3), s=2),
                                  make_rng(7), seed=7)
    assert report.generator == "pcg64"
    assert report.kind == "canonical-sat"
    assert report.seed == 7
    assert report.query_count is None
    assert len(report.sample) == 2


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
    assert spec.pi0() == frozenset((i, j) for i in range(k) for j in range(k))
    assert spec.pi1() == frozenset((i, j) for i in range(k) for j in range(k)
                                   if i != j)


def test_shpp_biclique_spec_sets():
    spec = SHPPSpec(2, ((0, 1), (1, 0)), ((0, 1), (1, 0)))
    assert spec.pi0() == frozenset({(0, 0), (1, 1)})
    assert spec.pi1() == frozenset({(0, 1), (1, 0)})


@pytest.mark.parametrize("k", [1, 2])
def test_shpp_pair_allowed_matches_the_spec_sets(k):
    """On every 0/1 spec with k parts: (a, b) is allowed iff it and (b, a)
    are both in pi1 (adjacent) or pi0 (not adjacent)."""
    import itertools

    for lower, upper in itertools.product(itertools.product((0, 1), repeat=k * k),
                                          repeat=2):
        if any(lo > up for lo, up in zip(lower, upper)):
            continue
        spec = SHPPSpec(k, *(tuple(cells[i * k:(i + 1) * k] for i in range(k))
                             for cells in (lower, upper)))
        for adjacent, allowed in ((False, spec.pi0()), (True, spec.pi1())):
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


def test_star_tester_edgeless_accepts():
    g = Graph.from_edges(10, [])
    report = star_tester(g, make_star_params("1/2", "1/8", 4, 6), make_rng(3))
    assert report.accepted


def test_star_tester_complete_rejects():
    g = complete_graph(10)
    for seed in range(10):
        report = star_tester(g, make_star_params("1/2", "1/8", 4, 6),
                             make_rng(seed))
        assert not report.accepted


def test_star_tester_full_sampling_matches_brute_force():
    rho = Fraction(1, 2)
    for seed in range(25):
        g = gen_er_graph(8, Fraction((seed % 4) + 1, 5), seed=seed)
        target = -((-rho.numerator * g.n) // rho.denominator)
        expected = oracle_max_independent_set(g) >= target
        report = star_tester(g, make_star_params(rho, "1/8", g.n, g.n),
                             make_rng(seed))
        assert report.accepted == expected, seed


def test_star_tester_query_accounting():
    for seed in range(12):
        g = gen_er_graph(12, Fraction(1, 2), seed=seed + 5)
        r, s = 4, 7
        report = star_tester(g, make_star_params("1/2", "1/8", r, s),
                             make_rng(seed))
        # recompute the distinct queried pairs independently
        rset = set(report.core_sample)
        sset = set(report.sample)
        pairs = {frozenset((a, b)) for a in rset for b in rset if a != b}
        pairs |= {frozenset((a, b)) for a in rset for b in sset if a != b}
        assert report.query_count == len(pairs)
        assert report.query_count <= math.comb(r, 2) + r * s


def test_star_tester_disjoint_mode():
    g = gen_er_graph(12, Fraction(1, 2), seed=3)
    report = star_tester(g, make_star_params("1/2", "1/8", 4, 6, disjoint=True),
                         make_rng(11))
    assert not set(report.core_sample) & set(report.sample)


def test_star_tester_pure_function_of_seed():
    g = gen_er_graph(12, Fraction(1, 2), seed=9)
    p = make_star_params("1/2", "1/8", 4, 6)
    a = star_tester(g, p, make_rng(42), seed=42)
    b = star_tester(g, p, make_rng(42), seed=42)
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

def test_canonical_is_edgeless_and_complete():
    edgeless = Graph.from_edges(8, [])
    assert canonical_is_tester(edgeless, Fraction(1, 2), 4, make_rng(0)).accepted
    comp = complete_graph(8)
    report = canonical_is_tester(comp, Fraction(1, 2), 4, make_rng(0))
    assert not report.accepted


def test_canonical_is_full_sample_exact():
    rho = Fraction(1, 2)
    for seed in range(15):
        g = gen_er_graph(7, Fraction(2, 5), seed=seed)
        target = -((-rho.numerator * g.n) // rho.denominator)
        expected = oracle_max_independent_set(g) >= target
        report = canonical_is_tester(g, rho, g.n, make_rng(seed))
        assert report.accepted == expected


def test_canonical_is_query_count_exact():
    g = gen_er_graph(10, Fraction(1, 2), seed=2)
    for s in (2, 5, 9):
        report = canonical_is_tester(g, Fraction(1, 2), s, make_rng(s))
        assert report.query_count == math.comb(s, 2)


def test_query_counting_adapter_dedups():
    g = Graph.from_edges(3, [(0, 1)])
    counted = QueryCountingGraph(g)
    assert counted.query(0, 1) and counted.query(1, 0)
    counted.query(0, 2)
    assert counted.query_count == 2
    with pytest.raises(ValueError):
        counted.query(1, 1)


def test_has_independent_set_bb_matches_oracle():
    for seed in range(20):
        g = gen_er_graph(9, Fraction(1, 2), seed=seed + 77)
        alpha = oracle_max_independent_set(g)
        full = (1 << g.n) - 1
        for target in range(g.n + 1):
            assert has_independent_set_of_size(g.adj, full, target) == (target <= alpha)
