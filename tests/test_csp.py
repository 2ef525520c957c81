import itertools
import random
from fractions import Fraction

import pytest

from container_bench import (
    Csp,
    WorkCapExceeded,
    assignment_vertex_set,
    build_hypergraph,
    distance_to_sat,
    enumerate_independent_sets,
    gen_planted_sat_csp,
    gen_random_csp,
    is_satisfiable,
    vars_of,
)
from container_bench import core
from container_bench.core import bits_of, mask_of
from container_bench.csp import Constraint, SatResult

from conftest import (assignment_of_vertex_set, falsified_count, hyperedges_inside,
                      oracle_min_falsified)


def test_one_constraint_per_scope_merging():
    csp = Csp.of(3, 2, 2, [((0, 1), [(0, 0)]), ((1, 0), [(1, 1)])])
    assert len(csp.constraints) == 1
    assert csp.constraints[0].falsifying == ((0, 0), (1, 1))


def test_scope_order_realigns_falsifying_tuples():
    # Constraint given on scope (2, 0): falsifying (a_for_2, a_for_0).
    csp = Csp.of(3, 2, 2, [((2, 0), [(1, 0)])])
    c = csp.constraints[0]
    assert c.scope == (0, 2)
    assert c.falsifying == ((0, 1),)


def restriction(csp: Csp, variables) -> tuple[Csp, tuple[int, ...]]:
    """phi[S] as its own instance, reindexed: the constraints whose scopes lie
    inside S, and S sorted, whose i-th entry is restricted variable i."""
    kept = tuple(sorted(set(variables)))
    index = {v: i for i, v in enumerate(kept)}
    constraints = tuple(Constraint(tuple(index[v] for v in c.scope), c.falsifying)
                        for c in csp.constraints if set(c.scope) <= set(kept))
    return Csp(len(kept), csp.k, csp.q, constraints), kept


def test_restrict_full_and_empty(triangle_csp):
    # The triangle's three "not equal" constraints over {0, 1} admit no
    # 2-colouring of all three variables; one variable alone carries none.
    assert is_satisfiable(triangle_csp, range(3)) == is_satisfiable(triangle_csp)
    assert not is_satisfiable(triangle_csp, (2, 0, 1)).satisfiable
    assert is_satisfiable(triangle_csp, (1,)) == SatResult(True, {1: 0})
    assert is_satisfiable(triangle_csp, ()) == SatResult(True, {})


def test_restrict_triangle_pair(triangle_csp):
    # phi[{0, 2}] keeps the one constraint on (0, 2): values must differ.
    assert is_satisfiable(triangle_csp, (2, 0)) == SatResult(True, {0: 0, 2: 1})


def test_is_satisfiable_on_a_sample_checks_its_variables(triangle_csp):
    for bad in ((0, 3), (-1,), (5, 1)):
        with pytest.raises(ValueError, match="out of range"):
            is_satisfiable(triangle_csp, bad)
    assert is_satisfiable(triangle_csp, (0, 2, 0, 2)) == is_satisfiable(triangle_csp, (0, 2))


def test_is_satisfiable_caps_k_to_the_sample_size():
    csp = Csp(40, 2, 2, ())
    assert is_satisfiable(csp, range(10)) == SatResult(True, dict.fromkeys(range(10), 0))
    with pytest.raises(WorkCapExceeded, match=r"k\^n = 2\^40 exceeds the assignment cap"):
        is_satisfiable(csp)


def test_is_satisfiable_trivial_cases(nae_csp):
    empty = Csp.of(3, 2, 2, [])
    assert is_satisfiable(empty).satisfiable
    always_false = Csp.of(2, 2, 2, [((0, 1), list(itertools.product((0, 1), repeat=2)))])
    assert not is_satisfiable(always_false).satisfiable
    res = is_satisfiable(nae_csp)
    assert res.satisfiable
    assert falsified_count(nae_csp, tuple(res.witness[i] for i in range(3))) == 0
    # deterministic backtracking order finds 001
    assert res.witness == {0: 0, 1: 0, 2: 1}


def test_is_satisfiable_cap(monkeypatch):
    big = Csp.of(30, 3, 2, [])
    monkeypatch.setattr(core, "ASSIGNMENT_CAP", 1 << 10)
    with pytest.raises(WorkCapExceeded):
        is_satisfiable(big)


def recursive_is_satisfiable(csp: Csp) -> SatResult:
    """The recursive backtracking is_satisfiable had, one level per variable,
    kept as the reference for the loop that replaced it."""
    by_last = [[] for _ in range(csp.n)]
    for c in csp.constraints:
        by_last[c.scope[-1]].append(c)
    values = [0] * csp.n

    def backtrack(depth: int) -> bool:
        if depth == csp.n:
            return True
        for a in range(csp.k):
            values[depth] = a
            ok = all(tuple(values[i] for i in c.scope) not in c.falsifying_set
                     for c in by_last[depth])
            if ok and backtrack(depth + 1):
                return True
        return False

    if csp.n == 0:
        return SatResult(True, {})
    if backtrack(0):
        return SatResult(True, {i: values[i] for i in range(csp.n)})
    return SatResult(False, None)


@pytest.mark.parametrize("block", range(4))
def test_is_satisfiable_matches_the_recursive_search(block):
    """300 seeded CSPs per block, k = 1 included, each whole and on a random
    sample S, as the canonical tester asks: phi[S] decided in place must match
    the recursion on phi[S] built as its own instance, witness remapped."""
    for seed in range(300 * block, 300 * block + 300):
        rnd = random.Random(seed)
        n, k, q = rnd.randrange(11), 1 + seed % 3, 1 + rnd.randrange(3)
        if seed % 2:
            csp = gen_planted_sat_csp(n, k, q, Fraction(rnd.randrange(11), 10), seed)[0]
        else:
            csp = gen_random_csp(n, k, q, Fraction(rnd.randrange(11), 10),
                                 Fraction(rnd.randrange(5), 10), seed)
        assert is_satisfiable(csp) == recursive_is_satisfiable(csp), seed
        sample = rnd.sample(range(n), rnd.randrange(n + 1))
        sub, kept = restriction(csp, sample)
        expected = recursive_is_satisfiable(sub)
        if expected.satisfiable:
            expected = SatResult(True, {kept[i]: a for i, a in expected.witness.items()})
        assert is_satisfiable(csp, sample) == expected, seed


def test_is_satisfiable_is_not_bounded_by_the_recursion_limit():
    """k = 1 passes every assignment cap, so only a loop reaches n = 5000."""
    assert is_satisfiable(Csp(5000, 1, 2, ())) == SatResult(True, dict.fromkeys(range(5000), 0))
    chain = Csp.of(3000, 1, 2, [((x, x + 1), []) for x in range(2999)] + [((0, 2999), [(0, 0)])])
    assert is_satisfiable(chain) == SatResult(False, None)


def test_distance_examples(triangle_csp, nae_csp):
    assert distance_to_sat(nae_csp).min_falsified == 0
    assert distance_to_sat(nae_csp).distance == 0

    dist = distance_to_sat(triangle_csp)
    assert (dist.min_falsified, dist.distance) == (1, Fraction(1, 3))
    oracle = oracle_min_falsified(triangle_csp)
    assert oracle == (1, Fraction(1, 3))

    one_false = Csp.of(4, 2, 2, [((0, 1), list(itertools.product((0, 1), repeat=2)))])
    d = distance_to_sat(one_false)
    assert d.min_falsified == 1 and d.distance == Fraction(1, 6)


def test_distance_epsilon_threshold(triangle_csp):
    dist = distance_to_sat(triangle_csp)
    assert dist.is_far(Fraction(1, 3))
    assert not dist.is_far(Fraction(1, 3) + Fraction(1, 1000))


def test_build_hypergraph_nae(nae_csp):
    h = build_hypergraph(nae_csp)
    assert h.n == 6
    assert h.q == 3
    # vertex x*k + a; the two all-equal assignments form the only edges
    expected = {mask_of((0, 2, 4)), mask_of((1, 3, 5))}
    assert set(h.edges) == expected
    assert h.labels[5] == (2, 1)


def test_build_hypergraph_trivial_and_equality():
    free = Csp.of(3, 2, 2, [])
    assert build_hypergraph(free).edges == ()
    assert build_hypergraph(free).n == 6

    eq = Csp.of(2, 3, 2, [((0, 1), [(a, b) for a in range(3) for b in range(3) if a != b])])
    h = build_hypergraph(eq)
    assert len(h.edges) == 6  # 9 tuples, 3 satisfy equality


def test_vars_of(triangle_csp):
    h = build_hypergraph(triangle_csp)
    assert vars_of(h, ()) == 0
    assert vars_of(h, (0, 1, 2)) == 2  # (x0,0),(x0,1),(x1,0)
    assert vars_of(h, range(6)) == 3
    from container_bench import Hypergraph

    with pytest.raises(ValueError):
        vars_of(Hypergraph.from_edges(2, 4, [(0, 1)]), (0,))


def test_assignment_vertex_set_roundtrip(triangle_csp):
    assert assignment_vertex_set(triangle_csp, {}) == ()
    a = {0: 1, 2: 0}
    vs = assignment_vertex_set(triangle_csp, a)
    assert assignment_of_vertex_set(triangle_csp, vs) == a
    with pytest.raises(ValueError):
        assignment_of_vertex_set(triangle_csp, (0, 1))  # variable 0 twice


def test_all_zero_assignment_induces_three_edges(triangle_csp):
    # Expected value derived by counting falsified constraints directly: the
    # all-zero assignment falsifies all three inequality constraints.
    h = build_hypergraph(triangle_csp)
    vs = assignment_vertex_set(triangle_csp, {0: 0, 1: 0, 2: 0})
    assert hyperedges_inside(h, mask_of(vs)) == 3
    assert falsified_count(triangle_csp, (0, 0, 0)) == 3


def test_observation_edge_count_equals_falsified_small_sweep():
    # falsified-constraint count == induced edge count of the encoding, for
    # every total assignment of a few small instances
    instances = [
        Csp.of(3, 2, 2, [((0, 1), [(0, 0)]), ((0, 2), [(1, 0), (0, 1)])]),
        Csp.of(4, 2, 3, [((0, 1, 2), [(0, 0, 0)]), ((1, 2, 3), [(1, 0, 1), (0, 1, 0)])]),
        Csp.of(3, 3, 2, [((0, 1), [(0, 0), (1, 2)]), ((1, 2), [(2, 2)])]),
    ]
    for csp in instances:
        h = build_hypergraph(csp)
        for assignment in itertools.product(range(csp.k), repeat=csp.n):
            vs = assignment_vertex_set(csp, dict(enumerate(assignment)))
            assert hyperedges_inside(h, mask_of(vs)) == falsified_count(csp, assignment)


def test_satisfiable_iff_full_variable_distinct_independent_set(triangle_csp, nae_csp):
    for csp in (triangle_csp, nae_csp):
        h = build_hypergraph(csp)
        full = [s for s in enumerate_independent_sets(h, variable_distinct=True)
                if len(s) == csp.n]
        assert bool(full) == is_satisfiable(csp).satisfiable


def test_restriction_preserves_satisfiability(nae_csp):
    assert distance_to_sat(nae_csp).min_falsified == 0
    for size in range(4):
        for sub in itertools.combinations(range(3), size):
            assert distance_to_sat(restriction(nae_csp, sub)[0]).min_falsified == 0


# ---------------------------------------------------------- distance_to_sat


def old_distance_sweep(csp: Csp) -> tuple[int, tuple[int, ...]]:
    """The pure-Python sweep that distance_to_sat replaced: product order, a
    strict < so the first minimum is kept, and a stop at the first 0."""
    best, witness = None, ()
    for assignment in itertools.product(range(csp.k), repeat=csp.n):
        count = falsified_count(csp, assignment)
        if best is None or count < best:
            best, witness = count, assignment
            if best == 0:
                break
    return best, witness


def assert_matches_old_sweep(csp: Csp) -> None:
    dist = distance_to_sat(csp)
    assert (dist.min_falsified, dist.distance) == oracle_min_falsified(csp)
    assert (dist.min_falsified, dist.witness) == old_distance_sweep(csp)
    assert type(dist.min_falsified) is int
    assert all(type(a) is int for a in dist.witness)


def seeded_csps(count: int, seed: int):
    """Random and planted instances, n 0-9, k 1-3, q 1-3; k = 3 stops at
    n = 7 here (3^9 assignments are left to test_distance_large_alphabet)."""
    rng = random.Random(seed)
    for i in range(count):
        k, q = rng.randint(1, 3), rng.randint(1, 3)
        n = rng.randint(0, 9 if k < 3 else 7)
        density = Fraction(rng.randint(1, 4), 4)
        if i % 2:
            yield gen_planted_sat_csp(n, k, q, density, rng.getrandbits(32))[0]
        else:
            yield gen_random_csp(n, k, q, density, Fraction(rng.randint(0, 4), 4),
                                 rng.getrandbits(32))


def test_distance_differential_on_seeded_csps():
    count = 0
    for csp in seeded_csps(1000, seed=20260418):
        assert_matches_old_sweep(csp)
        count += 1
    assert count == 1000


@pytest.mark.parametrize("n, q, seed", [(8, 2, 1), (9, 2, 2), (9, 3, 3)])
def test_distance_large_alphabet(n, q, seed):
    assert_matches_old_sweep(gen_random_csp(n, 3, q, Fraction(1, 4), Fraction(1, 3), seed))


def test_distance_edge_cases():
    for csp in (Csp.of(0, 2, 1, []), Csp.of(0, 1, 3, []), Csp.of(6, 3, 2, []),
                Csp.of(5, 1, 2, [((0, 1), [(0, 0)]), ((2, 4), [(0, 0)])]),
                Csp.of(4, 1, 1, [((3,), [])])):
        assert_matches_old_sweep(csp)
    assert distance_to_sat(Csp.of(0, 2, 1, [])).witness == ()
    assert distance_to_sat(Csp.of(6, 3, 2, [])).witness == (0,) * 6
    # every tuple falsifying: every assignment falsifies every constraint
    full = Csp.of(7, 2, 2, [(scope, list(itertools.product(range(2), repeat=2)))
                            for scope in itertools.combinations(range(7), 2)])
    dist = distance_to_sat(full)
    assert (dist.min_falsified, dist.distance, dist.witness) == (21, Fraction(1), (0,) * 7)


def pinned_csp(n: int, k: int, index: int) -> tuple[Csp, tuple[int, ...]]:
    """Unary constraints whose only satisfying assignment is number `index`
    in itertools.product order."""
    digits = [(index // k ** (n - 1 - x)) % k for x in range(n)]
    return Csp.of(n, k, 1, [((x,), [(a,) for a in range(k) if a != digits[x]])
                            for x in range(n)]), tuple(digits)


@pytest.mark.parametrize("n, k, index", [
    (8, 2, 63), (8, 2, 64), (8, 2, 191), (8, 2, 192), (8, 2, 255),
    (9, 3, 100), (9, 3, 3**9 - 1), (15, 2, 16383), (15, 2, 16384), (15, 2, 30001),
])
def test_distance_finds_a_satisfying_assignment_beyond_the_first_chunk(n, k, index):
    csp, digits = pinned_csp(n, k, index)
    dist = distance_to_sat(csp)
    assert (dist.min_falsified, dist.witness) == (0, digits)
    if k**n <= 3**8:
        # the same pin as binary constraints, merged into a planted instance
        planted, _ = gen_planted_sat_csp(n, k, 2, Fraction(1, 2), index)
        pins = [((x, (x + 1) % n), [(a, b) for a in range(k) for b in range(k)
                                    if a != digits[x]]) for x in range(n)]
        assert_matches_old_sweep(Csp.of(
            n, k, 2, [(c.scope, c.falsifying) for c in planted.constraints] + pins))


def test_distance_cap_boundary(monkeypatch):
    csp = gen_random_csp(7, 3, 2, Fraction(1, 2), Fraction(1, 3), 5)
    uncapped = distance_to_sat(csp)
    monkeypatch.setattr(core, "ASSIGNMENT_CAP", 3**7)
    assert distance_to_sat(csp) == uncapped
    monkeypatch.setattr(core, "ASSIGNMENT_CAP", 3**7 - 1)
    with pytest.raises(WorkCapExceeded, match=r"^k\^n = 3\^7 exceeds the assignment cap 2186$"):
        distance_to_sat(csp)
