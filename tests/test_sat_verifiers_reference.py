"""Differential test of the hypergraph container generator and its verifiers.

The references below are plain copies of the generator, closure,
container-degree and gcl-sat verifiers as they were before each container's
degree table was ranked once and the verifiers bound once per instance: every
iteration takes the max over a dict of deg_leq_n values, X_q by a scan of the
whole table, and every check is recomputed per independent set, with no memo.
The library must produce the same traces and outcomes, on a cold memo and on a
warm one.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Optional

import pytest

from container_bench import (
    Csp,
    Hypergraph,
    build_hypergraph,
    check_closure,
    check_container_degree,
    deg_leq_n,
    distance_to_sat,
    enumerate_independent_sets,
    run_generator,
    vars_of,
    verify_gcl_sat,
)
from container_bench.containers_sat import (
    ClosureOutcome,
    ContainerDegreeOutcome,
    ContainerDegreeRecord,
    ContainerTrace,
    GclSatCheck,
    GclSatOutcome,
    LevelRecord,
    NotFarError,
    SatIteration,
)
from container_bench.core import bits_of, is_independent, mask_of
from container_bench.generators import gen_random_csp, gen_random_hypergraph
from container_bench.rationals import le_with_ln


def _fresh(h: Hypergraph) -> Hypergraph:
    """An equal hypergraph with an empty memo."""
    return Hypergraph(h.q, h.n, h.edges, h.labels)


@lru_cache(maxsize=4096)
def ref_run_generator(h: Hypergraph, n_bound: int, i_mask: int) -> ContainerTrace:
    """The generator; cached, since closure and gcl-sat rerun it on equal inputs."""
    if not is_independent(h, i_mask):
        raise ValueError("input vertex set is not independent")
    if not 1 <= n_bound < h.n:
        raise ValueError(f"subgraph bound {n_bound} must satisfy 1 <= n < {h.n}")
    q = h.q
    f_mask, c_mask = 0, (1 << h.n) - 1
    iterations = []
    t = 0
    while i_mask & ~f_mask:
        t += 1
        values = {w: deg_leq_n(h, c_mask, n_bound, w).value for w in bits_of(c_mask)}
        v_q = max(bits_of(i_mask & ~f_mask), key=values.__getitem__)
        x_q = mask_of(w for w in values if values[w] > values[v_q])
        witness_mask = mask_of(deg_leq_n(h, c_mask, n_bound, v_q).witness)
        vbit = 1 << v_q
        level_v = witness_mask & ~vbit
        level_e = [e & ~vbit for e in h.edges
                   if e & vbit and e & ~c_mask == 0 and e & ~witness_mask == 0]
        selected, selected_mask = [v_q], vbit
        exclusions = [(q, x_q)]
        levels = [LevelRecord(q - 1, level_v, tuple(level_e))]
        degenerate = truncated = False
        for ell in range(q - 1, 1, -1):
            if not (i_mask & ~f_mask & ~selected_mask):
                truncated = True
                break
            level_deg = {w: 0 for w in bits_of(level_v)}
            for e in level_e:
                for w in bits_of(e):
                    level_deg[w] += 1
            candidates = i_mask & level_v
            if candidates:
                v_ell = max(bits_of(candidates), key=level_deg.__getitem__)
                x_ell = mask_of(w for w in level_deg if level_deg[w] > level_deg[v_ell])
                next_e = [e & ~(1 << v_ell) for e in level_e if (e >> v_ell) & 1]
            else:
                degenerate = True
                v_ell = bits_of(i_mask & ~f_mask & ~selected_mask)[0]
                x_ell = mask_of(w for w in level_deg if level_deg[w] > 0)
                next_e = []
            selected.append(v_ell)
            selected_mask |= 1 << v_ell
            exclusions.append((ell, x_ell))
            level_v &= ~(1 << v_ell)
            level_e = next_e
            levels.append(LevelRecord(ell - 1, level_v, tuple(level_e)))
        one_edge = 0 if truncated else reduce(or_, level_e, 0)
        removal = reduce(or_, (xs for _, xs in exclusions), one_edge | selected_mask)
        f_mask |= selected_mask
        c_mask &= ~removal
        iterations.append(SatIteration(t, tuple(selected), tuple(exclusions),
                                       tuple(levels), one_edge, f_mask, c_mask,
                                       degenerate, truncated))
    return ContainerTrace(h, n_bound, i_mask, tuple(iterations))


def ref_check_closure(h: Hypergraph, n_bound: int, i_mask: int) -> ClosureOutcome:
    trace = ref_run_generator(h, n_bound, i_mask)
    for t in range(1, trace.iteration_count + 1):
        sub = ref_run_generator(h, n_bound, trace.fingerprint_at(t))
        if sub.container_at(t) != trace.container_at(t):
            return ClosureOutcome(False, t, trace.iteration_count)
    return ClosureOutcome(True, None, trace.iteration_count)


def ref_check_container_degree(trace: ContainerTrace, k: int, n: int) -> ContainerDegreeOutcome:
    h = trace.hypergraph
    q = h.q
    coeff = math.comb(n - 1, q - 1)
    records = []
    for t in range(1, trace.iteration_count + 1):
        c_mask = trace.container_at(t)
        max_deg = max((deg_leq_n(h, c_mask, n, w).value for w in bits_of(c_mask)),
                      default=0)
        bound = Fraction(2 * k * q, t) * coeff
        tighter = Fraction(2 * k * (q - 1), t) * coeff
        records.append(ContainerDegreeRecord(t, max_deg, bound, tighter,
                                             max_deg <= bound, max_deg <= tighter))
    return ContainerDegreeOutcome(
        all(r.ok for r in records), all(r.tighter_ok for r in records),
        min((r.bound - r.max_degree for r in records), default=None), tuple(records))


def ref_verify_gcl_sat(csp, epsilon: Fraction, i_mask: int, distance) -> GclSatOutcome:
    if not distance.is_far(epsilon):
        raise NotFarError(f"instance distance {distance.distance} is below epsilon {epsilon}")
    h = build_hypergraph(csp)
    if not is_independent(h, i_mask):
        raise ValueError("input vertex set is not independent")
    if vars_of(h, i_mask) != i_mask.bit_count():
        raise ValueError("input vertex set is not variable-distinct")
    k, q, n = csp.k, csp.q, csp.n
    trace = ref_run_generator(h, n, i_mask)
    t_max = (8 * k * q / epsilon).__floor__()
    checks = []
    witness: Optional[int] = None
    for t in range(1, min(trace.iteration_count + 1, t_max) + 1):
        vt = vars_of(h, trace.container_at(t))
        ok = vt < n and le_with_ln(Fraction(n) * epsilon * t / (4 * k * q * q * (n - vt)),
                                   Fraction(1), k * q / epsilon)
        checks.append(GclSatCheck(t, vt, ok))
        if ok:
            witness = t
            break
    return GclSatOutcome(witness is not None, witness, epsilon, t_max,
                         trace.iteration_count, tuple(checks))


def _sample_sets(host, rnd: random.Random, count: int, **kwargs) -> list[int]:
    sets = [mask_of(s) for s in enumerate_independent_sets(host, **kwargs)]
    return sets if len(sets) <= count else rnd.sample(sets, count)


@pytest.mark.parametrize("block", range(10))
def test_generator_and_closure_match_the_reference(block):
    """1,000 seeded hypergraphs (q = 2, 3, 4 in turn), up to 6 independent sets
    and one bound each: whole traces and closure outcomes, cold (an empty
    memo per set) and warm (one memo shared by the host's sets and bounds,
    then every set again with all its traces memoized)."""
    rnd = random.Random(f"sat-generator-reference/{block}")
    for case in range(100):
        q = 2 + case % 3
        n = rnd.randint(q + 1, 9)
        h = gen_random_hypergraph(n, q, Fraction(rnd.randint(1, 4), 5),
                                  seed=block * 100 + case)
        bound = rnd.randint(1, n - 1)
        sets = _sample_sets(h, rnd, 6)
        want = {i: (ref_run_generator(h, bound, i), ref_check_closure(h, bound, i))
                for i in sets}
        for i_mask in sets:
            cold = _fresh(h)
            assert (run_generator(cold, bound, i_mask),
                    check_closure(cold, bound, i_mask)) == want[i_mask]
            assert (run_generator(h, bound, i_mask),
                    check_closure(h, bound, i_mask)) == want[i_mask]
            # Another bound on the same memo must not leak into this one.
            run_generator(h, rnd.randint(1, n - 1), i_mask)
        for i_mask in reversed(sets):
            assert (run_generator(h, bound, i_mask),
                    check_closure(h, bound, i_mask)) == want[i_mask]


@pytest.mark.parametrize("block", range(5))
def test_csp_verifiers_match_the_reference(block):
    """100 seeded CSP encodings (n 3-5, k 2-3, q 2-3), up to 12 variable-
    distinct independent sets each: run_generator at n, check_closure,
    check_container_degree, and verify_gcl_sat at two values of epsilon (the
    exact distance and half of it), cold and warm; then the refusals of a
    non-independent set, a repeated variable and a too-small distance."""
    rnd = random.Random(f"sat-verifiers-reference/{block}")
    for case in range(20):
        n, k, q = rnd.randint(3, 5), rnd.randint(2, 3), rnd.randint(2, 3)
        if q > n:
            q = 2
        csp = gen_random_csp(n, k, q, Fraction(rnd.randint(2, 5), 5),
                             Fraction(rnd.randint(1, 3), 4), block * 100 + case)
        h = build_hypergraph(csp)
        distance = distance_to_sat(csp)
        epsilons = [e for e in (distance.distance, distance.distance / 2) if 0 < e < 1]
        sets = _sample_sets(h, rnd, 12, variable_distinct=True)
        want = {}
        for i in sets:
            trace = ref_run_generator(h, n, i)
            want[i] = (trace, ref_check_closure(h, n, i),
                       ref_check_container_degree(trace, k, n),
                       [ref_verify_gcl_sat(csp, eps, i, distance) for eps in epsilons])

        def got(instance, i_mask):
            host = build_hypergraph(instance)
            trace = run_generator(host, n, i_mask)
            return (trace, check_closure(host, n, i_mask),
                    check_container_degree(trace, k, n),
                    [verify_gcl_sat(instance, eps, i_mask, distance=distance)
                     for eps in epsilons])
        for i_mask in sets:
            assert got(Csp(n, k, q, csp.constraints), i_mask) == want[i_mask]
            assert got(csp, i_mask) == want[i_mask]
        for i_mask in reversed(sets):
            assert got(csp, i_mask) == want[i_mask]
        for eps in epsilons:
            for bad in (*h.edges[:1], 0b11):
                with pytest.raises(ValueError) as mine:
                    verify_gcl_sat(csp, eps, bad, distance=distance)
                with pytest.raises(ValueError) as ref:
                    ref_verify_gcl_sat(csp, eps, bad, distance)
                assert str(mine.value) == str(ref.value)
            with pytest.raises(NotFarError):
                verify_gcl_sat(csp, (eps + 1) / 2, 0, distance=distance)
