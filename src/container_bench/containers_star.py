"""The inner/outer container generator for independent-set stars and the
verifiers built on its traces.

An independent-set star is an independent core I plus outer vertices J with
no edge into I.  The generator tracks two containers per iteration: the inner
container C (contains the core) drops neighbours of the two fingerprint
vertices and everything with strictly larger degree than either of them; the
outer container D (contains the whole star) drops only the neighbours, since
a vertex can be evicted from D only by exhibiting an edge into I.

A `StarBounds` holds what the two-bullet verifier needs from (n, rho, eps)
alone (t_max, the bullet threshold, the edge cap, the largest container size
meeting the size bound at each reachable t); a sweep builds it once per
instance, so per-set checks compare integers.  `check_shrinking` decides its
premises by integer cross-multiplication; `verify shrinking` loads each
corpus entry (graph, exact distance, independent sets) once.

Memo: `run_star_generator` keeps each finished iterations tuple on the Graph
(attribute `_memo`, built on first use by `core.memo_of`), keyed on the
independent-set mask, so closure's reruns on fingerprint prefixes and repeat
draws in `verify shrinking` replay it.  Every call still validates its input
(range and independence) before the lookup.  The memo holds no reference
back to the graph, takes no part in ==, hash, repr or pickling, and is freed
with the graph.  An entry is a pure function of its key, so threads racing
on a memo can at worst compute it twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Graph,
    argmax_degree,
    as_mask,
    bits_of,
    check_subset_cap,
    is_independent,
    memo_of,
)
from .containers_sat import ClosureOutcome, NotFarError, extended_at
from .rationals import (ceil_frac, floor_frac, floor_times_ln, le_with_ln, least_int,
                        sign_with_ln)


@dataclass(frozen=True)
class StarIteration:
    """One iteration: the picked pair (u, v), then F_t, C_t and D_t as masks."""

    t: int
    u: int
    v: Optional[int]
    fingerprint: int
    inner: int
    outer: int


@dataclass(frozen=True)
class StarContainerTrace:
    """Per-iteration fingerprints and container pairs for one core (a mask).

    fingerprint_at/inner_at/outer_at return masks; the first two apply the
    `extended_at` rule, and past the executed loop D_t keeps its final value.
    """

    graph: Graph
    independent_set: int
    iterations: tuple[StarIteration, ...]

    fingerprint_at = extended_at("fingerprint", lambda trace: 0)
    inner_at = extended_at("inner", lambda trace: (1 << trace.graph.n) - 1)

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

    def outer_at(self, t: int) -> int:
        if t <= 0 or not self.iterations:
            return (1 << self.graph.n) - 1
        return self.iterations[min(t, len(self.iterations)) - 1].outer


def _trace_memo(g: Graph) -> dict[int, tuple[StarIteration, ...]]:
    """The star generator's memo for one graph; see the module docstring."""
    return {}


def run_star_generator(g: Graph, independent_set) -> StarContainerTrace:
    """Run the two-container generator; ties break to the smallest index."""
    i_mask = as_mask(independent_set, g.n)
    if not is_independent(g, i_mask):
        raise ValueError("input vertex set is not independent")
    memo = memo_of(g, _trace_memo)
    iterations = memo.get(i_mask)
    if iterations is None:
        iterations = memo[i_mask] = _star_iterations(g.adj, g.n, i_mask)
    return StarContainerTrace(g, i_mask, iterations)


def _star_iterations(adj: tuple[int, ...], n: int,
                     i_mask: int) -> tuple[StarIteration, ...]:
    f_mask = 0
    c_mask = d_mask = (1 << n) - 1
    iterations: list[StarIteration] = []
    t = 0
    while i_mask & ~f_mask:
        t += 1
        remaining = i_mask & ~f_mask
        u, c_deg_u = argmax_degree(adj, remaining, c_mask)
        picked = 1 << u
        neighbours = adj[u]
        v: Optional[int] = None
        # With no v, no degree into D exceeds n: only the C test can exclude.
        d_deg_v = n
        if remaining & ~picked:
            v, d_deg_v = argmax_degree(adj, remaining & ~picked, d_mask)
            picked |= 1 << v
            neighbours |= adj[v]

        # The just-selected pair is exempt from the degree exclusion: u may
        # out-degree v in the outer container, but no core vertex may ever
        # leave the inner container (and exempting more than the fingerprint
        # would break closure under rerun-on-fingerprint).
        high = 0
        m = c_mask & ~picked
        while m:
            low = m & -m
            m ^= low
            row = adj[low.bit_length() - 1]
            if ((row & c_mask).bit_count() > c_deg_u
                    or (row & d_mask).bit_count() > d_deg_v):
                high |= low

        f_mask |= picked
        c_new = c_mask & ~neighbours & ~high
        d_new = d_mask & ~neighbours
        assert i_mask & ~c_new == 0, "core vertex removed from inner container"
        iterations.append(StarIteration(
            t=t, u=u, v=v,
            fingerprint=f_mask,
            inner=c_new,
            outer=d_new,
        ))
        c_mask, d_mask = c_new, d_new
    return tuple(iterations)


def check_star_closure(g: Graph, independent_set) -> ClosureOutcome:
    """Rerunning on the t-th fingerprint must reproduce both containers."""
    trace = run_star_generator(g, independent_set)
    for t in range(1, trace.iteration_count + 1):
        sub = run_star_generator(g, trace.fingerprint_at(t))
        if (sub.inner_at(t) != trace.inner_at(t)
                or sub.outer_at(t) != trace.outer_at(t)):
            return ClosureOutcome(False, t, trace.iteration_count)
    return ClosureOutcome(True, None, trace.iteration_count)


@dataclass(frozen=True)
class RhoDistance:
    """Exact edit distance to having an independent set on ceil(rho*n)
    vertices: only deletions help, so it is the minimum edge count over all
    subsets of that size, and the instance is eps-far iff min_edits >= eps*n^2.
    """

    min_edits: int
    distance: Fraction
    witness: tuple[int, ...]
    target_size: int

    def is_far(self, epsilon: Fraction) -> bool:
        return self.distance >= epsilon


def distance_to_rho_is(g: Graph, rho: Fraction) -> RhoDistance:
    """Exact `RhoDistance` of g for rho, by branch and bound over the subsets
    of size target = ceil(rho*n) in `itertools.combinations` order.

    The witness is the first subset in that order with the fewest edges: a
    leaf replaces the incumbent only when it has strictly fewer edges, and
    the search stops at the first independent subset.  A node that has
    chosen S (size vertices, count edges) with candidates R = {start, ...,
    n-1}, need = target - size and slack = |R| - need is pruned when

        2*count + (sum of the need smallest 2*f(w), w in R) >= 2*best,

    where 2*f(w) = 2*|N(w) & S| + max(0, |N(w) & R| - slack).  Any completion
    T of size need keeps at least |N(w) & R| - slack of each member's
    R-neighbours inside T, so 2*e(S + T) >= 2*count + sum over T of 2*f(w):
    a pruned subtree holds no subset with fewer edges than the incumbent,
    and the witness is the one plain enumeration finds.  The search is one
    loop over an explicit stack, so no recursion limit bounds its depth, and
    a node with slack == 0 finishes its single leaf in an inner loop.
    Raises WorkCapExceeded when C(n, target) exceeds the subset cap.
    """
    rho = Fraction(rho)
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    n = g.n
    target = ceil_frac(rho * n)
    if target == 0:
        return RhoDistance(0, Fraction(0), (), 0)
    check_subset_cap(n, target)

    best = math.comb(target, 2) + 1
    best_mask = 0
    adj = g.adj
    full = (1 << n) - 1

    stack = [(0, 0, 0, 0)]  # (start, chosen, size, count) of each node to visit
    while stack and best:
        start, chosen, size, count = stack.pop()
        if count >= best:
            continue
        need = target - size
        if need == 0:
            best, best_mask = count, chosen
            continue
        slack = n - start - need
        if not slack:  # the one leaf takes every vertex left
            for v in range(start, n):
                count += (adj[v] & chosen).bit_count()
                chosen |= 1 << v
                if count >= best:
                    break
            else:
                best, best_mask = count, chosen
            continue
        rest = full >> start << start
        twice_f = sorted([
            2 * (a & chosen).bit_count()
            + (d - slack if (d := (a & rest).bit_count()) > slack else 0)
            for a in adj[start:]])
        if 2 * count + sum(twice_f[:need]) >= 2 * best:
            continue
        # Children stop where too few vertices are left to finish the subset;
        # pushed last to first, they are visited in combinations order.
        for v in range(start + slack, start - 1, -1):
            stack.append((v + 1, chosen | 1 << v, size + 1,
                          count + (adj[v] & chosen).bit_count()))

    return RhoDistance(best, Fraction(best, n * n), bits_of(best_mask), target)


@dataclass(frozen=True)
class ShrinkingOutcome:
    """One sampled instance of the outer-container shrinking step.

    A (premises_hold=True, conclusion_holds=False) outcome is a
    counterexample; everything else is a pass (possibly vacuous).
    """

    premises_hold: bool
    conclusion_holds: bool
    premise_flags: tuple[tuple[str, bool], ...]
    near_miss: bool
    shrink_lhs: int
    shrink_rhs: Fraction


def check_shrinking(g: Graph, rho: Fraction, epsilon: Fraction,
                    trace: StarContainerTrace, t: int, d_set, alpha: Fraction,
                    distance: Optional[RhoDistance] = None) -> ShrinkingOutcome:
    if distance is None:
        distance = distance_to_rho_is(g, rho)
    if not distance.is_far(epsilon):
        raise NotFarError(
            f"graph distance {distance.distance} is below epsilon {epsilon}"
        )
    size_i = trace.independent_set.bit_count()
    if t < 0 or not 2 * t < size_i:
        raise ValueError(f"t={t} must satisfy 0 <= t < |I|/2 = {size_i}/2")

    n = g.n
    d_mask = as_mask(d_set, n)
    dt_mask = trace.outer_at(t)
    dt1_mask = trace.outer_at(t + 1)
    ct1_mask = trace.inner_at(t + 1)
    d_size = d_mask.bit_count()

    # Rational comparisons cross-multiplied by positive denominators; the two
    # bounds v <= sqrt(eps)/2 are squared for v > 0.
    rn, rd = rho.numerator, rho.denominator
    en, ed = epsilon.numerator, epsilon.denominator
    an, ad = alpha.numerator, alpha.denominator
    # ceil((rho - alpha) * n), the required exact size of D
    want_ceil = ceil_frac((rn * ad - an * rd) * n, rd * ad)
    # |D cap C_{t+1}| >= (rho - sqrt(eps)/2) n  <=>  rho - x/n <= sqrt(eps)/2
    gap = rn * n - (d_mask & ct1_mask).bit_count() * rd  # (rho - x/n) rd n
    full_iteration = (t + 1 <= trace.iteration_count
                      and trace.iterations[t].v is not None)
    flags = (
        ("outer_container_large", dt_mask.bit_count() * rd >= rn * n),
        ("alpha_positive", an > 0),
        ("alpha_small", an > 0 and 4 * ed * an * an <= en * ad * ad),
        ("d_inside_next_outer", d_mask & ~dt1_mask == 0),
        ("d_exact_size", d_size == want_ceil),
        ("d_sparse", 8 * ed * g.edges_inside(d_mask) <= 3 * en * n * n),
        ("d_meets_inner", gap <= 0 or 4 * ed * gap * gap <= en * (rd * n) ** 2),
        ("full_iteration", full_iteration),
    )
    premises = all(ok for _, ok in flags)
    near_miss = (not premises and abs(d_size - want_ceil) == 1
                 and all(ok for name, ok in flags if name != "d_exact_size"))

    lhs = (dt1_mask & ~d_mask).bit_count()
    m = (dt_mask & ~d_mask).bit_count()
    if an > 0:
        # (1 - eps / (4 rho alpha)) m, with eps / (4 rho alpha) = en rd ad / (4 ed rn an)
        den = 4 * ed * rn * an
        rhs = Fraction((den - en * rd * ad) * m, den)
    else:
        rhs = Fraction(m)
    return ShrinkingOutcome(premises, lhs * rhs.denominator <= rhs.numerator,
                            flags, near_miss, lhs, rhs)


@dataclass(frozen=True)
class GclStarCheck:
    t: int
    inner_size: int
    outer_size: int
    inner_branch: bool
    ok: bool


@dataclass(frozen=True)
class GclStarOutcome:
    """Witness search for the two-bullet container lemma plus the restated
    inner-container bound (size bound together with at most eps*n^2/4 edges).
    """

    ok: bool
    witness_t: Optional[int]
    witness_branch: Optional[str]
    restated_ok: bool
    restated_t: Optional[int]
    epsilon: Fraction
    rho: Fraction
    t_max: int
    threshold_t: int
    loop_iterations: int
    checks: tuple[GclStarCheck, ...]


def _bullet_threshold(rho: Fraction, epsilon: Fraction) -> int:
    """Smallest integer t with t >= 4 rho ln(2 rho / eps) / sqrt(eps)."""
    # t >= threshold  <=>  t^2 eps - 16 rho^2 ln(x)^2 >= 0   (t >= 0, x > 1)
    return least_int(lambda t: sign_with_ln(
        (t * t * epsilon, 0, -16 * rho * rho), 2 * rho / epsilon) >= 0, 0)


@dataclass(frozen=True)
class StarBounds:
    """The exact constants of the two-bullet bound for one (n, rho, eps).

    max_size[t]: largest container size meeting the size bound at t (-1 if
    none), for t in 1..min(n + 1, t_max) and threshold_t if it is <= t_max.
    edge_cap: floor(eps n^2 / 4), the restated inner bound's edge budget.
    """

    n: int
    rho: Fraction
    epsilon: Fraction
    t_max: int
    threshold_t: int
    max_size: dict[int, int]
    edge_cap: int

    @classmethod
    def of(cls, n: int, rho: Fraction, epsilon: Fraction) -> "StarBounds":
        rho, epsilon = Fraction(rho), Fraction(epsilon)
        if not 0 < rho <= 1:
            raise ValueError("rho must lie in (0, 1]")
        if not 0 < epsilon < 2 * rho:
            raise ValueError("epsilon must lie in (0, 2*rho) for the bound to make sense")
        x = 2 * rho / epsilon
        t_max = floor_times_ln(8 * rho * rho / epsilon, x)
        threshold = _bullet_threshold(rho, epsilon)
        ts = list(range(1, min(n + 1, t_max) + 1))
        if len(ts) < threshold <= t_max:
            ts.append(threshold)
        # size <= (rho - t eps / (8 rho L)) n  <=>  L >= t eps n / (8 rho (rho n - size))
        # for size < rho n.  The bound falls as t grows, so one walk down from
        # the largest size below rho n finds each t's largest size (-1 if none).
        max_size, size = {}, ceil_frac(rho * n) - 1
        for t in ts:
            while size >= 0 and not le_with_ln(t * epsilon * n / (8 * rho * (rho * n - size)),
                                               Fraction(1), x):
                size -= 1
            max_size[t] = size
        return cls(n, rho, epsilon, t_max, threshold, max_size,
                   floor_frac(epsilon * n * n / 4))


def verify_gcl_star(g: Graph, rho: Fraction, epsilon: Fraction, independent_set,
                    distance: Optional[RhoDistance] = None,
                    bounds: Optional[StarBounds] = None) -> GclStarOutcome:
    if bounds is None:
        bounds = StarBounds.of(g.n, rho, epsilon)
    elif (bounds.n, bounds.rho, bounds.epsilon) != (g.n, rho, epsilon):
        raise ValueError("bounds were built for another (n, rho, epsilon)")
    rho, epsilon = bounds.rho, bounds.epsilon
    if distance is None:
        distance = distance_to_rho_is(g, rho)
    if not distance.is_far(epsilon):
        raise NotFarError(
            f"graph distance {distance.distance} is below epsilon {epsilon}"
        )

    trace = run_star_generator(g, independent_set)
    T = trace.iteration_count
    t_max, threshold = bounds.t_max, bounds.threshold_t

    checks: list[GclStarCheck] = []
    witness: Optional[int] = None
    branch: Optional[str] = None

    # Exhaustive over the loop region plus the first extension step; past that
    # both container sizes are constant while the bound right side strictly
    # decreases, so only the first t of each bullet region can newly succeed.
    scan_upto = min(T + 1, t_max)
    scan = list(range(1, scan_upto + 1))
    if scan_upto < threshold <= t_max:
        scan.append(threshold)
    for t in scan:
        inner_branch = t >= threshold
        inner, outer = trace.inner_at(t).bit_count(), trace.outer_at(t).bit_count()
        ok = (inner if inner_branch else outer) <= bounds.max_size[t]
        checks.append(GclStarCheck(t, inner, outer, inner_branch, ok))
        if ok:
            witness, branch = t, "inner" if inner_branch else "outer"
            break

    # Restated inner-container lemma: some t <= t_max with the size bound and
    # at most eps n^2 / 4 edges inside C_t.  Past the loop C_t = I (edgeless),
    # so t = T+1 dominates the whole extension region.
    restated_t: Optional[int] = None
    for t in range(1, min(T + 1, t_max) + 1):
        c_mask = trace.inner_at(t)
        if (c_mask.bit_count() <= bounds.max_size[t]
                and g.edges_inside(c_mask) <= bounds.edge_cap):
            restated_t = t
            break

    return GclStarOutcome(
        ok=witness is not None,
        witness_t=witness,
        witness_branch=branch,
        restated_ok=restated_t is not None,
        restated_t=restated_t,
        epsilon=epsilon,
        rho=rho,
        t_max=t_max,
        threshold_t=threshold,
        loop_iterations=T,
        checks=tuple(checks),
    )
