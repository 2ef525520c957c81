"""The hypergraph fingerprint & container generator, the bounded-subgraph
degree subproblem it selects by, and the verifiers built on its traces.

deg_leq_n(v): the maximum degree v attains over induced subhypergraphs of the
current container on at most n vertices.  Computed exactly by branch and
bound over the vertices that co-occur with v in an edge (no other vertex can
change the degree).

The generator runs iterations that each select q-1 fingerprint vertices from
the independent set: the first by largest deg_leq_n in the container, the
rest by largest degree in successively collapsed level hypergraphs built from
the edges through the previously selected vertex.  Vertices that beat the
selection strictly, vertices left with a 1-edge, and the new fingerprint
vertices are removed from the container.  Ties always break to the smallest
vertex index, so traces are bit-for-bit deterministic.

Memo: everything the generator computes on a hypergraph is kept in one
`_GeneratorMemo` stored on that Hypergraph instance (attribute `_memo`, built
on first use by `core.memo_of`).  It holds the incidence lists; each
container's ranked degree table (values only) keyed on (container mask, n);
the selection step's first level, with v's witness, keyed on (container
mask, n, v); finished traces keyed on (independent-set mask, n); vars(C) per
container mask; gcl-sat's t_max, ln argument and (t, vars) decisions per
epsilon; and container-degree records keyed on (k, n, t, max degree).  It
holds no reference back to the hypergraph, takes no part in ==, hash, repr
or pickling, and is freed with the hypergraph; no state outlives the
objects it describes.
`build_hypergraph` returns the same Hypergraph for the same Csp, so a sweep
over one instance shares one memo.  Entries are pure functions of their keys,
so threads racing on a memo can at worst compute an entry twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import attrgetter, or_
from typing import Callable, Optional

from .core import (
    Hypergraph,
    as_mask,
    bits_of,
    check_partner_cap,
    is_independent,
    mask_of,
    memo_of,
)
from .csp import Csp, SatDistance, build_hypergraph, distance_to_sat, vars_of
from .rationals import le_with_ln


class NotFarError(ValueError):
    """A verifier was invoked on an instance not certified far enough."""


@dataclass(frozen=True)
class DegLeqNResult:
    """value = max degree of v over (<=n)-subsets of C containing v.

    witness is a maximal optimal subset: the lexicographically smallest
    optimal support, padded with the smallest-index vertices of C up to
    min(n, |C|) vertices.
    """

    value: int
    witness: tuple[int, ...]


def _weight_bound(live: dict[int, int], left: int, lcm: int) -> int:
    """lcm times an upper bound on the masks that <= left more partners cover.

    live maps each missing set M to its multiplicity.  A completion T covers a
    mask only if M is inside T; split that mask's lcm units as lcm/|M| to each
    member of M.  A vertex of T then meets at most C(|T|-1, s-1) distinct
    size-s sets, so its weight sums, per size s, lcm/s times its
    C(left-1, s-1) largest multiplicities, and T gets at most the `left`
    largest weights."""
    by_size: dict[int, dict[int, list[int]]] = {}
    for m, mult in live.items():
        by_vertex = by_size.setdefault(m.bit_count(), {})
        while m:
            low = m & -m
            by_vertex.setdefault(low, []).append(mult)
            m ^= low
    weights: dict[int, int] = {}
    for s, by_vertex in by_size.items():
        top, share = math.comb(left - 1, s - 1), lcm // s
        for w, mults in by_vertex.items():
            if len(mults) > top:
                mults = sorted(mults)[-top:]
            weights[w] = weights.get(w, 0) + share * sum(mults)
    return sum(sorted(weights.values())[-left:])


def _cover_search(pmasks: tuple[int, ...], order: tuple[int, ...], budget: int,
                  q: int, best: int, stop: Optional[int] = None) -> tuple[int, tuple[int, ...]]:
    """The most partner masks that <= budget vertices of `order` cover, with
    the first such set, or (best, ()) if none covers more than `best`; given
    the optimum as `stop`, the search ends once it reaches it.

    Branch and bound, include first, visits chosen sets in lexicographic order
    of their positions in `order` (local bit i is order[i]) and keeps only a
    strict improvement.  A node keeps the missing set of every uncovered mask
    it can still complete (all of it later in `order`, at most `left`
    vertices) with its multiplicity, since distinct masks can miss one set."""
    index = {u: i for i, u in enumerate(order)}
    live: dict[int, int] = {}
    for pm in pmasks:
        m = mask_of(index[u] for u in bits_of(pm))
        if m.bit_count() <= budget:
            live[m] = 1
    lcm = math.lcm(*range(1, q))
    best_set = 0

    def rec(bit: int, chosen: int, left: int, covered: int, live: dict[int, int]) -> None:
        nonlocal best, best_set
        if covered > best:
            best, best_set = covered, chosen
        if (best == stop or not live or left == 0
                or lcm * covered + _weight_bound(live, left, lcm) <= lcm * best):
            return
        taken: dict[int, int] = {}
        gain = 0
        for m, mult in live.items():
            if m & bit:
                m ^= bit
                if not m:
                    gain += mult
                    continue
            if m.bit_count() < left:
                taken[m] = taken.get(m, 0) + mult
        rec(bit << 1, chosen | bit, left - 1, covered + gain, taken)
        rec(bit << 1, chosen, left, covered,
            {m: mult for m, mult in live.items() if not m & bit})

    rec(1, 0, budget, 0, live)
    return best, tuple(order[i] for i in bits_of(best_set))


def _partners(incident: tuple[int, ...], c_mask: int, n_bound: int,
              v: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(partner masks of v's edges inside C, the partners, the budget)."""
    vbit = 1 << v
    pmasks = tuple(e & ~vbit for e in incident if e & ~c_mask == 0)
    partners = bits_of(reduce(or_, pmasks, 0))
    check_partner_cap(v, len(partners))
    return pmasks, partners, min(n_bound, c_mask.bit_count()) - 1


def _deg_value(q: int, incident: tuple[int, ...], c_mask: int, n_bound: int,
               v: int) -> int:
    """deg_leq_n's value; exact branch and bound over the edges `incident` to v."""
    pmasks, partners, budget = _partners(incident, c_mask, n_bound, v)
    if len(partners) <= budget:
        # Every partner fits: all masks are covered, and only by all partners.
        return len(pmasks)
    if q == 2:
        # Each partner covers exactly one edge: take the smallest ones.
        return min(len(pmasks), budget)
    # Partners of high link degree tried first reach the value soonest.
    by_link = sorted(partners, key=lambda u: -sum(pm >> u & 1 for pm in pmasks))
    return _cover_search(pmasks, tuple(by_link), budget, q, -1)[0]


def _deg_witness(q: int, incident: tuple[int, ...], c_mask: int, n_bound: int,
                 v: int, value: int) -> int:
    """deg_leq_n's witness mask, given its value."""
    pmasks, partners, budget = _partners(incident, c_mask, n_bound, v)
    if len(partners) <= budget:
        support = partners
    elif q == 2:
        support = partners[:value]
    else:
        # The lexicographically smallest optimal support, from just below it.
        support = _cover_search(pmasks, partners, budget, q, value - 1, value)[1]
    witness = (1 << v) | mask_of(support)
    pad_from = c_mask & ~witness
    while witness.bit_count() <= budget:  # pad to min(n, |C|) = budget + 1
        low = pad_from & -pad_from
        witness |= low
        pad_from ^= low
    return witness


class _GeneratorMemo:
    """The generator's memo for one hypergraph; see the module docstring."""

    __slots__ = ("q", "incidence", "tables", "levels", "traces", "vars", "gcl",
                 "records")

    def __init__(self, h: Hypergraph):
        by_vertex: list[list[int]] = [[] for _ in range(h.n)]
        for e in h.edges:
            for v in bits_of(e):
                by_vertex[v].append(e)
        self.q = h.q
        self.incidence = tuple(tuple(es) for es in by_vertex)
        self.tables: dict[tuple[int, int], tuple[tuple[int, int, int], ...]] = {}
        self.levels: dict[tuple[int, int, int], LevelRecord] = {}
        self.traces: dict[tuple[int, int], tuple[SatIteration, ...]] = {}
        self.vars: dict[int, int] = {}
        self.gcl: dict[Fraction, tuple[int, Fraction, dict]] = {}
        self.records: dict[tuple[int, int, int, int], tuple] = {}

    def table(self, c_mask: int, n_bound: int) -> tuple[tuple[int, int, int], ...]:
        """The container's members as (vertex, deg_leq_n value, mask of the
        members of strictly larger value), in (-value, vertex) order."""
        key = (c_mask, n_bound)
        table = self.tables.get(key)
        if table is None:
            rows, higher, seen = [], 0, 0
            for neg, w in sorted(
                    (-_deg_value(self.q, self.incidence[w], c_mask, n_bound, w), w)
                    for w in bits_of(c_mask)):
                if rows and -neg < rows[-1][1]:
                    higher = seen
                rows.append((w, -neg, higher))
                seen |= 1 << w
            table = self.tables[key] = tuple(rows)
        return table

    def first_level(self, c_mask: int, n_bound: int, v: int, value: int) -> LevelRecord:
        """D_{t,q-1} for selected v: v's witness and the edges through v
        inside it, each less v."""
        key = (c_mask, n_bound, v)
        level = self.levels.get(key)
        if level is None:
            witness = _deg_witness(self.q, self.incidence[v], c_mask, n_bound, v, value)
            vbit = 1 << v
            level = self.levels[key] = LevelRecord(self.q - 1, witness & ~vbit, tuple(
                e & ~vbit for e in self.incidence[v] if e & ~witness == 0))
        return level


def deg_leq_n(h: Hypergraph, container, n_bound: int, v: int) -> DegLeqNResult:
    """Exact max degree of v over (<=n_bound)-subsets of the container."""
    if n_bound < 1:
        raise ValueError(f"subgraph bound {n_bound} must be at least 1")
    c_mask = as_mask(container, h.n)
    if not (c_mask >> v) & 1:
        raise ValueError(f"vertex {v} is not in the container")
    incident = memo_of(h, _GeneratorMemo).incidence[v]
    value = _deg_value(h.q, incident, c_mask, n_bound, v)
    return DegLeqNResult(value, bits_of(
        _deg_witness(h.q, incident, c_mask, n_bound, v, value)))


@dataclass(frozen=True)
class LevelRecord:
    """One level hypergraph D_{t,ell}: its vertex mask and its edge masks,
    in increasing mask order."""

    ell: int
    vertices: int
    edges: tuple[int, ...]


@dataclass(frozen=True)
class SatIteration:
    """One generator iteration; every vertex set is a mask, and selected is a
    tuple because it records the order of selection."""

    t: int
    selected: tuple[int, ...]
    exclusions: tuple[tuple[int, int], ...]
    levels: tuple[LevelRecord, ...]
    one_edge_removals: int
    fingerprint: int
    container: int
    degenerate: bool
    truncated: bool


def extended_at(field: str, start: Callable[[object], int]):
    """A trace accessor t -> iteration t's `field` mask under the extension
    rule both generators' traces share: start(trace) before the loop
    (t <= 0), and F_t = C_t = I past the executed loop."""
    get = attrgetter(field)

    def at(self, t: int) -> int:
        if t <= 0:
            return start(self)
        if t <= len(self.iterations):
            return get(self.iterations[t - 1])
        return self.independent_set
    return at


@dataclass(frozen=True)
class ContainerTrace:
    """Full per-iteration output of the generator for one independent set
    (a mask); fingerprint_at/container_at return masks under the
    `extended_at` rule."""

    hypergraph: Hypergraph
    n_bound: int
    independent_set: int
    iterations: tuple[SatIteration, ...]

    fingerprint_at = extended_at("fingerprint", lambda trace: 0)
    container_at = extended_at("container",
                               lambda trace: (1 << trace.hypergraph.n) - 1)

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)


def run_generator(h: Hypergraph, n_bound: int, independent_set) -> ContainerTrace:
    """Run the fingerprint & container generator on an independent set."""
    i_mask = as_mask(independent_set, h.n)
    if not is_independent(h, i_mask):
        raise ValueError("input vertex set is not independent")
    if not 1 <= n_bound < h.n:
        raise ValueError(f"subgraph bound {n_bound} must satisfy 1 <= n < {h.n}")
    return _generate(h, n_bound, i_mask)


def _generate(h: Hypergraph, n_bound: int, i_mask: int) -> ContainerTrace:
    """run_generator on a validated independent set."""
    memo = memo_of(h, _GeneratorMemo)
    key = (i_mask, n_bound)
    done = memo.traces.get(key)
    if done is not None:
        return ContainerTrace(h, n_bound, i_mask, done)

    q = h.q
    f_mask, c_mask = 0, (1 << h.n) - 1
    iterations: list[SatIteration] = []
    t = 0
    while i_mask & ~f_mask:
        t += 1
        pick = i_mask & ~f_mask
        # The first ranked pick has the largest value, ties to the smallest index.
        v_q, value, x_q = next(row for row in memo.table(c_mask, n_bound)
                               if pick >> row[0] & 1)
        first = memo.first_level(c_mask, n_bound, v_q, value)
        level_v, level_e = first.vertices, first.edges
        selected = [v_q]
        selected_mask = 1 << v_q
        exclusions = [(q, x_q)]
        levels = [first]
        degenerate = False
        truncated = False

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
                x_ell = mask_of(w for w in level_deg
                                if level_deg[w] > level_deg[v_ell])
                next_e = [e & ~(1 << v_ell) for e in level_e if (e >> v_ell) & 1]
            else:
                # No independent-set vertex inside the level: fall back to the
                # smallest unselected one (level degree treated as 0) and drop
                # every positive-degree vertex of the level.
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

        # Untruncated, the last level's edges are single vertices.
        one_edge = 0 if truncated else reduce(or_, level_e, 0)
        removal = reduce(or_, (xs for _, xs in exclusions), one_edge | selected_mask)
        f_mask |= selected_mask
        c_new = c_mask & ~removal
        assert i_mask & ~f_mask & ~c_new == 0, "independent-set vertex removed"
        assert f_mask & ~i_mask == 0, "fingerprint left the independent set"
        iterations.append(SatIteration(
            t=t,
            selected=tuple(selected),
            exclusions=tuple(exclusions),
            levels=tuple(levels),
            one_edge_removals=one_edge,
            fingerprint=f_mask,
            container=c_new,
            degenerate=degenerate,
            truncated=truncated,
        ))
        c_mask = c_new

    done = memo.traces[key] = tuple(iterations)
    return ContainerTrace(h, n_bound, i_mask, done)


@dataclass(frozen=True)
class ClosureOutcome:
    ok: bool
    first_mismatch_t: Optional[int]
    iteration_count: int


def check_closure(h: Hypergraph, n_bound: int, independent_set) -> ClosureOutcome:
    """Rerun the generator on every fingerprint prefix and compare containers;
    a prefix F_t of the validated set I is independent, so is not checked."""
    trace = run_generator(h, n_bound, independent_set)
    for t in range(1, trace.iteration_count + 1):
        sub = _generate(h, n_bound, trace.fingerprint_at(t))
        if sub.container_at(t) != trace.container_at(t):
            return ClosureOutcome(False, t, trace.iteration_count)
    return ClosureOutcome(True, None, trace.iteration_count)


@dataclass(frozen=True)
class EdgesBoundOutcome:
    """Count of vertices beating the near-average degree threshold."""

    heavy_count: int
    lower_bound: Fraction
    threshold: Fraction
    ok: bool


def check_edges_bound(h: Hypergraph) -> EdgesBoundOutcome:
    ell = h.q
    m = len(h.edges)
    if m < 1:
        raise ValueError("edges-bound check requires at least one edge")
    threshold = Fraction((ell - 1) * m, h.n)
    incidence = memo_of(h, _GeneratorMemo).incidence
    heavy = sum(1 for edges in incidence if len(edges) > threshold)
    lower = Fraction(m, math.comb(h.n - 1, ell - 1))
    return EdgesBoundOutcome(heavy, lower, threshold, heavy >= lower)


@dataclass(frozen=True)
class ContainerDegreeRecord:
    t: int
    max_degree: int
    bound: Fraction
    tighter_bound: Fraction
    ok: bool
    tighter_ok: bool


@dataclass(frozen=True)
class ContainerDegreeOutcome:
    ok: bool
    tighter_ok: bool
    worst_slack: Optional[Fraction]
    records: tuple[ContainerDegreeRecord, ...]


def check_container_degree(trace: ContainerTrace, k: int, n: int) -> ContainerDegreeOutcome:
    """Per-iteration container degree bound (2kq/t) * C(n-1, q-1), with the
    tighter 2k(q-1)/t constant recorded alongside."""
    h = trace.hypergraph
    if h.n != k * n:
        raise ValueError(f"trace hypergraph has {h.n} vertices, expected k*n = {k * n}")
    q = h.q
    coeff = math.comb(n - 1, q - 1)
    memo = memo_of(h, _GeneratorMemo)
    records = []
    for t in range(1, trace.iteration_count + 1):
        table = memo.table(trace.container_at(t), n)
        key = (k, n, t, table[0][1] if table else 0)
        record = memo.records.get(key)
        if record is None:
            max_deg = key[3]
            bound = Fraction(2 * k * q, t) * coeff
            tighter = Fraction(2 * k * (q - 1), t) * coeff
            record = memo.records[key] = (ContainerDegreeRecord(
                t, max_deg, bound, tighter, max_deg <= bound, max_deg <= tighter),
                bound - max_deg)
        records.append(record)
    return ContainerDegreeOutcome(
        all(r.ok for r, _ in records),
        all(r.tighter_ok for r, _ in records),
        min((slack for _, slack in records), default=None),
        tuple(r for r, _ in records),
    )


@dataclass(frozen=True)
class GclSatCheck:
    t: int
    vars_in_container: int
    ok: bool


@dataclass(frozen=True)
class GclSatOutcome:
    """Witness search for the satisfiability container lemma.

    ok means some t <= 8kq/eps has vars(C_t) <= (1 - eps*t/(4kq^2 ln(kq/eps)))n.
    When ok is false the scanned prefix is returned as a counterexample record
    (the bound right side is strictly decreasing in t while vars(C_t) is
    constant past the loop, so scanning t = 1..loop+1 is exhaustive).
    """

    ok: bool
    witness_t: Optional[int]
    epsilon: Fraction
    t_max: int
    loop_iterations: int
    checks: tuple[GclSatCheck, ...]


def verify_gcl_sat(csp: Csp, epsilon: Fraction, independent_set,
                   distance: Optional[SatDistance] = None) -> GclSatOutcome:
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if distance is None:
        distance = distance_to_sat(csp)
    if not distance.is_far(epsilon):
        raise NotFarError(
            f"instance distance {distance.distance} is below epsilon {epsilon}"
        )
    h = build_hypergraph(csp)
    trace = run_generator(h, csp.n, independent_set)
    if vars_of(h, trace.independent_set) != trace.independent_set.bit_count():
        raise ValueError("input vertex set is not variable-distinct")

    k, q, n = csp.k, csp.q, csp.n
    memo = memo_of(h, _GeneratorMemo)
    bound = memo.gcl.get(epsilon)
    if bound is None:
        bound = memo.gcl[epsilon] = ((8 * k * q / epsilon).__floor__(), k * q / epsilon, {})
    t_max, ln_arg, decided = bound
    checks = []
    for t in range(1, min(trace.iteration_count + 1, t_max) + 1):
        c_mask = trace.container_at(t)
        vt = memo.vars.get(c_mask)
        if vt is None:
            vt = memo.vars[c_mask] = vars_of(h, c_mask)
        check = decided.get((t, vt))
        if check is None:
            # vars <= (1 - eps t / (4kq^2 L)) n  <=>  L >= n eps t / (4kq^2 (n - vars))
            ok = vt < n and le_with_ln(Fraction(n) * epsilon * t / (4 * k * q * q * (n - vt)),
                                       Fraction(1), ln_arg)
            check = decided[t, vt] = GclSatCheck(t, vt, ok)
        checks.append(check)
        if check.ok:
            break
    witness = checks[-1].t if checks and checks[-1].ok else None
    return GclSatOutcome(witness is not None, witness, epsilon, t_max,
                         trace.iteration_count, tuple(checks))
