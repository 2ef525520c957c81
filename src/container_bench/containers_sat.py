"""The hypergraph fingerprint & container generator, the bounded-subgraph
degree subproblem it selects by, and the verifiers built on its traces.

deg_leq_n(v): the maximum degree v attains over induced subhypergraphs of the
current container on at most n vertices.  Computed exactly by branch and
bound over the vertices that co-occur with v in an edge (no other vertex can
change the degree).  The exact mode is the only one verifiers accept; a
greedy mode exists for large demos and is marked non-certifying.

The generator runs iterations that each select q-1 fingerprint vertices from
the independent set: the first by largest deg_leq_n in the container, the
rest by largest degree in successively collapsed level hypergraphs built from
the edges through the previously selected vertex.  Vertices that beat the
selection strictly, vertices left with a 1-edge, and the new fingerprint
vertices are removed from the container.  Ties always break to the smallest
vertex index, so traces are bit-for-bit deterministic.

Memo: everything the generator computes on a hypergraph is kept in one
`_GeneratorMemo` stored on that Hypergraph instance (attribute `_memo`, built
on first use by `core.memo_of`).  It holds the incidence lists, exact
deg_leq_n results keyed on (container mask, n, v, cap), each container's
degree table keyed on (container mask, n, cap), and finished traces keyed on
(independent-set mask, n, cap, deg mode).  It holds no reference back to the
hypergraph, takes no part in ==, hash, repr or pickling, and is freed with
the hypergraph; no state outlives the objects it describes.
`build_hypergraph` returns the same Hypergraph for the same Csp, so a sweep
over one instance shares one memo.  Entries are pure functions of their keys,
so threads racing on a memo can at worst compute an entry twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Optional

from .core import (
    Hypergraph,
    WorkCapExceeded,
    as_mask,
    bits_of,
    is_independent,
    mask_of,
    memo_of,
)
from .csp import Csp, SatDistance, build_hypergraph, distance_to_sat, vars_of
from .rationals import le_with_ln

DEFAULT_RELEVANT_CAP = 24


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


def _max_cover(pmasks: tuple[int, ...], allowed: tuple[int, ...], budget: int,
               base_mask: int, target: Optional[int] = None) -> int:
    """Max number of partner masks fully covered by base plus <= budget
    vertices chosen from `allowed`; early-exits once `target` is reached."""
    suffix = [0] * (len(allowed) + 1)
    for i in range(len(allowed) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << allowed[i])
    best = 0

    def rec(i: int, cur: int, left: int) -> None:
        nonlocal best
        covered = 0
        reachable = 0
        for pm in pmasks:
            missing = pm & ~cur
            if missing == 0:
                covered += 1
            elif missing & ~suffix[i] == 0 and missing.bit_count() <= left:
                reachable += 1
        if covered > best:
            best = covered
        if target is not None and best >= target:
            return
        if covered + reachable <= best or left == 0 or i == len(allowed):
            return
        v = allowed[i]
        rec(i + 1, cur | (1 << v), left - 1)
        if target is not None and best >= target:
            return
        rec(i + 1, cur, left)

    rec(0, base_mask, budget)
    return best


def _deg_leq_n_exact(q: int, incident: tuple[int, ...], c_mask: int,
                     n_bound: int, v: int, cap: int) -> tuple[int, int]:
    """(value, witness_mask) for deg_leq_n; exact branch and bound over the
    edges `incident` to v."""
    c_size = c_mask.bit_count()
    budget = min(n_bound, c_size) - 1
    vbit = 1 << v
    pmasks = tuple(e & ~vbit for e in incident if e & ~c_mask == 0)
    relevant_mask = 0
    for pm in pmasks:
        relevant_mask |= pm
    partners = bits_of(relevant_mask)
    if len(partners) > cap:
        raise WorkCapExceeded(
            f"deg_leq_n at vertex {v}: {len(partners)} relevant vertices exceed cap {cap}"
        )

    if q == 2:
        # Each partner covers exactly one edge: take the smallest ones.
        value = min(len(pmasks), budget)
        support = partners[:value]
    else:
        value = _max_cover(pmasks, partners, budget, 0)
        # Lexicographically smallest optimal support, built greedily.
        support = []
        forced = 0
        while _max_cover(pmasks, (), 0, forced) < value:
            lo = support[-1] + 1 if support else 0
            for u in partners:
                if u < lo:
                    continue
                rest = tuple(w for w in partners if w > u)
                left = budget - len(support) - 1
                if _max_cover(pmasks, rest, left, forced | (1 << u),
                              target=value) >= value:
                    support.append(u)
                    forced |= 1 << u
                    break
            else:  # pragma: no cover - value is achievable by construction
                raise AssertionError("optimal support reconstruction failed")

    witness = vbit | mask_of(support)
    want = min(n_bound, c_size)
    pad_from = c_mask & ~witness
    while witness.bit_count() < want:
        low = pad_from & -pad_from
        witness |= low
        pad_from ^= low
    return value, witness


class _GeneratorMemo:
    """The generator's memo for one hypergraph; see the module docstring."""

    __slots__ = ("q", "incidence", "deg", "tables", "traces")

    def __init__(self, h: Hypergraph):
        by_vertex: list[list[int]] = [[] for _ in range(h.n)]
        for e in h.edges:
            for v in bits_of(e):
                by_vertex[v].append(e)
        self.q = h.q
        self.incidence = tuple(tuple(es) for es in by_vertex)
        self.deg: dict[tuple[int, int, int, int], tuple[int, int]] = {}
        self.tables: dict[tuple[int, int, int], dict[int, int]] = {}
        self.traces: dict[tuple[int, int, int, str], tuple[SatIteration, ...]] = {}

    def deg_leq_n(self, c_mask: int, n_bound: int, v: int, cap: int) -> tuple[int, int]:
        key = (c_mask, n_bound, v, cap)
        hit = self.deg.get(key)
        if hit is None:
            hit = self.deg[key] = _deg_leq_n_exact(
                self.q, self.incidence[v], c_mask, n_bound, v, cap)
        return hit

    def degree_table(self, c_mask: int, n_bound: int, cap: int) -> dict[int, int]:
        """deg_leq_n value of every container member, in vertex order."""
        key = (c_mask, n_bound, cap)
        table = self.tables.get(key)
        if table is None:
            table = self.tables[key] = {
                w: self.deg_leq_n(c_mask, n_bound, w, cap)[0] for w in bits_of(c_mask)}
        return table


def deg_leq_n(h: Hypergraph, container, n_bound: int, v: int,
              cap: int = DEFAULT_RELEVANT_CAP) -> DegLeqNResult:
    """Exact max degree of v over (<=n_bound)-subsets of the container."""
    c_mask = as_mask(container, h.n)
    if not (c_mask >> v) & 1:
        raise ValueError(f"vertex {v} is not in the container")
    value, witness = memo_of(h, _GeneratorMemo).deg_leq_n(c_mask, n_bound, v, cap)
    return DegLeqNResult(value, bits_of(witness))


def deg_leq_n_greedy(h: Hypergraph, container, n_bound: int, v: int) -> DegLeqNResult:
    """Greedy lower bound for deg_leq_n.  NON-CERTIFYING: demo use only;
    verifiers never call this."""
    c_mask = as_mask(container, h.n)
    if not (c_mask >> v) & 1:
        raise ValueError(f"vertex {v} is not in the container")
    vbit = 1 << v
    incidence = memo_of(h, _GeneratorMemo).incidence[v]
    pmasks = [e & ~vbit for e in incidence if e & ~c_mask == 0]
    budget = min(n_bound, c_mask.bit_count()) - 1
    chosen = 0
    while True:
        # Complete the cheapest incomplete edge that still fits the budget.
        pick = None
        for pm in pmasks:
            missing = pm & ~chosen
            if missing == 0:
                continue
            if chosen.bit_count() + missing.bit_count() > budget:
                continue
            if pick is None or missing.bit_count() < pick.bit_count() or (
                missing.bit_count() == pick.bit_count() and missing < pick
            ):
                pick = missing
        if pick is None:
            break
        chosen |= pick
    value = sum(1 for pm in pmasks if pm & ~chosen == 0)
    witness = vbit | chosen
    pad_from = c_mask & ~witness
    want = min(n_bound, c_mask.bit_count())
    while witness.bit_count() < want:
        low = pad_from & -pad_from
        witness |= low
        pad_from ^= low
    return DegLeqNResult(value, bits_of(witness))


@dataclass(frozen=True)
class LevelRecord:
    """One level hypergraph D_{t,ell}: its vertex set and its edge list."""

    ell: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SatIteration:
    t: int
    selected: tuple[int, ...]
    exclusions: tuple[tuple[int, tuple[int, ...]], ...]
    levels: tuple[LevelRecord, ...]
    one_edge_removals: tuple[int, ...]
    fingerprint: tuple[int, ...]
    container: tuple[int, ...]
    degenerate: bool
    truncated: bool


def extended_at(field: str, start: Callable[[object], tuple[int, ...]]):
    """A trace accessor t -> iteration t's `field` under the extension rule
    both generators' traces share: start(trace) before the loop (t <= 0), and
    F_t = C_t = I past the executed loop."""
    get = attrgetter(field)

    def at(self, t: int) -> tuple[int, ...]:
        if t <= 0:
            return start(self)
        if t <= len(self.iterations):
            return get(self.iterations[t - 1])
        return self.independent_set
    return at


@dataclass(frozen=True)
class ContainerTrace:
    """Full per-iteration output of the generator for one independent set;
    fingerprint_at/container_at apply the `extended_at` rule."""

    hypergraph: Hypergraph
    n_bound: int
    independent_set: tuple[int, ...]
    iterations: tuple[SatIteration, ...]
    deg_mode: str = "exact"

    fingerprint_at = extended_at("fingerprint", lambda trace: ())
    container_at = extended_at("container",
                               lambda trace: tuple(range(trace.hypergraph.n)))

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)


def _argmax_smallest(candidates, value) -> int:
    best_v, best_val = None, None
    for w in candidates:
        val = value(w)
        if best_val is None or val > best_val:
            best_v, best_val = w, val
    return best_v


def run_generator(h: Hypergraph, n_bound: int, independent_set,
                  deg_cap: int = DEFAULT_RELEVANT_CAP,
                  deg_mode: str = "exact") -> ContainerTrace:
    """Run the fingerprint & container generator on an independent set."""
    i_mask = as_mask(independent_set, h.n)
    if not is_independent(h, i_mask):
        raise ValueError("input vertex set is not independent")
    if not 1 <= n_bound < h.n:
        raise ValueError(f"subgraph bound {n_bound} must satisfy 1 <= n < {h.n}")
    if deg_mode not in ("exact", "greedy"):
        raise ValueError(f"unknown deg mode {deg_mode!r}")

    memo = memo_of(h, _GeneratorMemo)
    key = (i_mask, n_bound, deg_cap, deg_mode)
    done = memo.traces.get(key)
    if done is not None:
        return ContainerTrace(h, n_bound, bits_of(i_mask), done, deg_mode)

    if deg_mode == "exact":
        def degree_table(c_mask: int) -> dict[int, int]:
            return memo.degree_table(c_mask, n_bound, deg_cap)

        def witness_of(c_mask: int, v: int) -> int:
            return memo.deg_leq_n(c_mask, n_bound, v, deg_cap)[1]
    else:
        def degree_table(c_mask: int) -> dict[int, int]:
            return {w: deg_leq_n_greedy(h, c_mask, n_bound, w).value
                    for w in bits_of(c_mask)}

        def witness_of(c_mask: int, v: int) -> int:
            return mask_of(deg_leq_n_greedy(h, c_mask, n_bound, v).witness)

    q = h.q
    full = (1 << h.n) - 1
    f_mask, c_mask = 0, full
    iterations: list[SatIteration] = []
    t = 0
    while i_mask & ~f_mask:
        t += 1
        values = degree_table(c_mask)
        v_q = _argmax_smallest(bits_of(i_mask & ~f_mask), values.__getitem__)
        x_q = tuple(w for w in values if values[w] > values[v_q])
        witness_mask = witness_of(c_mask, v_q)

        vbit = 1 << v_q
        level_v = witness_mask & ~vbit
        level_e = [
            e & ~vbit
            for e in memo.incidence[v_q]
            if e & ~c_mask == 0 and e & ~witness_mask == 0
        ]
        selected = [v_q]
        selected_mask = vbit
        exclusions = [(q, x_q)]
        levels = [LevelRecord(q - 1, bits_of(level_v),
                              tuple(sorted(bits_of(e) for e in level_e)))]
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
                v_ell = _argmax_smallest(bits_of(candidates), level_deg.__getitem__)
                x_ell = tuple(w for w in bits_of(level_v)
                              if level_deg[w] > level_deg[v_ell])
                next_e = [e & ~(1 << v_ell) for e in level_e if (e >> v_ell) & 1]
            else:
                # No independent-set vertex inside the level: fall back to the
                # smallest unselected one (level degree treated as 0) and drop
                # every positive-degree vertex of the level.
                degenerate = True
                v_ell = bits_of(i_mask & ~f_mask & ~selected_mask)[0]
                x_ell = tuple(w for w in bits_of(level_v) if level_deg[w] > 0)
                next_e = []
            selected.append(v_ell)
            selected_mask |= 1 << v_ell
            exclusions.append((ell, x_ell))
            level_v &= ~(1 << v_ell)
            level_e = next_e
            levels.append(LevelRecord(ell - 1, bits_of(level_v),
                                      tuple(sorted(bits_of(e) for e in level_e))))

        one_edge: tuple[int, ...] = ()
        if not truncated:
            one_edge = tuple(sorted(e.bit_length() - 1 for e in level_e))

        removal = mask_of(w for _, xs in exclusions for w in xs)
        removal |= mask_of(one_edge) | selected_mask
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
            fingerprint=bits_of(f_mask),
            container=bits_of(c_new),
            degenerate=degenerate,
            truncated=truncated,
        ))
        c_mask = c_new

    done = memo.traces[key] = tuple(iterations)
    return ContainerTrace(h, n_bound, bits_of(i_mask), done, deg_mode)


@dataclass(frozen=True)
class ClosureOutcome:
    ok: bool
    first_mismatch_t: Optional[int]
    iteration_count: int


def check_closure(h: Hypergraph, n_bound: int, independent_set,
                  deg_cap: int = DEFAULT_RELEVANT_CAP) -> ClosureOutcome:
    """Rerun the generator on every fingerprint prefix and compare containers."""
    trace = run_generator(h, n_bound, independent_set, deg_cap)
    for t in range(1, trace.iteration_count + 1):
        sub = run_generator(h, n_bound, trace.fingerprint_at(t), deg_cap)
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
    degs = [0] * h.n
    for e in h.edges:
        for v in bits_of(e):
            degs[v] += 1
    heavy = sum(1 for d in degs if d > threshold)
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


def check_container_degree(trace: ContainerTrace, k: int, n: int,
                           deg_cap: int = DEFAULT_RELEVANT_CAP) -> ContainerDegreeOutcome:
    """Per-iteration container degree bound (2kq/t) * C(n-1, q-1), with the
    tighter 2k(q-1)/t constant recorded alongside."""
    h = trace.hypergraph
    if h.n != k * n:
        raise ValueError(f"trace hypergraph has {h.n} vertices, expected k*n = {k * n}")
    if trace.deg_mode != "exact":
        raise ValueError("verification requires an exact-mode trace")
    q = h.q
    coeff = math.comb(n - 1, q - 1)
    records = []
    worst: Optional[Fraction] = None
    memo = memo_of(h, _GeneratorMemo)
    for t in range(1, trace.iteration_count + 1):
        table = memo.degree_table(mask_of(trace.container_at(t)), n, deg_cap)
        max_deg = max(table.values(), default=0)
        bound = Fraction(2 * k * q, t) * coeff
        tighter = Fraction(2 * k * (q - 1), t) * coeff
        ok = max_deg <= bound
        slack = bound - max_deg
        if worst is None or slack < worst:
            worst = slack
        records.append(ContainerDegreeRecord(t, max_deg, bound, tighter,
                                             ok, max_deg <= tighter))
    return ContainerDegreeOutcome(
        all(r.ok for r in records),
        all(r.tighter_ok for r in records),
        worst,
        tuple(records),
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
                   distance: Optional[SatDistance] = None,
                   deg_cap: int = DEFAULT_RELEVANT_CAP) -> GclSatOutcome:
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
    i_mask = as_mask(independent_set, h.n)
    if not is_independent(h, i_mask):
        raise ValueError("input vertex set is not independent")
    if vars_of(h, i_mask) != i_mask.bit_count():
        raise ValueError("input vertex set is not variable-distinct")

    k, q, n = csp.k, csp.q, csp.n
    trace = run_generator(h, n, i_mask, deg_cap)
    t_max = (8 * k * q / epsilon).__floor__()
    ln_arg = k * q / epsilon
    scale = 4 * k * q * q

    checks = []
    witness: Optional[int] = None
    for t in range(1, min(trace.iteration_count + 1, t_max) + 1):
        vt = vars_of(h, trace.container_at(t))
        if vt >= n:
            ok = False
        else:
            # vars <= (1 - eps t / (4kq^2 L)) n  <=>  L >= n eps t / (4kq^2 (n - vars))
            lhs = Fraction(n) * epsilon * t / (scale * (n - vt))
            ok = le_with_ln(lhs, Fraction(1), ln_arg)
        checks.append(GclSatCheck(t, vt, ok))
        if ok:
            witness = t
            break
    return GclSatOutcome(witness is not None, witness, epsilon, t_max,
                         trace.iteration_count, tuple(checks))
