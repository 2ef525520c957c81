"""The testers: canonical satisfiability, colorability and partition-property
testing via reduction to satisfiability, the two-sample independent-set-star
tester, and the canonical independent-set baseline.

run_tester is the one dispatch over tester kinds.  sat, color and shpp share
one path: reduce to satisfiability, run canonical_sat_tester, and relabel a
color or shpp report with its kind and the reduction's k.

Every tester run is a pure function of (instance, params, seed); reports echo
the resolved parameters, the generator name, and exact query accounting.
Graph testers touch the graph only through a counting adapter that
deduplicates repeated pairs, so reported query counts are exact distinct-pair
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import Graph, Hypergraph, WorkCapExceeded, bits_of, comb_exceeds, mask_of
from .csp import Csp, check_assignment_cap, is_satisfiable, restrict
from .rationals import ceil_frac, least_int, sign_with_ln
from .rng import GENERATOR_NAME, make_rng, sample_without_replacement

DEFAULT_SEARCH_CAP = 10_000_000


def _derived_size(name: str, at_least, n: int) -> int:
    """The least size in [1, n] at which the monotone bound at_least holds."""
    size = least_int(at_least, 0, n + 1)
    if not 1 <= size <= n:
        raise ValueError(f"derived {name} {'exceeds n' if size else 'is 0'}; "
                         f"it must lie in [1, n={n}]")
    return size


@dataclass(frozen=True)
class SatTesterParams:
    """Sample size for the canonical satisfiability tester.

    When s is not given it is derived as ceil(c * (k q^3 / eps) * ln^2(kq/eps))
    (the theorem-statement form of the sample bound), exactly: the least s
    with s - (c k q^3 / eps) ln^2(kq/eps) >= 0 is searched for with
    sign_with_ln, so the result does not depend on libm.
    """

    epsilon: Fraction
    s: Optional[int] = None
    c: Fraction = Fraction(1)

    def resolve_s(self, n: int, k: int, q: int) -> int:
        s = self.s
        if s is None:
            lead = self.c * k * q**3 / self.epsilon
            x = k * q / self.epsilon
            s = _derived_size("sample size",
                              lambda t: sign_with_ln((t, 0, -lead), x) >= 0, n)
        if not 1 <= s <= n:
            raise ValueError(f"sample size {s} must lie in [1, n={n}]")
        return s


@dataclass(frozen=True)
class StarTesterParams:
    """Core/body sample sizes for the star tester.

    Derived sizes, exact with L = ln(1/eps): r = ceil(c1 (rho^2/eps^{3/2}) L^2),
    the least r >= 0 with r^2 eps^3 >= c1^2 rho^4 L^4 (0 for c1 <= 0), and
    s = ceil(c2 (rho^3/eps^2) L^3), the least s >= 0 with s eps^2 >= c2 rho^3 L^3.
    r <= s <= n is enforced.
    """

    rho: Fraction
    epsilon: Fraction
    r: Optional[int] = None
    s: Optional[int] = None
    c1: Fraction = Fraction(1)
    c2: Fraction = Fraction(1)
    disjoint: bool = False

    def resolve(self, n: int) -> tuple[int, int]:
        r, s = self.r, self.s
        rho, eps, c1 = self.rho, self.epsilon, self.c1
        if r is None:
            r = _derived_size("r", lambda t: c1 <= 0 or sign_with_ln(
                (t * t * eps**3, 0, 0, 0, -(c1 * rho**2) ** 2), 1 / eps) >= 0, n)
        if s is None:
            s = _derived_size("s", lambda t: sign_with_ln(
                (t * eps**2, 0, 0, -self.c2 * rho**3), 1 / eps) >= 0, n)
        if not 1 <= r <= s <= n:
            raise ValueError(f"need 1 <= r <= s <= n, got r={r}, s={s}, n={n}")
        return r, s


@dataclass(frozen=True)
class TesterReport:
    kind: str
    verdict: str  # "accept" | "reject"
    seed: int
    generator: str
    params: dict
    sample: tuple[int, ...] = ()
    core_sample: tuple[int, ...] = ()
    query_count: Optional[int] = None
    witness: Optional[dict] = None

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"


class QueryCountingGraph:
    """Adapter that answers pair queries and counts distinct pairs asked."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._asked: set[frozenset[int]] = set()

    def query(self, u: int, v: int) -> bool:
        if u == v:
            raise ValueError("pair queries need two distinct vertices")
        self._asked.add(frozenset((u, v)))
        return self.graph.has_edge(u, v)

    @property
    def query_count(self) -> int:
        return len(self._asked)


def canonical_sat_tester(csp: Csp, params: SatTesterParams,
                         rng: np.random.Generator, seed: int = 0) -> TesterReport:
    """Sample s variables without replacement; accept iff the restriction is
    satisfiable.  One-sided: a satisfiable instance is accepted on every seed.
    """
    s = params.resolve_s(csp.n, csp.k, csp.q)
    sample = sample_without_replacement(rng, csp.n, s)
    restriction = restrict(csp, sample)
    result = is_satisfiable(restriction.csp)
    return TesterReport(
        kind="canonical-sat",
        verdict="accept" if result.satisfiable else "reject",
        seed=seed,
        generator=GENERATOR_NAME,
        params={"epsilon": str(params.epsilon), "s": s, "c": str(params.c)},
        sample=sample,
        query_count=None,
    )


def colorability_to_sat(h: Hypergraph, k: int) -> Csp:
    """One variable per vertex over [k]; each edge forbids the k all-equal
    assignments, so satisfiability is exactly k-colorability and the distance
    to satisfiability equals the distance to colorability."""
    if k < 1:
        raise ValueError("need at least one colour")
    all_equal = tuple((a,) * h.q for a in range(k))
    constraints = []
    for e in h.edges:
        constraints.append((bits_of(e), all_equal))
    return Csp.of(h.n, k, h.q, constraints)


@dataclass(frozen=True)
class SHPPSpec:
    """A k-part partition property whose density bounds are all 0 or 1.

    lower/upper are k x k 0/1 matrices; pair (i, j) of parts is forbidden for
    edges unless upper[i][j] = 1 and forced unless lower[i][j] = 0.
    """

    k: int
    lower: tuple[tuple[int, ...], ...]
    upper: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for mat, name in ((self.lower, "lower"), (self.upper, "upper")):
            if len(mat) != self.k or any(len(row) != self.k for row in mat):
                raise ValueError(f"{name} must be a {self.k}x{self.k} matrix")
            if any(x not in (0, 1) for row in mat for x in row):
                raise ValueError(f"{name} bounds must all be 0 or 1 (semi-homogeneous)")
        for i in range(self.k):
            for j in range(self.k):
                if self.lower[i][j] > self.upper[i][j]:
                    raise ValueError(f"lower[{i}][{j}] exceeds upper[{i}][{j}]")

    def pi0(self) -> frozenset[tuple[int, int]]:
        """Part pairs compatible with a non-adjacent vertex pair."""
        return frozenset((i, j) for i in range(self.k) for j in range(self.k)
                         if self.lower[i][j] == 0)

    def pi1(self) -> frozenset[tuple[int, int]]:
        """Part pairs compatible with an adjacent vertex pair."""
        return frozenset((i, j) for i in range(self.k) for j in range(self.k)
                         if self.upper[i][j] == 1)

    def pair_allowed(self, adjacent: bool, a: int, b: int) -> bool:
        allowed = self.pi1() if adjacent else self.pi0()
        return (a, b) in allowed and (b, a) in allowed


def shpp_to_sat(g: Graph, spec: SHPPSpec) -> Csp:
    """One variable per vertex over [k]; each vertex pair constrains its two
    part assignments to the compatible set for its adjacency."""
    pi0, pi1 = spec.pi0(), spec.pi1()
    k = spec.k

    def falsifying(allowed: frozenset[tuple[int, int]]):
        return tuple(sorted(
            (a, b) for a in range(k) for b in range(k)
            if not ((a, b) in allowed and (b, a) in allowed)
        ))

    fals_adjacent = falsifying(pi1)
    fals_nonadjacent = falsifying(pi0)
    constraints = []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            fals = fals_adjacent if g.has_edge(a, b) else fals_nonadjacent
            constraints.append(((a, b), fals))
    return Csp.of(g.n, k, 2, constraints)


def has_independent_set_of_size(adj: tuple[int, ...], candidates: int,
                                target: int) -> bool:
    """Exact branch and bound: does the induced subgraph on the candidate
    mask contain an independent set with `target` vertices?"""
    if target <= 0:
        return True

    def rec(mask: int, need: int) -> bool:
        if need <= 0:
            return True
        if mask.bit_count() < need:
            return False
        # Branch on the max-degree vertex inside the mask.
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
            return True  # mask is already independent and large enough
        bit = 1 << best_v
        if rec(mask & ~bit & ~adj[best_v], need - 1):
            return True
        return rec(mask & ~bit, need)

    return rec(candidates, target)


def star_tester(graph: Graph, params: StarTesterParams,
                rng: np.random.Generator, seed: int = 0,
                search_cap: int = DEFAULT_SEARCH_CAP) -> TesterReport:
    """Draw a core sample R and a body sample S; query all pairs inside R and
    all R x S pairs; accept iff some independent core I of size ceil(rho r)
    inside R leaves at least ceil(rho s) vertices of S with no edge into it
    (core members of S count themselves).
    """
    n = graph.n
    r, s = params.resolve(n)
    if params.disjoint and r + s > n:
        raise ValueError(f"disjoint samples need r + s <= n, got {r}+{s} > {n}")
    core = sample_without_replacement(rng, n, r)
    if params.disjoint:
        outside = [v for v in range(n) if v not in set(core)]
        picks = sample_without_replacement(rng, len(outside), s)
        body = tuple(outside[i] for i in picks)
    else:
        body = sample_without_replacement(rng, n, s)

    m_core = ceil_frac(params.rho * r)
    m_body = ceil_frac(params.rho * s)
    if comb_exceeds(r, m_core, search_cap):
        raise WorkCapExceeded(
            f"C({r},{m_core}) core subsets exceed the search cap {search_cap}"
        )

    counted = QueryCountingGraph(graph)
    answers: dict[frozenset[int], bool] = {}
    core_list = sorted(core)
    body_list = sorted(body)
    for i, u in enumerate(core_list):
        for v in core_list[i + 1:]:
            answers[frozenset((u, v))] = counted.query(u, v)
        for v in body_list:
            if v != u:
                answers[frozenset((u, v))] = counted.query(u, v)

    # Sampled adjacency restricted to the answered pairs.
    adj_known = {u: 0 for u in core_list}
    for pair, is_edge in answers.items():
        if not is_edge:
            continue
        a, b = tuple(pair)
        if a in adj_known:
            adj_known[a] |= 1 << b
        if b in adj_known:
            adj_known[b] |= 1 << a

    body_mask = mask_of(body_list)
    witness: Optional[dict] = None

    def compatible_count(core_mask: int) -> int:
        blocked = 0
        for u in bits_of(core_mask):
            blocked |= adj_known[u]
        # Body vertices inside the core count themselves.
        return (body_mask & ~blocked & ~core_mask).bit_count() + (
            body_mask & core_mask).bit_count()

    chosen: list[int] = []

    def search(start: int, core_mask: int) -> bool:
        nonlocal witness
        if len(chosen) == m_core:
            if compatible_count(core_mask) >= m_body:
                witness = {"core": tuple(chosen),
                           "compatible": compatible_count(core_mask)}
                return True
            return False
        for idx in range(start, len(core_list)):
            if len(core_list) - idx < m_core - len(chosen):
                return False
            v = core_list[idx]
            if adj_known[v] & core_mask:
                continue
            chosen.append(v)
            if search(idx + 1, core_mask | (1 << v)):
                return True
            chosen.pop()
        return False

    accepted = search(0, 0)
    return TesterReport(
        kind="star",
        verdict="accept" if accepted else "reject",
        seed=seed,
        generator=GENERATOR_NAME,
        params={"rho": str(params.rho), "epsilon": str(params.epsilon),
                "r": r, "s": s, "c1": str(params.c1), "c2": str(params.c2),
                "disjoint": params.disjoint},
        sample=body,
        core_sample=core,
        query_count=counted.query_count,
        witness=witness,
    )


def canonical_is_tester(graph: Graph, rho: Fraction, sample_size: int,
                        rng: np.random.Generator, seed: int = 0,
                        search_cap: int = DEFAULT_SEARCH_CAP) -> TesterReport:
    """Baseline: sample vertices, query every pair among them, accept iff the
    induced subgraph has an independent set on ceil(rho * |S|) vertices."""
    n = graph.n
    if not 1 <= sample_size <= n:
        raise ValueError(f"sample size {sample_size} must lie in [1, {n}]")
    target_cap = ceil_frac(Fraction(rho) * sample_size)
    if comb_exceeds(sample_size, target_cap, search_cap):
        raise WorkCapExceeded(
            f"C({sample_size},{target_cap}) subsets exceed the search cap {search_cap}"
        )
    sample = sample_without_replacement(rng, n, sample_size)
    counted = QueryCountingGraph(graph)
    sample_list = sorted(sample)
    adj_known = {u: 0 for u in sample_list}
    for i, u in enumerate(sample_list):
        for v in sample_list[i + 1:]:
            if counted.query(u, v):
                adj_known[u] |= 1 << v
                adj_known[v] |= 1 << u

    target = ceil_frac(Fraction(rho) * sample_size)
    adj_full = tuple(adj_known.get(v, 0) for v in range(n))
    accepted = has_independent_set_of_size(adj_full, mask_of(sample_list), target)
    return TesterReport(
        kind="canonical-is",
        verdict="accept" if accepted else "reject",
        seed=seed,
        generator=GENERATOR_NAME,
        params={"rho": str(Fraction(rho)), "s": sample_size},
        sample=sample,
        query_count=counted.query_count,
    )


@dataclass(frozen=True)
class TesterSpec:
    """Names a tester plus its resolved options, for trial harnesses."""

    __test__ = False  # not a pytest class, despite the name

    kind: str  # sat | color | shpp | indepset | canonical-is
    options: dict


def run_tester(spec: TesterSpec, instance, seed: int) -> TesterReport:
    """One run of the named tester on the instance, seeded by seed."""
    opts = spec.options
    rng = make_rng(seed)
    if spec.kind == "indepset":
        params = StarTesterParams(
            rho=Fraction(opts["rho"]), epsilon=Fraction(opts["epsilon"]),
            r=opts.get("r"), s=opts.get("s"),
            c1=Fraction(opts.get("c1", 1)), c2=Fraction(opts.get("c2", 1)),
            disjoint=bool(opts.get("disjoint", False)),
        )
        return star_tester(instance, params, rng, seed)
    if spec.kind == "canonical-is":
        return canonical_is_tester(instance, Fraction(opts["rho"]),
                                   opts["s"], rng, seed)
    if spec.kind not in ("sat", "color", "shpp"):
        raise ValueError(f"unknown tester kind {spec.kind!r}")
    params = SatTesterParams(Fraction(opts["epsilon"]), opts.get("s"),
                             Fraction(opts.get("c", 1)))
    csp = instance
    if spec.kind == "color":
        k = opts["k"]
        if k >= 1:  # else the reduction says so, first
            # The restriction's k^s cap, read before the reduction builds k
            # tuples per edge.
            params = replace(params, s=params.resolve_s(instance.n, k, instance.q))
            check_assignment_cap(k, params.s)
        csp = colorability_to_sat(instance, k)
    elif spec.kind == "shpp":
        csp = shpp_to_sat(instance, opts["spec"])
    report = canonical_sat_tester(csp, params, rng, seed)
    if spec.kind == "sat":
        return report
    return replace(report, kind=spec.kind, params={**report.params, "k": csp.k})
