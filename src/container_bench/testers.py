"""The testers: canonical satisfiability, colorability and partition-property
testing via reduction to satisfiability, the two-sample independent-set-star
tester, and the canonical independent-set baseline.

TesterSpec.of binds a tester for a run, once: it reads the options, derives
the sample sizes, reads the k^s cap and builds a color or shpp reduction.
run_tester, one trial, is the one dispatch over tester kinds: sat, color and
shpp all run canonical_sat_tester, and a color or shpp report is relabelled.

Every tester run is a pure function of (instance, params, seed); reports echo
the resolved parameters, the generator name, and exact query accounting.
Graph testers touch the graph only through a counting adapter that
deduplicates repeated pairs, so reported query counts are exact distinct-pair
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Optional, Sequence

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
        if self.k < 1:
            raise ValueError(f"a partition needs at least one part, got spec k={self.k}")
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
        bounds, allowed = (self.upper, 1) if adjacent else (self.lower, 0)
        return bounds[a][b] == allowed == bounds[b][a]


def shpp_to_sat(g: Graph, spec: SHPPSpec) -> Csp:
    """One variable per vertex over [k]; each vertex pair constrains its two
    part assignments to the compatible set for its adjacency."""
    k = spec.k
    falsifying = {adjacent: tuple((a, b) for a in range(k) for b in range(k)
                                  if not spec.pair_allowed(adjacent, a, b))
                  for adjacent in (False, True)}
    constraints = [((a, b), falsifying[g.has_edge(a, b)])
                   for a in range(g.n) for b in range(a + 1, g.n)]
    return Csp.of(g.n, k, 2, constraints)


def has_independent_set_of_size(adj: Sequence[int], candidates: int,
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
        outside = sorted(set(range(n)).difference(core))
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
    core_list = sorted(core)
    body_list = sorted(body)
    # Sampled adjacency of the core vertices, restricted to the answered pairs.
    adj_known = dict.fromkeys(core_list, 0)
    for i, u in enumerate(core_list):
        for v in core_list[i + 1:] + [w for w in body_list if w != u]:
            if counted.query(u, v):
                adj_known[u] |= 1 << v
                if v in adj_known:
                    adj_known[v] |= 1 << u

    body_mask = mask_of(body_list)

    def compatible_count(core_mask: int) -> int:
        blocked = 0
        for u in bits_of(core_mask):
            blocked |= adj_known[u]
        # Body vertices inside the core count themselves.
        return (body_mask & ~blocked & ~core_mask).bit_count() + (
            body_mask & core_mask).bit_count()

    def search(start: int, core_mask: int, size: int) -> Optional[dict]:
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

    witness = search(0, 0, 0)
    return TesterReport(
        kind="star",
        verdict="reject" if witness is None else "accept",
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
    target = ceil_frac(Fraction(rho) * sample_size)
    if comb_exceeds(sample_size, target, search_cap):
        raise WorkCapExceeded(
            f"C({sample_size},{target}) subsets exceed the search cap {search_cap}"
        )
    sample = sample_without_replacement(rng, n, sample_size)
    counted = QueryCountingGraph(graph)
    sample_list = sorted(sample)
    adj_known = [0] * n
    for i, u in enumerate(sample_list):
        for v in sample_list[i + 1:]:
            if counted.query(u, v):
                adj_known[u] |= 1 << v
                adj_known[v] |= 1 << u

    accepted = has_independent_set_of_size(adj_known, mask_of(sample_list), target)
    return TesterReport(
        kind="canonical-is",
        verdict="accept" if accepted else "reject",
        seed=seed,
        generator=GENERATOR_NAME,
        params={"rho": str(Fraction(rho)), "s": sample_size},
        sample=sample,
        query_count=counted.query_count,
    )


def _params_of(cls, options: dict):
    """cls from the options named after its fields; the rest keep defaults."""
    return cls(**{f.name: options[f.name] for f in fields(cls) if f.name in options})


@dataclass(frozen=True)
class TesterSpec:
    """A tester bound for a run: its kind, the instance it samples (the
    reduced CSP for color and shpp) and params with every size resolved."""

    __test__ = False  # not a pytest class, despite the name

    kind: str  # sat | color | shpp | indepset | canonical-is
    instance: object
    params: object  # SatTesterParams, StarTesterParams, or (rho, s) for canonical-is

    @classmethod
    def of(cls, kind: str, instance, options: dict) -> "TesterSpec":
        """Bind the named tester to instance.  options holds its params'
        fields by name, plus k for color, the SHPPSpec as spec for shpp, and
        rho and s for canonical-is.  sat, color and shpp establish k >= 1,
        resolve s, read the k^s assignment cap, then reduce."""
        if kind == "indepset":
            params = _params_of(StarTesterParams, options)
            r, s = params.resolve(instance.n)
            return cls(kind, instance, replace(params, r=r, s=s))
        if kind == "canonical-is":
            return cls(kind, instance, (options["rho"], options["s"]))
        if kind == "sat":
            k, q = instance.k, instance.q
        elif kind == "color":
            k, q = options["k"], instance.q
            if k < 1:
                raise ValueError("need at least one colour")
        elif kind == "shpp":
            k, q = options["spec"].k, 2
        else:
            raise ValueError(f"unknown tester kind {kind!r}")
        params = _params_of(SatTesterParams, options)
        params = replace(params, s=params.resolve_s(instance.n, k, q))
        check_assignment_cap(k, params.s)  # before a reduction builds its tuples
        if kind == "color":
            instance = colorability_to_sat(instance, k)
        elif kind == "shpp":
            instance = shpp_to_sat(instance, options["spec"])
        return cls(kind, instance, params)


def run_tester(spec: TesterSpec, seed: int) -> TesterReport:
    """One trial of the bound tester, seeded by seed."""
    rng = make_rng(seed)
    if spec.kind == "indepset":
        return star_tester(spec.instance, spec.params, rng, seed)
    if spec.kind == "canonical-is":
        return canonical_is_tester(spec.instance, *spec.params, rng, seed)
    report = canonical_sat_tester(spec.instance, spec.params, rng, seed)
    if spec.kind == "sat":
        return report
    return replace(report, kind=spec.kind, params={**report.params, "k": spec.instance.k})
