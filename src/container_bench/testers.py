"""The testers: canonical satisfiability, colorability and partition-property
testing via reduction to satisfiability, the two-sample independent-set-star
tester, and the canonical independent-set baseline.

TesterSpec.of binds a tester for a run, once: it reads the options, derives
the sample sizes and thresholds, makes every refusal, builds a color or shpp
reduction and fixes the reports' kind and params.  A trial (star_tester,
canonical_sat_tester or canonical_is_tester, given the spec, an rng and the
seed) only draws its sample and decides; run_tester is the one dispatch.

Every tester run is a pure function of (spec, seed); reports echo the
resolved parameters, the generator name, and exact query accounting.
A graph tester reads the pairs it queries as one mask per sampled vertex, and
reports the exact count of distinct pairs those masks cover.  A satisfiability
verdict is a pure function of (CSP, sample set), so canonical_sat_tester keeps
each one in a memo on the Csp, keyed on the sorted sample.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (Graph, Hypergraph, argmax_degree, bits_of, check_assignment_cap,
                   check_subset_cap, mask_of, memo_of)
from .csp import Csp, is_satisfiable
from .rationals import ceil_frac, least_int, sign_with_ln
from .rng import GENERATOR_NAME, make_rng, sample_without_replacement


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


def canonical_sat_tester(spec: TesterSpec, rng: np.random.Generator,
                         seed: int = 0) -> TesterReport:
    """Sample s variables without replacement; accept iff phi[S], the
    constraints inside the sample S, is satisfiable.  One-sided: a satisfiable
    instance is accepted on every seed.
    """
    csp = spec.instance
    sample = sample_without_replacement(rng, csp.n, spec.s)
    # phi[S] satisfiable, by S sorted: a key of s ints, where a mask would
    # take n bits per distinct sample.
    verdicts = memo_of(csp, lambda _: {})
    key = tuple(sorted(sample))
    satisfiable = verdicts.get(key)
    if satisfiable is None:
        satisfiable = verdicts[key] = is_satisfiable(csp, sample).satisfiable
    return TesterReport(
        kind=spec.report_kind,
        verdict="accept" if satisfiable else "reject",
        seed=seed,
        generator=GENERATOR_NAME,
        params=spec.report_params,
        sample=sample,
    )


def colorability_to_sat(h: Hypergraph, k: int) -> Csp:
    """One variable per vertex over [k]; each edge forbids the k all-equal
    assignments, so satisfiability is exactly k-colorability and the distance
    to satisfiability equals the distance to colorability."""
    all_equal = tuple((a,) * h.q for a in range(k))
    return Csp.of(h.n, k, h.q, [(bits_of(e), all_equal) for e in h.edges])


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


def has_independent_set_of_size(adj: Mapping[int, int] | Sequence[int],
                                candidates: int, target: int) -> bool:
    """Exact branch and bound: does the induced subgraph on the candidate
    mask contain an independent set with `target` vertices?  adj[v], the
    neighbour mask of v, is read only for v in the candidate mask."""
    stack = [(candidates, target)]
    while stack:
        mask, need = stack.pop()
        if need <= 0:
            return True
        if mask.bit_count() < need:
            continue
        # Branch on the max-degree vertex inside the mask: take it, else drop it.
        v, d = argmax_degree(adj, mask, mask)
        if d == 0:
            return True  # mask is already independent and large enough
        bit = 1 << v
        stack.append((mask & ~bit, need))
        stack.append((mask & ~bit & ~adj[v], need - 1))
    return False


def star_tester(spec: TesterSpec, rng: np.random.Generator,
                seed: int = 0) -> TesterReport:
    """Draw a core sample R and a body sample S; query all pairs inside R and
    all R x S pairs; accept iff some independent core I of size ceil(rho r)
    inside R leaves at least ceil(rho s) vertices of S with no edge into it
    (core members of S count themselves).
    """
    graph, r, m_core, m_body = spec.instance, spec.r, spec.m_r, spec.m_s
    n = graph.n
    core = sample_without_replacement(rng, n, r)
    if spec.disjoint:
        outside = sorted(set(range(n)).difference(core))
        picks = sample_without_replacement(rng, len(outside), spec.s)
        body = tuple(outside[i] for i in picks)
    else:
        body = sample_without_replacement(rng, n, spec.s)

    core_list = sorted(core)
    body_mask = mask_of(body)
    seen = mask_of(core) | body_mask
    # The queried pairs, every pair inside R and every R x S pair, as each core
    # vertex's neighbours in R | S: r(|R | S| - 1) - C(r, 2) distinct pairs.
    adj_known = {u: graph.adj[u] & seen for u in core_list}
    query_count = r * (seen.bit_count() - 1) - r * (r - 1) // 2

    def compatible_count(core_mask: int) -> int:
        blocked = 0
        for u in bits_of(core_mask):
            blocked |= adj_known[u]
        # Body vertices inside the core count themselves.
        return (body_mask & ~blocked & ~core_mask).bit_count() + (
            body_mask & core_mask).bit_count()

    # Depth first over the independent cores of size m_core inside core_list,
    # in combinations order: a node's children are the later core vertices
    # with no known edge into it, while enough vertices remain to finish.
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

    return TesterReport(
        kind=spec.report_kind,
        verdict="reject" if witness is None else "accept",
        seed=seed,
        generator=GENERATOR_NAME,
        params=spec.report_params,
        sample=body,
        core_sample=core,
        query_count=query_count,
        witness=witness,
    )


def canonical_is_tester(spec: TesterSpec, rng: np.random.Generator,
                        seed: int = 0) -> TesterReport:
    """Baseline: sample vertices, query every pair among them, accept iff the
    induced subgraph has an independent set on ceil(rho * |S|) vertices."""
    graph, s = spec.instance, spec.s
    sample = sample_without_replacement(rng, graph.n, s)
    sample_mask = mask_of(sample)
    # The queried pairs, every pair inside S: C(s, 2) distinct pairs.
    adj_known = {u: graph.adj[u] & sample_mask for u in sample}
    accepted = has_independent_set_of_size(adj_known, sample_mask, spec.m_s)
    return TesterReport(
        kind=spec.report_kind,
        verdict="accept" if accepted else "reject",
        seed=seed,
        generator=GENERATOR_NAME,
        params=spec.report_params,
        sample=sample,
        query_count=s * (s - 1) // 2,
    )


def _params_of(cls, options: dict):
    """cls from the options named after its fields; the rest keep defaults."""
    return cls(**{f.name: options[f.name] for f in fields(cls) if f.name in options})


@dataclass(frozen=True)
class TesterSpec:
    """A tester bound for a run: the instance it samples (the reduced CSP for
    color and shpp), its sample sizes and thresholds, and its reports' kind
    and params, each fixed once by TesterSpec.of."""

    __test__ = False  # not a pytest class, despite the name

    kind: str  # sat | color | shpp | indepset | canonical-is
    instance: object
    report_kind: str
    report_params: dict
    s: int  # the sample size; the star tester's body sample
    r: int = 0  # the star tester's core sample
    m_r: int = 0  # ceil(rho r), the size of a star core
    m_s: int = 0  # ceil(rho s): a star's body threshold, canonical-is's set size
    disjoint: bool = False

    @classmethod
    def of(cls, kind: str, instance, options: dict) -> "TesterSpec":
        """Bind the named tester to instance, or refuse.  options holds its
        params' fields by name, plus k for color, the SHPPSpec as spec for
        shpp, and rho and s for canonical-is.  sat, color and shpp establish
        k >= 1, resolve s, check the k^s assignment cap, then reduce."""
        n = instance.n
        if kind == "indepset":
            p = _params_of(StarTesterParams, options)
            r, s = p.resolve(n)
            if p.disjoint and r + s > n:
                raise ValueError(f"disjoint samples need r + s <= n, got {r}+{s} > {n}")
            m_r = ceil_frac(p.rho * r)
            check_subset_cap(r, m_r)
            params = {"rho": str(p.rho), "epsilon": str(p.epsilon), "r": r, "s": s,
                      "c1": str(p.c1), "c2": str(p.c2), "disjoint": p.disjoint}
            return cls(kind, instance, "star", params, s, r, m_r,
                       ceil_frac(p.rho * s), p.disjoint)
        if kind == "canonical-is":
            rho, s = Fraction(options["rho"]), options["s"]
            if not 1 <= s <= n:
                raise ValueError(f"sample size {s} must lie in [1, {n}]")
            m_s = ceil_frac(rho * s)
            check_subset_cap(s, m_s)
            return cls(kind, instance, kind, {"rho": str(rho), "s": s}, s, m_s=m_s)
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
        p = _params_of(SatTesterParams, options)
        s = p.resolve_s(n, k, q)
        check_assignment_cap(k, s)  # before a reduction builds its tuples
        params = {"epsilon": str(p.epsilon), "s": s, "c": str(p.c)}
        if kind == "sat":
            return cls(kind, instance, "canonical-sat", params, s)
        if kind == "color":
            instance = colorability_to_sat(instance, k)
        else:
            instance = shpp_to_sat(instance, options["spec"])
        return cls(kind, instance, kind, {**params, "k": k}, s)


def run_tester(spec: TesterSpec, seed: int) -> TesterReport:
    """One trial of the bound tester, seeded by seed."""
    rng = make_rng(seed)
    if spec.kind == "indepset":
        return star_tester(spec, rng, seed)
    if spec.kind == "canonical-is":
        return canonical_is_tester(spec, rng, seed)
    return canonical_sat_tester(spec, rng, seed)
