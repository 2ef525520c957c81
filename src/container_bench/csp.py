"""Uniform CSP representation, brute-force oracles, and the
labelled-hypergraph encoding of an instance.

Constraints store their *falsifying* tuples: the hypergraph encoding adds one
edge per falsifying tuple, so this is the primal representation.  Builders
merge multiple predicates on the same scope by unioning falsifying sets,
keeping the one-constraint-per-scope normal form.  Satisfiability and
distance are decided by exhaustive search so they can serve as trusted
oracles: backtracking with early exit, and a sweep over all assignments in
bounded numpy chunks that counts falsified constraints in integers through
per-constraint lookup tables and returns the first minimum in
itertools.product order.  Both refuse work past core's assignment cap with
a hard error, never silent truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional

import numpy as np

from .core import Hypergraph, bits_of, check_assignment_cap, mask_of, memo_free_state

_FIRST_CHUNK = 64
_MAX_CHUNK = 1 << 14


@dataclass(frozen=True)
class Constraint:
    """A predicate on a sorted scope of q distinct variables.

    falsifying holds the assignments (tuples over the alphabet, aligned with
    the sorted scope) on which the predicate evaluates to false.
    """

    scope: tuple[int, ...]
    falsifying: tuple[tuple[int, ...], ...]

    @cached_property
    def falsifying_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.falsifying)

    @cached_property
    def scope_mask(self) -> int:
        return mask_of(self.scope)


@dataclass(frozen=True)
class Csp:
    """A q-uniform CSP over n variables with alphabet {0..k-1}."""

    n: int
    k: int
    q: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if self.n < 0 or self.k < 1 or self.q < 1:
            raise ValueError("need n >= 0, k >= 1, q >= 1")
        seen_scopes = set()
        for c in self.constraints:
            if tuple(sorted(c.scope)) != c.scope or len(set(c.scope)) != self.q:
                raise ValueError(f"scope {c.scope} must be sorted and {self.q} distinct variables")
            if c.scope and not (0 <= c.scope[0] and c.scope[-1] < self.n):
                raise ValueError(f"scope {c.scope} out of range for n={self.n}")
            if c.scope in seen_scopes:
                raise ValueError(f"more than one constraint on scope {c.scope}")
            seen_scopes.add(c.scope)
            for tup in c.falsifying:
                if len(tup) != self.q or any(not 0 <= a < self.k for a in tup):
                    raise ValueError(f"bad falsifying tuple {tup} on scope {c.scope}")
        if [c.scope for c in self.constraints] != sorted(c.scope for c in self.constraints):
            raise ValueError("constraints must be sorted by scope")

    def __getstate__(self) -> dict:
        return memo_free_state(self)

    @classmethod
    def of(
        cls, n: int, k: int, q: int, constraints: Iterable[tuple[Iterable[int], Iterable[tuple[int, ...]]]]
    ) -> "Csp":
        """Build an instance, merging same-scope predicates by falsifying-set union."""
        merged: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        for scope, falsifying in constraints:
            scope_t = tuple(scope)
            scope_sorted = tuple(sorted(scope_t))
            order = sorted(range(q), key=lambda i: scope_t[i])
            reordered = {tuple(tup[i] for i in order) for tup in falsifying}
            merged.setdefault(scope_sorted, set()).update(reordered)
        built = tuple(
            Constraint(scope, tuple(sorted(falsifying)))
            for scope, falsifying in sorted(merged.items())
        )
        return cls(n, k, q, built)


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    witness: Optional[dict[int, int]]


def is_satisfiable(csp: Csp, variables: Optional[Iterable[int]] = None) -> SatResult:
    """Exhaustive satisfiability of phi[S], the constraints whose scopes lie
    inside the variable set S (every variable when it is omitted), decided in
    place by one backtracking loop over S in increasing order.  The witness,
    keyed by the variables of S, is the first satisfying assignment in
    itertools.product order."""
    if variables is None:
        kept = range(csp.n)
    else:
        kept = sorted(set(variables))
        if kept and not (0 <= kept[0] and kept[-1] < csp.n):
            raise ValueError(f"variables {tuple(kept)} out of range for n={csp.n}")
    m, k = len(kept), csp.k
    check_assignment_cap(k, m)
    s_mask = mask_of(kept)
    # (scope, falsifying set) of each constraint inside S, by its last variable
    by_last: dict[int, list] = {x: [] for x in kept}
    for c in csp.constraints:
        if c.scope_mask & ~s_mask == 0:
            by_last[c.scope[-1]].append((c.scope, c.falsifying_set))
    values = [-1] * csp.n  # -1: no value tried yet for this variable
    depth = 0
    while 0 <= depth < m:
        x = kept[depth]
        values[x] += 1
        if values[x] == k:
            values[x] = -1
            depth -= 1
            continue
        for scope, falsifying in by_last[x]:
            if tuple([values[i] for i in scope]) in falsifying:
                break
        else:
            depth += 1
    if depth < m:
        return SatResult(False, None)
    return SatResult(True, {x: values[x] for x in kept})


@dataclass(frozen=True)
class SatDistance:
    """Exact distance of an instance from satisfiability.

    min_falsified is the minimum number of falsified constraints over all
    total assignments; distance = min_falsified / C(n, q).  The instance is
    eps-far exactly when min_falsified >= eps * C(n, q).
    """

    min_falsified: int
    distance: Fraction
    witness: tuple[int, ...]

    def is_far(self, epsilon: Fraction) -> bool:
        return self.distance >= epsilon


def _falsified_table(c: Constraint, k: int) -> np.ndarray:
    """uint8 table over the k^q mixed-radix codes of c's scope values
    (scope[0] most significant): 1 where c is falsified."""
    table = np.zeros(k ** len(c.scope), np.uint8)
    for tup in c.falsifying:
        code = 0
        for a in tup:
            code = code * k + a
        table[code] = 1
    return table


def distance_to_sat(csp: Csp) -> SatDistance:
    """Exact distance to satisfiability by a sweep over all k^n assignments.

    Assignments are numbered in itertools.product order, variable 0 being the
    most significant base-k digit, and swept in chunks of _FIRST_CHUNK
    indices growing geometrically to _MAX_CHUNK.  Per chunk, each variable's
    digit column is taken by // and %, and each constraint adds its falsified
    table, gathered at its scope's code, into an int64 count vector; memory
    is O(n * _MAX_CHUNK) whatever the number of constraints.  The witness is
    the first assignment in that order attaining the minimum (np.argmin within
    a chunk, a strict < across chunks); the sweep stops at the first
    satisfying assignment.  At the assignment cap (2^24 assignments) a sweep of
    n=24, k=2, q=2 takes 4.4-4.9 s with 38 constraints and, in the dense case,
    10.9-12.9 s with 190-195 constraints, on a 2-core host.
    """
    n, k = csp.n, csp.k
    check_assignment_cap(k, n)
    total = k**n
    places = [k ** (n - 1 - x) for x in range(n)]
    weights = [k ** (csp.q - 1 - i) for i in range(csp.q)]
    tables = [(c.scope, _falsified_table(c, k)) for c in csp.constraints]
    best, best_index = None, 0
    start, size = 0, _FIRST_CHUNK
    while start < total:
        stop = min(start + size, total)
        index = np.arange(start, stop, dtype=np.int64)
        digits = [(index // place) % k for place in places]
        counts = np.zeros(stop - start, np.int64)
        for scope, table in tables:
            code = digits[scope[0]] * weights[0]
            for v, w in zip(scope[1:], weights[1:]):
                code += digits[v] * w
            counts += table[code]
        at = int(np.argmin(counts))
        if best is None or counts[at] < best:
            best, best_index = int(counts[at]), start + at
            if best == 0:
                break
        start, size = stop, min(2 * size, _MAX_CHUNK)
    witness = tuple((best_index // place) % k for place in places)
    denom = math.comb(n, csp.q)
    distance = Fraction(best, denom) if denom else Fraction(0)
    return SatDistance(best, distance, witness)


def build_hypergraph(csp: Csp) -> Hypergraph:
    """The labelled k*n-vertex encoding of an instance.

    Vertex x*k + a stands for assigning value a to variable x; each
    falsifying tuple of each constraint contributes one q-edge over the
    corresponding labelled vertices.  The encoding is built once per instance
    and kept on it, so every call on the same Csp returns the same Hypergraph,
    and with it the container generator's memo.
    """
    h = csp.__dict__.get("_hypergraph")
    if h is None:
        k = csp.k
        labels = tuple((v // k, v % k) for v in range(csp.n * k))
        edges = set()
        for c in csp.constraints:
            for tup in c.falsifying:
                edges.add(mask_of(c.scope[i] * k + tup[i] for i in range(csp.q)))
        h = Hypergraph(csp.q, csp.n * k, tuple(sorted(edges)), labels)
        object.__setattr__(csp, "_hypergraph", h)
    return h


def vars_of(hypergraph: Hypergraph, vertices) -> int:
    """Number of distinct variables labelling the given vertex set."""
    if hypergraph.labels is None:
        raise ValueError("vars_of requires a labelled hypergraph")
    if isinstance(vertices, int):
        vertices = bits_of(vertices)
    return len({hypergraph.labels[v][0] for v in vertices})


def assignment_vertex_set(csp: Csp, assignment: Mapping[int, int]) -> tuple[int, ...]:
    """The labelled vertices {(x, A(x)) : x in dom(A)} of a partial assignment."""
    for x, a in assignment.items():
        if not (0 <= x < csp.n and 0 <= a < csp.k):
            raise ValueError(f"assignment entry {x}={a} out of range")
    return tuple(sorted(x * csp.k + a for x, a in assignment.items()))

