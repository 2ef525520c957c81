"""Deterministic graph/hypergraph representations and enumeration utilities.

Vertices are dense integer indices 0..n-1, totally ordered by index; every
tie anywhere in the package breaks toward the smallest index.  Vertex sets
are Python int bitmasks, traces included; `bits_of` gives the sorted tuple.
All types are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads or processes.
A memo derived from an instance (the hypergraph container generator's on a
Hypergraph, the star generator's on a Graph and the canonical satisfiability
tester's verdicts on a Csp, all through `memo_of`, and the CSP's hypergraph
encoding) is kept in an underscore attribute of that instance: it never changes a result, takes no part in ==, hash or repr, is
not pickled, and is freed with the instance.  Its keys hold no work cap: a
cap only refuses work, before it starts, and a refusal stores nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NoReturn, Optional, Union

# Every work cap of the package, each in its cost unit.  Only the checks below
# read them, at call time, so rebinding one moves every search it bounds.
ENUMERATION_CAP = 30  # host vertices: independent-set enumeration
ASSIGNMENT_CAP = 1 << 24  # k^n assignments: is_satisfiable, distance_to_sat
PARTNER_CAP = 24  # partners of v, the vertices sharing an edge with it: deg_leq_n
SUBSET_CAP = 10_000_000  # C(n, m) subsets: distance_to_rho_is, the graph testers
EDGE_DRAW_CAP = 150_000  # C(n, ell) candidate edges: a verify edges-bound --random draw


class WorkCapExceeded(RuntimeError):
    """An exhaustive operation was asked to exceed its work cap."""


def comb_exceeds(n: int, k: int, cap: int) -> bool:
    """math.comb(n, k) > cap for 0 <= k <= n, without forming a huge C(n, k):
    C(n, i) grows with i up to j = min(k, n - k), and C(n, j) = C(n, k), so
    the running product stops once it passes cap."""
    c = 1
    for i in range(min(k, n - k)):
        c = c * (n - i) // (i + 1)
        if c > cap:
            return True
    return c > cap


def _refuse(amount: str, name: str, cap: int) -> NoReturn:
    raise WorkCapExceeded(f"{amount} exceeds the {name} cap {cap}")


def check_enumeration_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        _refuse(f"n = {n}", "enumeration", ENUMERATION_CAP)


def check_assignment_cap(k: int, n: int) -> None:
    if k**n > ASSIGNMENT_CAP:
        _refuse(f"k^n = {k}^{n}", "assignment", ASSIGNMENT_CAP)


def check_partner_cap(v: int, partners: int) -> None:
    if partners > PARTNER_CAP:
        _refuse(f"partners of vertex {v} = {partners}", "partner", PARTNER_CAP)


def check_subset_cap(n: int, m: int) -> None:
    if comb_exceeds(n, m, SUBSET_CAP):
        _refuse(f"C(n, m) = C({n},{m})", "subset", SUBSET_CAP)


def check_edge_draw_cap(n: int, ell: int) -> None:
    if comb_exceeds(n, ell, EDGE_DRAW_CAP):
        _refuse(f"C(n, ell) = C({n},{ell})", "edge-draw", EDGE_DRAW_CAP)


def memo_free_state(obj) -> dict:
    """Pickle state of a frozen dataclass without its per-instance memos."""
    return {k: v for k, v in obj.__dict__.items() if not k.startswith("_")}


def memo_of(host, factory):
    """The memo kept on host as `_memo`, built as factory(host) on first use.

    The memo must hold no reference back to host, so the two are freed
    together by refcount."""
    memo = host.__dict__.get("_memo")
    if memo is None:
        memo = factory(host)
        object.__setattr__(host, "_memo", memo)
    return memo


def mask_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def bits_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def argmax_degree(adj: tuple[int, ...], candidates: int,
                  within: int) -> tuple[int, int]:
    """(w, degree of w into within) for the candidate of largest degree; the
    walk goes up the mask and only a strictly larger degree replaces, so ties
    break to the smallest index."""
    best = best_deg = -1
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        w = low.bit_length() - 1
        deg = (adj[w] & within).bit_count()
        if deg > best_deg:
            best, best_deg = w, deg
    return best, best_deg


def as_mask(vertices: Union[int, Iterable[int]], n: int) -> int:
    """Normalize a vertex set (bitmask or iterable of indices) to a bitmask;
    each vertex is checked against range(n) before it is shifted."""
    if isinstance(vertices, int):
        if vertices < 0:
            raise ValueError(f"negative vertex set mask out of range for n={n}")
        if vertices >> n:
            raise ValueError(f"vertex {vertices.bit_length() - 1} out of range for n={n}")
        return vertices
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        mask |= 1 << v
    return mask


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; adj[v] is the neighbour bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __getstate__(self) -> dict:
        return memo_free_state(self)

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ValueError(f"edge endpoint out of range at vertex {v}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in bits_of(row):
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]) -> "Graph":
        adj = [0] * n
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1)
            for off in bits_of(higher):
                out.append((u, u + 1 + off))
        return tuple(out)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges_inside(self, mask: int) -> int:
        """Number of edges with both endpoints in the vertex mask."""
        total = 0
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            total += (self.adj[v] & m).bit_count()
        return total


@dataclass(frozen=True)
class Hypergraph:
    """q-uniform hypergraph; edges are vertex bitmasks of popcount q.

    labels, when present, assign a (variable, value) pair to every vertex and
    no edge may contain two vertices labelled with the same variable.
    """

    q: int
    n: int
    edges: tuple[int, ...]
    labels: Optional[tuple[tuple[int, int], ...]] = None

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("edge arity must be at least 2")
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for e in self.edges:
            if e >> self.n or e < 0:
                raise ValueError("edge endpoint out of range")
            if e.bit_count() != self.q:
                raise ValueError(f"edge {bits_of(e)} is not {self.q}-uniform")
            if e in seen:
                raise ValueError(f"duplicate edge {bits_of(e)}")
            seen.add(e)
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges must be in canonical (sorted-mask) order")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("labels must cover every vertex")
            for e in self.edges:
                vars_seen = set()
                for v in bits_of(e):
                    var = self.labels[v][0]
                    if var in vars_seen:
                        raise ValueError(
                            f"edge {bits_of(e)} repeats variable {var}"
                        )
                    vars_seen.add(var)

    def __getstate__(self) -> dict:
        return memo_free_state(self)

    @classmethod
    def from_edges(
        cls,
        q: int,
        n: int,
        edges: Iterable[Iterable[int]],
        labels: Optional[Iterable[tuple[int, int]]] = None,
    ) -> "Hypergraph":
        masks = []
        for e in edges:
            vs = tuple(e)
            if len(set(vs)) != len(vs):
                raise ValueError(f"edge {vs} has repeated vertices")
            masks.append(mask_of(vs))
        lab = tuple((int(a), int(b)) for a, b in labels) if labels is not None else None
        return cls(q, n, tuple(sorted(set(masks))), lab)


Host = Union[Graph, Hypergraph]


def is_independent(host: Host, vertices: Union[int, Iterable[int]]) -> bool:
    """True iff no edge of the host has all endpoints inside the set."""
    mask = as_mask(vertices, host.n)
    if isinstance(host, Graph):
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if host.adj[v] & m:
                return False
        return True
    return all(e & ~mask for e in host.edges)


def enumerate_independent_sets(
    host: Host,
    variable_distinct: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Yield independent sets as sorted tuples, in lexicographic order.

    variable_distinct (labelled hypergraphs only) keeps sets whose vertices
    label pairwise distinct variables.  The search is one loop over an
    explicit stack; enumeration refuses hosts above the enumeration cap.
    """
    n = host.n
    check_enumeration_cap(n)
    var_bits = (0,) * n
    if variable_distinct:
        if isinstance(host, Graph) or host.labels is None:
            raise ValueError("variable_distinct requires a labelled hypergraph")
        var_bits = tuple(1 << var for var, _ in host.labels)

    # v may join a set unless a neighbour of v is in it or, in a hypergraph,
    # an edge through v has all its other vertices (a rest) in it.
    adj, rests = (0,) * n, [()] * n
    if isinstance(host, Graph):
        adj = host.adj
    else:
        rests = [[] for _ in range(n)]
        for e in host.edges:
            for v in bits_of(e):
                rests[v].append(e & ~(1 << v))

    stack = [((), 0, 0)]  # (set, its mask, its variables), next visit on top
    while stack:
        current, mask, used = stack.pop()
        yield current
        children = []
        for v in range(current[-1] + 1 if current else 0, n):
            if (adj[v] & mask or var_bits[v] & used
                    or rests[v] and not all(r & ~mask for r in rests[v])):
                continue
            children.append((current + (v,), mask | 1 << v, used | var_bits[v]))
        # Pushed last to first, the children are visited in lexicographic order.
        stack += reversed(children)
