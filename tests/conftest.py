"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own code paths: they
enumerate subsets/assignments directly so they can certify the fast
implementations.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import settings

from container_bench import Csp, Graph, Hypergraph
from container_bench.rationals import le_with_ln

# HYPOTHESIS_PROFILE=ci replays the same examples on every run, so a CI
# failure reproduces locally under the same setting.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def triangle_csp() -> Csp:
    """Proper-2-colouring of a triangle: unsatisfiable, distance 1/3."""
    return Csp.of(3, 2, 2, [((i, j), [(0, 0), (1, 1)])
                            for i in range(3) for j in range(i + 1, 3)])


@pytest.fixture(scope="session")
def nae_csp() -> Csp:
    """Single not-all-equal constraint on three boolean variables."""
    return Csp.of(3, 2, 3, [((0, 1, 2), [(0, 0, 0), (1, 1, 1)])])


@pytest.fixture(scope="session")
def triangle_graph() -> Graph:
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture(scope="session")
def k4() -> Graph:
    return Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def subsets(universe, max_size=None):
    universe = list(universe)
    top = len(universe) if max_size is None else max_size
    for size in range(top + 1):
        yield from itertools.combinations(universe, size)


def edge_lists(host) -> list[tuple[int, ...]]:
    """Every edge as a sorted vertex tuple, in the host's edge order."""
    if isinstance(host, Graph):
        return [tuple(e) for e in host.edges()]
    return [tuple(v for v in range(host.n) if e >> v & 1) for e in host.edges]


def edge_count(g: Graph) -> int:
    return len(edge_lists(g))


def degree(host, vertices, v: int) -> int:
    """Number of edges of host fully inside the vertex set that contain v."""
    inside = set(vertices)
    if v not in inside:
        raise ValueError(f"vertex {v} is not in the given set")
    return sum(1 for e in edge_lists(host) if v in e and inside.issuperset(e))


def hyperedges_inside(h: Hypergraph, mask: int) -> int:
    """Number of edges of h with every vertex in the vertex mask."""
    return sum(1 for e in edge_lists(h) if all(mask >> v & 1 for v in e))


def induced_subgraph(host, vertices):
    """(sub, kept): the (hyper)graph restricted to a vertex set, where
    kept[i] is the original index of vertex i of the restriction."""
    kept = tuple(sorted(set(vertices)))
    if kept and not (0 <= kept[0] and kept[-1] < host.n):
        raise ValueError(f"vertex set {kept} out of range for n={host.n}")
    index = {v: i for i, v in enumerate(kept)}
    edges = [tuple(index[v] for v in e) for e in edge_lists(host)
             if set(e) <= set(kept)]
    if isinstance(host, Graph):
        return Graph.from_edges(len(kept), edges), kept
    labels = None if host.labels is None else [host.labels[v] for v in kept]
    return Hypergraph.from_edges(host.q, len(kept), edges, labels), kept


def is_star(g: Graph, core, outer) -> tuple[bool, Optional[str]]:
    """The star invariants, as (ok, diagnostic): core and outer are disjoint,
    the core is independent and no edge joins it to the outer set."""
    core, outer = set(core), set(outer)
    if core & outer:
        return False, f"core and outer overlap on {tuple(sorted(core & outer))}"
    if not oracle_is_independent(g, core):
        return False, "core is not independent"
    for u, v in edge_lists(g):
        for a, b in ((u, v), (v, u)):
            if a in core and b in outer:
                return False, f"outer vertex adjacent to core vertex {a}"
    return True, None


def falsified_count(csp: Csp, assignment) -> int:
    """Number of constraints a total assignment falsifies."""
    return sum(1 for c in csp.constraints
               if tuple(assignment[i] for i in c.scope) in c.falsifying_set)


def assignment_of_vertex_set(csp: Csp, vertices) -> dict[int, int]:
    """The partial assignment {x: a} whose labelled vertices x * k + a are the
    given set; a set naming a variable twice is refused."""
    assignment: dict[int, int] = {}
    for v in vertices:
        x, a = divmod(v, csp.k)
        if not 0 <= v < csp.n * csp.k or x in assignment:
            raise ValueError(f"vertex {v} is out of range or repeats variable {x}")
        assignment[x] = a
    return assignment


def independence_oracle(host):
    """vertices -> whether no edge of host lies inside them; the host's edge
    list is built once, for every check the returned function makes."""
    edges = [set(e) for e in edge_lists(host)]

    def independent(vertices) -> bool:
        chosen = set(vertices)
        return all(not e <= chosen for e in edges)
    return independent


def oracle_is_independent(host, vertices) -> bool:
    return independence_oracle(host)(vertices)


def oracle_independent_sets(host, size=None, variable_distinct=False):
    """All independent sets by filtering every subset, lexicographic order."""
    n = host.n
    labels = getattr(host, "labels", None)
    independent = independence_oracle(host)
    found = []
    for sub in subsets(range(n)):
        if size is not None and len(sub) != size:
            continue
        if variable_distinct:
            vs = [labels[v][0] for v in sub]
            if len(set(vs)) != len(vs):
                continue
        if independent(sub):
            found.append(tuple(sub))
    return sorted(found)


def oracle_min_falsified(csp: Csp) -> tuple[int, Fraction]:
    falsifying = [(c.scope, set(c.falsifying)) for c in csp.constraints]
    best = None
    for assignment in itertools.product(range(csp.k), repeat=csp.n):
        count = 0
        for scope, falsified in falsifying:
            if tuple(assignment[i] for i in scope) in falsified:
                count += 1
        best = count if best is None else min(best, count)
    denom = math.comb(csp.n, csp.q)
    return best, (Fraction(best, denom) if denom else Fraction(0))


def oracle_deg_leq_n(h: Hypergraph, container, n_bound: int, v: int) -> int:
    """Naive max over all D <= n_bound with v in D of deg_{H[D]}(v)."""
    container = sorted(set(container))
    others = [w for w in container if w != v]
    incident = [set(e) for e in edge_lists(h) if v in e]
    best = 0
    for size in range(min(n_bound, len(container))):
        for extra in itertools.combinations(others, size):
            inside = set(extra) | {v}
            deg = sum(1 for e in incident if e <= inside)
            best = max(best, deg)
    return best


def oracle_min_edges_subset(g: Graph, size: int) -> tuple[int, tuple[int, ...]]:
    """Fewest edges inside any size-subset of vertices, and the first subset
    (in itertools.combinations order, i.e. lexicographic) that attains it."""
    edges = set(edge_lists(g))
    best, witness = None, ()
    for sub in itertools.combinations(range(g.n), size):
        count = sum(1 for pair in itertools.combinations(sub, 2) if pair in edges)
        if best is None or count < best:
            best, witness = count, sub
    return best, witness


def oracle_max_independent_set(g: Graph) -> int:
    best = 0
    independent = independence_oracle(g)
    for sub in subsets(range(g.n)):
        if independent(sub):
            best = max(best, len(sub))
    return best


def oracle_k_colorable(host, k: int) -> bool:
    """Direct enumeration of all k^n colourings on the (hyper)graph."""
    edges = edge_lists(host)
    if not edges:
        return True
    for coloring in itertools.product(range(k), repeat=host.n):
        if all(len({coloring[v] for v in e}) > 1 for e in edges):
            return True
    return False


def oracle_shpp_member(g: Graph, spec) -> bool:
    """Direct enumeration of all k^n partition assignments on the graph."""
    for parts in itertools.product(range(spec.k), repeat=g.n):
        ok = True
        for a in range(g.n):
            for b in range(a + 1, g.n):
                if not spec.pair_allowed(g.has_edge(a, b), parts[a], parts[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return g.n == 0


def stepped_floor_times_ln(coef: Fraction, x: Fraction) -> int:
    """floor(coef * ln(x)) the earlier way: a float estimate, then unit steps
    with the guarded comparator.  Exact, but slow where the float is far off."""
    est = math.floor(float(coef) * math.log(x))
    while not le_with_ln(Fraction(est), coef, x):
        est -= 1
    while le_with_ln(Fraction(est + 1), coef, x):
        est += 1
    return est
