"""Instance generation, exact farness certification and tester trials.

Every generator is a pure function of its seed: the variate draw order is
fixed (scopes and pairs in lexicographic order), so outputs are byte-identical
across runs and platforms.  Far instances are obtained by rejection sampling
(generate, certify with the exact distance oracle, keep), and the certificate
is stored beside the instance.  Verifiers do not trust it: every verify verb
that reads a certificate recomputes the exact distance and checks the
certified epsilon against it, and that recomputation is what makes a verdict
sound.

parallel_map is the package's one worker pool, for the CLI's corpus sweeps and
estimate_acceptance's trial blocks.  Trials run a bound TesterSpec (see
TesterSpec.of), and trial i always runs on substream i of the master seed
(trial_reports), so no result depends on the worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Graph, Hypergraph
from .csp import Csp, distance_to_sat
from .containers_star import distance_to_rho_is
from .rationals import ceil_frac, format_rational
from .rng import GENERATOR_NAME, make_rng, substream_seed
from .serialize import FarCertificate, instance_hash
from .testers import TesterSpec, run_tester

WILSON_Z = 1.959963984540054  # two-sided 95%


def gen_random_csp(n: int, k: int, q: int, constraint_density: Fraction,
                   falsifying_density: Fraction, seed: int) -> Csp:
    """Each q-scope appears independently with the constraint density; each of
    its k^q tuples falsifies independently with the falsifying density."""
    cd, fd = float(constraint_density), float(falsifying_density)
    if not (0 <= cd <= 1 and 0 <= fd <= 1):
        raise ValueError("densities must lie in [0, 1]")
    rng = make_rng(seed)
    constraints = []
    for scope in itertools.combinations(range(n), q):
        if rng.random() >= cd:
            continue
        falsifying = tuple(
            tup for tup in itertools.product(range(k), repeat=q)
            if rng.random() < fd
        )
        constraints.append((scope, falsifying))
    return Csp.of(n, k, q, constraints)


def gen_planted_sat_csp(n: int, k: int, q: int, density: Fraction,
                        seed: int) -> tuple[Csp, dict[int, int]]:
    """Random constraints whose falsifying sets never include the restriction
    of a planted assignment, so the instance is satisfiable by construction."""
    d = float(density)
    if not 0 <= d <= 1:
        raise ValueError("density must lie in [0, 1]")
    rng = make_rng(seed)
    planted = {x: int(rng.integers(0, k)) for x in range(n)}
    constraints = []
    for scope in itertools.combinations(range(n), q):
        if rng.random() >= d:
            continue
        keep = tuple(planted[x] for x in scope)
        falsifying = tuple(
            tup for tup in itertools.product(range(k), repeat=q)
            if tup != keep and rng.random() < d
        )
        constraints.append((scope, falsifying))
    return Csp.of(n, k, q, constraints), planted


def gen_planted_is_graph(n: int, rho: Fraction, p: Fraction, seed: int) -> Graph:
    """Plant an edgeless ceil(rho*n)-set; every other pair appears with
    probability p.  The output always has the independent-set property."""
    pf = float(p)
    if not 0 <= pf <= 1:
        raise ValueError("p must lie in [0, 1]")
    rng = make_rng(seed)
    size = ceil_frac(Fraction(rho) * n)
    order = list(range(n))
    for i in range(size):
        j = i + int(rng.integers(0, n - i))
        order[i], order[j] = order[j], order[i]
    planted = set(order[:size])
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if u in planted and v in planted:
                continue
            if rng.random() < pf:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def gen_er_graph(n: int, p: Fraction, seed: int) -> Graph:
    """Plain seeded binomial random graph over the lexicographic pair order."""
    pf = float(p)
    if not 0 <= pf <= 1:
        raise ValueError("p must lie in [0, 1]")
    rng = make_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < pf]
    return Graph.from_edges(n, edges)


def gen_random_hypergraph(n: int, q: int, edge_density: Fraction, seed: int,
                          labels=None) -> Hypergraph:
    """Each q-subset of vertices is an edge independently with the density."""
    pf = float(edge_density)
    if not 0 <= pf <= 1:
        raise ValueError("edge density must lie in [0, 1]")
    rng = make_rng(seed)
    edges = [e for e in itertools.combinations(range(n), q)
             if rng.random() < pf]
    return Hypergraph.from_edges(q, n, edges, labels)


def certify_far(instance, epsilon: Fraction, rho: Optional[Fraction] = None,
                cap: Optional[int] = None) -> Optional[FarCertificate]:
    """Wrap the exact distance oracles; a certificate exists iff the distance
    is at least epsilon.  Returns None when the instance is not that far."""
    epsilon = Fraction(epsilon)
    caps = {"cap": cap} if cap else {}
    if isinstance(instance, Csp):
        kind, dist = "csp", distance_to_sat(instance, **caps)
        min_edits, params = dist.min_falsified, {"oracle": "distance_to_sat"}
    elif isinstance(instance, Graph):
        if rho is None:
            raise ValueError("graph certification requires rho")
        rho = Fraction(rho)
        kind, dist = "graph", distance_to_rho_is(instance, rho, **caps)
        min_edits = dist.min_edits
        params = {"oracle": "distance_to_rho_is", "rho": format_rational(rho)}
    else:
        raise TypeError(f"cannot certify {type(instance).__name__}")
    if not dist.is_far(epsilon):
        return None
    return FarCertificate(kind=kind, instance_hash=instance_hash(instance),
                          epsilon=epsilon, achieved=dist.distance,
                          min_edits=min_edits, witness=dist.witness, params=params)


def wilson_interval(successes: int, trials: int,
                    z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval; behaves sensibly at rates near 0 and 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials**2)) / denom
    low = 0.0 if successes == 0 else max(0.0, centre - half)
    high = 1.0 if successes == trials else min(1.0, centre + half)
    return low, high


def parallel_map(fn, items: list, workers: int):
    """fn over items, in order.  Serially it is lazy (a sweep stops at its first
    counterexample) and empties items as it goes (one entry's memos at a time)."""
    if workers <= 1 or len(items) < 2:
        return map(fn, (items.pop(0) for _ in range(len(items))))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def trial_reports(spec: TesterSpec, master_seed: int, trials: range):
    """(trial, report) for each trial, lazily; trial i is seeded by substream
    i of the master seed."""
    for i in trials:
        yield i, run_tester(spec, substream_seed(master_seed, i))


def _trial_block(args) -> list[tuple[int, int, str, Optional[int]]]:
    spec, master_seed, trials = args
    return [(i, report.seed, report.verdict, report.query_count)
            for i, report in trial_reports(spec, master_seed, trials)]


@dataclass(frozen=True)
class EstimateResult:
    accepts: int
    trials: int
    accept_rate: float
    wilson_low: float
    wilson_high: float
    master_seed: int
    generator: str
    rows: tuple[tuple[int, int, str, Optional[int]], ...]


def estimate_acceptance(spec: TesterSpec, trials: int, master_seed: int,
                        workers: int = 1) -> EstimateResult:
    """Monte Carlo acceptance estimate with per-trial derived seeds; results
    are invariant to the worker count."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    # One block per worker, or a single serial block for a short run.
    chunk = -(-trials // workers) if workers > 1 and trials >= 4 * workers else trials
    blocks = [(spec, master_seed, range(lo, min(lo + chunk, trials)))
              for lo in range(0, trials, chunk)]
    rows = [row for block in parallel_map(_trial_block, blocks, workers)
            for row in block]
    accepts = sum(1 for row in rows if row[2] == "accept")
    low, high = wilson_interval(accepts, trials)
    return EstimateResult(accepts, trials, accepts / trials, low, high,
                          master_seed, GENERATOR_NAME, tuple(rows))
