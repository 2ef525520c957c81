"""JSON wire formats.

Instance formats (bit-exact round trip, canonical key order and edge order):
  graph      {"n": int, "edges": [[u, v], ...]}
  hypergraph {"q": int, "n": int, "labels": [[var, val], ...] | null,
              "edges": [[v1, ..., vq], ...]}
  csp        {"n": int, "k": int, "q": int,
              "constraints": [{"scope": [...], "falsifying": [[...], ...]}]}
  shpp spec  {"k": int, "lower": [[0|1, ...], ...], "upper": [[0|1, ...], ...]}

A farness certificate binds its instance by instance_hash, the sha256 of the
instance's compact canonical JSON; certify and the verify verbs both use it.

Traces hold vertex sets as masks, written here as sorted lists (level edges
in sorted list order) and read back by `_vertex_mask`, which requires
distinct vertices of range(n) in increasing order.

Rationals are serialized as exact "p/q" strings everywhere.  Every reader
(instances, traces, certificates, the shpp spec) rejects a field of the wrong
JSON type (a bool is not an integer) with a ValueError; the graph reader also
rejects n above MAX_GRAPH_VERTICES, and the container trace reader a deg_mode
other than "exact".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .core import Graph, Hypergraph, bits_of, mask_of
from .csp import Constraint, Csp
from .containers_sat import ContainerTrace, LevelRecord, SatIteration
from .containers_star import StarContainerTrace, StarIteration
from .rationals import format_rational, parse_rational
from .testers import SHPPSpec, TesterReport


# A Graph holds one adjacency row per vertex, built before any work cap is
# consulted, so the reader refuses a vertex count no verb could use.
MAX_GRAPH_VERTICES = 1 << 16


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


_JSON_NAMES = {int: "integer", str: "string", list: "array", dict: "object",
               bool: "boolean"}


def _checked(value, kind: type, what: str):
    """value, if its type is exactly kind (so a bool is not an int)."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {_JSON_NAMES[kind]}, "
                         f"got {type(value).__name__}")
    return value


def _int_tuple(value, what: str) -> tuple[int, ...]:
    """value as a tuple, if it is a JSON array of integers."""
    if type(value) is not list or not all(type(v) is int for v in value):
        raise ValueError(f"{what} must be a JSON array of integers")
    return tuple(value)


def _vertex_mask(value, n: int, what: str) -> int:
    """The mask of value, if it is a JSON array of distinct vertices of
    range(n) in increasing order."""
    vs = _int_tuple(value, what)
    if vs and not (0 <= vs[0] and vs[-1] < n and all(a < b for a, b in zip(vs, vs[1:]))):
        raise ValueError(f"{what} must list distinct vertices of range({n}) "
                         "in increasing order")
    return mask_of(vs)


def graph_from_dict(data: dict) -> Graph:
    edges = _checked(data["edges"], list, "graph edges")
    n = _checked(data["n"], int, "graph n")
    if n > MAX_GRAPH_VERTICES:
        raise ValueError(f"graph n exceeds the limit of {MAX_GRAPH_VERTICES} vertices")
    return Graph.from_edges(n, [_int_tuple(e, "a graph edge") for e in edges])


def hypergraph_to_dict(h: Hypergraph) -> dict:
    return {
        "q": h.q,
        "n": h.n,
        "labels": [list(l) for l in h.labels] if h.labels is not None else None,
        "edges": [list(bits_of(e)) for e in h.edges],
    }


def hypergraph_from_dict(data: dict) -> Hypergraph:
    labels = data.get("labels")
    if labels is not None:
        labels = [_int_tuple(l, "a hypergraph label")
                  for l in _checked(labels, list, "hypergraph labels")]
    return Hypergraph.from_edges(
        _checked(data["q"], int, "hypergraph q"), _checked(data["n"], int, "hypergraph n"),
        [_int_tuple(e, "a hypergraph edge")
         for e in _checked(data["edges"], list, "hypergraph edges")],
        labels,
    )


def csp_to_dict(csp: Csp) -> dict:
    return {
        "n": csp.n,
        "k": csp.k,
        "q": csp.q,
        "constraints": [
            {"scope": list(c.scope), "falsifying": [list(t) for t in c.falsifying]}
            for c in csp.constraints
        ],
    }


def csp_from_dict(data: dict) -> Csp:
    constraints = []
    for c in _checked(data["constraints"], list, "csp constraints"):
        _checked(c, dict, "a csp constraint")
        falsifying = _checked(c["falsifying"], list, "constraint falsifying")
        constraints.append(Constraint(
            _int_tuple(c["scope"], "constraint scope"),
            tuple(_int_tuple(t, "a falsifying tuple") for t in falsifying)))
    n, k, q = (_checked(data[key], int, f"csp {key}") for key in ("n", "k", "q"))
    return Csp(n, k, q, tuple(constraints))


def container_trace_to_dict(trace: ContainerTrace) -> dict:
    return {
        "kind": "hypergraph-container-trace",
        "hypergraph": hypergraph_to_dict(trace.hypergraph),
        "n_bound": trace.n_bound,
        "independent_set": list(bits_of(trace.independent_set)),
        "extension_rule": "F_t = C_t = I for t beyond the recorded iterations",
        "deg_mode": "exact",
        "iterations": [
            {
                "t": it.t,
                "selected": list(it.selected),
                "exclusions": [{"level": lvl, "vertices": list(bits_of(xs))}
                               for lvl, xs in it.exclusions],
                "levels": [
                    {"ell": lv.ell, "vertices": list(bits_of(lv.vertices)),
                     "edges": sorted(list(bits_of(e)) for e in lv.edges)}
                    for lv in it.levels
                ],
                "one_edge_removals": list(bits_of(it.one_edge_removals)),
                "fingerprint": list(bits_of(it.fingerprint)),
                "container": list(bits_of(it.container)),
                "degenerate": it.degenerate,
                "truncated": it.truncated,
            }
            for it in trace.iterations
        ],
    }


def container_trace_from_dict(data: dict) -> ContainerTrace:
    if _checked(data.get("deg_mode", "exact"), str, "trace deg_mode") != "exact":
        raise ValueError(f'trace deg_mode must be "exact", got {data["deg_mode"]!r}')
    h = hypergraph_from_dict(_checked(data["hypergraph"], dict, "trace hypergraph"))
    iterations = []
    for it in _checked(data["iterations"], list, "trace iterations"):
        _checked(it, dict, "a trace iteration")
        exclusions = []
        for x in _checked(it["exclusions"], list, "iteration exclusions"):
            _checked(x, dict, "an exclusion")
            exclusions.append((_checked(x["level"], int, "exclusion level"),
                               _vertex_mask(x["vertices"], h.n, "exclusion vertices")))
        levels = []
        for lv in _checked(it["levels"], list, "iteration levels"):
            _checked(lv, dict, "a level")
            levels.append(LevelRecord(
                _checked(lv["ell"], int, "level ell"),
                _vertex_mask(lv["vertices"], h.n, "level vertices"),
                tuple(sorted(_vertex_mask(e, h.n, "a level edge")
                             for e in _checked(lv["edges"], list, "level edges")))))
        iterations.append(SatIteration(
            t=_checked(it["t"], int, "iteration t"),
            selected=_int_tuple(it["selected"], "iteration selected"),
            exclusions=tuple(exclusions),
            levels=tuple(levels),
            one_edge_removals=_vertex_mask(it["one_edge_removals"], h.n,
                                           "iteration one_edge_removals"),
            fingerprint=_vertex_mask(it["fingerprint"], h.n, "iteration fingerprint"),
            container=_vertex_mask(it["container"], h.n, "iteration container"),
            degenerate=_checked(it["degenerate"], bool, "iteration degenerate"),
            truncated=_checked(it["truncated"], bool, "iteration truncated"),
        ))
    return ContainerTrace(
        h, _checked(data["n_bound"], int, "trace n_bound"),
        _vertex_mask(data["independent_set"], h.n, "trace independent_set"),
        tuple(iterations),
    )


def star_trace_to_dict(trace: StarContainerTrace) -> dict:
    return {
        "kind": "star-container-trace",
        "graph": graph_to_dict(trace.graph),
        "independent_set": list(bits_of(trace.independent_set)),
        "extension_rule": ("F_t = C_t = I and D_t = final D "
                           "for t beyond the recorded iterations"),
        "iterations": [
            {"t": it.t, "u": it.u, "v": it.v,
             "fingerprint": list(bits_of(it.fingerprint)),
             "inner": list(bits_of(it.inner)), "outer": list(bits_of(it.outer))}
            for it in trace.iterations
        ],
    }


def star_trace_from_dict(data: dict) -> StarContainerTrace:
    g = graph_from_dict(_checked(data["graph"], dict, "trace graph"))
    iterations = []
    for it in _checked(data["iterations"], list, "trace iterations"):
        _checked(it, dict, "a trace iteration")
        iterations.append(StarIteration(
            t=_checked(it["t"], int, "iteration t"),
            u=_checked(it["u"], int, "iteration u"),
            v=None if it["v"] is None else _checked(it["v"], int, "iteration v"),
            fingerprint=_vertex_mask(it["fingerprint"], g.n, "iteration fingerprint"),
            inner=_vertex_mask(it["inner"], g.n, "iteration inner"),
            outer=_vertex_mask(it["outer"], g.n, "iteration outer"),
        ))
    return StarContainerTrace(
        g, _vertex_mask(data["independent_set"], g.n, "trace independent_set"),
        tuple(iterations),
    )


@dataclass(frozen=True)
class FarCertificate:
    """Exact farness certificate; re-running the oracle reproduces it."""

    kind: str  # "csp" | "graph"
    instance_hash: str
    epsilon: Fraction
    achieved: Fraction
    min_edits: int
    witness: tuple[int, ...]
    params: dict


def instance_hash(instance: "Csp | Graph") -> str:
    """The hash a certificate binds its CSP or graph instance with."""
    payload = csp_to_dict(instance) if isinstance(instance, Csp) else graph_to_dict(instance)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def certificate_to_dict(cert: FarCertificate) -> dict:
    return {
        "kind": cert.kind,
        "instance_hash": cert.instance_hash,
        "epsilon": format_rational(cert.epsilon),
        "achieved": format_rational(cert.achieved),
        "min_edits": cert.min_edits,
        "witness": list(cert.witness),
        "params": cert.params,
    }


def certificate_from_dict(data: dict) -> FarCertificate:
    def rational(key: str):
        return parse_rational(
            _checked(data[key], str, f"certificate {key}, a p/q rational,"))

    return FarCertificate(
        kind=_checked(data["kind"], str, "certificate kind"),
        instance_hash=_checked(data["instance_hash"], str, "certificate instance_hash"),
        epsilon=rational("epsilon"),
        achieved=rational("achieved"),
        min_edits=_checked(data["min_edits"], int, "certificate min_edits"),
        witness=_int_tuple(data["witness"], "certificate witness"),
        params=dict(_checked(data["params"], dict, "certificate params")),
    )


def shpp_spec_from_dict(data: dict) -> SHPPSpec:
    def matrix(key: str) -> tuple[tuple[int, ...], ...]:
        return tuple(_int_tuple(row, f"a shpp spec {key} row")
                     for row in _checked(data[key], list, f"shpp spec {key}"))

    return SHPPSpec(_checked(data["k"], int, "shpp spec k"),
                    matrix("lower"), matrix("upper"))


def report_to_dict(report: TesterReport) -> dict:
    payload = {
        "kind": report.kind,
        "verdict": report.verdict,
        "seed": report.seed,
        "generator": report.generator,
        "params": report.params,
        "sample": list(report.sample),
        "query_count": report.query_count,
    }
    if report.core_sample:
        payload["core_sample"] = list(report.core_sample)
    if report.witness is not None:
        payload["witness"] = {k: list(v) if isinstance(v, tuple) else v
                              for k, v in report.witness.items()}
    return payload
