"""Command-line workbench wiring all modules together.

Exit-code contract: 0 on success, 1 when a verifier finds a counterexample
(the record is serialized before exiting), 2 on usage, validation, corpus
layout, path or work-cap errors, including a worker count (--workers or
CONTAINER_BENCH_WORKERS) that is not a positive integer and a trial count
below 1 (test and estimate alike), and 3 on any other
exception (an internal error, here or in a worker), as one "error:" line.
CI can therefore tell "bound falsified" apart from "tool misuse".

Every artifact file embeds the tool version and the fully resolved config, so
re-running a report's embedded config reproduces it byte-for-byte.

Corpus layout: a directory with one subdirectory per instance, each holding
instance.json and certificate.json.  verify gcl-sat, gcl-star and shrinking
read each certificate with serialize.certificate_from_dict and exit 2, before
any verdict, naming every entry whose certificate is missing, malformed, of
the other instance kind, or bound to another instance (its instance_hash is
not that of the canonical instance); verify closure and container-degree read
instance.json only.  Every entry is parsed once.

Corpus sweep: gcl-sat, gcl-star, closure --corpus and container-degree run
one check per corpus entry through _sweep.  A check returns a summary or a
counterexample; the first counterexample in corpus order wins, whatever the
number of workers, and a serial sweep stops there.

Testers: test and estimate run one TesterSpec through generators.trial_reports,
so trial i of either verb gets the same seed.  estimate's trial blocks and the
sweeps' entries fan out over generators.parallel_map, the one worker pool.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import io
import json
import os
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import __version__, serialize
from .core import (
    WorkCapExceeded,
    bits_of,
    check_edge_draw_cap,
    enumerate_independent_sets,
)
from .csp import Csp, build_hypergraph, distance_to_sat, vars_of
from .containers_sat import (
    check_closure,
    check_container_degree,
    check_edges_bound,
    run_generator,
    verify_gcl_sat,
)
from .containers_star import (
    StarBounds,
    check_shrinking,
    check_star_closure,
    distance_to_rho_is,
    run_star_generator,
    verify_gcl_star,
)
from .generators import (
    TesterSpec,
    certify_far,
    estimate_acceptance,
    gen_er_graph,
    gen_planted_is_graph,
    gen_planted_sat_csp,
    gen_random_csp,
    gen_random_hypergraph,
    parallel_map,
    trial_reports,
)
from .rationals import (
    RationalParseError,
    format_rational,
    parse_rational,
)
from .rng import make_rng, substream_seed

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class CounterexampleFound(Exception):
    def __init__(self, record: dict):
        super().__init__("verification counterexample")
        self.record = record


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except RationalParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _unit_interval(text: str) -> Fraction:
    value = _rational(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"{text} must lie strictly in (0, 1)")
    return value


def _unit_interval_closed(text: str) -> Fraction:
    value = _rational(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"{text} must lie in (0, 1]")
    return value


def _vertex_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer (from --workers or "
            "CONTAINER_BENCH_WORKERS)")
    return value


def _default_workers() -> "str | int":
    # argparse passes a string default through _worker_count, so a bad
    # CONTAINER_BENCH_WORKERS is a usage error of the verb that reads it.
    return os.environ.get("CONTAINER_BENCH_WORKERS") or os.cpu_count() or 1


def _config_of(args: argparse.Namespace) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func",):
            continue
        if isinstance(value, Fraction):
            value = format_rational(value)
        elif isinstance(value, tuple):
            value = list(value)
        config[key] = value
    return config


def _meta(args: argparse.Namespace) -> dict:
    return {
        "tool": {"name": "container-bench", "version": __version__},
        "config": _config_of(args),
    }


def _write_text(out, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_json(args, payload: dict) -> None:
    payload = {**payload, **_meta(args)}
    _write_text(args.out, serialize.canonical_dumps(payload))


def _csv_text(header: list, rows) -> str:
    buf = io.StringIO()
    writer = csv_mod.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _trials_csv(rows) -> str:
    """CSV of (trial, seed, verdict, queries) rows; no query count is empty."""
    return _csv_text(["trial", "seed", "verdict", "queries"],
                     ([trial, seed, verdict, "" if queries is None else queries]
                      for trial, seed, verdict, queries in rows))


def _load_json(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _corpus_files(corpus: str) -> list[tuple[str, dict, "dict | None"]]:
    entries = []
    for inst_path in sorted(Path(corpus).glob("*/instance.json")):
        cert_path = inst_path.parent / "certificate.json"
        cert = _load_json(cert_path) if cert_path.exists() else None
        entries.append((inst_path.parent.name, _load_json(inst_path), cert))
    if not entries:
        raise FileNotFoundError(f"no */instance.json under {corpus}")
    return entries


def _instance_from_dict(data: dict, kind: str):
    """A "csp", "graph" or "hypergraph" instance read from its wire format."""
    if kind == "csp":
        return serialize.csp_from_dict(data)
    if kind == "graph":
        return serialize.graph_from_dict(data)
    return serialize.hypergraph_from_dict(data)


def _load(path, kind: str):
    return _instance_from_dict(_load_json(path), kind)


def _corpus_entries(corpus: str, kind: "str | None" = None) -> list[tuple]:
    """(name, instance, None) per entry; kind None reads each by its fields."""
    return [(name, _instance_from_dict(
                 inst, kind or ("csp" if "constraints" in inst else "graph")), None)
            for name, inst, _cert in _corpus_files(corpus)]


def _named(names: list[str], problem: str) -> None:
    if names:
        raise ValueError(f"{problem} in corpus entries: {', '.join(names)}")


def _certified_entries(corpus: str, kind: str) -> list[tuple]:
    """(name, instance, FarCertificate) per entry, each parsed once; exits 2
    (ValueError) before any verdict on a missing, malformed, wrong-kind or
    unbound certificate."""
    files = _corpus_files(corpus)
    _named([name for name, _inst, cert in files if cert is None], "no certificate.json")
    entries = []
    for name, inst, cert in files:
        try:
            entries.append((name, inst, serialize.certificate_from_dict(cert)))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"corpus entry {name}: certificate.json: {exc}") from None
    _named([name for name, _inst, cert in entries if cert.kind != kind],
           f"certificate kind is not {kind!r}")
    entries = [(name, _instance_from_dict(inst, kind), cert)
               for name, inst, cert in entries]
    _named([name for name, instance, cert in entries
            if cert.instance_hash != serialize.instance_hash(instance)],
           "certificate instance_hash does not match instance.json")
    return entries


# ---------------------------------------------------------------- generators


def _cmd_gen_csp(args) -> int:
    if args.planted:
        csp, planted = gen_planted_sat_csp(args.n, args.k, args.q,
                                           args.density, args.seed)
        payload = serialize.csp_to_dict(csp)
        payload["planted_assignment"] = [[x, planted[x]] for x in sorted(planted)]
    else:
        csp = gen_random_csp(args.n, args.k, args.q, args.constraint_density,
                             args.falsifying_density, args.seed)
        payload = serialize.csp_to_dict(csp)
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_gen_graph(args) -> int:
    if args.planted:
        graph = gen_planted_is_graph(args.n, args.rho, args.p, args.seed)
    else:
        graph = gen_er_graph(args.n, args.p, args.seed)
    _emit_json(args, serialize.graph_to_dict(graph))
    return EXIT_OK


def _cmd_build_hypergraph(args) -> int:
    csp = _load(args.csp, "csp")
    _emit_json(args, serialize.hypergraph_to_dict(build_hypergraph(csp)))
    return EXIT_OK


def _emit_distance(args, dist, payload: dict) -> int:
    if args.epsilon is not None:
        payload["epsilon"] = format_rational(args.epsilon)
        payload["far"] = dist.is_far(args.epsilon)
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_dist_csp(args) -> int:
    csp = _load(args.csp, "csp")
    dist = distance_to_sat(csp)
    payload = {
        "min_falsified": dist.min_falsified,
        "distance": format_rational(dist.distance),
        "witness_assignment": list(dist.witness),
    }
    return _emit_distance(args, dist, payload)


def _cmd_dist_graph(args) -> int:
    graph = _load(args.graph, "graph")
    dist = distance_to_rho_is(graph, args.rho)
    payload = {
        "min_edits": dist.min_edits,
        "distance": format_rational(dist.distance),
        "target_size": dist.target_size,
        "argmin_subset": list(dist.witness),
        "rho": format_rational(args.rho),
    }
    return _emit_distance(args, dist, payload)


def _cmd_certify(args) -> int:
    instance = _load(args.csp, "csp") if args.csp else _load(args.graph, "graph")
    cert = certify_far(instance, args.epsilon, args.rho)
    if cert is None:
        _emit_json(args, {"far": False, "epsilon": format_rational(args.epsilon)})
    else:
        _emit_json(args, {"far": True, **serialize.certificate_to_dict(cert)})
    return EXIT_OK


# ---------------------------------------------------------------- containers


def _independent_sets_for(args, host, variable_distinct: bool):
    if args.all_independent_sets:
        return enumerate_independent_sets(host, variable_distinct=variable_distinct)
    return [args.independent_set]


def _emit_traces(args, traces, to_dict, columns, sizes) -> int:
    """JSON trace records, or one CSV row per (trace, t): the fingerprint
    size, then sizes(trace, t) under the given column names."""
    if args.format == "json":
        _emit_json(args, {"traces": [to_dict(t) for t in traces]})
        return EXIT_OK
    _write_text(args.out, _csv_text(
        ["independent_set", "t", "fingerprint_size", *columns],
        ([";".join(map(str, bits_of(trace.independent_set))), t,
          trace.fingerprint_at(t).bit_count(), *sizes(trace, t)]
         for trace in traces for t in range(1, trace.iteration_count + 1))))
    return EXIT_OK


def _cmd_containers_sat(args) -> int:
    csp = _load(args.csp, "csp")
    h = build_hypergraph(csp)
    n_bound = args.n_bound if args.n_bound is not None else csp.n
    traces = [
        run_generator(h, n_bound, iset)
        for iset in _independent_sets_for(args, h, args.variable_distinct)
    ]
    return _emit_traces(args, traces, serialize.container_trace_to_dict,
                        ["container_size", "vars"],
                        lambda tr, t: (tr.container_at(t).bit_count(),
                                       vars_of(h, tr.container_at(t))))


def _cmd_containers_star(args) -> int:
    graph = _load(args.graph, "graph")
    traces = [
        run_star_generator(graph, iset)
        for iset in _independent_sets_for(args, graph, False)
    ]
    return _emit_traces(args, traces, serialize.star_trace_to_dict,
                        ["inner_size", "outer_size"],
                        lambda tr, t: (tr.inner_at(t).bit_count(),
                                       tr.outer_at(t).bit_count()))


# ---------------------------------------------------------------- verifiers


def _sweep(args, verifier: str, check, entries: list, workers: int = 1) -> int:
    """Run check over the corpus entries; the first counterexample in corpus
    order wins.  check(entry) is a picklable top-level function returning
    (summary, None) or (None, counterexample)."""
    summaries = []
    for summary, counterexample in parallel_map(check, entries, workers):
        if counterexample is not None:
            raise CounterexampleFound({"verifier": verifier, **counterexample})
        summaries.append(summary)
    _emit_json(args, {"verifier": verifier, "instances": summaries})
    return EXIT_OK


def _every_set(name: str, sets, failure) -> tuple:
    """(summary, None) if failure(iset) is None for every set, else
    (None, counterexample) for the first set where it is not."""
    checked = 0
    for iset in sets:
        found = failure(iset)
        if found is not None:
            return None, {"instance": name, "independent_set": list(iset), **found}
        checked += 1
    return {"instance": name, "independent_sets_checked": checked}, None


def _gcl_sat_instance(entry) -> tuple:
    name, csp, cert = entry
    distance = distance_to_sat(csp)

    def failure(iset):
        outcome = verify_gcl_sat(csp, cert.epsilon, iset, distance=distance)
        if not outcome.ok:
            return {"epsilon": format_rational(cert.epsilon), "t_max": outcome.t_max,
                    "checks": [[c.t, c.vars_in_container, c.ok] for c in outcome.checks],
                    "violation": "no witness t"}
    h = build_hypergraph(csp)
    return _every_set(name, enumerate_independent_sets(h, variable_distinct=True),
                      failure)


def _gcl_star_instance(entry) -> tuple:
    name, graph, cert = entry
    epsilon, rho = cert.epsilon, parse_rational(cert.params["rho"])
    bounds = StarBounds.of(graph.n, rho, epsilon)
    distance = distance_to_rho_is(graph, rho)

    def failure(iset):
        outcome = verify_gcl_star(graph, rho, epsilon, iset, distance=distance,
                                  bounds=bounds)
        if not outcome.ok or not outcome.restated_ok:
            return {"epsilon": format_rational(epsilon), "rho": format_rational(rho),
                    "t_max": outcome.t_max, "threshold_t": outcome.threshold_t,
                    "checks": [[c.t, c.inner_size, c.outer_size, c.ok]
                               for c in outcome.checks],
                    "violation": ("no witness t" if not outcome.ok
                                  else "restated inner-container bound failed")}
    return _every_set(name, enumerate_independent_sets(graph), failure)


def _cmd_verify_gcl(args) -> int:
    """verify gcl-sat on a CSP corpus, or gcl-star on a graph corpus."""
    sat = args.verifier == "gcl-sat"
    check = _gcl_sat_instance if sat else _gcl_star_instance
    return _sweep(args, args.verifier, check,
                  _certified_entries(args.corpus, "csp" if sat else "graph"), args.workers)


def _verify_trace_file(args) -> int:
    data = _load_json(args.trace)
    if data.get("kind") == "star-container-trace":
        trace = serialize.star_trace_from_dict(data)
        fresh = run_star_generator(trace.graph, trace.independent_set)
        fields = ("inner", "outer")
    else:
        trace = serialize.container_trace_from_dict(data)
        fresh = run_generator(trace.hypergraph, trace.n_bound, trace.independent_set)
        fields = ("container",)
    # Every iteration must replay in full; one that only one side has differs.
    for t in range(1, max(trace.iteration_count, fresh.iteration_count) + 1):
        if trace.iterations[t - 1:t] != fresh.iterations[t - 1:t]:
            recorded = [getattr(trace, f"{f}_at")(t) for f in fields]
            recomputed = [getattr(fresh, f"{f}_at")(t) for f in fields]
            raise CounterexampleFound({
                "verifier": "closure", "trace": str(args.trace), "mismatch_t": t,
                **{f"recorded_{f}": list(bits_of(c)) for f, c in zip(fields, recorded)},
                **{f"recomputed_{f}": list(bits_of(c))
                   for f, c in zip(fields, recomputed)}})
    _emit_json(args, {"verifier": "closure", "trace": str(args.trace),
                      "replayed": True})
    return EXIT_OK


def _closure_instance(entry) -> tuple:
    name, instance, _cert = entry
    if isinstance(instance, Csp):
        h = build_hypergraph(instance)
        sets = enumerate_independent_sets(h, variable_distinct=True)
        outcome_of = partial(check_closure, h, instance.n)
    else:
        sets = enumerate_independent_sets(instance)
        outcome_of = partial(check_star_closure, instance)

    def failure(iset):
        outcome = outcome_of(iset)
        return None if outcome.ok else {"mismatch_t": outcome.first_mismatch_t}
    return _every_set(name, sets, failure)


def _cmd_verify_closure(args) -> int:
    if args.trace is not None:
        return _verify_trace_file(args)
    return _sweep(args, "closure", _closure_instance, _corpus_entries(args.corpus))


def _cmd_verify_edges_bound(args) -> int:
    outcomes = []
    if args.hypergraph:
        outcome = check_edges_bound(_load(args.hypergraph, "hypergraph"))
        summary = {"hypergraph": str(args.hypergraph),
                   "heavy_count": outcome.heavy_count,
                   "lower_bound": format_rational(outcome.lower_bound)}
        if not outcome.ok:
            raise CounterexampleFound({"verifier": "edges-bound", **summary})
        outcomes.append(summary)
    else:
        if args.random < 1:
            raise ValueError(f"--random must be at least 1, got {args.random}")
        if min(args.ell) < 2:
            raise ValueError(f"--ell arities must be at least 2, got {min(args.ell)}")
        if args.max_vertices < max(args.ell):
            raise ValueError(f"--max-vertices {args.max_vertices} is below the largest "
                             f"--ell arity {max(args.ell)}")
        for ell in args.ell:  # the worst draw has n = --max-vertices
            check_edge_draw_cap(args.max_vertices, ell)
        rng = make_rng(args.seed)
        attempt = 0
        while len(outcomes) < args.random:
            ell = args.ell[attempt % len(args.ell)]
            n = ell + int(rng.integers(0, args.max_vertices - ell + 1))
            density = 0.1 + 0.8 * float(rng.random())
            h = gen_random_hypergraph(n, ell, Fraction(density).limit_denominator(1000),
                                      substream_seed(args.seed, attempt))
            attempt += 1
            if not h.edges:
                continue
            outcome = check_edges_bound(h)
            if not outcome.ok:
                raise CounterexampleFound({
                    "verifier": "edges-bound",
                    "hypergraph": serialize.hypergraph_to_dict(h),
                    "heavy_count": outcome.heavy_count,
                    "lower_bound": format_rational(outcome.lower_bound)})
            outcomes.append({"n": h.n, "ell": ell, "edges": len(h.edges),
                             "heavy_count": outcome.heavy_count})
    _emit_json(args, {"verifier": "edges-bound", "checked": len(outcomes),
                      "instances": outcomes})
    return EXIT_OK


def _container_degree_instance(entry) -> tuple:
    name, csp, _cert = entry
    h = build_hypergraph(csp)
    slacks, tighter_all = [], True
    for iset in enumerate_independent_sets(h, variable_distinct=True):
        trace = run_generator(h, csp.n, iset)
        if not trace.iterations:
            continue
        outcome = check_container_degree(trace, csp.k, csp.n)
        if not outcome.ok:
            bad = next(r for r in outcome.records if not r.ok)
            return None, {"instance": name, "independent_set": list(iset),
                          "t": bad.t, "max_degree": bad.max_degree,
                          "bound": format_rational(bad.bound)}
        slacks.append(outcome.worst_slack)
        tighter_all = tighter_all and outcome.tighter_ok
    return {
        "instance": name, "traces_checked": len(slacks),
        "worst_slack": format_rational(min(slacks)) if slacks else None,
        "tighter_constant_held": tighter_all,
    }, None


def _cmd_verify_container_degree(args) -> int:
    return _sweep(args, "container-degree", _container_degree_instance,
                  _corpus_entries(args.corpus, "csp"))


def _shrinking_instance(graph, cert) -> tuple:
    rho = parse_rational(cert.params["rho"])
    return (cert.epsilon, rho, distance_to_rho_is(graph, rho),
            [s for s in enumerate_independent_sets(graph) if len(s) >= 3])


def _cmd_verify_shrinking(args) -> int:
    entries = _certified_entries(args.corpus, "graph")
    rng = make_rng(args.seed)
    sampled = 0
    premise_hits = 0
    stale_passes = 0
    # Loaded on first visit: entries past the last sample never run the oracle.
    loaded: dict[str, tuple] = {}
    while sampled < args.samples:
        progressed = False
        for name, graph, cert in entries:
            if sampled >= args.samples:
                break
            if name not in loaded:
                loaded[name] = _shrinking_instance(graph, cert)
            epsilon, rho, distance, isets = loaded[name]
            if not isets:
                continue
            for _ in range(min(len(isets), 8)):
                if sampled >= args.samples:
                    break
                iset = isets[int(rng.integers(0, len(isets)))]
                trace = run_star_generator(graph, iset)
                t_limit = (len(iset) - 1) // 2
                if t_limit < 1:
                    continue
                t = int(rng.integers(0, t_limit))
                d_mask = trace.outer_at(t + 1)
                n = graph.n
                size = d_mask.bit_count()
                if size == 0:
                    continue
                keep = int(rng.integers(1, size + 1))
                while d_mask.bit_count() > keep:
                    victims = bits_of(d_mask)
                    d_mask &= ~(1 << victims[int(rng.integers(0, len(victims)))])
                alpha = rho - Fraction(d_mask.bit_count(), n)
                outcome = check_shrinking(graph, rho, epsilon, trace, t,
                                          d_mask, alpha, distance=distance)
                sampled += 1
                progressed = True
                if outcome.premises_hold:
                    premise_hits += 1
                    if not outcome.conclusion_holds:
                        raise CounterexampleFound({
                            "verifier": "shrinking", "instance": name,
                            "independent_set": list(iset), "t": t,
                            "d_set": list(bits_of(d_mask)),
                            "alpha": format_rational(alpha)})
        if not progressed:
            stale_passes += 1
            if stale_passes > 2:
                raise ValueError(
                    "corpus has no independent sets large enough to sample from")
    _emit_json(args, {"verifier": "shrinking", "samples": sampled,
                      "premise_hits": premise_hits})
    return EXIT_OK


# ------------------------------------------------------------------- testers


def _tester_spec_from_args(args) -> TesterSpec:
    """The kind's tester (see _TESTERS), bound to the instance it names; the
    trial count is checked after reading the files and before binding."""
    kind = args.tester
    epsilon, before, (source, _), after = _TESTERS[kind]
    options = {_dest(flag): getattr(args, _dest(flag))
               for flag, _ in (epsilon, _S, *before, *after)}
    if kind == "canonical-is" and args.s is None:
        raise ValueError("canonical-is requires --s")
    if kind == "indepset":
        options["disjoint"] = options.pop("disjoint_samples")
    if kind == "shpp":
        options["spec"] = serialize.shpp_spec_from_dict(_load_json(args.spec))
    instance = _load(getattr(args, _dest(source)), _dest(source))
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    return TesterSpec.of(kind, instance, options)


def _cmd_test(args) -> int:
    if args.trials < 1:  # before any file is read
        raise ValueError("trials must be at least 1")
    spec = _tester_spec_from_args(args)
    reports = list(trial_reports(spec, args.seed, range(args.trials)))
    if args.format == "json":
        payload = {"tester": spec.kind,
                   "reports": [{**serialize.report_to_dict(r), "trial": i}
                               for i, r in reports]}
        _emit_json(args, payload)
    else:
        _write_text(args.out, _trials_csv((i, r.seed, r.verdict, r.query_count)
                                          for i, r in reports))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    if args.out is None:
        raise ValueError("estimate requires --out (prefix for .csv and .json)")
    spec = _tester_spec_from_args(args)
    result = estimate_acceptance(spec, args.trials, args.seed, workers=args.workers)
    prefix = Path(args.out)
    prefix.with_suffix(".csv").write_text(_trials_csv(result.rows))
    summary = {
        "tester": spec.kind,
        "trials": result.trials,
        "accepts": result.accepts,
        "accept_rate": result.accept_rate,
        "wilson_95": [result.wilson_low, result.wilson_high],
        "master_seed": result.master_seed,
        "generator": result.generator,
        **_meta(args),
    }
    prefix.with_suffix(".json").write_text(serialize.canonical_dumps(summary))
    sys.stdout.write(serialize.canonical_dumps(
        {k: summary[k] for k in ("tester", "trials", "accepts", "accept_rate",
                                 "wilson_95")}))
    return EXIT_OK


# ---------------------------------------------------------------- verb table
#
# An option is a (flag, kwargs) pair for add_argument; a list of pairs is a
# required mutually exclusive group.  Each option is named here and nowhere
# else; rows used by several verbs are written once.

_OUT = ("--out", dict(default=None, help="output path (default stdout)"))
_FORMAT = ("--format", dict(choices=("json", "csv"), default="json"))
_SETS = [("--independent-set", dict(type=_vertex_list)),
         ("--all-independent-sets", dict(action="store_true"))]
_N = ("--n", dict(type=int, required=True))
_PLANTED = ("--planted", dict(action="store_true"))
_SEED = ("--seed", dict(type=int, required=True))
_SEED_0 = ("--seed", dict(type=int, default=0))
_CSP = ("--csp", dict(required=True))
_GRAPH = ("--graph", dict(required=True))
_CORPUS = ("--corpus", dict(required=True))
_RHO = ("--rho", dict(type=_unit_interval_closed, required=True))
_EPSILON = ("--epsilon", dict(type=_unit_interval, default=None))
_EPSILON_REQUIRED = ("--epsilon", dict(type=_unit_interval, required=True))
_S = ("--s", dict(type=int, default=None))
_C = ("--c", dict(type=_rational, default=Fraction(1)))

# Tester kinds: (--epsilon, options before the instance, the instance, options
# after it).  A kind's TesterSpec takes --epsilon, --s and its own options.
_TESTERS = {
    "sat": (_EPSILON_REQUIRED, [_C], _CSP, []),
    "color": (_EPSILON_REQUIRED, [_C], ("--hypergraph", dict(required=True)),
              [("--k", dict(type=int, required=True))]),
    "shpp": (_EPSILON_REQUIRED, [_C], _GRAPH,
             [("--spec", dict(required=True,
                              help="JSON file with k, lower, upper 0/1 matrices"))]),
    "indepset": (_EPSILON_REQUIRED, [], _GRAPH,
                 [_RHO, ("--r", dict(type=int, default=None)),
                  ("--c1", dict(type=_rational, default=Fraction(1))),
                  ("--c2", dict(type=_rational, default=Fraction(1))),
                  ("--disjoint-samples", dict(action="store_true"))]),
    "canonical-is": (_EPSILON, [], _GRAPH, [_RHO]),
}

# The verbs that group others: the dest their subcommand goes to, and help.
_GROUPS = {"verify": ("verifier", "run a verifier; exit 1 on counterexample"),
           "test": ("tester", "run a tester for one or more seeded trials"),
           "estimate": ("tester", "Monte Carlo acceptance estimate")}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _verbs() -> dict:
    """The verb table: each leaf verb's path -> (handler, help, options), in
    --help order.  Built per call, so the --workers default reads
    CONTAINER_BENCH_WORKERS each time."""
    workers = ("--workers", dict(type=_worker_count, default=_default_workers()))
    table = {
        ("gen-csp",): (_cmd_gen_csp, "generate a random or planted-satisfiable CSP", [
            _N, ("--k", dict(type=int, required=True)),
            ("--q", dict(type=int, required=True)),
            ("--constraint-density", dict(type=_rational, default=Fraction(1, 2))),
            ("--falsifying-density", dict(type=_rational, default=Fraction(1, 2))),
            _PLANTED,
            ("--density", dict(type=_rational, default=Fraction(1, 2),
                               help="planted mode density")),
            _SEED, _OUT]),
        ("gen-graph",): (_cmd_gen_graph, "generate a random or planted-IS graph", [
            _N, ("--p", dict(type=_rational, default=Fraction(1, 2))), _PLANTED,
            ("--rho", dict(type=_unit_interval_closed, default=Fraction(1, 2))),
            _SEED, _OUT]),
        ("build-hypergraph",): (_cmd_build_hypergraph,
                                "labelled hypergraph encoding of a CSP", [_CSP, _OUT]),
        ("dist-csp",): (_cmd_dist_csp, "exact distance to satisfiability",
                        [_CSP, _EPSILON, _OUT]),
        ("dist-graph",): (_cmd_dist_graph, "exact distance to the independent-set property",
                          [_GRAPH, _RHO, _EPSILON, _OUT]),
        ("certify",): (_cmd_certify, "emit an exact farness certificate", [
            [("--csp", {}), ("--graph", {})],
            ("--rho", dict(type=_unit_interval_closed, default=None)),
            _EPSILON_REQUIRED, _OUT]),
        ("containers-sat",): (_cmd_containers_sat, "run the hypergraph container generator", [
            _CSP, ("--n-bound", dict(type=int, default=None)), _SETS, _FORMAT,
            ("--variable-distinct", dict(action="store_true")), _OUT]),
        ("containers-star",): (_cmd_containers_star, "run the star container generator",
                               [_GRAPH, _SETS, _FORMAT, _OUT]),
        ("verify", "gcl-sat"): (_cmd_verify_gcl, None, [_CORPUS, workers, _OUT]),
        ("verify", "gcl-star"): (_cmd_verify_gcl, None, [_CORPUS, workers, _OUT]),
        ("verify", "closure"): (_cmd_verify_closure, None, [
            [("--corpus", {}),
             ("--trace", dict(help="replay a serialized trace and compare"))], _OUT]),
        ("verify", "edges-bound"): (_cmd_verify_edges_bound, None, [
            [("--hypergraph", {}), ("--random", dict(type=int))], _SEED_0,
            ("--ell", dict(type=_int_tuple, default=(2, 3, 4))),
            ("--max-vertices", dict(type=int, default=12)), _OUT]),
        ("verify", "container-degree"): (_cmd_verify_container_degree, None,
                                         [_CORPUS, _OUT]),
        ("verify", "shrinking"): (_cmd_verify_shrinking, None, [
            _CORPUS, ("--samples", dict(type=int, default=1000)), _SEED_0, _OUT]),
    }
    for verb, handler, extra in (("test", _cmd_test, []),
                                 ("estimate", _cmd_estimate, [workers])):
        for kind, (epsilon, before, instance, after) in _TESTERS.items():
            table[verb, kind] = (handler, None, [
                epsilon, _S, _SEED, ("--trials", dict(type=int, default=1)), _FORMAT,
                *before, instance, *after, _OUT, *extra])
    return table


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for the verb argv names, or for every verb when it names
    none (--help, --version, a group's --help, a misspelt verb, no verb)."""
    verbs = _verbs()
    chosen = [path for path in verbs if tuple(argv[:len(path)]) == path]
    parser = argparse.ArgumentParser(
        prog="container-bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    # A narrowed parser still names every verb in its usage line; the full
    # one keeps argparse's own, so a missing verb is reported as "verb".
    words = ",".join(dict.fromkeys(path[0] for path in verbs))
    subparsers = {(): parser.add_subparsers(
        dest="verb", required=True, metavar=f"{{{words}}}" if chosen else None)}
    for path in chosen or verbs:
        handler, help_text, options = verbs[path]
        if path[:-1] not in subparsers:
            dest, group_help = _GROUPS[path[0]]
            subparsers[path[:-1]] = subparsers[()].add_parser(
                path[0], help=group_help).add_subparsers(dest=dest, required=True)
        leaf = subparsers[path[:-1]].add_parser(
            path[-1], **({"help": help_text} if help_text else {}))
        for option in options:
            if isinstance(option, list):
                group = leaf.add_mutually_exclusive_group(required=True)
                for flag, kwargs in option:
                    group.add_argument(flag, **kwargs)
            else:
                flag, kwargs = option
                leaf.add_argument(flag, **kwargs)
        leaf.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        try:
            return args.func(args)
        except CounterexampleFound as exc:
            text = serialize.canonical_dumps({"counterexample": exc.record})
            if getattr(args, "out", None) is not None:
                Path(args.out).write_text(text)
            sys.stderr.write(text)
            return EXIT_COUNTEREXAMPLE
    # ValueError covers RationalParseError and NotFarError; OSError a path
    # that cannot be read or written, such as a directory.
    except (ValueError, WorkCapExceeded, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # a defect, not a verdict: never exit 1
        sys.stderr.write(f"error: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
