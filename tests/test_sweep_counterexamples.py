"""Counterexample records of the corpus-sweep verbs, pinned byte for byte.

Each test makes one checker fail by replacing its name in container_bench.cli
with a wrapper that turns one chosen outcome into a failure, runs the verb,
and compares the record written to --out and to stderr with the sha256 of the
bytes the verb wrote before the verify verbs shared one sweep loop.  The
failing outcome is chosen by the instance's size and the independent set, not
by call order, so worker processes (forked with the patched module) pick the
same one.  The records hold no paths, so the digests do not depend on tmp_path.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from dataclasses import replace
from fractions import Fraction

import pytest

from container_bench import cli, serialize
from container_bench.cli import main
from container_bench.generators import (
    certify_far,
    gen_er_graph,
    gen_random_csp,
)

RECORDS = {
    "gcl-sat": "e636e1f3e2433bfb1a39307a5b9248c1be4a344fe8bc8c321818ae88fbde040e",
    "gcl-star": "9f764e1b4b1f1e4864af6ddcf6811cac0d8bb61f185cd48ea165d304dcd71dad",
    "closure-csp": "1a628be3b8719bb5b7f14bdeba57766c75862147db3bc39cdb5b47ec877843c3",
    "closure-graph": "443cf593fa2a24eb899f5d20f346c1cc67537e98d92d3b60ef13f8f6aed9f757",
    "container-degree": "34d18eff0292719e198d8a89500d8d63db775f38d2f630a325ad1a172702f71e",
}


def _first_far(make, certify, seed=0):
    while True:
        instance = make(seed)
        cert = certify(instance)
        if cert is not None:
            return instance, cert
        seed += 1


def _write_corpus(root, entries):
    for name, instance_dict, cert in entries:
        entry = root / name
        entry.mkdir(parents=True)
        (entry / "instance.json").write_text(serialize.canonical_dumps(instance_dict))
        (entry / "certificate.json").write_text(
            serialize.canonical_dumps(serialize.certificate_to_dict(cert)))
    return root


@pytest.fixture(scope="module")
def csp_corpus(tmp_path_factory):
    """Far CSPs with n = 4, 5, 6 (named by n), each certified at its distance."""
    entries = []
    for n in (4, 5, 6):
        csp, cert = _first_far(
            lambda s: gen_random_csp(n, 2, 2, Fraction(1, 2), Fraction(1, 2), s),
            lambda c: certify_far(c, Fraction(1, 100)))
        entries.append((f"n{n}", serialize.csp_to_dict(csp),
                        replace(cert, epsilon=cert.achieved)))
    return _write_corpus(tmp_path_factory.mktemp("csp") / "corpus", entries)


@pytest.fixture(scope="module")
def graph_corpus(tmp_path_factory):
    """Graphs with n = 8, 9, 10 (named by n) far at rho = 1/2, epsilon = 1/64."""
    entries = []
    for n in (8, 9, 10):
        graph, cert = _first_far(
            lambda s: gen_er_graph(n, Fraction(3, 5), seed=s),
            lambda g: certify_far(g, Fraction(1, 64), rho=Fraction(1, 2)))
        entries.append((f"n{n}", serialize.graph_to_dict(graph), cert))
    return _write_corpus(tmp_path_factory.mktemp("graph") / "corpus", entries)


def _failing(name, chosen, fail):
    """Wrap cli.<name>: its outcome becomes fail(outcome) wherever
    chosen(args) holds for the call's positional arguments."""
    original = getattr(cli, name)

    def wrapper(*args, **kwargs):
        outcome = original(*args, **kwargs)
        return fail(outcome) if chosen(args) else outcome
    return wrapper


def _on(n_values, n_at, iset_at):
    """Chooses every independent set of two or more vertices of each instance
    whose n (args[n_at].n) is in n_values, so the verb reports the first such
    set; iset_at picks the set's argument."""
    return lambda args: args[n_at].n in n_values and len(iset_at(args)) >= 2


def _run_failing(monkeypatch, capsys, tmp_path, name, wrapper, *argv):
    monkeypatch.delenv("CONTAINER_BENCH_WORKERS", raising=False)
    monkeypatch.setattr(cli, name, wrapper)
    out = tmp_path / "record.json"
    capsys.readouterr()
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    text = out.read_text()
    assert err == text
    return json.loads(text)["counterexample"], hashlib.sha256(text.encode()).hexdigest()


def _gcl_sat(monkeypatch, capsys, tmp_path, corpus, fail_n, workers):
    wrapper = _failing("verify_gcl_sat", _on(fail_n, 0, lambda args: args[2]),
                       lambda o: replace(o, ok=False))
    return _run_failing(monkeypatch, capsys, tmp_path, "verify_gcl_sat", wrapper,
                        "verify", "gcl-sat", "--corpus", str(corpus),
                        "--workers", str(workers))


def test_gcl_sat_record(monkeypatch, capsys, tmp_path, csp_corpus):
    record, digest = _gcl_sat(monkeypatch, capsys, tmp_path, csp_corpus, {5}, 1)
    assert (record["verifier"], record["instance"]) == ("gcl-sat", "n5")
    assert digest == RECORDS["gcl-sat"]


def test_gcl_sat_workers_report_the_first_entry_in_corpus_order(
        monkeypatch, capsys, tmp_path, csp_corpus):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("worker processes see the patched checker only when forked")
    record, digest = _gcl_sat(monkeypatch, capsys, tmp_path, csp_corpus, {5, 6}, 2)
    assert record["instance"] == "n5"
    assert digest == RECORDS["gcl-sat"]


def test_serial_sweep_stops_at_the_first_counterexample(monkeypatch, capsys, tmp_path,
                                                        csp_corpus):
    sizes = []
    fail_on_n5 = _on({5}, 0, lambda args: args[2])

    def chosen(args):
        sizes.append(args[0].n)
        return fail_on_n5(args)

    wrapper = _failing("verify_gcl_sat", chosen, lambda o: replace(o, ok=False))
    record, _digest = _run_failing(monkeypatch, capsys, tmp_path, "verify_gcl_sat",
                                   wrapper, "verify", "gcl-sat",
                                   "--corpus", str(csp_corpus), "--workers", "1")
    assert record["instance"] == "n5"
    assert 5 in sizes and 6 not in sizes


def test_gcl_star_record(monkeypatch, capsys, tmp_path, graph_corpus):
    wrapper = _failing("verify_gcl_star", _on({9}, 0, lambda args: args[3]),
                       lambda o: replace(o, ok=False))
    record, digest = _run_failing(monkeypatch, capsys, tmp_path, "verify_gcl_star",
                                  wrapper, "verify", "gcl-star",
                                  "--corpus", str(graph_corpus), "--workers", "1")
    assert (record["verifier"], record["instance"]) == ("gcl-star", "n9")
    assert digest == RECORDS["gcl-star"]


def _mismatch(outcome):
    return replace(outcome, ok=False, first_mismatch_t=1)


def test_closure_record_on_a_csp_entry(monkeypatch, capsys, tmp_path, csp_corpus):
    # The hypergraph of a CSP on n variables over k = 2 values has 2n vertices.
    wrapper = _failing("check_closure", _on({10}, 0, lambda args: args[2]), _mismatch)
    record, digest = _run_failing(monkeypatch, capsys, tmp_path, "check_closure",
                                  wrapper, "verify", "closure",
                                  "--corpus", str(csp_corpus))
    assert (record["verifier"], record["instance"]) == ("closure", "n5")
    assert digest == RECORDS["closure-csp"]


def test_closure_record_on_a_graph_entry(monkeypatch, capsys, tmp_path, graph_corpus):
    wrapper = _failing("check_star_closure", _on({9}, 0, lambda args: args[1]),
                       _mismatch)
    record, digest = _run_failing(monkeypatch, capsys, tmp_path, "check_star_closure",
                                  wrapper, "verify", "closure",
                                  "--corpus", str(graph_corpus))
    assert (record["verifier"], record["instance"]) == ("closure", "n9")
    assert digest == RECORDS["closure-graph"]


def test_container_degree_record(monkeypatch, capsys, tmp_path, csp_corpus):
    def fail(outcome):
        first, *rest = outcome.records
        return replace(outcome, ok=False, records=(replace(first, ok=False), *rest))

    # check_container_degree(trace, k, n): the trace carries the set.
    chosen = lambda args: args[2] == 5 and args[0].independent_set.bit_count() >= 2
    wrapper = _failing("check_container_degree", chosen, fail)
    record, digest = _run_failing(monkeypatch, capsys, tmp_path,
                                  "check_container_degree", wrapper,
                                  "verify", "container-degree",
                                  "--corpus", str(csp_corpus))
    assert (record["verifier"], record["instance"]) == ("container-degree", "n5")
    assert digest == RECORDS["container-degree"]


def test_star_trace_replay(tmp_path, capsys):
    graph, _cert = _first_far(
        lambda s: gen_er_graph(10, Fraction(3, 5), seed=s),
        lambda g: certify_far(g, Fraction(1, 64), rho=Fraction(1, 2)))
    graph_file = tmp_path / "g.json"
    graph_file.write_text(serialize.canonical_dumps(serialize.graph_to_dict(graph)))
    traces = tmp_path / "star.json"
    assert main(["containers-star", "--graph", str(graph_file),
                 "--all-independent-sets", "--out", str(traces)]) == 0
    trace = max(json.loads(traces.read_text())["traces"],
                key=lambda tr: len(tr["iterations"]))
    assert len(trace["iterations"]) >= 2
    clean = tmp_path / "trace.json"
    clean.write_text(serialize.canonical_dumps(trace))
    assert main(["verify", "closure", "--trace", str(clean),
                 "--out", str(tmp_path / "replay.json")]) == 0
    assert json.loads((tmp_path / "replay.json").read_text())["replayed"] is True

    recorded = trace["iterations"][1]["inner"]
    trace["iterations"][1]["inner"] = recorded[:-1]
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(serialize.canonical_dumps(trace))
    out = tmp_path / "record.json"
    capsys.readouterr()
    assert main(["verify", "closure", "--trace", str(corrupt), "--out", str(out)]) == 1
    record = json.loads(out.read_text())["counterexample"]
    assert capsys.readouterr().err == out.read_text()
    assert record["mismatch_t"] == 2
    assert record["recorded_inner"] == recorded[:-1]
    assert record["recomputed_inner"] == recorded
    assert record["recorded_outer"] == record["recomputed_outer"]
