import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from container_bench import serialize
from container_bench.cli import main


def run_cli(*argv) -> int:
    return main(list(argv))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


@pytest.fixture()
def triangle_csp_file(tmp_path, triangle_csp) -> Path:
    path = tmp_path / "triangle.json"
    path.write_text(serialize.canonical_dumps(serialize.csp_to_dict(triangle_csp)))
    return path


@pytest.fixture()
def k4_file(tmp_path, k4) -> Path:
    path = tmp_path / "k4.json"
    path.write_text(serialize.canonical_dumps(serialize.graph_to_dict(k4)))
    return path


def test_gen_csp_roundtrips_and_embeds_config(tmp_path):
    out = tmp_path / "csp.json"
    assert run_cli("gen-csp", "--n", "5", "--k", "2", "--q", "2",
                   "--seed", "11", "--out", str(out)) == 0
    data = read_json(out)
    assert data["tool"]["name"] == "container-bench"
    assert data["config"]["seed"] == 11
    csp = serialize.csp_from_dict(data)
    assert csp.n == 5
    # byte-for-byte reproducibility of the embedded config
    out2 = tmp_path / "csp2.json"
    assert run_cli("gen-csp", "--n", "5", "--k", "2", "--q", "2",
                   "--seed", "11", "--out", str(out2)) == 0
    assert out.read_text().replace(str(out), "X") == \
        out2.read_text().replace(str(out2), "X")


def test_gen_graph_planted(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("gen-graph", "--n", "10", "--planted", "--rho", "1/2",
                   "--p", "1", "--seed", "4", "--out", str(out)) == 0
    g = serialize.graph_from_dict(read_json(out))
    assert g.n == 10


def test_instance_json_roundtrip_bit_exact(tmp_path, triangle_csp, k4):
    graph_text = serialize.canonical_dumps(serialize.graph_to_dict(k4))
    again = serialize.canonical_dumps(
        serialize.graph_to_dict(serialize.graph_from_dict(json.loads(graph_text))))
    assert graph_text == again
    csp_text = serialize.canonical_dumps(serialize.csp_to_dict(triangle_csp))
    again = serialize.canonical_dumps(
        serialize.csp_to_dict(serialize.csp_from_dict(json.loads(csp_text))))
    assert csp_text == again


def test_malformed_epsilon_is_usage_error(triangle_csp_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("dist-csp", "--csp", str(triangle_csp_file), "--epsilon", "0.1")
    assert exc.value.code == 2
    assert "p/q" in capsys.readouterr().err


def test_dist_csp_and_certify(triangle_csp_file, tmp_path):
    out = tmp_path / "dist.json"
    assert run_cli("dist-csp", "--csp", str(triangle_csp_file),
                   "--epsilon", "1/3", "--out", str(out)) == 0
    data = read_json(out)
    assert data["min_falsified"] == 1
    assert data["distance"] == "1/3"
    assert data["far"] is True

    cert_out = tmp_path / "cert.json"
    assert run_cli("certify", "--csp", str(triangle_csp_file),
                   "--epsilon", "1/3", "--out", str(cert_out)) == 0
    assert read_json(cert_out)["far"] is True


def test_dist_graph(k4_file, tmp_path):
    out = tmp_path / "dist.json"
    assert run_cli("dist-graph", "--graph", str(k4_file), "--rho", "1/2",
                   "--epsilon", "1/16", "--out", str(out)) == 0
    data = read_json(out)
    assert data["min_edits"] == 1 and data["far"] is True
    assert data["argmin_subset"] == [0, 1]


def test_build_hypergraph(triangle_csp_file, tmp_path):
    out = tmp_path / "h.json"
    assert run_cli("build-hypergraph", "--csp", str(triangle_csp_file),
                   "--out", str(out)) == 0
    h = serialize.hypergraph_from_dict(read_json(out))
    assert h.n == 6 and len(h.edges) == 6


def test_containers_sat_csv_and_json(triangle_csp_file, tmp_path):
    csv_out = tmp_path / "trace.csv"
    assert run_cli("containers-sat", "--csp", str(triangle_csp_file),
                   "--independent-set", "0,3", "--format", "csv",
                   "--out", str(csv_out)) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "independent_set,t,fingerprint_size,container_size,vars"
    assert lines[1] == "0;3,1,1,3,3"
    assert lines[2] == "0;3,2,2,0,0"

    json_out = tmp_path / "trace.json"
    assert run_cli("containers-sat", "--csp", str(triangle_csp_file),
                   "--independent-set", "0,3", "--out", str(json_out)) == 0
    trace = serialize.container_trace_from_dict(read_json(json_out)["traces"][0])
    assert trace.iteration_count == 2


def test_containers_star_csv(k4_file, tmp_path):
    out = tmp_path / "star.csv"
    assert run_cli("containers-star", "--graph", str(k4_file),
                   "--all-independent-sets", "--format", "csv",
                   "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "independent_set,t,fingerprint_size,inner_size,outer_size"
    assert len(lines) == 5  # four singleton cores, empty core has no rows


def make_corpus(tmp_path, entries) -> Path:
    corpus = tmp_path / "corpus"
    for name, instance_dict, cert_dict in entries:
        d = corpus / name
        d.mkdir(parents=True)
        (d / "instance.json").write_text(serialize.canonical_dumps(instance_dict))
        if cert_dict is not None:
            (d / "certificate.json").write_text(serialize.canonical_dumps(cert_dict))
    return corpus


def test_verify_gcl_sat_clean_corpus(tmp_path, triangle_csp):
    from container_bench import certify_far
    from fractions import Fraction

    cert = certify_far(triangle_csp, Fraction(1, 3))
    corpus = make_corpus(tmp_path, [
        ("triangle", serialize.csp_to_dict(triangle_csp),
         serialize.certificate_to_dict(cert)),
    ])
    out = tmp_path / "report.json"
    assert run_cli("verify", "gcl-sat", "--corpus", str(corpus),
                   "--workers", "1", "--out", str(out)) == 0
    report = read_json(out)
    assert report["instances"][0]["independent_sets_checked"] > 0


def test_verify_closure_corpus_and_corrupted_trace(tmp_path, triangle_csp,
                                                   triangle_csp_file, capsys):
    from container_bench import certify_far
    from fractions import Fraction

    cert = certify_far(triangle_csp, Fraction(1, 3))
    corpus = make_corpus(tmp_path, [
        ("triangle", serialize.csp_to_dict(triangle_csp),
         serialize.certificate_to_dict(cert)),
    ])
    assert run_cli("verify", "closure", "--corpus", str(corpus),
                   "--out", str(tmp_path / "c.json")) == 0

    # counterexample fixture: corrupt a recorded container of a valid trace
    trace_file = tmp_path / "trace.json"
    assert run_cli("containers-sat", "--csp", str(triangle_csp_file),
                   "--independent-set", "0,3", "--out", str(trace_file)) == 0
    payload = read_json(trace_file)
    trace_dict = payload["traces"][0]
    trace_dict["iterations"][0]["container"] = [0, 1, 2]
    bad_file = tmp_path / "bad_trace.json"
    bad_file.write_text(serialize.canonical_dumps(trace_dict))
    record_out = tmp_path / "counterexample.json"
    code = run_cli("verify", "closure", "--trace", str(bad_file),
                   "--out", str(record_out))
    assert code == 1
    record = read_json(record_out)
    assert record["counterexample"]["mismatch_t"] == 1
    assert record["counterexample"]["recorded_container"] == [0, 1, 2]


def test_verify_edges_bound_random(tmp_path):
    out = tmp_path / "eb.json"
    assert run_cli("verify", "edges-bound", "--random", "50", "--seed", "3",
                   "--ell", "2,3", "--max-vertices", "10",
                   "--out", str(out)) == 0
    assert read_json(out)["checked"] == 50


@pytest.mark.parametrize("argv, message", [
    (["--ell=-2"], "--ell arities must be at least 2, got -2"),
    (["--ell", "3,1"], "--ell arities must be at least 2, got 1"),
    (["--max-vertices", "1"], "--max-vertices 1 is below the largest --ell arity 4"),
    (["--ell", "2,5", "--max-vertices", "4"],
     "--max-vertices 4 is below the largest --ell arity 5"),
])
def test_edges_bound_misuse_names_the_option(capsys, argv, message):
    assert run_cli("verify", "edges-bound", "--random", "3", *argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_gcl_star_and_shrinking(tmp_path):
    from fractions import Fraction

    from container_bench import certify_far, gen_er_graph

    entries = []
    seed = 0
    while len(entries) < 2:
        g = gen_er_graph(8, Fraction(3, 5), seed=seed)
        seed += 1
        cert = certify_far(g, Fraction(1, 64), rho=Fraction(1, 2))
        if cert is None:
            continue
        entries.append((f"g{seed}", serialize.graph_to_dict(g),
                        serialize.certificate_to_dict(cert)))
    corpus = make_corpus(tmp_path, entries)
    assert run_cli("verify", "gcl-star", "--corpus", str(corpus),
                   "--workers", "2", "--out", str(tmp_path / "s.json")) == 0
    assert run_cli("verify", "shrinking", "--corpus", str(corpus),
                   "--samples", "200", "--seed", "5",
                   "--out", str(tmp_path / "sh.json")) == 0
    assert read_json(tmp_path / "sh.json")["samples"] == 200


@pytest.mark.parametrize("verb, gen, epsilon", [
    # t_max is about 9e21 here, millions of units from a float estimate
    ("gcl-star", ["gen-graph", "--n", "10", "--p", "7/10", "--seed", "3"],
     "1/1" + "0" * 20),
    # k q / eps is far beyond the float range
    ("gcl-sat", ["gen-csp", "--n", "5", "--k", "2", "--q", "2", "--seed", "3"],
     "1/1" + "0" * 400),
], ids=["gcl-star", "gcl-sat"])
def test_verify_at_a_tiny_certified_epsilon(tmp_path, verb, gen, epsilon):
    entry = tmp_path / "corpus" / "entry"
    entry.mkdir(parents=True)
    kind = "--graph" if verb == "gcl-star" else "--csp"
    rho = ["--rho", "1/2"] if verb == "gcl-star" else []
    assert run_cli(*gen, "--out", str(entry / "instance.json")) == 0
    assert run_cli("certify", kind, str(entry / "instance.json"), *rho,
                   "--epsilon", epsilon, "--out", str(entry / "certificate.json")) == 0
    assert run_cli("verify", verb, "--corpus", str(tmp_path / "corpus"), "--workers", "1",
                   "--out", str(tmp_path / "report.json")) == 0


def test_verify_container_degree(tmp_path, triangle_csp):
    from fractions import Fraction

    from container_bench import certify_far

    cert = certify_far(triangle_csp, Fraction(1, 3))
    corpus = make_corpus(tmp_path, [
        ("triangle", serialize.csp_to_dict(triangle_csp),
         serialize.certificate_to_dict(cert)),
    ])
    out = tmp_path / "cd.json"
    assert run_cli("verify", "container-degree", "--corpus", str(corpus),
                   "--out", str(out)) == 0
    summary = read_json(out)["instances"][0]
    assert summary["tighter_constant_held"] in (True, False)


def test_test_verb_sat_csv(triangle_csp_file, tmp_path):
    out = tmp_path / "runs.csv"
    assert run_cli("test", "sat", "--csp", str(triangle_csp_file),
                   "--epsilon", "1/3", "--s", "3", "--seed", "5",
                   "--trials", "4", "--format", "csv", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,seed,verdict,queries"
    assert len(lines) == 5
    assert all(line.split(",")[2] == "reject" for line in lines[1:])


def test_test_verb_indepset_json(k4_file, tmp_path):
    out = tmp_path / "runs.json"
    assert run_cli("test", "indepset", "--graph", str(k4_file),
                   "--rho", "1/2", "--epsilon", "1/16", "--r", "3", "--s", "4",
                   "--seed", "5", "--trials", "3", "--out", str(out)) == 0
    data = read_json(out)
    assert len(data["reports"]) == 3
    assert all(r["generator"] == "pcg64" for r in data["reports"])


def test_estimate_writes_csv_and_summary(k4_file, tmp_path):
    prefix = tmp_path / "est"
    assert run_cli("estimate", "indepset", "--graph", str(k4_file),
                   "--rho", "1/2", "--epsilon", "1/16", "--r", "2", "--s", "3",
                   "--seed", "9", "--trials", "20", "--workers", "1",
                   "--out", str(prefix)) == 0
    summary = read_json(prefix.with_suffix(".json"))
    rows = prefix.with_suffix(".csv").read_text().strip().splitlines()
    assert summary["trials"] == 20
    assert len(rows) == 21
    assert summary["accept_rate"] == 0.0  # K4 has no 2-independent set


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


# ------------------------------------------------------------------- parser

VERBS = ("gen-csp", "gen-graph", "build-hypergraph", "dist-csp", "dist-graph",
         "certify", "containers-sat", "containers-star", "verify", "test", "estimate")
_TESTER_KINDS = ("sat", "color", "shpp", "indepset", "canonical-is")
_TESTER_INPUTS = {"sat": ["--csp", "c.json"], "color": ["--hypergraph", "h.json", "--k", "3"],
                  "shpp": ["--graph", "g.json", "--spec", "s.json"],
                  "indepset": ["--graph", "g.json", "--rho", "1/3", "--r", "2", "--c2", "3/2",
                               "--disjoint-samples"],
                  "canonical-is": ["--graph", "g.json", "--rho", "1/2"]}
# One representative command line per leaf verb, each option off its default.
LEAF_ARGV = {
    ("gen-csp",): ["--n", "5", "--k", "3", "--q", "2", "--seed", "4", "--planted",
                   "--density", "2/3", "--constraint-density", "1/4"],
    ("gen-graph",): ["--n", "9", "--seed", "2", "--p", "1/3", "--planted", "--rho", "1/4"],
    ("build-hypergraph",): ["--csp", "c.json", "--out", "h.json"],
    ("dist-csp",): ["--csp", "c.json", "--epsilon", "1/5"],
    ("dist-graph",): ["--graph", "g.json", "--rho", "1/2", "--epsilon", "1/7"],
    ("certify",): ["--graph", "g.json", "--rho", "1/2", "--epsilon", "1/64"],
    ("containers-sat",): ["--csp", "c.json", "--independent-set", "0,3", "--n-bound", "4",
                          "--variable-distinct", "--format", "csv"],
    ("containers-star",): ["--graph", "g.json", "--all-independent-sets"],
    ("verify", "gcl-sat"): ["--corpus", "corpus", "--workers", "3"],
    ("verify", "gcl-star"): ["--corpus", "corpus"],
    ("verify", "closure"): ["--trace", "t.json", "--out", "r.json"],
    ("verify", "edges-bound"): ["--random", "9", "--ell", "2,5", "--max-vertices", "7",
                                "--seed", "3"],
    ("verify", "container-degree"): ["--corpus", "corpus"],
    ("verify", "shrinking"): ["--corpus", "corpus", "--samples", "12", "--seed", "8"],
    **{(verb, kind): ["--epsilon", "1/8", "--seed", "5", "--s", "4", "--trials", "3",
                      "--format", "csv", *_TESTER_INPUTS[kind],
                      *(["--workers", "2"] if verb == "estimate" else [])]
       for verb in ("test", "estimate") for kind in _TESTER_KINDS},
}


def test_the_table_has_every_leaf_verb():
    from container_bench import cli

    assert list(cli._verbs()) == list(LEAF_ARGV)


@pytest.mark.parametrize("path", list(LEAF_ARGV), ids=" ".join)
def test_every_leaf_verb_help_exits_0(path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*path, "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: container-bench {' '.join(path)} ")


def test_top_level_help_lists_every_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(VERBS) + "}" in out
    # The help rows: an indented verb, then its help text.
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("    ") and len(line.split()) > 1]
    assert listed == list(VERBS)


@pytest.mark.parametrize("path", list(LEAF_ARGV), ids=" ".join)
def test_narrowed_and_full_parsers_agree(path, monkeypatch):
    """The parser main builds for one verb registers that verb alone and
    parses its command line to the Namespace the parser of every verb does."""
    import argparse

    from container_bench.cli import build_parser

    monkeypatch.delenv("CONTAINER_BENCH_WORKERS", raising=False)
    argv = [*path, *LEAF_ARGV[path]]
    narrowed = build_parser(argv)
    verbs = next(a for a in narrowed._actions if isinstance(a, argparse._SubParsersAction))
    assert list(verbs.choices) == [path[0]]
    assert narrowed.parse_args(argv) == build_parser().parse_args(argv)


def test_unrecognized_argument_usage_names_every_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("certify", "--csp", "c.json", "--epsilon", "1/4", "extra")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: container-bench [-h] [--version]\n"
                          f"                       {{{','.join(VERBS)}}}\n")
    assert err.endswith("container-bench: error: unrecognized arguments: extra\n")


@pytest.mark.parametrize("argv, missing", [([], "verb"), (["verify"], "verifier"),
                                            (["estimate"], "tester")])
def test_a_missing_verb_is_named_by_its_dest(argv, missing, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: the following arguments are required: {missing}\n")


@pytest.mark.parametrize("k, s, message", [
    ("0", ["--s", "99"], "need at least one colour"),
    ("1000000", ["--s", "99"], "sample size 99 must lie in [1, n=6]"),
    ("1000000", [], "derived sample size exceeds n"),
    ("1000000", ["--s", "2"], "k^n = 1000000^2 exceeds the assignment cap 16777216"),
])
def test_color_cap_is_read_before_the_reduction(triangle_csp_file, tmp_path, capsys,
                                                k, s, message):
    """Colouring with a million colours exits 2 at once: the k^s cap of the
    restriction is read before the reduction builds k tuples per edge, and
    after the checks that fired before it."""
    h = tmp_path / "h.json"
    assert run_cli("build-hypergraph", "--csp", str(triangle_csp_file), "--out", str(h)) == 0
    capsys.readouterr()
    assert run_cli("test", "color", "--hypergraph", str(h), "--k", k, "--epsilon", "1/4",
                   *s, "--seed", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def _count_calls(monkeypatch, module, name: str, calls: Counter) -> None:
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_estimate_builds_each_reduction_once(triangle_csp_file, k4_file, tmp_path,
                                             monkeypatch):
    """A run binds its tester once, so 40 trials share one reduction."""
    from container_bench import testers

    calls = Counter()
    for name in ("colorability_to_sat", "shpp_to_sat"):
        _count_calls(monkeypatch, testers, name, calls)
    h, spec = tmp_path / "h.json", tmp_path / "spec.json"
    assert run_cli("build-hypergraph", "--csp", str(triangle_csp_file), "--out", str(h)) == 0
    spec.write_text(json.dumps({"k": 2, "lower": [[0, 0], [0, 0]],
                                "upper": [[0, 1], [1, 0]]}))
    for argv in (["color", "--hypergraph", str(h), "--k", "2"],
                 ["shpp", "--graph", str(k4_file), "--spec", str(spec)]):
        assert run_cli("estimate", *argv, "--epsilon", "1/4", "--s", "3", "--seed", "5",
                       "--trials", "40", "--workers", "1",
                       "--out", str(tmp_path / "est")) == 0
    assert calls == {"colorability_to_sat": 1, "shpp_to_sat": 1}


def test_estimate_derives_its_sizes_once(tmp_path, monkeypatch):
    """A derived r and s cost the same exact ln comparisons at 1 trial and 40."""
    from container_bench import rationals, testers

    graph = tmp_path / "g.json"
    assert run_cli("gen-graph", "--n", "12", "--seed", "5", "--out", str(graph)) == 0
    calls = Counter()
    for module in (rationals, testers):
        _count_calls(monkeypatch, module, "sign_with_ln", calls)
    counts = []
    for trials in ("1", "40"):
        calls.clear()
        assert run_cli("estimate", "indepset", "--graph", str(graph), "--rho", "1/2",
                       "--epsilon", "1/4", "--seed", "5", "--trials", trials,
                       "--workers", "1", "--out", str(tmp_path / "est")) == 0
        counts.append(calls["sign_with_ln"])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("k", [0, -1])
def test_shpp_spec_without_parts_names_its_k(tmp_path, k4_file, capsys, k):
    """A spec with k < 1 is refused as a spec: before any size is derived, and
    by estimate before the trial count."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"k": k, "lower": [], "upper": []}))
    for verb, extra in (("test", ()), ("estimate", ("--trials", "0", "--workers", "1"))):
        assert run_cli(verb, "shpp", "--graph", str(k4_file), "--spec", str(spec),
                       "--epsilon", "1/4", "--seed", "3", *extra,
                       "--out", str(tmp_path / "r")) == 2
        assert capsys.readouterr().err == (
            f"error: a partition needs at least one part, got spec k={k}\n")


def test_shpp_test_verb(tmp_path):
    from container_bench import Graph

    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize.canonical_dumps(serialize.graph_to_dict(g)))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"k": 2, "lower": [[0, 1], [1, 0]], "upper": [[0, 1], [1, 0]]}))
    out = tmp_path / "r.json"
    assert run_cli("test", "shpp", "--graph", str(gpath), "--spec", str(spec_path),
                   "--epsilon", "1/4", "--s", "4", "--seed", "3",
                   "--out", str(out)) == 0
    assert read_json(out)["reports"][0]["verdict"] == "accept"


def _far_graph_entry():
    from fractions import Fraction

    from container_bench import certify_far, gen_er_graph

    seed = 0
    while True:
        g = gen_er_graph(8, Fraction(3, 5), seed=seed)
        seed += 1
        cert = certify_far(g, Fraction(1, 64), rho=Fraction(1, 2))
        if cert is not None:
            return g, cert


def test_missing_certificate_is_usage_error(tmp_path, triangle_csp, capsys):
    graph, _cert = _far_graph_entry()
    csps = make_corpus(tmp_path / "sat", [
        ("lonely-csp", serialize.csp_to_dict(triangle_csp), None)])
    graphs = make_corpus(tmp_path / "star", [
        ("lonely-graph", serialize.graph_to_dict(graph), None)])
    capsys.readouterr()
    for argv, name in ((["gcl-sat", "--corpus", str(csps), "--workers", "1"], "lonely-csp"),
                       (["gcl-star", "--corpus", str(graphs), "--workers", "1"], "lonely-graph"),
                       (["shrinking", "--corpus", str(graphs)], "lonely-graph")):
        assert run_cli("verify", *argv, "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert name in err and "certificate.json" in err
        assert "Traceback" not in err
    # closure and container-degree do not read certificates
    for verifier, corpus in (("closure", csps), ("closure", graphs),
                             ("container-degree", csps)):
        assert run_cli("verify", verifier, "--corpus", str(corpus),
                       "--out", str(tmp_path / "r.json")) == 0


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_bad_worker_count_is_usage_error(tmp_path, triangle_csp, monkeypatch,
                                         capsys, value):
    corpus = make_corpus(tmp_path, [
        ("triangle", serialize.csp_to_dict(triangle_csp), None)])
    monkeypatch.setenv("CONTAINER_BENCH_WORKERS", value)
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "gcl-sat", "--corpus", str(corpus))
    assert exc.value.code == 2
    assert "CONTAINER_BENCH_WORKERS" in capsys.readouterr().err
    monkeypatch.delenv("CONTAINER_BENCH_WORKERS")
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "gcl-sat", "--corpus", str(corpus), "--workers", value)
    assert exc.value.code == 2


def test_worker_count_is_read_only_by_verbs_that_take_it(tmp_path, monkeypatch):
    monkeypatch.setenv("CONTAINER_BENCH_WORKERS", "abc")
    assert run_cli("gen-csp", "--n", "4", "--k", "2", "--q", "2", "--seed", "1",
                   "--out", str(tmp_path / "c.json")) == 0


def test_sweep_frees_its_hypergraphs(tmp_path, monkeypatch):
    import gc
    import weakref
    from fractions import Fraction

    from container_bench import cli, gen_random_csp

    built = []

    def recording_build(csp):
        h = build_hypergraph(csp)
        built.append(weakref.ref(h))
        return h

    build_hypergraph = cli.build_hypergraph
    monkeypatch.setattr(cli, "build_hypergraph", recording_build)
    corpus = make_corpus(tmp_path, [
        (f"c{seed}", serialize.csp_to_dict(
            gen_random_csp(5, 2, 2, Fraction(3, 5), Fraction(1, 2), seed)), None)
        for seed in range(9001, 9004)])
    assert run_cli("verify", "closure", "--corpus", str(corpus),
                   "--out", str(tmp_path / "c.json")) == 0
    gc.collect()
    assert len(built) == 3
    assert all(ref() is None for ref in built)


@pytest.mark.parametrize("verifier, certified", [
    ("gcl-sat", True), ("closure", False), ("container-degree", False)])
def test_serial_sweep_frees_each_entry_before_the_next(tmp_path, monkeypatch,
                                                       verifier, certified):
    import gc
    import weakref
    from fractions import Fraction

    from container_bench import certify_far, cli, gen_random_csp

    built, alive_at_build = [], []

    def recording_build(csp):
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in built))
        h = build_hypergraph(csp)
        built.append(weakref.ref(h))
        return h

    build_hypergraph = cli.build_hypergraph
    monkeypatch.setattr(cli, "build_hypergraph", recording_build)
    entries = []
    for seed in range(1, 40):
        csp = gen_random_csp(5, 2, 2, Fraction(1, 2), Fraction(1, 2), seed)
        cert = certify_far(csp, Fraction(1, 100))
        if cert is not None:
            entries.append((f"c{seed:02d}", serialize.csp_to_dict(csp),
                            serialize.certificate_to_dict(cert) if certified else None))
        if len(entries) == 3:
            break
    corpus = make_corpus(tmp_path, entries)
    workers = ["--workers", "1"] if verifier == "gcl-sat" else []
    assert run_cli("verify", verifier, "--corpus", str(corpus), *workers,
                   "--out", str(tmp_path / "r.json")) == 0
    # Each entry's hypergraph (and the memo on it) is gone before the next one
    # is built: a serial sweep holds one entry at a time.
    assert len(built) == 3
    assert alive_at_build == [0, 0, 0]


def test_internal_error_exits_3_without_traceback(tmp_path, monkeypatch, capsys):
    from container_bench import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_verify_closure", broken)
    assert run_cli("verify", "closure", "--corpus", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error:") and "boom" in err


@pytest.mark.parametrize("workers", [("--workers", "1"),
                                     ("--workers", "2", "--trials", "8")])
def test_estimate_misuse_exits_2_as_test_does(tmp_path, capsys, workers):
    """A sample larger than the instance is misuse in every trial, on the
    serial path and the pool path alike."""
    csp, graph = tmp_path / "csp.json", tmp_path / "g.json"
    assert run_cli("gen-csp", "--n", "5", "--k", "2", "--q", "2", "--seed", "1",
                   "--out", str(csp)) == 0
    assert run_cli("gen-graph", "--n", "30", "--seed", "1", "--out", str(graph)) == 0
    capsys.readouterr()
    for argv in (["sat", "--csp", str(csp), "--epsilon", "1/4", "--s", "9"],
                 ["indepset", "--graph", str(graph), "--rho", "1/2",
                  "--epsilon", "1/4", "--s", "40"]):
        for verb in ("test", "estimate"):
            extra = workers if verb == "estimate" else ()
            assert run_cli(verb, *argv, "--seed", "3", *extra,
                           "--out", str(tmp_path / "r")) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "internal" not in err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_fewer_than_one_trial_exits_2_in_test_and_estimate(tmp_path, capsys, trials):
    csp = tmp_path / "csp.json"
    assert run_cli("gen-csp", "--n", "5", "--k", "2", "--q", "2", "--seed", "1",
                   "--out", str(csp)) == 0
    capsys.readouterr()
    for verb, extra in (("test", ()), ("estimate", ("--workers", "1"))):
        assert run_cli(verb, "sat", "--csp", str(csp), "--epsilon", "1/4",
                       "--s", "3", "--seed", "3", "--trials", trials, *extra,
                       "--out", str(tmp_path / "r")) == 2
        assert capsys.readouterr().err == "error: trials must be at least 1\n"
    assert not list(tmp_path.glob("r*"))


def test_directory_as_input_or_output_path_is_usage_error(tmp_path, capsys,
                                                          triangle_csp_file):
    for argv in (["certify", "--graph", str(tmp_path), "--epsilon", "1/4"],
                 ["dist-csp", "--csp", str(tmp_path)],
                 ["gen-csp", "--n", "5", "--k", "2", "--q", "2", "--seed", "1",
                  "--out", str(tmp_path)],
                 ["dist-csp", "--csp", str(triangle_csp_file), "--out", str(tmp_path)]):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Is a directory" in err and "internal" not in err


def _far_graph_entries(count: int) -> list:
    from fractions import Fraction

    from container_bench import certify_far, gen_er_graph

    entries, seed = [], 0
    while len(entries) < count:
        g = gen_er_graph(8, Fraction(3, 5), seed=seed)
        seed += 1
        cert = certify_far(g, Fraction(1, 64), rho=Fraction(1, 2))
        if cert is not None:
            entries.append((f"g{seed}", serialize.graph_to_dict(g),
                            serialize.certificate_to_dict(cert)))
    return entries


def test_certificate_bound_to_another_instance_is_usage_error(tmp_path, triangle_csp,
                                                              capsys):
    from fractions import Fraction

    from container_bench import certify_far, gen_random_csp

    # A certificate copied beside another instance, its epsilon weakened.
    tri_cert = serialize.certificate_to_dict(certify_far(triangle_csp, Fraction(1, 3)))
    other_csp = gen_random_csp(4, 2, 2, Fraction(1), Fraction(1, 2), 1)
    csps = make_corpus(tmp_path / "sat", [
        ("copied-csp", serialize.csp_to_dict(other_csp),
         {**tri_cert, "epsilon": "1/100"})])
    (_a, graph_a, _cert_a), (_b, _graph_b, cert_b) = _far_graph_entries(2)
    graphs = make_corpus(tmp_path / "star", [
        ("copied-graph", graph_a, {**cert_b, "epsilon": "1/100"})])
    capsys.readouterr()
    for argv, name in ((["gcl-sat", "--corpus", str(csps), "--workers", "1"], "copied-csp"),
                       (["gcl-star", "--corpus", str(graphs), "--workers", "1"], "copied-graph"),
                       (["shrinking", "--corpus", str(graphs)], "copied-graph")):
        assert run_cli("verify", *argv, "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert name in err and "instance_hash" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()


def test_verify_shrinking_runs_the_oracle_once_per_entry(tmp_path, monkeypatch):
    from container_bench import cli

    calls = []

    def counting(graph, rho, *rest):
        calls.append(graph)
        return distance_to_rho_is(graph, rho, *rest)

    distance_to_rho_is = cli.distance_to_rho_is
    monkeypatch.setattr(cli, "distance_to_rho_is", counting)
    corpus = make_corpus(tmp_path, _far_graph_entries(3))
    # 3 entries x at most 8 samples per visit: 200 samples take many passes.
    assert run_cli("verify", "shrinking", "--corpus", str(corpus),
                   "--samples", "200", "--seed", "5",
                   "--out", str(tmp_path / "sh.json")) == 0
    assert read_json(tmp_path / "sh.json")["samples"] == 200
    assert len(calls) == 3
    assert len({serialize.canonical_dumps(serialize.graph_to_dict(g))
                for g in calls}) == 3


def test_wrong_shape_json_is_usage_error(tmp_path, triangle_csp, capsys):
    from fractions import Fraction

    from container_bench import certify_far

    csp_dict = serialize.csp_to_dict(triangle_csp)
    cert = serialize.certificate_to_dict(certify_far(triangle_csp, Fraction(1, 3)))
    listed_cert = make_corpus(tmp_path / "cert", [("tri", csp_dict, cert)])
    (listed_cert / "tri" / "certificate.json").write_text("[1, 2]\n")
    listed_inst = make_corpus(tmp_path / "inst", [("tri", csp_dict, cert)])
    (listed_inst / "tri" / "instance.json").write_text("[1]\n")
    string_constraints = tmp_path / "bad.json"
    string_constraints.write_text(json.dumps({**csp_dict, "constraints": "x"}))
    number_epsilon = make_corpus(tmp_path / "eps", [("tri", csp_dict, {**cert, "epsilon": 5})])
    capsys.readouterr()
    for argv, named in (
            (["verify", "gcl-sat", "--corpus", str(number_epsilon), "--workers", "1"],
             "p/q"),
            (["verify", "gcl-sat", "--corpus", str(listed_cert), "--workers", "1"],
             "certificate.json"),
            (["verify", "closure", "--corpus", str(listed_inst)], "instance.json"),
            (["certify", "--csp", str(string_constraints), "--epsilon", "1/3"],
             "constraints")):
        assert run_cli(*argv, "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("field, value", [
    ("n", "3"), ("n", True), ("k", 2.0), ("constraints", {}),
    ("constraints", ["x"]), ("scope", "01"), ("scope", [0, "1"]),
    ("falsifying", [0, 0]), ("falsifying", [[0, 0.5]]),
])
def test_csp_from_dict_rejects_wrong_field_types(triangle_csp, field, value):
    data = serialize.csp_to_dict(triangle_csp)
    if field in ("scope", "falsifying"):
        data["constraints"][0][field] = value
    else:
        data[field] = value
    with pytest.raises(ValueError):
        serialize.csp_from_dict(data)


@pytest.mark.parametrize("field, value", [
    ("n", None), ("n", False), ("edges", "01"), ("edges", [0, 1]),
    ("edges", [[0, "1"]]), ("n", 2**16 + 1),
])
def test_graph_from_dict_rejects_wrong_field_types(k4, field, value):
    data = {**serialize.graph_to_dict(k4), field: value}
    with pytest.raises(ValueError):
        serialize.graph_from_dict(data)


@pytest.mark.parametrize("field, value", [
    ("params", [1]), ("params", "rho=1/2"), ("achieved", 5), ("epsilon", None),
    ("min_edits", "3"), ("witness", 7), ("kind", 1), ("instance_hash", []),
])
def test_malformed_certificate_field_is_usage_error(tmp_path, capsys, field, value):
    (name, graph, cert), = _far_graph_entries(1)
    corpus = make_corpus(tmp_path, [(name, graph, {**cert, field: value})])
    capsys.readouterr()
    for argv in (["gcl-star", "--corpus", str(corpus), "--workers", "1"],
                 ["shrinking", "--corpus", str(corpus), "--samples", "10"]):
        assert run_cli("verify", *argv, "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err and field in err
        assert not (tmp_path / "r.json").exists()


def test_certificate_of_the_wrong_kind_is_usage_error(tmp_path, triangle_csp, capsys):
    from fractions import Fraction

    from container_bench import certify_far

    csps = make_corpus(tmp_path / "sat", [
        ("a-csp", serialize.csp_to_dict(triangle_csp),
         serialize.certificate_to_dict(certify_far(triangle_csp, Fraction(1, 3))))])
    graphs = make_corpus(tmp_path / "star", _far_graph_entries(1))
    graph_name = next(graphs.iterdir()).name
    capsys.readouterr()
    for argv, name in (
            (["gcl-sat", "--corpus", str(graphs), "--workers", "1"], graph_name),
            (["gcl-star", "--corpus", str(csps), "--workers", "1"], "a-csp"),
            (["shrinking", "--corpus", str(csps)], "a-csp")):
        assert run_cli("verify", *argv, "--out", str(tmp_path / "r.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err and "kind" in err
        assert not (tmp_path / "r.json").exists()


def _trace_dicts(triangle_csp) -> dict:
    """A star trace whose last iteration has no v, and a hypergraph trace."""
    from container_bench import Graph, build_hypergraph, run_generator, run_star_generator

    star = run_star_generator(Graph.from_edges(5, [(0, 1), (1, 2)]), (0, 2, 4))
    assert star.iterations[-1].v is None
    sat = run_generator(build_hypergraph(triangle_csp), 3, (0, 3))
    return {"star": serialize.star_trace_to_dict(star),
            "sat": serialize.container_trace_to_dict(sat)}


def test_well_formed_traces_replay_clean(tmp_path, triangle_csp):
    for kind, trace in _trace_dicts(triangle_csp).items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(trace))
        assert run_cli("verify", "closure", "--trace", str(path),
                       "--out", str(tmp_path / "r.json")) == 0


@pytest.mark.parametrize("kind, field, value", [
    ("star", "iterations", [1]), ("star", "iterations", {}),
    ("star", "independent_set", 5), ("star", "graph", [1]),
    ("star", "inner", ["a"]), ("star", "outer", [0.5]), ("star", "fingerprint", 5),
    ("star", "t", "1"), ("star", "u", True), ("star", "v", "2"),
    ("sat", "iterations", [1]), ("sat", "independent_set", 5),
    ("sat", "hypergraph", [1]), ("sat", "n_bound", "3"), ("sat", "deg_mode", 1),
    ("sat", "container", ["a"]), ("sat", "selected", [0.5]), ("sat", "t", "1"),
    ("sat", "degenerate", 0), ("sat", "levels", [1]), ("sat", "exclusions", "x"),
    ("sat", "deg_mode", "greedy"),
])
def test_malformed_trace_field_is_usage_error(tmp_path, capsys, triangle_csp,
                                              kind, field, value):
    trace = _trace_dicts(triangle_csp)[kind]
    (trace if field in trace else trace["iterations"][0])[field] = value
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    capsys.readouterr()
    assert run_cli("verify", "closure", "--trace", str(path),
                   "--out", str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("spec", [
    {"k": 2, "lower": 5, "upper": [[1, 1], [1, 1]]},
    {"k": "2", "lower": [[0, 0], [0, 0]], "upper": [[1, 1], [1, 1]]},
    {"k": True, "lower": [[0]], "upper": [[1]]},
    {"k": 2, "lower": [[0, 0], 5], "upper": [[1, 1], [1, 1]]},
    {"k": 2, "lower": [[0, 0], [0, 0]], "upper": [[1, True], [True, 1]]},
    {"k": 2, "lower": [[0, 0], [0, 0]], "upper": {"0": [1, 1]}},
])
def test_malformed_shpp_spec_is_usage_error(tmp_path, k4_file, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    capsys.readouterr()
    for argv in (["test", "shpp", "--out", str(tmp_path / "r.csv")],
                 ["estimate", "shpp", "--trials", "2", "--out", str(tmp_path / "r")]):
        assert run_cli(*argv, "--graph", str(k4_file), "--spec", str(spec_path),
                       "--epsilon", "1/4", "--s", "4", "--seed", "3") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "spec" in err
    assert not list(tmp_path.glob("r.*"))


def test_serial_gcl_star_frees_each_graph_before_the_next(tmp_path, monkeypatch):
    import gc
    import weakref

    from container_bench import cli, containers_star

    checked, alive_at_check = [], []

    def recording_distance(graph, rho):
        gc.collect()
        alive_at_check.append(sum(ref() is not None for ref in checked))
        checked.append(weakref.ref(graph))
        return distance_to_rho_is(graph, rho)

    distance_to_rho_is = cli.distance_to_rho_is
    monkeypatch.setattr(cli, "distance_to_rho_is", recording_distance)
    memos = []
    run_star_generator = containers_star.run_star_generator

    def recording_generator(graph, iset):
        trace = run_star_generator(graph, iset)
        memos.append(bool(graph.__dict__.get("_memo")))
        return trace

    monkeypatch.setattr(containers_star, "run_star_generator", recording_generator)
    corpus = make_corpus(tmp_path, _far_graph_entries(3))
    assert run_cli("verify", "gcl-star", "--corpus", str(corpus), "--workers", "1",
                   "--out", str(tmp_path / "r.json")) == 0
    assert memos and all(memos)
    assert len(checked) == 3
    # Each entry's graph (and the trace memo on it) is gone before the next
    # entry is checked: a serial sweep holds one entry at a time.
    assert alive_at_check == [0, 0, 0]


def test_certify_far_er_graph_at_22_vertices(tmp_path):
    from fractions import Fraction

    from container_bench import gen_er_graph
    from container_bench.core import mask_of

    graph = gen_er_graph(22, Fraction(7, 10), seed=1)
    path = tmp_path / "g22.json"
    path.write_text(serialize.canonical_dumps(serialize.graph_to_dict(graph)))
    out = tmp_path / "cert.json"
    assert run_cli("certify", "--graph", str(path), "--rho", "1/2",
                   "--epsilon", "1/64", "--out", str(out)) == 0
    cert = read_json(out)
    assert cert["far"] is True and len(cert["witness"]) == 11
    assert cert["min_edits"] >= 1
    assert cert["min_edits"] == graph.edges_inside(mask_of(cert["witness"]))


# ------------------------------------------------------- graph-reading fuzz

_FUZZ_GRAPH = {"n": 6, "edges": [[0, 1], [0, 2], [1, 2], [2, 3], [3, 4], [4, 5]]}
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                          st.floats(allow_nan=False), st.text(max_size=4))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_vertex_counts = st.one_of(st.integers(-4, 24), st.integers(2**16, 2**80), _json_values)
_edges = st.one_of(
    st.integers(-2, 7).map(lambda v: [v, v]),  # self-loop
    st.lists(st.integers(-2, 30), max_size=4),  # short, long or out of range
    st.sampled_from(_FUZZ_GRAPH["edges"]),  # duplicate
    _json_values)


@st.composite
def _graph_documents(draw) -> str:
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(_json_values))
    doc = dict(_FUZZ_GRAPH)
    if draw(st.booleans()):
        doc["n"] = draw(_vertex_counts)
    if draw(st.booleans()):
        doc["edges"] = doc["edges"] + draw(st.lists(_edges, max_size=3))
    elif draw(st.booleans()):
        doc["edges"] = draw(st.one_of(st.lists(_edges, max_size=6), _json_values))
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=2)):
        del doc[key]
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


_rationals = st.one_of(
    st.builds("{}/{}".format, st.integers(-2, 9), st.integers(-1, 9)),
    st.sampled_from(["1/2", "1/64", "1", "0", "3/2", "0.5", "1e-3", "", "1/0",
                     " 1/3 ", "1//2", "1/" + "9" * 40, "9" * 5000]),
    st.text(max_size=6))


@settings(max_examples=200, deadline=None)
@given(verb=st.sampled_from(["certify", "dist-graph"]), document=_graph_documents(),
       rho=st.none() | _rationals, epsilon=st.none() | _rationals)
def test_graph_reading_verbs_exit_0_or_2_on_mutated_input(verb, document, rho, epsilon):
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(document)
        argv = [verb, "--graph", str(path)]
        argv += ["--rho", rho] if rho is not None else []
        argv += ["--epsilon", epsilon] if epsilon is not None else []
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    err = err.getvalue()
    assert code in (0, 2), (code, err)
    assert sum("error:" in line for line in err.splitlines()) <= 1, err
    assert "Traceback" not in err


# --------------------------------------------------------- tester-verb fuzz

_FUZZ_SPEC = {"k": 2, "lower": [[0, 0], [0, 0]], "upper": [[0, 1], [1, 0]]}
_FUZZ_CSP = {"n": 6, "k": 2, "q": 2, "constraints": [
    {"scope": [a, b], "falsifying": [[0, 0], [1, 1]]}
    for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5))]}
_FUZZ_HYPERGRAPH = {"q": 3, "n": 7, "labels": None,
                    "edges": [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 6], [2, 5, 6]]}
_matrices = st.lists(st.lists(st.integers(-1, 2), max_size=3), max_size=3)


@st.composite
def _spec_documents(draw) -> str:
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(_json_values))
    doc = dict(_FUZZ_SPEC)
    if draw(st.booleans()):
        doc["k"] = draw(st.one_of(st.integers(-2, 4), _json_values))
    for key in ("lower", "upper"):
        if draw(st.booleans()):
            doc[key] = draw(st.one_of(_matrices, _json_values))
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=2)):
        del doc[key]
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


def _mostly(good):
    """good values, and one time in five a mutated rational or a junk string."""
    bad = st.one_of(_rationals, st.sampled_from(["", "x", "1.5", "1e3", " 3", "-1"]))
    return st.integers(0, 4).flatmap(lambda i: bad if i == 4 else good)


def _fractions(num: int, den: int):
    return st.builds("{}/{}".format, st.integers(1, num), st.integers(1, den))


# Derived sample sizes take floats of these, so reach past the float range.
_powers_of_ten = st.integers(1, 400).map(lambda d: "1" + "0" * d)
_constants = st.one_of(_fractions(9, 9), _powers_of_ten)
_TESTER_OPTIONS = {
    "--epsilon": _mostly(st.one_of(st.integers(2, 64).map("1/{}".format),
                                   _powers_of_ten.map("1/{}".format))),
    "--rho": _mostly(st.sampled_from(["1/2", "1/3", "2/3", "1/4", "1"])),
    "--c": _mostly(_constants), "--c1": _mostly(_constants),
    "--c2": _mostly(_constants), "--s": _mostly(st.integers(0, 14).map(str)),
    "--r": _mostly(st.integers(0, 8).map(str)), "--k": _mostly(st.integers(0, 50).map(str)),
    "--trials": _mostly(st.integers(0, 20).map(str)),
    "--seed": _mostly(st.integers(0, 2**70).map(str)),
    "--disjoint-samples": st.just(None), "--format": st.sampled_from(["json", "csv"]),
}
_SAT_OPTIONS = ("--s", "--c", "--trials", "--format")
# Each kind's input files, its required options, then the optional ones.
_TESTER_ARGS = {
    "sat": (("--csp",), ("--epsilon",), _SAT_OPTIONS),
    "color": (("--hypergraph",), ("--epsilon", "--k"), _SAT_OPTIONS),
    "shpp": (("--graph", "--spec"), ("--epsilon",), _SAT_OPTIONS),
    "indepset": (("--graph",), ("--rho", "--epsilon"),
                 ("--s", "--r", "--c1", "--c2", "--disjoint-samples", "--trials",
                  "--format")),
    "canonical-is": (("--graph",), ("--rho",), ("--s", "--epsilon", "--trials",
                                                 "--format")),
}


@settings(max_examples=300, deadline=None)
@given(verb=st.sampled_from(["test", "estimate"]),
       kind=st.sampled_from(sorted(_TESTER_ARGS)), spec=_spec_documents(),
       data=st.data())
def test_tester_verbs_exit_0_or_2_on_mutated_input(verb, kind, spec, data):
    """Option values are drawn small (at most 20 trials, k at most 50), so
    each run stays short.  Each optional flag is left out one time in four."""
    import contextlib
    import io
    import tempfile

    inputs, required, optional = _TESTER_ARGS[kind]
    flags = [*required, "--seed",
             *(flag for flag in optional if data.draw(st.integers(0, 3)) < 3)]
    options = {flag: data.draw(_TESTER_OPTIONS[flag], label=flag) for flag in flags}
    with tempfile.TemporaryDirectory() as tmp:
        files = {"--csp": _FUZZ_CSP, "--hypergraph": _FUZZ_HYPERGRAPH,
                 "--graph": _FUZZ_GRAPH}
        argv = [verb, kind]
        for flag in inputs:
            path = Path(tmp) / flag.lstrip("-")
            path.write_text(spec if flag == "--spec" else json.dumps(files[flag]))
            argv += [flag, str(path)]
        for flag, value in options.items():
            argv.append(flag if value is None else f"{flag}={value}")
        argv += ["--workers", "1"] if verb == "estimate" else []
        argv += ["--out", str(Path(tmp) / "r")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    err = err.getvalue()
    assert code in (0, 2), (code, argv, err)
    assert sum("error:" in line for line in err.splitlines()) <= 1, err
    assert "Traceback" not in err
