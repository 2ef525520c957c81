"""Golden test for the star half of the README command-line tour.

Runs the tour's star verbs (gen-graph, dist-graph, certify, containers-star,
and verify gcl-star / closure / shrinking on a small certified corpus) in a
fresh directory with relative paths, and compares every artifact's sha256
with digests recorded before the star verifiers were rewritten.  verify
closure --trace on a recorded star trace and gen-graph --planted were added,
with digests recorded, before the CLI's parser became one verb table.
Artifacts echo their argv in "config", so the paths and flags below are part
of the recorded bytes; --workers is explicit for the same reason.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from container_bench import serialize
from container_bench.cli import main

# Graphs certified far at rho = 1/2, epsilon = 1/64 for the verifier corpus.
CORPUS_SEEDS = (9, 1, 4)

GOLDEN = {
    "cert.json": "f4d20f69cf517218e44da9a55cba46559000243b2551e2edc858ed2089f85b25",
    "closure.json": "589dc653443f4386ef90de530c99296fe3cc381896aee50a73321f68fc8d228f",
    "corpus/g1/certificate.json": "125c337a9a155bc42f313356948cba49225a0ceaa0934ad0c4ce6a00d34505c9",
    "corpus/g1/instance.json": "8b39805735dc9abf447769d80db202ed48d89ffea8468856df6d1f7de0dd2076",
    "corpus/g4/certificate.json": "5ae8883c338bce0e8fe21e51d8594711eecd0565d21a2f2304d44103d9a3aaaa",
    "corpus/g4/instance.json": "f45a08aa73d11a1215f3543bd2e77252a55cc1ccf0ed83edf9d7cba20ef3b6e5",
    "corpus/g9/certificate.json": "e1f7c40ed787aa652e48419c3a8e4e6c9f7e5d2440446b0d589684a649576ce3",
    "corpus/g9/instance.json": "a5900fe5615095c39a736cb5b4bef20fda47258559df5cc882a64f8b4e5b4f15",
    "dist.json": "a8423e82ce45e50c46e732e598094101ce4c1cb1ef5f949cd6c494f9eab27873",
    "g.json": "fa9248310e1dda3409920f6be83c0fe813f6faad935cc98116a6ee9d349822e0",
    "gcl-star.json": "86fd79972df037d0baf93a0728a3759db0d857213f85a05484d7fa8be47f177e",
    "planted.json": "dfc1427b37bb9def7626ff6e8d5874358f68ec4411aed57fe787bf8f2732fe59",
    "shrinking.json": "5704255bdf65a64e429be259c9e2a0e2fe2e817572a71015fa97e21ac1b9cfa6",
    "star-replay.json": "22cb938ec27c8101ee1f06af53da07d8963524b29df7fd9b911b5954d3d7ab53",
    "star-trace.json": "cc83f3e0dbf283e5efab737ee1973c17d85289c0987a4cddc52bac13538e8c85",
    "star.csv": "40317e7e3cf5a0efa8c808f435e482f37c866dc824e938adbf992f0a3555f8ce",
    "star.json": "0a51f1ce7360314100d8de9afb0559f15e3e55c67c5202feda321ef5b9abd911",
}


def _run(*argv: str) -> None:
    assert main(list(argv)) == 0, argv


def run_star_tour() -> dict[str, str]:
    """Run the tour in the current directory; returns path -> sha256."""
    _run("gen-graph", "--n", "12", "--p", "3/5", "--seed", "9", "--out", "g.json")
    _run("dist-graph", "--graph", "g.json", "--rho", "1/2", "--epsilon", "1/64",
         "--out", "dist.json")
    _run("certify", "--graph", "g.json", "--rho", "1/2", "--epsilon", "1/64",
         "--out", "cert.json")
    _run("containers-star", "--graph", "g.json", "--all-independent-sets",
         "--format", "csv", "--out", "star.csv")
    _run("containers-star", "--graph", "g.json", "--all-independent-sets",
         "--out", "star.json")
    trace = json.loads(Path("star.json").read_text())["traces"][-1]
    Path("star-trace.json").write_text(serialize.canonical_dumps(trace))
    _run("verify", "closure", "--trace", "star-trace.json", "--out", "star-replay.json")
    _run("gen-graph", "--planted", "--n", "12", "--rho", "1/2", "--p", "3/5",
         "--seed", "2", "--out", "planted.json")
    for seed in CORPUS_SEEDS:
        entry = Path("corpus") / f"g{seed}"
        entry.mkdir(parents=True)
        _run("gen-graph", "--n", "12", "--p", "3/5", "--seed", str(seed),
             "--out", str(entry / "instance.json"))
        _run("certify", "--graph", str(entry / "instance.json"), "--rho", "1/2",
             "--epsilon", "1/64", "--out", str(entry / "certificate.json"))
    _run("verify", "gcl-star", "--corpus", "corpus", "--workers", "1",
         "--out", "gcl-star.json")
    _run("verify", "closure", "--corpus", "corpus", "--out", "closure.json")
    _run("verify", "shrinking", "--corpus", "corpus", "--samples", "300",
         "--seed", "5", "--out", "shrinking.json")
    paths = sorted(p for p in Path(".").rglob("*") if p.is_file())
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def test_star_tour_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("CONTAINER_BENCH_WORKERS", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_star_tour() == GOLDEN
