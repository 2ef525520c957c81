"""Golden test for the SAT half of the README command-line tour.

Runs the tour's SAT verbs (gen-csp, dist-csp, certify, build-hypergraph,
containers-sat in JSON and CSV, verify gcl-sat / closure / container-degree
on a small certified corpus, and verify closure --trace on a recorded
containers-sat trace) in a fresh directory with relative paths, and compares
every artifact's sha256 with digests recorded before the verify verbs were
collapsed into one corpus-sweep loop.  sat.json's digest was re-recorded when
containers-sat lost its --deg-mode flag: its config no longer echoes
"deg_mode", and nothing else in it changed.  verify edges-bound (on h.json
and on random hypergraphs) and gen-csp --planted were added, with digests
recorded, before the CLI's parser became one verb table; their configs echo
options (--random, --ell, --max-vertices, --density) that nothing else pins.
Artifacts echo their argv in "config", so the paths and flags below are part
of the recorded bytes; --workers is explicit for the same reason.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from container_bench import serialize
from container_bench.cli import main

# CSPs (n=5, k=2, q=2, default densities) certified far at epsilon = 1/10.
CORPUS_SEEDS = (1, 8, 2)

GOLDEN = {
    "cert.json": "37c253dd1f62c80eabd55d76dda3b56503e13020ff6800d16a77b3cf048831ff",
    "closure.json": "a31553236f9ba2ca868908c8db2282043ee52ac9173aca8c6261a922f883134a",
    "container-degree.json": "e8456160e950cb4af752bf4b532b9f69264318c1a0d8b972b8a28efb93ac86af",
    "corpus/c1/certificate.json": "770dbb4eab7904d526b7af335fc773fa3b97efe7d03c7f871ee48e7283d7d25c",
    "corpus/c1/instance.json": "46bab42e292b0fece64c4f9029713555ed625ee31a6f407f2611cabb012b06a0",
    "corpus/c2/certificate.json": "8ec0fd45cd9d73346efe4eebbe8e4cc12b3de63d58d15a10ae71b919f64bd44a",
    "corpus/c2/instance.json": "2ad869f970641b1fd27929f47dd005f766a3290ee945baa27639e73ebe34bd32",
    "corpus/c8/certificate.json": "b3e88f69d5cc297765612415ee8c63e1852e7d122750341117139b27563880b4",
    "corpus/c8/instance.json": "f5d3f1f5a0323af3cb72bf3210e626b9e57aec371f92440221ecd3fe86227617",
    "csp.json": "5f53f2fe93c272d9322fe9dc22dc9acf20ebc75c6398575a2cf7987187ef1849",
    "dist.json": "fc4a10028eac4a83f188ea7c141d9b215f3acfb9a500786b5087414ce38fe7e5",
    "edges-h.json": "36671ca4357a8082637e1d68c71620e7a0b568853d5f7684ee66e1d647c7f670",
    "edges-random.json": "9703cb432678dc1ab7eae3ca5a2e29a03d360536b65bcd4418b3e579ca681006",
    "gcl-sat.json": "c21d89882ebbb2aaa7f797e30167de7372fe137ee764495f9268b4bc8d45aaf6",
    "h.json": "b17df040766c897d4471a68379e6f082a4a4b1a302eadd83ba32e41ca514d04d",
    "planted.json": "131a715e7abf58b338210e822b6fbb3a51c1ef190956af7b9267443fae0c3bff",
    "replay.json": "5af6e15d9711f7469b438c745ad2eaf48b5bb367adfbf4e18ded9640a9ea6c2a",
    "sat-all.csv": "a1ec8c7b9620011bdb1088f152f9e5763199aabed23c96f68ac6989a263b73f5",
    "sat.csv": "c8dc7f17091291b43fef3f25d2814fb7caee33bfcd29e298942c20dec7a3b86d",
    "sat.json": "1343f27a80f29cdafa608f8a22f2a93f1b76423e4ec3fe70bd40e73457a5db64",
    "trace.json": "edfd39e738867fc608859282e4d7fc93a9cad1c51b0c7d9e5ed8dfaaee55ddb6",
}


def _run(*argv: str) -> None:
    assert main(list(argv)) == 0, argv


def run_sat_tour() -> dict[str, str]:
    """Run the tour in the current directory; returns path -> sha256."""
    _run("gen-csp", "--n", "6", "--k", "2", "--q", "2", "--seed", "7",
         "--out", "csp.json")
    _run("dist-csp", "--csp", "csp.json", "--epsilon", "1/3", "--out", "dist.json")
    _run("certify", "--csp", "csp.json", "--epsilon", "1/15", "--out", "cert.json")
    _run("build-hypergraph", "--csp", "csp.json", "--out", "h.json")
    _run("verify", "edges-bound", "--hypergraph", "h.json", "--out", "edges-h.json")
    _run("verify", "edges-bound", "--random", "20", "--seed", "3", "--ell", "2,3",
         "--max-vertices", "8", "--out", "edges-random.json")
    _run("gen-csp", "--planted", "--n", "6", "--k", "2", "--q", "2", "--density", "2/3",
         "--seed", "4", "--out", "planted.json")
    _run("containers-sat", "--csp", "csp.json", "--independent-set", "0,3",
         "--format", "csv", "--out", "sat.csv")
    _run("containers-sat", "--csp", "csp.json", "--all-independent-sets",
         "--variable-distinct", "--format", "csv", "--out", "sat-all.csv")
    _run("containers-sat", "--csp", "csp.json", "--independent-set", "0,3",
         "--out", "sat.json")
    trace = json.loads(Path("sat.json").read_text())["traces"][0]
    Path("trace.json").write_text(serialize.canonical_dumps(trace))
    _run("verify", "closure", "--trace", "trace.json", "--out", "replay.json")
    for seed in CORPUS_SEEDS:
        entry = Path("corpus") / f"c{seed}"
        entry.mkdir(parents=True)
        _run("gen-csp", "--n", "5", "--k", "2", "--q", "2", "--seed", str(seed),
             "--out", str(entry / "instance.json"))
        _run("certify", "--csp", str(entry / "instance.json"), "--epsilon", "1/10",
             "--out", str(entry / "certificate.json"))
    _run("verify", "gcl-sat", "--corpus", "corpus", "--workers", "1",
         "--out", "gcl-sat.json")
    _run("verify", "closure", "--corpus", "corpus", "--out", "closure.json")
    _run("verify", "container-degree", "--corpus", "corpus",
         "--out", "container-degree.json")
    paths = sorted(p for p in Path(".").rglob("*") if p.is_file())
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def test_sat_tour_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("CONTAINER_BENCH_WORKERS", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_sat_tour() == GOLDEN
