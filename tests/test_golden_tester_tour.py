"""Golden test for the tester verbs.

Runs `test <kind>` (JSON and CSV) and `estimate <kind>` at `--workers 1` and
`--workers 2` for all five tester kinds, from fixed seeds in a fresh directory
with relative paths, and compares every artifact's sha256 with digests
recorded before the three reduction-to-satisfiability copies in the tester
dispatch were folded into one path.  The estimates run 16 trials, so
`--workers 2` takes the process-pool path; their CSVs must match the serial
ones byte for byte.  Artifacts echo their argv in "config", so the paths and
flags below are part of the recorded bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from container_bench.cli import main

# Bipartiteness: no edge inside a part, any pair across the parts.
SPEC = {"k": 2, "lower": [[0, 0], [0, 0]], "upper": [[0, 1], [1, 0]]}

TESTERS = {
    "sat": ["--csp", "csp.json", "--epsilon", "1/4", "--s", "5"],
    "color": ["--hypergraph", "h.json", "--k", "2", "--epsilon", "1/4", "--s", "8"],
    "shpp": ["--graph", "g.json", "--spec", "spec.json", "--epsilon", "1/4",
             "--s", "4"],
    "indepset": ["--graph", "g.json", "--rho", "1/2", "--epsilon", "1/4",
                 "--r", "4", "--s", "8"],
    "canonical-is": ["--graph", "g.json", "--rho", "1/2", "--s", "6"],
}

GOLDEN = {
    "csp.json": "ee0090e36466fa29dad0e36991c696fafc05a793f57d0e1d074e6f0349937980",
    "est-canonical-is-w1.csv": "12e4bcb01145d671f241920c466906a7feba570f572d0f4dac1b4c5bacc4001e",
    "est-canonical-is-w1.json": "15ad13c985a238ff08b3b56744c6e99da4a1afd0e0dbd0a634543fb4fcd41cca",
    "est-canonical-is-w2.csv": "12e4bcb01145d671f241920c466906a7feba570f572d0f4dac1b4c5bacc4001e",
    "est-canonical-is-w2.json": "c9a3feeb250c1e108774ad6f9a7e39ee1e046022ffd10dd2ccfa17d4573b4285",
    "est-color-w1.csv": "88dfe80c3c40aa3ec46a08c83d661893fbc17f5b0dd64eea7812c51bd3601ec7",
    "est-color-w1.json": "96798beb36aba3e77e09d0d47c3fb8ee34083f0c0a50ba52e4487105ec0411f4",
    "est-color-w2.csv": "88dfe80c3c40aa3ec46a08c83d661893fbc17f5b0dd64eea7812c51bd3601ec7",
    "est-color-w2.json": "233fda83128b22b8909b3c721b35e5ee5d17d3987f5de013d85d1b4fcd492489",
    "est-indepset-w1.csv": "4dd448132c7bece511c7426f330bf70b7e28158e36755badba94aa8cb199c64c",
    "est-indepset-w1.json": "49320fd6539aecaa5b40dd3ebf795ca7e33f69dcb3639bd53571a525f6abab5b",
    "est-indepset-w2.csv": "4dd448132c7bece511c7426f330bf70b7e28158e36755badba94aa8cb199c64c",
    "est-indepset-w2.json": "c5aac58bdc35ffbad802e0c95c160b4b3f8720818b5afe2ecf1dd0c2c6f424a7",
    "est-sat-w1.csv": "3cf2b94de97d86810f7c64b125c6aabfab480d1968438f204d1484c50c133071",
    "est-sat-w1.json": "26c463edc4730271f0bebb63c989454f4ffb824aa126206b2b25df676b0f8e83",
    "est-sat-w2.csv": "3cf2b94de97d86810f7c64b125c6aabfab480d1968438f204d1484c50c133071",
    "est-sat-w2.json": "836783c7eac301e372b43ec6aea0285a2cf52959dfca750050e58c07f777d450",
    "est-shpp-w1.csv": "4052068369f6aa3f96ac21698c8c99a732eea07776df679b3e7419f447512b23",
    "est-shpp-w1.json": "f5f9379c0275a2426d3705cfc00e72379fd8b40272c54ea55672bc40e14b46d8",
    "est-shpp-w2.csv": "4052068369f6aa3f96ac21698c8c99a732eea07776df679b3e7419f447512b23",
    "est-shpp-w2.json": "4d047ddb234e8eddc731249a73fedce0674e89de7bb2731e7eb95a6e1c013d3f",
    "g.json": "71beaadab7141ab8e63778510170b54f7f4243de22753a090a88ff89a7368b81",
    "h.json": "ee00cd61798a50ffb1317b85c3bef337e9c5278804f6bcf2247cf6772c8e9819",
    "spec.json": "c4b006e45236c1d3381fef169bf8facfb16cdc559eb039225bdb10bfdd9ae9be",
    "test-canonical-is.csv": "13d347e20fafbfaf0eccde47c0df5e3c13c2cde1c699ac7d477d92a9a7631ed0",
    "test-canonical-is.json": "427c0243c581e7e27d4c4c96c27f5fd1ce3eabb5a1362cf24de5dbe712c7439c",
    "test-color.csv": "967fe812678c1fc8319de8cd18c1efd3ef67c30b7c99da71350c37800881684b",
    "test-color.json": "d4f35b9304f5d868f092302a7877b02caa5eb82d5eefba4b52b3384fa603ad9c",
    "test-indepset.csv": "02087c61460ab669ab1232d7b7e1bad00e771bf377a5e9f7d1c9b0e217ccdfa3",
    "test-indepset.json": "8e8f008eb66159d4c361b247572915ef4daed3254ca1b290bce13d0014167a51",
    "test-sat.csv": "0cd7d403d19b6ff3f0137561fc50b480811d72044f0e1c2e46df23fecbe84a4d",
    "test-sat.json": "a5f454640fecbac5728a4e2159b0572933d6b637bd698ea3f35267d40b7c60c7",
    "test-shpp.csv": "7b537692637be6fda336459baccc58743c8f84e7371f2517ba4beff726d2b421",
    "test-shpp.json": "dd2f3eb5ed9f746ef427315adce2142e5dcac106e43f5b8e7b5f3a229d60789a",
}


def _run(*argv: str) -> None:
    assert main(list(argv)) == 0, argv


def run_tester_tour() -> dict[str, str]:
    """Run the tour in the current directory; returns path -> sha256."""
    _run("gen-csp", "--n", "8", "--k", "2", "--q", "2", "--seed", "3",
         "--out", "csp.json")
    _run("build-hypergraph", "--csp", "csp.json", "--out", "h.json")
    _run("gen-graph", "--n", "12", "--seed", "5", "--out", "g.json")
    Path("spec.json").write_text(json.dumps(SPEC))
    for kind, argv in TESTERS.items():
        for fmt in ("json", "csv"):
            _run("test", kind, *argv, "--seed", "11", "--trials", "6",
                 "--format", fmt, "--out", f"test-{kind}.{fmt}")
        for workers in ("1", "2"):
            _run("estimate", kind, *argv, "--seed", "11", "--trials", "16",
                 "--workers", workers, "--out", f"est-{kind}-w{workers}")
    paths = sorted(p for p in Path(".").rglob("*") if p.is_file())
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def test_tester_tour_artifacts_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CONTAINER_BENCH_WORKERS", raising=False)
    monkeypatch.chdir(tmp_path)
    digests = run_tester_tour()
    for kind in TESTERS:
        assert digests[f"est-{kind}-w1.csv"] == digests[f"est-{kind}-w2.csv"]
    assert digests == GOLDEN
