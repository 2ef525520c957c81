"""Quick self-test of the benchmark harness.

    python3 bench/selftest.py [WORKLOAD ...]

Asserts that run.py emits every metric named in BENCHMARK.json with its unit,
in both modes, and that nothing fails on the default seed; that the traced
star-verify run shows distance_to_rho_is recomputed beyond the corpus size;
that a corrupted expected digest is counted as a failed call, not ignored;
and that the benchmark refuses to run where there is no program source.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import worker  # noqa: E402  (needs the paths above)
from workloads import STAR_PER_RECIPE, STAR_RECIPES  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(_config()["default_seed"]), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _config() -> dict:
    return json.loads((BENCH / "config.json").read_text())


def check_metrics(spec: dict, workloads: list[str]) -> None:
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["failed"] == 0 and result["correct"], (workload, proc.stderr)
            assert result["failed"] / result["attempted"] == 0  # failed_ratio
            emitted = result["metrics"]
            for metric in spec[key]:
                got = emitted.get(metric["name"])
                assert got is not None, (workload, metric["name"])
                assert got["unit"] == metric["unit"], (workload, metric, got)
                assert isinstance(got["value"], (int, float)), (workload, metric, got)
            if trace and workload == "star-verify":
                calls = emitted["containers_star.distance_to_rho_is.calls"]["value"]
                assert calls > len(STAR_RECIPES) * STAR_PER_RECIPE, calls
            print(f"ok: {workload} --trace {trace}: {len(emitted)} metrics, "
                  f"{result['attempted']} calls, 0 failed")


def check_corrupted_digest() -> None:
    config = _config()
    try:
        cli = worker._import_program()
        calls = worker.prepare("certify", config["default_seed"])
        codes = worker.run_pass(cli, calls)["codes"]
        digests = dict(config["digests"]["certify"])
        assert worker.check_pass(calls, codes, digests)[1] == 0
        path = calls[-1].outputs[0]
        digests[path] = ("0" if digests[path][0] != "0" else "1") + digests[path][1:]
        _, failed, messages = worker.check_pass(calls, codes, digests)
    finally:
        worker.os.chdir(ROOT)
    assert failed == 1 and "digest" in messages[0], messages
    print("ok: a corrupted expected digest counts as one failed call")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("certify", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"ok: without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    check_metrics(spec, workloads)
    check_corrupted_digest()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
