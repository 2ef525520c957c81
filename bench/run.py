"""Benchmark entry point: one workload, measured end to end or traced.

    python3 bench/run.py --workload sat-verify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and needs nothing built: the program
is imported from src/.  Each workload runs in fresh Python processes (see
worker.py), with CONTAINER_BENCH_WORKERS removed from their environment and
`--workers 1` on every verb that takes it.

--trace 0 prints the end-to-end metrics: the medians over the run's passes of
wall_s, cpu_s and verdicts_per_s, the worker's peak RSS, and setup_s, the
median over several fresh processes of the time from process start to the
first timed verb call.  --trace 1 prints the per-layer metrics of tracing.py,
from traced passes that follow untraced ones in the same process, plus the
tracing overhead and self-time coverage.

Before the last line it prints the environment and every metric with its
unit; the last line is the JSON result.  Artifacts, spans and a full report
(result.json) are left under .bench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
TIMEOUT_S = 170  # for all of a run's worker processes together


def _load_config() -> dict:
    return json.loads((BENCH / "config.json").read_text())


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CONTAINER_BENCH_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, deadline: float, *extra: str) -> tuple[float, dict]:
    """Start a worker process; returns (seconds to its first verb, result)."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    started = time.monotonic()
    proc = subprocess.run(argv, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - started), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def _loadavg() -> list[float]:
    try:
        return list(os.getloadavg())
    except OSError:
        return []


def _end_to_end(result: dict, setups: list[float]) -> dict:
    passes = result["passes"]
    return {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "verdicts_per_s": (statistics.median(p["verdicts"] / p["wall"] for p in passes), "1/s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (result["maxrss_kib"] / 1024, "MiB"),
    }


def _per_layer(result: dict) -> dict:
    from tracing import COUNTS, NAMES

    passes = result["passes"]
    layers = {}
    for name in NAMES:
        layers[f"{name}.calls"] = "count"
        layers[f"{name}.self_s"] = "s"
    layers.update(COUNTS)
    metrics = {key: (statistics.median_low(p["layers"][key] for p in passes), unit)
               for key, unit in layers.items()}
    traced_wall = statistics.median(p["wall"] for p in passes)
    self_total = statistics.median(
        sum(p["layers"][f"{name}.self_s"] for name in NAMES) / p["wall"] for p in passes)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - result["untraced_wall"], "s")
    metrics["trace.coverage"] = (self_total, "ratio")
    return metrics


def main() -> int:
    config = _load_config()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "container_bench" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = os.cpu_count() or 1
    env = {"python": platform.python_version(), "nproc": nproc, **_git_state(),
           "loadavg_start": _loadavg()}
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_run_worker(args, deadline, "--setup-only")[0])
        setup, result = _run_worker(args, deadline)
        setups.append(setup)
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    env["numpy"] = result["numpy"]
    env["loadavg_end"] = _loadavg()
    env["overloaded"] = any(load[0] > nproc for load in
                            (env["loadavg_start"], env["loadavg_end"]) if load)
    if env["overloaded"]:
        print(f"warning: load average above nproc={nproc}; figures are suspect",
              file=sys.stderr)
    for message in result["messages"]:
        print(f"check failed: {message}", file=sys.stderr)

    metrics = _per_layer(result) if args.trace else _end_to_end(result, setups)
    failed_ratio = result["failed"] / result["attempted"]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "pass_walls_s": [p["wall"] for p in result["passes"]],
              "setups_s": setups, "attempted": result["attempted"],
              "failed": result["failed"], "failed_ratio": failed_ratio,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.trace:
        report["bindings_patched"] = result["bindings_patched"]
        report["not_traced"] = result["not_traced"]
    (ROOT / ".bench_work" / args.workload / "result.json").write_text(
        json.dumps(report, indent=2) + "\n")

    print(json.dumps({"env": env}))
    print(f"{args.workload} seed={args.seed}: {len(result['passes'])} passes, "
          f"{result['attempted']} verb calls, failed_ratio {failed_ratio:.4f} ratio")
    for key, (value, unit) in metrics.items():
        print(f"  {key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
