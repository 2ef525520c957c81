"""One workload in one fresh process: set up, time the verb list, check.

Started by run.py with the checkout's src/ on PYTHONPATH; prints one JSON
line with what it measured.  Not meant to be run by hand.

The load is a closed loop with one client: each verb call starts when the
previous one has returned.  Before every call the program's memo caches are
emptied and the garbage collector is run, outside the timed region, so each
call starts the way a fresh CLI process would; then the whole verb list (one
pass) is timed, and passes repeat until the run's time is up.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, load_outputs, sha256_of

ROOT = Path(__file__).resolve().parent.parent
CONFIG = Path(__file__).resolve().parent / "config.json"
MIN_PASSES = 3
# Share of a traced run's time spent on untraced passes, which give the
# baseline the tracing overhead is measured against.
UNTRACED_SHARE = 1 / 3


def _import_program():
    import container_bench
    from container_bench import cli

    src = (ROOT / "src").resolve()
    if src not in Path(container_bench.__file__).resolve().parents:
        raise ImportError(f"container_bench was imported from "
                          f"{container_bench.__file__}, not from {src}")
    return cli


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("container_bench"):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _invoke(main, argv: list[str]):
    """Exit code of one verb call, as a CLI user would see it."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error ends a CLI process with exit 1
            traceback.print_exc()
            code = 1
    if code != 0:
        sys.stderr.write(f"exit {code}: {' '.join(argv)}\n{err.getvalue()[-2000:]}")
    return code


def run_pass(cli, calls, tracer=None) -> dict:
    """Time one pass of the verb list; returns wall and CPU seconds and the
    exit code of every call."""
    wall = cpu = 0.0
    codes = []
    for verb, call in enumerate(calls):
        _clear_caches()
        gc.collect()
        if tracer is not None:
            tracer.begin_verb(verb)
        t0, c0 = time.perf_counter(), time.process_time()
        codes.append(_invoke(cli.main, call.argv))
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
    return {"wall": wall, "cpu": cpu, "codes": codes}


def check_pass(calls, codes, digests, oracle_values=None) -> tuple[int, int, list[str]]:
    """Check every call of a pass; returns (verdicts, failed calls, messages).

    digests maps artifact path to its expected sha256 (default seed only);
    oracle_values maps call index to the oracle minima seen while tracing."""
    verdicts, failed, messages = 0, 0, []
    for index, (call, code) in enumerate(zip(calls, codes)):
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        else:
            try:
                loaded = load_outputs(call)
                verdicts += call.verdicts(loaded)
                problem = call.check(loaded)
                if problem is None and digests is not None:
                    for path in call.outputs:
                        if sha256_of(path) != digests.get(path):
                            problem = f"{path} differs from its recorded digest"
                            break
                if problem is None and oracle_values is not None and call.oracle_check:
                    problem = call.oracle_check(loaded, oracle_values.get(index, []))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is not None:
            failed += 1
            messages.append(f"{' '.join(call.argv)}: {problem}")
    return verdicts, failed, messages


def expected_digests(workload: str, seed: int):
    """Recorded artifact digests, which apply to the default seed only."""
    config = json.loads(CONFIG.read_text())
    if seed != config["default_seed"]:
        return None
    return config["digests"][workload]


def prepare(workload: str, seed: int):
    """Set up a workload in its own empty work directory; returns the calls."""
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    calls = WORKLOADS[workload](seed)
    for call in calls:
        for path in call.outputs:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    return calls


def measure(cli, calls, seconds: float, digests, tracer=None) -> dict:
    """Repeat passes until the time is up; returns per-pass figures."""
    start = time.perf_counter()
    passes, attempted, failed, messages = [], 0, 0, []
    # Stop before a pass that would end past the time; keep MIN_PASSES.
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + passes[-1]["elapsed"] <= seconds):
        began = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        result = run_pass(cli, calls, tracer)
        oracle_values = tracer.oracle_values if tracer is not None else None
        verdicts, bad, msgs = check_pass(calls, result["codes"], digests, oracle_values)
        attempted += len(calls)
        failed += bad
        messages += msgs
        entry = {"wall": result["wall"], "cpu": result["cpu"], "verdicts": verdicts,
                 "elapsed": time.perf_counter() - began}
        if tracer is not None:
            entry["layers"] = tracer.metrics()
        passes.append(entry)
    return {"passes": passes, "attempted": attempted, "failed": failed,
            "messages": messages[:20]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = _import_program()
    calls = prepare(args.workload, args.seed)
    ready = time.monotonic()
    out: dict = {"ready": ready}
    if not args.setup_only:
        import numpy

        digests = expected_digests(args.workload, args.seed)
        if args.trace:
            from tracing import Tracer

            untraced = measure(cli, calls, args.seconds * UNTRACED_SHARE, digests)
            tracer = Tracer()
            tracer.install()
            out["bindings_patched"] = tracer.bindings_patched
            out["not_traced"] = tracer.missing
            try:
                traced = measure(cli, calls, args.seconds * (1 - UNTRACED_SHARE),
                                 digests, tracer)
            finally:
                tracer.uninstall()
            tracer.write_spans("spans.jsonl")
            out.update(traced)
            out["attempted"] += untraced["attempted"]
            out["failed"] += untraced["failed"]
            out["messages"] += untraced["messages"]
            out["untraced_wall"] = statistics.median(p["wall"] for p in untraced["passes"])
        else:
            out.update(measure(cli, calls, args.seconds, digests))
        out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
