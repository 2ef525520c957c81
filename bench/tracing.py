"""Span tracing of the program's public functions, from outside the program.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (function, verb call id, parent span, start and end in ns) and counts
read from its arguments or return value.  `from .x import f` copies the
binding, so every `container_bench.*` module attribute bound to the same
function object is patched, and `uninstall()` puts each one back.

Self time is computed as spans close: a span's duration minus the durations
of the spans directly inside it.  The spans of the current pass are kept in
memory and written out once, by `write_spans`, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

TRACED = (
    ("core", ("enumerate_independent_sets",)),
    ("csp", ("distance_to_sat", "restrict", "is_satisfiable", "build_hypergraph")),
    ("containers_sat", ("run_generator", "verify_gcl_sat", "check_closure",
                        "check_container_degree")),
    ("containers_star", ("run_star_generator", "verify_gcl_star",
                         "check_star_closure", "check_shrinking",
                         "distance_to_rho_is")),
    ("testers", ("canonical_sat_tester", "star_tester")),
    ("rationals", ("sign_with_ln",)),
    ("rng", ("sample_without_replacement",)),
    ("generators", ("certify_far", "run_tester")),
    ("serialize", ("canonical_dumps", "csp_from_dict", "graph_from_dict")),
    ("cli", ("main",)),
)
NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED for fn in fns)
GENERATORS = {"core.enumerate_independent_sets"}  # one span per next()
ORACLES = {"csp.distance_to_sat": "min_falsified",
           "containers_star.distance_to_rho_is": "min_edits"}

# Counts that are not .calls of a traced function, with their units.
COUNTS = {
    "containers_sat.generator_iterations": "count",
    "containers_star.star_iterations": "count",
    "core.independent_sets_yielded": "count",
    "rationals.sign_with_ln.escalated": "count",
    "rationals.fast_path_ratio": "ratio",
    "csp.is_satisfiable.sat_ratio": "ratio",
    "testers.star_tester.queries": "count",
    "containers_star.check_shrinking.premise_hit_ratio": "ratio",
    "serialize.bytes_written": "B",
    "oracle.reuse_ratio": "ratio",
}

SPAN_FIELDS = ("id", "parent", "function", "verb", "start_ns", "end_ns")


def _ratio(part: int, whole: int) -> float:
    """part / whole, or 0.0 when the base is empty."""
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self.verb = -1  # id shared by every span of one verb call
        self.verb_index = -1  # the call's position in its pass
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # traced names the program no longer has
        self.reset()

    def begin_verb(self, index: int) -> None:
        self.verb += 1
        self.verb_index = index

    def reset(self) -> None:
        """Start a new pass: counts restart and only its spans are kept, which
        bounds memory to one pass."""
        self.spans = array("q")  # flat records of SPAN_FIELDS
        self.calls = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.counts: Counter = Counter()
        self.oracle_instances: set = set()
        self.oracle_values: dict[int, list[int]] = {}
        self._ln_seen = False

    # ---------------------------------------------------------------- spans

    def _enter(self) -> tuple[list[int], int]:
        frame = [self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, time.perf_counter_ns()

    def _exit(self, index: int, frame: list[int], start: int) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_ns[index] += duration - frame[1]
        parent = -1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        self.spans.extend((frame[0], parent, index, self.verb, start, end))

    def _wrap(self, index: int, fn, after):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[index] += 1
            frame, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index, frame, start)
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_generator(self, index: int, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[index] += 1
            inner = fn(*args, **kwargs)
            while True:
                frame, start = tracer._enter()
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._exit(index, frame, start)
                tracer.counts["core.independent_sets_yielded"] += 1
                yield value

        return functools.wraps(fn)(traced)

    # --------------------------------------------------------------- counts

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _oracle(self, name: str, field: str):
        def after(args, result) -> None:
            self.oracle_instances.add((name, *args[:2]))
            self.oracle_values.setdefault(self.verb_index, []).append(
                getattr(result, field))
        return after

    def _escalation_probe(self, fn):
        """sign_with_ln escalates when it reaches ln_interval."""
        def probe(*args, **kwargs):
            self._ln_seen = False
            result = fn(*args, **kwargs)
            if self._ln_seen:
                self.counts["rationals.sign_with_ln.escalated"] += 1
            return result
        return functools.wraps(fn)(probe)

    def _ln_marker(self, fn):
        def marker(*args, **kwargs):
            self._ln_seen = True
            return fn(*args, **kwargs)
        return functools.wraps(fn)(marker)

    def _after_hooks(self) -> dict:
        count = self._count
        hooks = {
            "containers_sat.run_generator": lambda a, r: count(
                "containers_sat.generator_iterations", r.iteration_count),
            "containers_star.run_star_generator": lambda a, r: count(
                "containers_star.star_iterations", r.iteration_count),
            "csp.is_satisfiable": lambda a, r: count("sat", r.satisfiable),
            "testers.star_tester": lambda a, r: count(
                "testers.star_tester.queries", r.query_count),
            "containers_star.check_shrinking": lambda a, r: count(
                "premise_hits", r.premises_hold),
            "serialize.canonical_dumps": lambda a, r: count(
                "serialize.bytes_written", len(r.encode())),
        }
        for name, field in ORACLES.items():
            hooks[name] = self._oracle(name, field)
        return hooks

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "container_bench" or name.startswith("container_bench.")]
        hooks = self._after_hooks()
        replacements = {}
        for index, name in enumerate(NAMES):
            module, fn_name = name.rsplit(".", 1)
            original = getattr(sys.modules.get(f"container_bench.{module}"), fn_name, None)
            if original is None:  # gone from the program: reported as 0 calls
                self.missing.append(name)
                continue
            if name in GENERATORS:
                replacements[id(original)] = (original, self._wrap_generator(index, original))
                continue
            fn = original
            if name == "rationals.sign_with_ln":
                fn = self._escalation_probe(original)
            replacements[id(original)] = (original, self._wrap(index, fn, hooks.get(name)))
        ln_interval = getattr(sys.modules["container_bench.rationals"], "ln_interval", None)
        if ln_interval is None:
            self.missing.append("rationals.ln_interval")
        else:
            replacements[id(ln_interval)] = (ln_interval, self._ln_marker(ln_interval))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @property
    def bindings_patched(self) -> int:
        return len(self._patched)

    # -------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current aggregation window."""
        out: dict[str, float] = {}
        for index, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[index]
            out[f"{name}.self_s"] = self.self_ns[index] / 1e9
        calls = dict(zip(NAMES, self.calls))
        counts = self.counts
        escalated = counts["rationals.sign_with_ln.escalated"]
        sign_calls = calls["rationals.sign_with_ln"]
        oracle_calls = sum(calls[name] for name in ORACLES)
        out.update({
            "containers_sat.generator_iterations": counts["containers_sat.generator_iterations"],
            "containers_star.star_iterations": counts["containers_star.star_iterations"],
            "core.independent_sets_yielded": counts["core.independent_sets_yielded"],
            "rationals.sign_with_ln.escalated": escalated,
            "rationals.fast_path_ratio": _ratio(sign_calls - escalated, sign_calls),
            "csp.is_satisfiable.sat_ratio": _ratio(counts["sat"], calls["csp.is_satisfiable"]),
            "testers.star_tester.queries": counts["testers.star_tester.queries"],
            "containers_star.check_shrinking.premise_hit_ratio": _ratio(
                counts["premise_hits"], calls["containers_star.check_shrinking"]),
            "serialize.bytes_written": counts["serialize.bytes_written"],
            "oracle.reuse_ratio": _ratio(len(self.oracle_instances), oracle_calls),
        })
        return out

    def write_spans(self, path: str) -> None:
        """The last pass's spans, one JSON array per span after a header that
        names the fields and the functions."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS, "functions": NAMES}) + "\n")
            width = len(SPAN_FIELDS)
            spans = self.spans
            for i in range(0, len(spans), width):
                fh.write(json.dumps(spans[i:i + width].tolist()) + "\n")
