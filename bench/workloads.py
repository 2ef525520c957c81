"""The benchmark's workloads: seeded inputs, the timed verb list, and checks.

Each workload is a function of the workload seed that writes its inputs under
the current directory and returns the list of CLI verb calls to time.  Every
path in a call is relative, because artifacts echo their argv in `config`: a
fixed layout is what makes artifact bytes comparable across runs.

The checks read artifacts as plain JSON and recompute what they assert from
first principles (hashlib, fractions, math), so a defect in the program cannot
hide itself by also breaking the checker.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from container_bench import serialize
from container_bench.generators import (
    certify_far,
    gen_er_graph,
    gen_planted_is_graph,
    gen_planted_sat_csp,
    gen_random_csp,
)

Check = Callable[[dict], Optional[str]]


@dataclass
class Call:
    """One timed `container_bench.cli.main(argv)` call.

    outputs are the artifacts the call must leave behind.  check returns a
    failure message or None; verdicts counts the verdicts the call reached,
    both read from the loaded outputs (path -> parsed JSON or CSV text).
    oracle_check, in traced runs, also sees the exact-oracle minima that the
    call computed.
    """

    argv: list[str]
    outputs: list[str]
    verdicts: Callable[[dict], int]
    check: Check
    oracle_check: Optional[Callable[[dict, list[int]], Optional[str]]] = None


def load_outputs(call: Call) -> dict:
    loaded = {}
    for path in call.outputs:
        text = Path(path).read_text()
        loaded[path] = json.loads(text) if path.endswith(".json") else text
    return loaded


def sha256_of(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _seeds(workload: str, seed: int) -> random.Random:
    # String seeding hashes with sha512, so the stream is stable across
    # Python versions and platforms.
    return random.Random(f"{workload}/{seed}")


def _write(path: str, payload: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(serialize.canonical_dumps(payload))


def _write_entry(corpus: str, name: str, instance: dict, cert) -> None:
    # The certificate claims the exact distance as its epsilon, as the
    # acceptance corpora do, so the verifiers check the strongest bound.
    cert = replace(cert, epsilon=cert.achieved)
    _write(f"{corpus}/{name}/instance.json", instance)
    _write(f"{corpus}/{name}/certificate.json",
           {"far": True, **serialize.certificate_to_dict(cert)})


# ------------------------------------------------------------- verify checks


def _sets_checked(loaded: dict) -> int:
    doc, = loaded.values()
    if "samples" in doc:
        return doc["samples"]
    return sum(entry.get("independent_sets_checked", entry.get("traces_checked", 0))
               for entry in doc["instances"])


def _covers(names: list[str]) -> Check:
    def check(loaded: dict) -> Optional[str]:
        doc, = loaded.values()
        seen = [entry["instance"] for entry in doc["instances"]]
        if seen != names:
            return f"report covers {len(seen)} of {len(names)} corpus instances"
        return None
    return check


def _sampled(samples: int) -> Check:
    def check(loaded: dict) -> Optional[str]:
        doc, = loaded.values()
        if doc["samples"] != samples:
            return f"{doc['samples']} shrinking samples, expected {samples}"
        if not 0 <= doc["premise_hits"] <= samples:
            return f"premise_hits {doc['premise_hits']} out of range"
        return None
    return check


def _verify(verifier: str, extra: list[str], check: Check) -> Call:
    out = f"out/{verifier}.json"
    return Call(["verify", verifier, *extra, "--out", out], [out], _sets_checked, check)


# ---------------------------------------------------------------- sat-verify

# The acceptance gate's far-CSP shapes (n, k, q), less (6, 3, 2): its cost
# varies by 42% from instance to instance and it takes 41% of the time, so at
# any affordable count it alone would set the workload's seed-to-seed spread.
SAT_SHAPES = ((4, 2, 2), (5, 2, 2), (6, 2, 2), (4, 3, 2),
              (5, 3, 2), (4, 2, 3), (5, 2, 3))
SAT_PER_SHAPE = 8


def _far_csp(rng: random.Random, n: int, k: int, q: int):
    """Rejection-sample a random CSP with at least one falsified constraint
    under every assignment, and its exact farness certificate."""
    while True:
        csp = gen_random_csp(n, k, q, Fraction(7, 10), Fraction(1, 2),
                             rng.getrandbits(32))
        if not csp.constraints:
            continue
        cert = certify_far(csp, Fraction(1, math.comb(n, q)))
        if cert is not None and cert.achieved < 1:
            return csp, cert


def sat_verify(seed: int) -> list[Call]:
    rng = _seeds("sat-verify", seed)
    names = []
    for n, k, q in SAT_SHAPES:
        for _ in range(SAT_PER_SHAPE):
            csp, cert = _far_csp(rng, n, k, q)
            names.append(f"c{len(names):03d}")
            _write_entry("corpus", names[-1], serialize.csp_to_dict(csp), cert)
    corpus = ["--corpus", "corpus"]
    return [
        _verify("gcl-sat", [*corpus, "--workers", "1"], check=_covers(names)),
        _verify("closure", corpus, check=_covers(names)),
        _verify("container-degree", corpus, check=_covers(names)),
    ]


# --------------------------------------------------------------- star-verify

# The acceptance gate's far-graph recipes (n, p, rho).
STAR_RECIPES = ((8, Fraction(3, 5), Fraction(1, 2)),
                (10, Fraction(1, 2), Fraction(1, 2)),
                (12, Fraction(3, 5), Fraction(1, 2)),
                (14, Fraction(1, 2), Fraction(1, 2)),
                (14, Fraction(7, 10), Fraction(1, 2)),
                (12, Fraction(1, 2), Fraction(1, 3)),
                (12, Fraction(7, 10), Fraction(2, 3)))
STAR_PER_RECIPE = 8
STAR_SAMPLES = 4000


def star_verify(seed: int) -> list[Call]:
    rng = _seeds("star-verify", seed)
    names = []
    for n, p, rho in STAR_RECIPES:
        found = 0
        while found < STAR_PER_RECIPE:
            graph = gen_er_graph(n, p, rng.getrandbits(32))
            cert = certify_far(graph, Fraction(1, n * n), rho)
            if cert is None:
                continue
            name = f"g{len(names):03d}"
            _write_entry("corpus", name, serialize.graph_to_dict(graph), cert)
            names.append(name)
            found += 1
    corpus = ["--corpus", "corpus"]
    samples = ["--samples", str(STAR_SAMPLES), "--seed", str(rng.getrandbits(32))]
    return [
        _verify("gcl-star", [*corpus, "--workers", "1"], check=_covers(names)),
        _verify("closure", corpus, check=_covers(names)),
        _verify("shrinking", [*corpus, *samples], check=_sampled(STAR_SAMPLES)),
    ]


# ------------------------------------------------------------- tester-trials

# (n, k, q, s): planted-satisfiable CSPs take the accept path; far CSPs make
# the restriction's backtracking search run to exhaustion.
PLANTED_SHAPES = ((10, 2, 2, 8), (10, 3, 2, 8), (8, 2, 3, 7), (7, 3, 3, 6))
FAR_SHAPES = ((8, 2, 2, 7), (7, 3, 2, 6))
SAT_TRIALS = 300
INDEPSET_TRIALS = 1000


def _estimated(trials: int, all_accept: bool) -> Check:
    def check(loaded: dict) -> Optional[str]:
        csv_text, doc = loaded.values()
        rows = csv_text.splitlines()[1:]
        accepts = sum(row.split(",")[2] == "accept" for row in rows)
        if doc["trials"] != trials or len(rows) != trials:
            return f"{len(rows)} csv rows, {doc['trials']} trials, expected {trials}"
        if accepts != doc["accepts"]:
            return f"csv has {accepts} accepts, summary says {doc['accepts']}"
        if all_accept and accepts != trials:
            return f"planted-satisfiable instance rejected {trials - accepts} trials"
        return None
    return check


def _estimate(name: str, argv: list[str], trials: int, all_accept: bool) -> Call:
    prefix = f"out/{name}"
    return Call(["estimate", *argv, "--trials", str(trials), "--workers", "1",
                 "--out", prefix],
                [f"{prefix}.csv", f"{prefix}.json"],
                lambda loaded: loaded[f"{prefix}.json"]["trials"],
                _estimated(trials, all_accept))


def tester_trials(seed: int) -> list[Call]:
    rng = _seeds("tester-trials", seed)
    calls = []
    for i, (n, k, q, s) in enumerate(PLANTED_SHAPES):
        csp, _ = gen_planted_sat_csp(n, k, q, Fraction(1, 2), rng.getrandbits(32))
        path = f"inputs/planted{i}.json"
        _write(path, serialize.csp_to_dict(csp))
        calls.append(_estimate(f"planted{i}", [
            "sat", "--csp", path, "--epsilon", "1/4", "--s", str(s),
            "--seed", str(rng.getrandbits(32))], SAT_TRIALS, all_accept=True))
    for i, (n, k, q, s) in enumerate(FAR_SHAPES):
        csp, _ = _far_csp(rng, n, k, q)
        _write(f"inputs/far{i}.json", serialize.csp_to_dict(csp))
        calls.append(_estimate(f"far{i}", [
            "sat", "--csp", f"inputs/far{i}.json", "--epsilon", "1/4",
            "--s", str(s), "--seed", str(rng.getrandbits(32))],
            SAT_TRIALS, all_accept=False))
    graph = gen_planted_is_graph(40, Fraction(1, 2), Fraction(1), rng.getrandbits(32))
    _write("inputs/planted-graph.json", serialize.graph_to_dict(graph))
    calls.append(_estimate("indepset", [
        "indepset", "--graph", "inputs/planted-graph.json", "--rho", "1/2",
        "--epsilon", "1/100", "--r", "8", "--s", "16",
        "--seed", str(rng.getrandbits(32))], INDEPSET_TRIALS, all_accept=False))
    return calls


# ------------------------------------------------------------------- certify

# Far instances run the oracles' full sweeps; planted ones take
# distance_to_sat's early exit and distance_to_rho_is's best == 0 cut.
# Planted CSPs use density 1/4, which leaves many satisfying assignments: at
# 1/2 the planted one is nearly the only one, so the exit point, and with it
# the cost, would be a uniform draw over all k^n assignments.
CERTIFY_CSPS = ((10, 2, 2, False), (11, 2, 2, False), (12, 2, 2, False),
                (10, 2, 2, True), (12, 2, 2, True),
                (8, 3, 3, False), (8, 3, 3, True))  # (n, k, q, planted)
# (n, p, planted), rho = 1/2.  Far graphs use p = 7/10, where the branch and
# bound's cost varies least from graph to graph; at p = 1/2 it varies by a
# third, and n = 22 alone would then set the spread of the whole workload.
CERTIFY_GRAPHS = ((18, "7/10", False), (19, "7/10", False), (20, "7/10", False),
                  (20, "7/10", False), (18, "1/2", True), (22, "1/2", True))


def _instance_payload(inst: dict) -> dict:
    keys = ("n", "k", "q", "constraints") if "constraints" in inst else ("n", "edges")
    return {key: inst[key] for key in keys}


def _edits(inst: dict, witness: list[int]) -> int:
    """Constraints a total assignment falsifies, or edges inside a subset."""
    if "constraints" in inst:
        return sum([witness[x] for x in c["scope"]] in c["falsifying"]
                   for c in inst["constraints"])
    chosen = set(witness)
    return sum(u in chosen and v in chosen for u, v in inst["edges"])


def _certified(instance: str, planted: bool, rho: Optional[Fraction]) -> Check:
    def check(loaded: dict) -> Optional[str]:
        cert, = loaded.values()
        if not cert["far"]:
            return None
        if planted:
            return "planted instance certified far"
        inst = json.loads(Path(instance).read_text())
        payload = json.dumps(_instance_payload(inst), sort_keys=True,
                             separators=(",", ":"))
        if cert["instance_hash"] != hashlib.sha256(payload.encode()).hexdigest():
            return "certificate hash does not match its instance"
        n, witness = inst["n"], cert["witness"]
        if rho is None:
            denom = math.comb(n, inst["q"])
            if len(witness) != n:
                return "witness is not a total assignment"
        else:
            denom = n * n
            if len(set(witness)) != math.ceil(rho * n):
                return "witness subset has the wrong size"
        if _edits(inst, witness) != cert["min_edits"]:
            return "witness does not reproduce min_edits"
        achieved = Fraction(cert["achieved"])
        if achieved != Fraction(cert["min_edits"], denom):
            return "achieved distance disagrees with min_edits"
        if achieved < Fraction(cert["epsilon"]):
            return "certified distance below epsilon"
        return None
    return check


def oracle_agrees(loaded: dict, values: list[int]) -> Optional[str]:
    """Traced runs only: the certificate must repeat the oracle's minimum.

    Epsilon is 1/denominator, so an instance is far exactly when the oracle's
    minimum is positive."""
    cert, = loaded.values()
    if len(values) != 1:
        return f"certify made {len(values)} oracle calls"
    if cert["far"] != (values[0] > 0):
        return "far verdict disagrees with the oracle"
    if cert["far"] and cert["min_edits"] != values[0]:
        return f"min_edits {cert['min_edits']} but the oracle found {values[0]}"
    return None


def _generated(n: int) -> Check:
    def check(loaded: dict) -> Optional[str]:
        inst, = loaded.values()
        return None if inst["n"] == n else f"generated n={inst['n']}, expected {n}"
    return check


def certify(seed: int) -> list[Call]:
    rng = _seeds("certify", seed)
    specs = []
    for n, k, q, planted in CERTIFY_CSPS:
        gen = ["gen-csp", "--n", str(n), "--k", str(k), "--q", str(q)]
        gen += (["--planted", "--density", "1/4"] if planted
                else ["--constraint-density", "7/10"])
        specs.append((gen, n, planted, "--csp", [], None, math.comb(n, q)))
    for n, p, planted in CERTIFY_GRAPHS:
        gen = ["gen-graph", "--n", str(n), "--p", p]
        gen += ["--planted", "--rho", "1/2"] if planted else []
        specs.append((gen, n, planted, "--graph", ["--rho", "1/2"],
                      Fraction(1, 2), n * n))
    calls = []
    for i, (gen, n, planted, flag, extra, rho, denom) in enumerate(specs):
        instance, cert = f"inst/{i:02d}.json", f"certs/{i:02d}.json"
        calls.append(Call([*gen, "--seed", str(rng.getrandbits(32)), "--out", instance],
                          [instance], lambda loaded: 0, _generated(n)))
        calls.append(Call(["certify", flag, instance, *extra,
                           "--epsilon", f"1/{denom}", "--out", cert],
                          [cert], lambda loaded: 1, _certified(instance, planted, rho),
                          oracle_agrees))
    return calls


WORKLOADS = {
    "sat-verify": sat_verify,
    "star-verify": star_verify,
    "tester-trials": tester_trials,
    "certify": certify,
}
