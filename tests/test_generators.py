import json
from fractions import Fraction

import pytest

from container_bench import (
    TesterSpec,
    certify_far,
    distance_to_rho_is,
    distance_to_sat,
    estimate_acceptance,
    gen_er_graph,
    gen_planted_is_graph,
    gen_planted_sat_csp,
    gen_random_csp,
    gen_random_hypergraph,
    is_satisfiable,
    run_tester,
    wilson_interval,
)
from container_bench import serialize
from container_bench.rng import make_rng, sample_without_replacement, substream_seed


def test_gen_random_csp_densities():
    empty = gen_random_csp(5, 2, 2, Fraction(0), Fraction(1, 2), seed=1)
    assert empty.constraints == ()
    vacuous = gen_random_csp(5, 2, 2, Fraction(1), Fraction(0), seed=1)
    assert all(c.falsifying == () for c in vacuous.constraints)
    assert is_satisfiable(vacuous).satisfiable


def test_gen_random_csp_deterministic_per_seed():
    a = gen_random_csp(6, 3, 2, Fraction(1, 2), Fraction(1, 3), seed=42)
    b = gen_random_csp(6, 3, 2, Fraction(1, 2), Fraction(1, 3), seed=42)
    c = gen_random_csp(6, 3, 2, Fraction(1, 2), Fraction(1, 3), seed=43)
    assert a == b
    assert a != c
    assert serialize.canonical_dumps(serialize.csp_to_dict(a)) == \
        serialize.canonical_dumps(serialize.csp_to_dict(b))


def test_gen_planted_sat_is_satisfiable():
    for seed in range(40):
        csp, planted = gen_planted_sat_csp(6, 3, 2, Fraction(3, 5), seed=seed)
        total = tuple(planted[i] for i in range(6))
        assert csp.falsified_count(total) == 0
        assert distance_to_sat(csp).min_falsified == 0
    empty = gen_planted_sat_csp(5, 2, 2, Fraction(0), seed=0)[0]
    assert empty.constraints == ()


def test_gen_planted_is_graph_has_property():
    for seed in range(20):
        g = gen_planted_is_graph(10, Fraction(1, 2), Fraction(1), seed=seed)
        assert distance_to_rho_is(g, Fraction(1, 2)).min_edits == 0
    g0 = gen_planted_is_graph(8, Fraction(1, 2), Fraction(0), seed=3)
    assert g0.edge_count() == 0


def test_gen_er_and_hypergraph_determinism():
    assert gen_er_graph(9, Fraction(1, 2), 7) == gen_er_graph(9, Fraction(1, 2), 7)
    assert gen_random_hypergraph(8, 3, Fraction(1, 4), 7) == \
        gen_random_hypergraph(8, 3, Fraction(1, 4), 7)


def test_certify_far_csp(triangle_csp, nae_csp):
    cert = certify_far(triangle_csp, Fraction(1, 3))
    assert cert is not None
    assert cert.achieved == Fraction(1, 3)
    assert cert.kind == "csp"
    # replay reproduces the certificate exactly
    again = certify_far(triangle_csp, Fraction(1, 3))
    assert serialize.certificate_to_dict(cert) == serialize.certificate_to_dict(again)
    assert certify_far(nae_csp, Fraction(1, 100)) is None


def test_certify_far_graph(k4):
    cert = certify_far(k4, Fraction(1, 16), rho=Fraction(1, 2))
    assert cert is not None and cert.min_edits == 1
    assert certify_far(k4, Fraction(1, 8), rho=Fraction(1, 2)) is None
    with pytest.raises(ValueError):
        certify_far(k4, Fraction(1, 16))  # rho required for graphs


def test_certificate_roundtrip(triangle_csp):
    cert = certify_far(triangle_csp, Fraction(1, 3))
    data = json.loads(serialize.canonical_dumps(serialize.certificate_to_dict(cert)))
    back = serialize.certificate_from_dict(data)
    assert back == cert


def test_wilson_interval_sane():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_substream_seed_spread():
    seeds = {substream_seed(12345, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_sample_without_replacement_contract():
    rng = make_rng(0)
    sample = sample_without_replacement(rng, 20, 8)
    assert len(set(sample)) == 8
    assert all(0 <= v < 20 for v in sample)
    assert sample_without_replacement(make_rng(1), 5, 5).__len__() == 5
    with pytest.raises(ValueError):
        sample_without_replacement(rng, 3, 4)
    # same seed, same draw
    assert sample_without_replacement(make_rng(9), 30, 10) == \
        sample_without_replacement(make_rng(9), 30, 10)


def test_estimate_reproducible_and_worker_invariant(triangle_csp):
    spec = TesterSpec.of("sat", triangle_csp, {"epsilon": Fraction(1, 3), "s": 2})
    serial = estimate_acceptance(spec, 40, master_seed=7, workers=1)
    again = estimate_acceptance(spec, 40, master_seed=7, workers=1)
    assert serial == again
    parallel = estimate_acceptance(spec, 40, master_seed=7, workers=2)
    assert parallel.rows == serial.rows
    assert parallel.accept_rate == serial.accept_rate


def test_estimate_deterministic_instances(triangle_csp):
    sat_spec = TesterSpec.of("sat", triangle_csp, {"epsilon": Fraction(1, 3), "s": 3})
    # s = n: the verdict equals exact satisfiability, i.e. always reject
    res = estimate_acceptance(sat_spec, 25, master_seed=1)
    assert res.accept_rate == 0.0
    from conftest import complete_graph

    star_spec = TesterSpec.of("indepset", complete_graph(12),
                              {"rho": Fraction(1, 2), "epsilon": Fraction(1, 8),
                               "r": 4, "s": 6})
    res = estimate_acceptance(star_spec, 25, master_seed=2)
    assert res.accept_rate == 0.0
    assert res.wilson_low == 0.0


def test_run_tester_dispatch_errors(triangle_csp):
    with pytest.raises(ValueError):
        run_tester(TesterSpec.of("nope", triangle_csp, {}), 0)
