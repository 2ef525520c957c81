"""container-bench: fingerprint/container generators for hypergraphs and
independent-set stars, the property testers built on them, and exhaustive
small-scale verification oracles."""

__version__ = "0.1.0"

from .core import (
    Graph,
    Hypergraph,
    WorkCapExceeded,
    enumerate_independent_sets,
    is_independent,
)
from .csp import (
    Constraint,
    Csp,
    assignment_vertex_set,
    build_hypergraph,
    distance_to_sat,
    is_satisfiable,
    vars_of,
)
from .containers_sat import (
    ContainerTrace,
    DegLeqNResult,
    NotFarError,
    check_closure,
    check_container_degree,
    check_edges_bound,
    deg_leq_n,
    run_generator,
    verify_gcl_sat,
)
from .containers_star import (
    StarBounds,
    StarContainerTrace,
    check_shrinking,
    check_star_closure,
    distance_to_rho_is,
    run_star_generator,
    verify_gcl_star,
)
from .testers import (
    SHPPSpec,
    SatTesterParams,
    StarTesterParams,
    TesterReport,
    TesterSpec,
    canonical_is_tester,
    canonical_sat_tester,
    colorability_to_sat,
    run_tester,
    shpp_to_sat,
    star_tester,
)
from .serialize import FarCertificate
from .generators import (
    certify_far,
    estimate_acceptance,
    gen_er_graph,
    gen_planted_is_graph,
    gen_planted_sat_csp,
    gen_random_csp,
    gen_random_hypergraph,
    wilson_interval,
)
