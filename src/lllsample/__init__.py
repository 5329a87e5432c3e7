"""Near-uniform sampling and approximate counting of atomic-CSP solutions
via single-site dynamics on a projected state space."""

__version__ = "0.7.0"

from .csp import (
    AtomicConstraint,
    AtomicCSP,
    CSPError,
    InternalError,
    ParseError,
    build_coloring_csp,
    degree_stats,
    evaluate,
    parse_dimacs,
    parse_hypergraph,
    violated_by_partial,
    write_dimacs,
)
from .projection import (
    AdmissibilityError,
    AdmissibilityReport,
    ConstructionError,
    ProjectionScheme,
    RegimeError,
    check_admissibility,
    compute_b,
    construct_projection,
    full_marking_scheme,
    identity_scheme,
)
from .resample import find_assignment, moser_tardos
from .dynamics import (
    SampleResult,
    SamplerConfig,
    chain_length,
    component_threshold,
    inv_sample,
    main_sample,
    project_csp,
    rejection_budget,
)
from .batch import BatchSampler
from .counting import CountEstimate, CountingError, approx_count, counting_eps
from .oracle import (
    count_2trees,
    count_satisfying,
    enumerate_satisfying,
    exact_mu_pi,
    exact_projected_conditional,
    greedy_2tree,
    tv_empirical,
)

__all__ = [name for name in dir() if not name.startswith("_")]
