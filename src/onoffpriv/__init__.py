"""Private retrieval of Markov-correlated requests with on-off privacy.

A client reads one message per timestep from a server holding n sources.
Requests follow a Markov chain, and the client toggles a privacy flag over
time. While the flag is off, queries must still look statistically identical
no matter what was requested the last time privacy was on, or what comes
next, because correlation would otherwise leak protected requests.

The package computes the achievable and converse download-rate bounds for
this setting, constructs a sparse query distribution that attains the
achievable bound in polynomial time, verifies any such distribution
independently, solves the exact LP for the optimal rate at small n, and
simulates the full client/server protocol.
"""

from onoffpriv.markov import (
    ConditionalTable,
    SymmetricSigmas,
    TransitionMatrix,
    ZeroContextProbability,
    chain_from_dict,
    chain_to_dict,
    conditional_table,
    matrix_power,
    symmetric_chain,
    symmetric_sigmas,
    u_index,
    u_pair,
)
from onoffpriv.bounds import (
    NegativeTheta,
    OutOfRegime,
    RateBounds,
    ThetaProfile,
    WrongArity,
    closed_form_small_alpha,
    closed_form_symmetric,
    closed_form_two_states,
    rate_bounds,
    rate_inner,
    rate_outer,
    theta_profile,
)
from onoffpriv.scheme import (
    ExtractionInfeasible,
    SchemeDistribution,
    ZeroLikelihoodContext,
    build_scheme,
    collapse_to_sets,
    sample_query_indices,
)
from onoffpriv.verify import (
    DimensionMismatch,
    VerificationReport,
    check_scheme,
    expected_cost,
)
from onoffpriv.lp import (
    Infeasible,
    IterationLimit,
    LpProblem,
    LpSolution,
    TooLarge,
    formulate_lp,
    optimal_rate,
    solve_simplex,
)
from onoffpriv.sim import (
    EmpiricalStats,
    InsufficientSamples,
    PrivacySchedule,
    SimConfig,
    SimTrace,
    average_download_rate,
    empirical_privacy_test,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionalTable",
    "DimensionMismatch",
    "EmpiricalStats",
    "ExtractionInfeasible",
    "Infeasible",
    "InsufficientSamples",
    "IterationLimit",
    "LpProblem",
    "LpSolution",
    "NegativeTheta",
    "OutOfRegime",
    "PrivacySchedule",
    "RateBounds",
    "SchemeDistribution",
    "SimConfig",
    "SimTrace",
    "SymmetricSigmas",
    "ThetaProfile",
    "TooLarge",
    "TransitionMatrix",
    "VerificationReport",
    "WrongArity",
    "ZeroContextProbability",
    "ZeroLikelihoodContext",
    "average_download_rate",
    "build_scheme",
    "chain_from_dict",
    "chain_to_dict",
    "check_scheme",
    "closed_form_small_alpha",
    "closed_form_symmetric",
    "closed_form_two_states",
    "collapse_to_sets",
    "conditional_table",
    "empirical_privacy_test",
    "expected_cost",
    "formulate_lp",
    "matrix_power",
    "optimal_rate",
    "rate_bounds",
    "rate_inner",
    "rate_outer",
    "run_simulation",
    "sample_query_indices",
    "solve_simplex",
    "symmetric_chain",
    "symmetric_sigmas",
    "theta_profile",
    "u_index",
    "u_pair",
]
