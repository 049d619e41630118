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

import importlib

# every exported name, by the module that defines it; a name's module is
# imported when the name is first read (PEP 562), so that a command loads
# only the modules it runs
_EXPORTS = {
    "markov": (
        "ConditionalTable", "TransitionMatrix", "ZeroContextProbability",
        "chain_from_dict", "conditional_table", "matrix_power", "matrix_powers",
        "symmetric_chain", "symmetric_sigmas", "u_index", "u_pair",
    ),
    "bounds": (
        "NegativeTheta", "OutOfRegime", "ThetaProfile", "WrongArity",
        "closed_form_small_alpha", "closed_form_symmetric",
        "closed_form_two_states", "rate_inner", "rate_outer", "theta_profile",
    ),
    "scheme": (
        "ExtractionInfeasible", "SchemeDistribution", "ZeroLikelihoodContext",
        "build_scheme", "collapse_to_sets",
    ),
    "verify": (
        "DimensionMismatch", "VerificationReport", "check_scheme", "expected_cost",
    ),
    "lp": (
        "IterationLimit", "LpProblem", "LpSolution", "TooLarge", "formulate_lp",
        "solve_simplex",
    ),
    "sim": (
        "EmpiricalStats", "InsufficientSamples", "PrivacySchedule", "SimConfig",
        "SimTrace", "average_download_rate", "empirical_privacy_test",
        "run_simulation", "simulate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"onoffpriv.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
