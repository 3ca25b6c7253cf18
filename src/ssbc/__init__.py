"""Small-sample beta correction (SSBC) for split conformal prediction.

The split-conformal threshold is an order statistic of calibration scores,
so realized coverage for a single calibration draw follows a known law:
Beta in the infinite-test limit, Beta-Binomial over a finite window.  This
package turns that law into training-conditional (PAC-style) guarantees:
pick the least conservative adjusted level whose coverage tail meets a user
risk budget, analyze when no such level exists, extend the argument to
class-conditional window budgets under prevalence uncertainty, and validate
everything with a seeded Monte Carlo harness.
"""

from .adjust import (
    METHOD_DKWM,
    METHOD_SSBC,
    AdjustmentReport,
    dkwm_adjust,
    dkwm_eps,
    ssbc_adjust,
)
from .coverage import (
    CalibrationContext,
    CoverageRegime,
    order_index,
    tail_prob,
    window_threshold,
)
from .feasibility import (
    FeasibilityReport,
    Rung,
    RungTable,
    alpha_star_exact_finite,
    alpha_star_infinite,
    alpha_star_laplace,
    feasibility_report,
    grid_implementable,
    rung_table,
)
from .mondrian import (
    DegenerateRungError,
    MondrianSpec,
    budget_success_prob,
    class_count_predictive,
    ssbc_mondrian,
)
from .specfun import (
    BetaBinomialParams,
    BetaParams,
    beta_survival,
    betabinom_cdf,
    betabinom_pmf,
    betabinom_pmf_vector,
    betabinom_survival,
    log_beta,
    reg_inc_beta,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustmentReport",
    "BetaBinomialParams",
    "BetaParams",
    "CalibrationContext",
    "CoverageRegime",
    "DegenerateRungError",
    "FeasibilityReport",
    "METHOD_DKWM",
    "METHOD_SSBC",
    "MethodReport",
    "MondrianSpec",
    "Rung",
    "RungTable",
    "SimConfig",
    "SimReport",
    "alpha_star_exact_finite",
    "alpha_star_infinite",
    "alpha_star_laplace",
    "beta_survival",
    "betabinom_cdf",
    "betabinom_pmf",
    "betabinom_pmf_vector",
    "betabinom_survival",
    "budget_success_prob",
    "class_count_predictive",
    "dkwm_adjust",
    "dkwm_eps",
    "feasibility_report",
    "grid_implementable",
    "log_beta",
    "order_index",
    "reg_inc_beta",
    "rung_table",
    "run_simulation",
    "ssbc_adjust",
    "ssbc_mondrian",
    "tail_prob",
    "theory_overlay",
    "window_threshold",
]

# The Monte Carlo harness is the only module that needs numpy; load it on
# first use so that the analytic API starts without it (PEP 562).
_MC_NAMES = frozenset({"MethodReport", "SimConfig", "SimReport", "run_simulation", "theory_overlay"})


def __getattr__(name):
    if name in _MC_NAMES:
        from . import mc

        return getattr(mc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
