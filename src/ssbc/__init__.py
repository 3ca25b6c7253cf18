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

from importlib import import_module

__version__ = "0.1.0"

# Every public name and the submodule that defines it.  Nothing is imported
# until a name is first used (PEP 562), so a CLI subcommand or a caller
# pays only for the modules it needs; numpy loads with ``mc`` alone.
_NAMES = {
    name: module
    for module, names in {
        "adjust": ("METHOD_DKWM", "METHOD_SSBC", "AdjustmentReport", "dkwm_adjust", "dkwm_eps",
                   "ssbc_adjust"),
        "coverage": ("CalibrationContext", "CoverageRegime", "order_index", "tail_prob",
                     "window_threshold"),
        "feasibility": ("FeasibilityReport", "Rung", "RungTable", "alpha_star_exact_finite",
                        "alpha_star_infinite", "alpha_star_laplace", "feasibility_report",
                        "grid_implementable", "rung_table"),
        "mc": ("MethodReport", "SimConfig", "SimReport", "run_simulation", "theory_overlay"),
        "mondrian": ("MondrianSpec", "budget_success_prob", "class_count_predictive",
                     "ssbc_mondrian"),
        "specfun": ("beta_survival", "betabinom_pmf", "betabinom_pmf_vector",
                    "betabinom_survival", "reg_inc_beta"),
    }.items()
    for name in names
}

__all__ = sorted(_NAMES)


def __getattr__(name):
    module = _NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
