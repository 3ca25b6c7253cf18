"""Level adjusters: the small-sample beta correction and the DKWM baseline.

Both return an :class:`AdjustmentReport`.  Infeasible is a valid report,
not an error: it means no adjusted level below the target can satisfy the
requested tail guarantee.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .coverage import (
    CalibrationContext, CoverageRegime, Record, highest_grid_index_below, order_index, tail_prob
)

METHOD_SSBC = "ssbc"
METHOD_DKWM = "dkwm"


class AdjustmentReport(Record):
    """Outcome of a level adjustment.

    For feasible reports ``alpha_adj`` is the adjusted miscoverage level and
    ``achieved_tail`` the verified probability (over calibration draws) of
    meeting the coverage target; ``achieved_violation`` is its complement.
    The DKWM adjuster also records its concentration margin ``epsilon``, and
    the class-conditional variant lists grid rungs it had to skip because
    their miscoverage-rate law is degenerate.
    """

    def __init__(
        self, feasible: bool, method: str, context: CalibrationContext, regime: CoverageRegime,
        alpha_adj: float | None = None, u_star: int | None = None,
        achieved_tail: float | None = None, achieved_violation: float | None = None,
        epsilon: float | None = None, skipped_rungs: tuple[int, ...] = (), note: str | None = None,
    ) -> None:
        vars(self).update(
            feasible=feasible, method=method, context=context, regime=regime, alpha_adj=alpha_adj,
            u_star=u_star, achieved_tail=achieved_tail, achieved_violation=achieved_violation,
            epsilon=epsilon, skipped_rungs=skipped_rungs, note=note
        )

    def to_dict(self) -> dict:
        # By hand: the golden outputs pin this key order and an infeasible report's nulls.
        out = {
            "feasible": self.feasible,
            "alpha_adj": self.alpha_adj,
            "u_star": self.u_star,
            "achieved_tail": self.achieved_tail,
            "achieved_violation": self.achieved_violation,
            "method": self.method,
            "inputs": self.context._to_dict() | self.regime._to_dict(),
        }
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        if self.skipped_rungs:
            out["skipped_rungs"] = list(self.skipped_rungs)
        if self.note is not None:
            out["note"] = self.note
        return out


def search_grid(
    tail_fn: Callable[[int], float], u_hi: int, delta: float
) -> tuple[int, float] | None:
    """Largest rung u in 1..u_hi whose printed violation 1.0 - tail_fn(u), exact
    for tails >= 1/2, is at most delta, with its tail; None if no rung passes.

    tail_fn must be nonincreasing in u, so the passing rungs are a prefix
    1..u*.  The search bisects between rung 0, taken to pass, and rung
    u_hi + 1, taken to fail; it evaluates only rungs in 1..u_hi, at most
    ceil(log2(u_hi + 1)) of them.
    """
    lo, hi, lo_tail = 0, u_hi + 1, None  # rung lo passes, rung hi fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        tail = tail_fn(mid)
        if 1.0 - tail <= delta:
            lo, lo_tail = mid, tail
        else:
            hi = mid
    return None if lo == 0 else (lo, lo_tail)


def answer_report(
    method: str,
    ctx: CalibrationContext,
    regime: CoverageRegime,
    found: tuple[int, float] | None,
    note: str,
    alpha_adj: float | None = None,
    epsilon: float | None = None,
    skipped_rungs: tuple[int, ...] = (),
) -> AdjustmentReport:
    """The report for an adjuster's answer: ``found`` is the rung and its
    tail, or None, and then ``note`` says why no level is feasible.  The
    level is the grid level u/(n+1) unless ``alpha_adj`` is given."""
    if found is None:
        return AdjustmentReport(
            feasible=False,
            method=method,
            context=ctx,
            regime=regime,
            epsilon=epsilon,
            skipped_rungs=skipped_rungs,
            note=note,
        )
    u, tail = found
    return AdjustmentReport(
        feasible=True,
        method=method,
        context=ctx,
        regime=regime,
        alpha_adj=u / (ctx.n + 1) if alpha_adj is None else alpha_adj,
        u_star=u,
        achieved_tail=tail,
        achieved_violation=1.0 - tail,
        epsilon=epsilon,
        skipped_rungs=skipped_rungs,
    )


def ssbc_adjust(ctx: CalibrationContext, regime: CoverageRegime) -> AdjustmentReport:
    """Largest grid level u/(n+1) below the target whose violation, one
    minus its coverage-law tail, is at most delta.

    Raising u lowers the order index n+1-u of the threshold, so the
    coverage law shrinks stochastically and its tail cannot grow.  The
    rungs that pass are therefore a prefix 1..u*, and :func:`search_grid`
    finds u* by bisection: the same rung, with the same tail, as a scan of
    every rung, in O(log n) tail evaluations.
    """
    n = ctx.n
    found = search_grid(
        lambda u: tail_prob(n, u, regime, ctx.alpha_target),
        highest_grid_index_below(ctx.alpha_target, n),
        ctx.delta,
    )
    return answer_report(
        METHOD_SSBC, ctx, regime, found,
        "no grid level below alpha_target satisfies the tail constraint",
    )


def dkwm_eps(n: int, delta: float) -> float:
    """One-sided DKW-Massart margin sqrt(ln(1/delta) / (2n)).  Where 1/delta
    overflows (delta < 1/DBL_MAX) the log is -ln(delta); elsewhere the
    quotient's log is kept, which can differ from -ln(delta) in the last bit."""
    inverse = 1.0 / delta
    log_inverse = math.log(inverse) if inverse != math.inf else -math.log(delta)
    return math.sqrt(log_inverse / (2.0 * n))


def dkwm_adjust(ctx: CalibrationContext) -> AdjustmentReport:
    """Concentration-bound baseline: alpha_adj = alpha_target - eps.

    The adjusted level is left continuous (not snapped to the grid); the
    achieved tail is evaluated with the exact Beta law at the order index
    the adjusted level induces, so the baseline's conservatism is measured
    with the same machinery as the beta correction.
    """
    n = ctx.n
    regime = CoverageRegime.infinite()
    eps = dkwm_eps(n, ctx.delta)
    alpha_adj = ctx.alpha_target - eps
    found = None
    if alpha_adj > 0.0:
        u = n + 1 - order_index(alpha_adj, n)
        # at u = 0 the threshold is the everything-set: coverage is identically 1
        found = (u, tail_prob(n, u, regime, ctx.alpha_target) if u else 1.0)
    return answer_report(
        METHOD_DKWM, ctx, regime, found, "alpha_target - eps is not positive",
        alpha_adj=alpha_adj,
        epsilon=eps,
    )
