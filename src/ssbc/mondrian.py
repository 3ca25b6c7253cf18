"""Window-level, class-conditional guarantees under class-prevalence
uncertainty.

The number of class-j items in a future window of size m is random because
prevalence is only estimated from k training points (k_j of class j);
marginalizing the Binomial count over the Beta(k_j, k-k_j) confidence
distribution gives a Beta-Binomial predictive for the count.  The per-item
miscoverage rate is likewise uncertain: s_j observed miscoverages among n_j
calibration points induce a Beta(s_j, n_j-s_j) law, and so a Beta-Binomial
error count given the class count: the miscovered count of the window
coverage law at calibration size n_j - 1.  Summing its window tails against
the count law prices the probability of staying within the per-window error
budget, and the grid search accepts the largest rung whose budget failure
probability, one minus its success probability, is at most delta.
"""

from __future__ import annotations

import math

from .adjust import METHOD_SSBC, AdjustmentReport, answer_report, search_grid
from .coverage import (
    CalibrationContext, CoverageRegime, Record, check_int, check_unit, highest_grid_index_below,
    tail_prob
)
from .specfun import MAX_REQUEST_TERMS, betabinom_pmf_vector


class MondrianSpec(Record):
    """Class-conditional problem description.

    k training points with k_j of class j; n_j class-j calibration points;
    window size m; target level and risk tolerance.
    """

    def __init__(
        self, k: int, k_j: int, n_j: int, m: int, alpha_target: float, delta: float
    ) -> None:
        vars(self).update(k=k, k_j=k_j, n_j=n_j, m=m, alpha_target=alpha_target, delta=delta)
        check_int("training size k", k)
        check_int("class count k_j", k_j, 0, k)
        check_int("calibration size n_j", n_j)
        check_int("window size m", m)
        check_unit("alpha_target", alpha_target)
        check_unit("delta", delta)


def class_count_predictive(spec: MondrianSpec) -> list[float]:
    """Predictive pmf of the class-j count over r = 0..m:
    Beta-Binomial(m; k_j, k-k_j), whose limit is a point mass at 0 or m
    when the training sample is all-other or all-class-j."""
    return betabinom_pmf_vector(spec.m, spec.k_j, spec.k - spec.k_j)


def budget_success_prob(spec: MondrianSpec, u: int) -> float:
    """Probability that a window stays within the target error budget at
    rung u, the grid level u/(n_j+1):
    sum_r Pr(m_j = r) Pr(e_j <= floor(alpha_target r) | m_j = r),
    with e_j | m_j = r ~ Beta-Binomial(r; u, n_j - u).

    The covered count r - e_j follows Beta-Binomial(r; n_j - u, u), the
    window law at calibration size n_j - 1, and it reaches the window
    threshold ceil((1 - alpha_target) r) exactly when e_j stays within the
    cap, so each term is a :func:`ssbc.coverage.tail_prob` window tail.

    The cap uses the spec's target level while the error law uses the
    miscoverage count of the rung, which on the grid is s_j = u.  Raises
    ValueError unless 1 <= u <= n_j - 1: at u = n_j the law
    Beta(s_j, n_j - s_j) is undefined, so n_j = 1 has no valid rung.
    The coupling of e_j and m_j is kept: each window's cap is evaluated
    under the conditional law for its own count, never under the marginal
    of e_j.
    """
    if spec.n_j == 1:
        raise ValueError(
            "n_j = 1 has no rung with a defined error law: its only rung, "
            "u = n_j = 1, gives Beta(1, 0), which is undefined"
        )
    check_int("rung u", u, 1, spec.n_j - 1)
    count_pmf = class_count_predictive(spec)
    terms = [count_pmf[0]]  # an empty window always meets its budget
    for r in range(1, spec.m + 1):
        if count_pmf[r] > 0.0:
            window = CoverageRegime.window(r)
            terms.append(count_pmf[r] * tail_prob(spec.n_j - 1, u, window, spec.alpha_target))
    return min(1.0, math.fsum(terms))


def ssbc_mondrian(spec: MondrianSpec) -> AdjustmentReport:
    """Largest grid rung below the target whose budget failure probability,
    one minus its success probability, is at most delta.

    On the grid s_j = u, so the only degenerate rung is u = n_j; it is
    skipped and recorded.  The search over the other rungs is the bisection
    of :func:`ssbc.adjust.search_grid`, which is exact because the success
    probability is nonincreasing in u:

    - Beta(s, n_j - s) is stochastically increasing in s.
    - So e_j | m_j = r ~ Beta-Binomial(r; u, n_j - u), a Binomial(r, p)
      mixed over that law of p, is stochastically increasing in u, and each
      Pr(e_j <= cap_r | m_j = r) at a fixed cap is nonincreasing in u.
    - The count law Pr(m_j = r) does not depend on u, so the success
      probability is a positive mixture of nonincreasing terms.

    It evaluates at most ceil(log2(u_hi + 1)) of the rungs 1..u_hi, each
    summing m + 1 count-law terms and at most min(alpha, 1 - alpha) m (m + 1) / 2
    + m window terms; a search that may sum more than MAX_REQUEST_TERMS is refused.
    """
    n_j, m, alpha = spec.n_j, spec.m, spec.alpha_target
    highest = highest_grid_index_below(alpha, n_j)
    u_hi = min(highest, n_j - 1)
    terms = u_hi.bit_length() * (2 * m + 1 + min(alpha, 1.0 - alpha) * m * (m + 1) / 2)
    if terms > MAX_REQUEST_TERMS:
        raise ValueError(f"a Mondrian search at m={m} may sum {terms:.3g} terms; "
                         f"the limit is MAX_REQUEST_TERMS = {MAX_REQUEST_TERMS}")
    found = search_grid(lambda u: budget_success_prob(spec, u), u_hi, spec.delta)
    note = "no grid level below alpha_target meets the budget constraint"
    if highest == n_j == 1:
        note = "every grid level below alpha_target has a degenerate miscoverage law"
    return answer_report(
        METHOD_SSBC,
        CalibrationContext(n=n_j, alpha_target=alpha, delta=spec.delta),
        CoverageRegime.window(spec.m),
        found,
        note,
        skipped_rungs=(n_j,) if highest == n_j else (),
    )
