"""Attainability limits: what (alpha_target, delta) pairs a calibration set
of size n can certify, exactly and in closed form.

The most conservative usable rung is u = 1, where coverage follows
Beta(n, 1) (or Beta-Binomial(m; n, 1) over a finite window).  Solving the
tail constraint at that rung yields the minimal certifiable target level.
"""

from __future__ import annotations

import math
from operator import truediv

from .coverage import CoverageRegime, Record, check_int, check_unit, tail_prob, window_threshold
from .specfun import MAX_REQUEST_TERMS, MAX_WINDOW_TERMS

# Most factors in alpha_star_exact_finite's first product; more is refused.
MAX_PRODUCT_STEPS = 10**7
# Most rows in a rung table (~1 s and ~120 MB as CLI JSON); more is refused.
MAX_RUNGS = 10**5


class Rung(Record):
    def __init__(self, u: int, alpha_prime: float, attainable_delta: float) -> None:
        vars(self).update(u=u, alpha_prime=alpha_prime, attainable_delta=attainable_delta)


class RungTable(Record):
    """Per-rung attainable risk: attainable_delta(u) is the smallest delta
    for which the rung u/(n+1) satisfies the tail constraint."""

    def __init__(
        self, n: int, alpha_target: float, regime: CoverageRegime, rungs: tuple[Rung, ...]
    ) -> None:
        vars(self).update(n=n, alpha_target=alpha_target, regime=regime, rungs=rungs)

    to_dict = Record._to_dict


class FeasibilityReport(Record):
    """Feasibility thresholds for calibration size n and risk delta.

    ``alpha_star_inf`` is the exact infinite-window minimum 1 - delta^(1/n);
    ``implementable`` records whether that threshold lies on or above the
    first grid rung, i.e. delta <= (n/(n+1))^n.  The finite-window fields
    are present when a window size was supplied.
    """

    def __init__(
        self, n: int, delta: float, alpha_star_inf: float, delta_max_grid: float,
        implementable: bool, m: int | None = None, alpha_star_m: float | None = None,
        alpha_star_m_laplace: float | None = None,
    ) -> None:
        vars(self).update(
            n=n, delta=delta, alpha_star_inf=alpha_star_inf, delta_max_grid=delta_max_grid,
            implementable=implementable, m=m, alpha_star_m=alpha_star_m,
            alpha_star_m_laplace=alpha_star_m_laplace
        )

    to_dict = Record._to_dict


def _validate(n: int, delta: float) -> None:
    check_int("n", n)
    check_unit("delta", delta)


def alpha_star_infinite(n: int, delta: float) -> float:
    """Minimal certifiable target level for an infinite test stream:
    1 - delta^(1/n)."""
    _validate(n, delta)
    return -math.expm1(math.log(delta) / n)


def grid_implementable(n: int, delta: float) -> tuple[bool, float]:
    """Whether the continuous threshold lies on or above the first grid
    rung: delta <= (n/(n+1))^n.  Returns (implementable, delta_max)."""
    _validate(n, delta)
    delta_max = math.exp(n * math.log1p(-1 / (n + 1)))
    return delta <= delta_max, delta_max


def alpha_star_laplace(n: int, delta: float, m: int) -> float:
    """Published finite-window heuristic a + sqrt(a (1 - a) / (2 pi m)),
    with a = alpha_star_infinite(n, delta).

    This is not an asymptotic expansion of :func:`alpha_star_exact_finite`:
    the exact threshold departs from :func:`alpha_star_infinite` by O(1/m)
    plus at most one 1/m lattice step, with no 1/sqrt(m) term.
    """
    _validate(n, delta)
    check_int("m", m)
    a = alpha_star_infinite(n, delta)
    return a + math.sqrt((1.0 - a) * a / (2.0 * math.pi * m))


def alpha_star_exact_finite(n: int, delta: float, m: int) -> float:
    """Exact finite-window threshold on the coverage lattice.

    Finds the largest integer x* = m - c with Pr(X >= x*) >= 1 - delta for
    X ~ Beta-Binomial(m; n, 1), that is P(c) = Pr(X <= m-c-1) <= delta, and
    reports alpha* = 1 - x*/m = c/m, the left edge of the passing step.  P(c) is
    prod_{i=0..c} (m-i)/(n+m-i) = prod_{i=1..n} (1 - (c+1)/(m+i)).  The
    second form lies between (1 - (c+1)/(m+1))^n and (1 - (c+1)/(m+n))^n,
    so with a = alpha_star_infinite(n, delta) the smallest passing c is in
    [(m+1) a - 1, (m+n) a].  One product, in the form with fewer factors,
    is taken at c = ceil((m+1) a) - 3, two steps early for rounding, and
    the first form walks on for at most about ln(1/delta) + 5 steps.  A
    ValueError refuses a start past 2**52, where rounding can exceed the
    two steps, or a first product over MAX_PRODUCT_STEPS factors.

    The lattice is exact, the products are not: P(c) is taken in doubles,
    with a relative error of about 2 (factors + steps) 2**-53, so where the
    exact P(c) at the boundary lies that close to delta, c can be one step
    off (n=36, delta=6.217721028215806e-06, m=852017167440597 gives c one
    below the exact 241318473954081).
    """
    _validate(n, delta)
    check_int("m", m)
    start = (m + 1) * alpha_star_infinite(n, delta)
    c = max(0, math.ceil(start) - 3)
    if start > 2**52 or min(n, c + 1) > MAX_PRODUCT_STEPS:
        raise ValueError(f"the exact finite-window threshold for n={n}, delta={delta!r}, m={m} "
                         f"starts at c={c}; the limits are 2**52 and {MAX_PRODUCT_STEPS} factors")
    if c < n:  # (m-i)/(n+m-i) for i = 0..c
        factors = map(truediv, range(m, m - c - 1, -1), range(n + m, n + m - c - 1, -1))
    else:  # (m-c-1+i)/(m+i) for i = 1..n
        factors = map(truediv, range(m - c, m - c + n), range(m + 1, m + n + 1))
    lower_tail = math.prod(factors)
    while lower_tail > delta:
        c += 1
        lower_tail *= (m - c) / (n + m - c)
    return c / m


def rung_table(n: int, alpha_target: float, regime: CoverageRegime) -> RungTable:
    """Attainable delta at every rung u = 1..n <= MAX_RUNGS for the target; a
    window table of n min(x*, m + 1 - x*) terms over MAX_REQUEST_TERMS is refused."""
    check_int("n", n, 1, MAX_RUNGS)
    check_unit("alpha_target", alpha_target)
    if regime.is_window:
        x, m = window_threshold(alpha_target, regime.m), regime.m
        terms = n * min(x, m + 1 - x)
        if MAX_REQUEST_TERMS < terms <= n * MAX_WINDOW_TERMS:  # a wider tail: the kernel refuses
            raise ValueError(f"a window rung table at n={n}, m={m} sums {terms} terms; "
                             f"the limit is MAX_REQUEST_TERMS = {MAX_REQUEST_TERMS}")
    rungs = tuple(
        Rung(u, u / (n + 1), attainable_delta=1.0 - tail_prob(n, u, regime, alpha_target))
        for u in range(1, n + 1)
    )
    return RungTable(n=n, alpha_target=alpha_target, regime=regime, rungs=rungs)


def feasibility_report(n: int, delta: float, m: int | None = None) -> FeasibilityReport:
    """Aggregate of the feasibility computations, windowed fields optional."""
    implementable, delta_max = grid_implementable(n, delta)
    return FeasibilityReport(
        n=n,
        delta=delta,
        alpha_star_inf=alpha_star_infinite(n, delta),
        delta_max_grid=delta_max,
        implementable=implementable,
        m=m,
        alpha_star_m=None if m is None else alpha_star_exact_finite(n, delta, m),
        alpha_star_m_laplace=None if m is None else alpha_star_laplace(n, delta, m),
    )
