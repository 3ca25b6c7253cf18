"""Exact finite-sample laws of split-conformal coverage.

With n calibration points and a level alpha on the grid {u/(n+1)}, the
infinite-test coverage follows Beta(n+1-u, u); over a finite window of m
test points the covered count follows Beta-Binomial(m; n+1-u, u).  This
module owns the grid arithmetic, including the float snapping that keeps
ceil/floor honest at exact grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import BetaBinomialParams, BetaParams, beta_survival, betabinom_survival
from .specfun import check_int  # re-exported: the package's one integer validator

INFINITE_TEST = "infinite"
FINITE_WINDOW = "window"

# Relative slack (in units of the scale argument) under which a float is
# treated as the exact integer it is, before applying ceil/floor.  Must be
# far above double rounding noise (~1e-16 * scale) and far below 1.
_SNAP_TOL = 1e-9


class GridError(ValueError):
    """Raised when a level is not a grid point u/(n+1) with 1 <= u <= n."""


def check_unit(name: str, value: float) -> None:
    """Raise ValueError unless 0 < value < 1."""
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def _snapped(value: float, scale: float, rounding) -> int:
    nearest = round(value)
    if abs(value - nearest) <= _SNAP_TOL * max(1.0, abs(scale)):
        return int(nearest)
    return rounding(value)


def snapped_ceil(value: float, scale: float = 1.0) -> int:
    """ceil(value), except values within snapping distance of an integer
    are taken as that integer (representation noise must not shift the
    order statistic by one)."""
    return _snapped(value, scale, math.ceil)


def snapped_floor(value: float, scale: float = 1.0) -> int:
    """floor(value) with the same integer snapping as :func:`snapped_ceil`."""
    return _snapped(value, scale, math.floor)


@dataclass(frozen=True)
class CoverageRegime:
    """Inference regime: infinite test stream, or a finite window of size m."""

    kind: str
    m: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (INFINITE_TEST, FINITE_WINDOW):
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if self.kind == FINITE_WINDOW:
            check_int("window size m", self.m)
        elif self.m is not None:
            raise ValueError("m is only meaningful for the finite-window regime")

    @classmethod
    def infinite(cls) -> "CoverageRegime":
        return cls(INFINITE_TEST)

    @classmethod
    def window(cls, m: int) -> "CoverageRegime":
        return cls(FINITE_WINDOW, m)

    @property
    def is_window(self) -> bool:
        return self.kind == FINITE_WINDOW


@dataclass(frozen=True)
class CalibrationContext:
    """Calibration size n, target miscoverage level, and risk tolerance."""

    n: int
    alpha_target: float
    delta: float

    def __post_init__(self) -> None:
        check_int("calibration size n", self.n)
        check_unit("alpha_target", self.alpha_target)
        check_unit("delta", self.delta)


@dataclass(frozen=True)
class CoverageLaw:
    """Coverage distribution: Beta(a, b), or its Beta-Binomial analogue
    over a finite window.  Shapes satisfy a + b = n + 1 for the generating
    calibration size."""

    a: int
    b: int
    regime: CoverageRegime

    def __post_init__(self) -> None:
        check_int("coverage law shape a", self.a)
        check_int("coverage law shape b", self.b)


def order_index(alpha: float, n: int) -> int:
    """The order-statistic index k = ceil((1-alpha)(n+1)), in 1..n+1.

    k = n+1 signals the degenerate everything-set (threshold = +inf).
    """
    check_int("n", n)
    check_unit("alpha", alpha)
    k = snapped_ceil((1.0 - alpha) * (n + 1), scale=n + 1)
    return max(1, min(n + 1, k))


def grid_index(alpha_prime: float, n: int) -> int:
    """Recover u from a grid level alpha_prime = u/(n+1), or raise GridError."""
    check_int("n", n)
    u = round(alpha_prime * (n + 1))
    if u < 1 or u > n or alpha_prime != u / (n + 1):
        raise GridError(
            f"alpha_prime={alpha_prime!r} is not a grid level u/(n+1) with 1 <= u <= {n}"
        )
    return u


def coverage_law(alpha_prime: float, n: int, regime: CoverageRegime) -> CoverageLaw:
    """Coverage law at the grid level alpha_prime = u/(n+1): shapes
    (a, b) = (n+1-u, u) under the given regime."""
    u = grid_index(alpha_prime, n)
    return CoverageLaw(a=n + 1 - u, b=u, regime=regime)


def window_threshold(alpha_target: float, m: int) -> int:
    """Smallest covered count of a window of size m that meets the target:
    x* = ceil((1-alpha_target) m), snapped and clipped to 0..m+1.  A window
    with fewer covered points violates the target."""
    x_star = snapped_ceil((1.0 - alpha_target) * m, scale=m)
    return max(0, min(m + 1, x_star))


def tail_prob(law: CoverageLaw, alpha_target: float) -> float:
    """Pr(coverage >= 1 - alpha_target) under the law.

    Infinite test: Pr(Z >= 1-alpha_target), Z ~ Beta(a, b).  Finite window
    of size m: Pr(X >= x*), X ~ Beta-Binomial(m; a, b), with x* the
    :func:`window_threshold`; equality at the threshold counts as success.
    """
    check_unit("alpha_target", alpha_target)
    if not law.regime.is_window:
        return beta_survival(1.0 - alpha_target, BetaParams(float(law.a), float(law.b)))
    m = law.regime.m
    params = BetaBinomialParams(m, float(law.a), float(law.b))
    return betabinom_survival(window_threshold(alpha_target, m), params)
