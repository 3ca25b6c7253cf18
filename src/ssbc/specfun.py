"""Scalar special functions for Beta and Beta-Binomial coverage laws.

Everything is evaluated in log space (via ``math.lgamma``) and exponentiated
at the end, so shape parameters in the thousands remain accurate.  Accuracy
contract, as measured, not proven: the absolute error of
:func:`beta_survival` and :func:`reg_inc_beta` grows about linearly with the
shape sum, and stays below 2e-15 * (a + b) (against scipy, at most
1.4e-15 * (a + b) for a + b from 1e2 to 1e7: 4e-14 at 1e2, 6e-13 at 1e3,
1.2e-11 at 1e4, 1.4e-9 at 1e6).  Each Beta-Binomial term carries the
rounding of lgamma values of size about N ln N, N = a + b + m, so the
absolute error of the pmf sums grows like N ln N; against exact integer
arithmetic it stayed below 1e-15 * N ln N (tails at shapes (n+1-u, u):
1.2e-12 at n = m = 1e3, 4.8e-11 at n = m = 1e4, 3.5e-10 at n = 1e3 and
m = 1e5, 2.9e-9 at n = 1e3 and m = 1e6).

Every function takes the law's parameters as plain numbers, in the order
scipy.stats uses: the point, then the trial count m of a Beta-Binomial, then
the shapes a and b.  The public law kernels validate them with one shared
check (:func:`log_beta`, called per term, tests its shapes inline); the term
routine checks nothing.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

_CF_MAX_ITER = 1000
_CF_EPS = 1e-15
_CF_TINY = 1e-300


def check_int(name: str, value, lo: int = 1, hi: int | None = None) -> None:
    """Raise ValueError unless value is an int, not a bool, in [lo, hi]
    (no upper limit when hi is None)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < lo
        or (hi is not None and value > hi)
    ):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_law(a: float, b: float, m: int | None = None) -> None:
    """Raise ValueError unless the Beta shapes a and b are positive and
    finite and the trial count m, when given, is an integer >= 1."""
    if m is not None:
        check_int("trial count m", m)
    if not (a > 0 and math.isfinite(a) and b > 0 and math.isfinite(b)):
        raise ValueError(f"Beta shapes must be positive and finite, got a={a!r}, b={b!r}")


def _stirling_tail(x: float) -> float:
    """ln Gamma(x) - [(x - 1/2) ln x - x + ln(2 pi)/2], series for x >= 30."""
    inv2 = 1.0 / (x * x)
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - inv2 / 1680.0) * inv2) * inv2) / x


def _lgamma_step(large: float, small: float) -> float:
    """ln Gamma(large + small) - ln Gamma(large), cancellation-free for
    large >= 30: the naive difference of two huge lgamma values would wipe
    out the small result."""
    return (
        (large - 0.5) * math.log1p(small / large)
        + small * math.log(large + small)
        - small
        + _stirling_tail(large + small)
        - _stirling_tail(large)
    )


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b).

    When the direct three-term form would cancel badly (one huge shape, a
    small result), the Gamma-ratio step is evaluated through a Stirling
    expansion instead.
    """
    if not (a > 0 and math.isfinite(a)) or not (b > 0 and math.isfinite(b)):
        raise ValueError(f"log_beta requires positive finite shapes, got a={a!r}, b={b!r}")
    lga, lgb, lgab = math.lgamma(a), math.lgamma(b), math.lgamma(a + b)
    direct = lga + lgb - lgab
    rounding = 2.3e-16 * (abs(lga) + abs(lgb) + abs(lgab))
    if rounding <= 1e-13 * abs(direct) or max(a, b) < 30.0:
        return direct
    small, large = (a, b) if a <= b else (b, a)
    return math.lgamma(small) - _lgamma_step(large, small)


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * i
        # even step
        aa = i * (b - i) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + i) * (qab + i) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _CF_EPS:
            return h
    raise RuntimeError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def _inc_beta_lower(x: float, a: float, b: float) -> float:
    """I_x(a, b) on the branch x < (a+1)/(a+b+2); small, no cancellation."""
    log_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    return math.exp(log_front) * _beta_cont_frac(a, b, x) / a


def _inc_beta_pair(name: str, x: float, a: float, b: float) -> tuple[float, float]:
    """(I_x(a, b), 1 - I_x(a, b)).  The switch at x = (a+1)/(a+b+2) picks
    the branch on which the directly evaluated piece is the small one, so
    neither value loses accuracy to cancellation."""
    _check_law(a, b)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    if x < (a + 1.0) / (a + b + 2.0):
        lower = 0.0 if x == 0.0 else _inc_beta_lower(x, a, b)
        return lower, 1.0 - lower
    upper = 0.0 if x == 1.0 else _inc_beta_lower(1.0 - x, b, a)
    return 1.0 - upper, upper


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), i.e. the Beta(a, b) CDF at x,
    by the continued-fraction expansion."""
    return _inc_beta_pair("x", x, a, b)[0]


def beta_survival(t: float, a: float, b: float) -> float:
    """Pr(Z >= t) for Z ~ Beta(a, b), by the continued-fraction expansion."""
    return _inc_beta_pair("t", t, a, b)[1]


def _betabinom_terms(m: int, a: float, b: float, start: int, stop: int) -> Iterator[float]:
    """Pr(X = r) for r in start..stop-1, X ~ Beta-Binomial(m; a, b); the
    law's constants are computed once, not per term."""
    lg_m = math.lgamma(m + 1)
    lb_ab = log_beta(a, b)
    for r in range(start, stop):
        log_choose = lg_m - math.lgamma(r + 1) - math.lgamma(m - r + 1)
        yield math.exp(log_choose + log_beta(r + a, m - r + b) - lb_ab)


def betabinom_pmf(r: int, m: int, a: float, b: float) -> float:
    """Pr(X = r) for X ~ Beta-Binomial(m; a, b) = C(m,r) B(r+a, m-r+b) / B(a,b)."""
    _check_law(a, b, m)
    check_int("r", r, 0, m)
    return next(_betabinom_terms(m, a, b, r, r + 1))


def betabinom_pmf_vector(m: int, a: float, b: float) -> list[float]:
    """The full pmf over r = 0..m as a list."""
    _check_law(a, b, m)
    return list(_betabinom_terms(m, a, b, 0, m + 1))


def betabinom_cdf(x: int, m: int, a: float, b: float) -> float:
    """Pr(X <= x) for X ~ Beta-Binomial(m; a, b), summed exactly over 0..x."""
    _check_law(a, b, m)
    check_int("x", x, 0, m)
    return math.fsum(_betabinom_terms(m, a, b, 0, x + 1))


def betabinom_survival(x_star: int, m: int, a: float, b: float) -> float:
    """Pr(X >= x_star) for X ~ Beta-Binomial(m; a, b).

    The side of x_star with fewer terms is summed (with exact summation);
    that is not always the side with the smaller mass, so the per-term
    rounding can carry the result a little past 0 or 1, and it is clamped
    to [0, 1].
    """
    _check_law(a, b, m)
    check_int("x_star", x_star, 0, m + 1)
    if m - x_star + 1 <= x_star:
        tail = math.fsum(_betabinom_terms(m, a, b, x_star, m + 1))
    else:
        tail = 1.0 - math.fsum(_betabinom_terms(m, a, b, 0, x_star))
    return min(1.0, max(0.0, tail))
