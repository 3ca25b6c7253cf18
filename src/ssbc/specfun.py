"""Scalar special functions for Beta and Beta-Binomial coverage laws.

Every Beta law here has integer shapes, so each Beta tail is a binomial
tail, Pr(Beta(a, b) >= t) = Pr(V <= a - 1) for V ~ Bin(a + b - 1, t), summed
by one walk out from the mode, with no lgamma and no series.  The upper tail
is the lower tail of the mirrored law: I_x(a, b) = Pr(W <= b - 1) for
W = N - V ~ Bin(N, 1 - x), whose walked terms are V's reversed.  Accuracy
contract, as measured, not proven: the absolute error of
:func:`beta_survival` and :func:`reg_inc_beta` stays below
1e-15 + 1e-17 * sqrt(N), N = a + b - 1.  Against 40-digit mpmath sums it was
at most 7.8e-16 at N = 1e3, 8.3e-15 at 1e6, 4.0e-14 at 1e8, 1.6e-13 at 1e9
and 2.9e-13 at 1e10 (where scipy's binomial CDF is off by up to 3.1e-12).

The full Beta-Binomial pmf (:func:`betabinom_pmf_vector`) is one ratio walk
from the mode: against 50-digit mpmath every term above 1e-290 was within
5.7e-15 of its value, relatively, at m <= 1000 and integer shapes up to 1e18
(2.5e-15 at float shapes in (0.05, 1e4)).  Single terms and tails are summed
in log space (``math.lgamma``), so their absolute error grows like N ln N,
N = a + b + m: against exact integers it stayed below 1e-15 * N ln N (tails
at shapes (n+1-u, u): 1.2e-12 at n = m = 1e3, 4.8e-11 at n = m = 1e4,
3.5e-10 at n = 1e3 and m = 1e5, 2.9e-9 at n = 1e3 and m = 1e6).  A tail is
summed on the shorter side of its threshold, of at most MAX_WINDOW_TERMS terms.

Every function takes the law's parameters as plain numbers, in the order
scipy.stats uses: the point, then the trial count m of a Beta-Binomial, then
the shapes a and b.  The Beta kernels check them in :func:`_binomial_cdf`,
the lgamma Beta-Binomial kernels with :func:`_check_law`, and
:func:`betabinom_pmf_vector`, which also takes one zero shape, on its own,
once per call; the term routine and :func:`_log_beta` check nothing.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections.abc import Iterator
from itertools import accumulate, chain, repeat, takewhile
from operator import mul, truediv

# A binomial walk stops on each side where a term falls below this share of
# the mode term, ~9.1 standard deviations out; a law of variance above
# MAX_WALK_VARIANCE (~2.4e6 terms: ~1.2 s, 29 MiB on 2 vCPUs) is refused.
_WALK_CUTOFF = 2.0**-60
MAX_WALK_VARIANCE = 2**34
# Most terms a window tail sums on its shorter side (2-3 us each on 2 vCPUs).
MAX_WINDOW_TERMS = 2**16
# Most terms a window rung table or a Mondrian search may sum (~28 s at ~2.8 us
# a term on 2 vCPUs); each counts its terms before any work and refuses more.
MAX_REQUEST_TERMS = 10**7


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


def _check_law(a: float, b: float, m: int) -> None:
    """Raise ValueError unless the trial count m is an integer >= 1 and the
    Beta shapes a and b are positive and finite."""
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


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b), for positive
    finite shapes (not checked here).

    When the direct three-term form would cancel badly (one huge shape, a
    small result), the Gamma-ratio step is evaluated through a Stirling
    expansion instead.
    """
    lga, lgb, lgab = math.lgamma(a), math.lgamma(b), math.lgamma(a + b)
    direct = lga + lgb - lgab
    rounding = 2.3e-16 * (abs(lga) + abs(lgb) + abs(lgab))
    if rounding <= 1e-13 * abs(direct) or max(a, b) < 30.0:
        return direct
    small, large = (a, b) if a <= b else (b, a)
    return math.lgamma(small) - _lgamma_step(large, small)


@functools.lru_cache(maxsize=2)  # callers read one law, or its two sides, many times in a row
def _binomial_walk(N: int, x: float, mirror: bool) -> tuple[int, array]:
    """(lo, prefix) for V ~ Bin(N, x), or with mirror for N - V ~ Bin(N, 1 - x),
    in units of the term at the mode: prefix[i] sums the walked terms at lo..lo+i.

    With x = M/D exactly and Q = D - M (swapped by mirror), the walk goes up
    from the mode by p(v+1)/p(v) = (N-v) M / ((v+1) Q), and down by the same
    walk up of the mirrored law, each step one correctly rounded quotient
    of exact integers, so no rounding repeats from step to step and the
    mirrored walk's terms are these reversed, bit for bit.  Each side stops
    where a term falls below _WALK_CUTOFF of the mode term; at x = 0 or 1
    its first step away from the mode is 0, which leaves the point mass.
    """
    M, D = x.as_integer_ratio()
    M, Q = (D - M, M) if mirror else (M, D - M)
    if N * M * Q > MAX_WALK_VARIANCE * D * D:
        raise ValueError(f"Bin({N}, {x!r}) is too wide to sum: its variance N x (1 - x) "
                         f"exceeds MAX_WALK_VARIANCE = {MAX_WALK_VARIANCE}")

    def up(v: int, M: int, Q: int) -> Iterator[float]:  # p(v+1..) / p(v) of Bin(N, M/D)
        steps = map(truediv, map(mul, range(N - v, 0, -1), repeat(M)),
                    map(mul, range(v + 1, N + 1), repeat(Q)))
        return takewhile(_WALK_CUTOFF.__le__, accumulate(steps, mul))

    mode = min(N, (N + 1) * M // D)
    below = array("d", up(N - mode, Q, M))
    below.reverse()
    return mode - len(below), array("d", accumulate(chain(below, (1.0,), up(mode, M, Q))))


def _binomial_cdf(name: str, x: float, a: float, b: float, mirror: bool) -> float:
    """Pr(V <= a-1) for V ~ Bin(a+b-1, x), or with mirror Pr(N - V <= b-1):
    the walked terms up to that point over the walked mass."""
    if not (a >= 1 and b >= 1 and a % 1 == 0 and b % 1 == 0):
        raise ValueError(f"Beta shapes must be integers >= 1, got a={a!r}, b={b!r}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    lo, prefix = _binomial_walk(int(a) + int(b) - 1, float(x), mirror)
    i = int(b if mirror else a) - 1 - lo
    if i < 0:
        return 0.0
    return 1.0 if i >= len(prefix) - 1 else prefix[i] / prefix[-1]


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), i.e. the Beta(a, b) CDF at x,
    for integer-valued shapes a, b >= 1."""
    return _binomial_cdf("x", x, a, b, True)


def beta_survival(t: float, a: float, b: float) -> float:
    """Pr(Z >= t) for Z ~ Beta(a, b), for integer-valued shapes a, b >= 1."""
    return _binomial_cdf("t", t, a, b, False)


def _betabinom_terms(m: int, a: float, b: float, start: int, stop: int) -> Iterator[float]:
    """Pr(X = r) for r in start..stop-1, X ~ Beta-Binomial(m; a, b); the
    law's constants are computed once, not per term."""
    lg_m = math.lgamma(m + 1)
    lb_ab = _log_beta(a, b)
    for r in range(start, stop):
        log_choose = lg_m - math.lgamma(r + 1) - math.lgamma(m - r + 1)
        yield math.exp(log_choose + _log_beta(r + a, m - r + b) - lb_ab)


def betabinom_pmf(r: int, m: int, a: float, b: float) -> float:
    """Pr(X = r) for X ~ Beta-Binomial(m; a, b) = C(m,r) B(r+a, m-r+b) / B(a,b)."""
    _check_law(a, b, m)
    check_int("r", r, 0, m)
    return next(_betabinom_terms(m, a, b, r, r + 1))


def betabinom_pmf_vector(m: int, a: float, b: float) -> list[float]:
    """The full pmf over r = 0..m, by one walk out from the mode: floor((m+1)(a-1)/(a+b-2))
    if a + b > 2, else the larger end.  With a = A/D and b = B/D, a step up multiplies by
    p(r+1)/p(r) = (m-r)(r D + A) / ((r+1)((m-r-1) D + B)), a correctly rounded quotient of
    exact integers; below the mode the walk steps up the mirrored law Beta-Binomial(m; b, a).
    The terms are divided by their sum, taken from the mode out.  One shape may be 0: the
    limit is a point mass at the mode, r = 0 if a = 0 or m if b = 0, and each first step is 0."""
    check_int("trial count m", m)
    if not (a >= 0 and b >= 0 and math.isfinite(a + b) and a + b > 0):
        raise ValueError(f"Beta shapes must be finite and >= 0, not both 0, got a={a!r}, b={b!r}")
    A, Da = (a, 1) if isinstance(a, int) else float(a).as_integer_ratio()
    B, Db = (b, 1) if isinstance(b, int) else float(b).as_integer_ratio()
    A, B, D = A * Db, B * Da, Da * Db

    def walk(A: int, B: int, r: int) -> list[float]:  # p(r+1..m) / p(r) at shapes A/D, B/D
        nums = map(mul, range(m - r, 0, -1), range(r * D + A, m * D + A, D))
        dens = map(mul, range(r + 1, m + 1), range((m - r - 1) * D + B, B - D, -D))
        return list(accumulate(map(truediv, nums, dens), mul))

    mode = min(m, max(0, (m + 1) * (A - D) // (A + B - 2 * D))) if A + B > 2 * D else m * (A > B)
    pmf, above = walk(B, A, m - mode), walk(A, B, mode)
    total = math.fsum(chain((1.0,), above, pmf))
    pmf.reverse()
    pmf.append(1.0)
    pmf += above
    del above  # each term is then freed as its quotient replaces it
    for r, term in enumerate(pmf):
        pmf[r] = term / total
    return pmf


def betabinom_survival(x_star: int, m: int, a: float, b: float) -> float:
    """Pr(X >= x_star) for X ~ Beta-Binomial(m; a, b).

    The side of x_star with fewer terms is summed (with exact summation);
    that is not always the side with the smaller mass, so the per-term
    rounding can carry the result a little past 0 or 1, and it is clamped
    to [0, 1].  A side of more than MAX_WINDOW_TERMS terms is refused.
    """
    _check_law(a, b, m)
    check_int("x_star", x_star, 0, m + 1)
    if min(x_star, m + 1 - x_star) > MAX_WINDOW_TERMS:
        raise ValueError(f"Pr(X >= {x_star}), X ~ Beta-Binomial(m={m}; a={a!r}, b={b!r}), is too "
                         f"wide to sum: both sides exceed MAX_WINDOW_TERMS = {MAX_WINDOW_TERMS}")
    if m - x_star + 1 <= x_star:
        tail = math.fsum(_betabinom_terms(m, a, b, x_star, m + 1))
    else:
        tail = 1.0 - math.fsum(_betabinom_terms(m, a, b, 0, x_star))
    return min(1.0, max(0.0, tail))
