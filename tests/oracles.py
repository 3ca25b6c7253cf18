"""Reference computations for the test suite.

The laws and scans use exact rational arithmetic (``math.comb`` /
``math.factorial`` / ``Fraction``), or mpmath at a stated precision
(:func:`binom_cdf_mp`); none calls the package's evaluation routes, so
agreement is a genuine two-route check.
The last part holds helpers and references that only tests need: a
pure-Python SplitMix64, the reference for the Monte Carlo stream, and its
inverse, which finds the counter of a given output; a
per-method lookup in a simulation report, an exhaustive rung scan to check
the bisecting grid search against, and the joint predictive law of the
class-conditional budget, assembled pair by pair from the exact
Beta-Binomial pmfs of the class count (its point masses at k_j = 0 and
k_j = k written out) and of the error count (the package itself sums one
window-coverage tail per window count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from ssbc.mondrian import MondrianSpec

_JOINT_MASS_TOL = 1e-9


class DegenerateRungError(ValueError):
    """The miscoverage count s_j is 0 or n_j, so Beta(s_j, n_j - s_j) is
    undefined at this rung."""


def binom_tail(n: int, p, k: int) -> Fraction:
    """Pr(Bin(n, p) >= k), exact for rational (or float-rational) p in [0, 1].

    With p = M/D and Q = D - M, the tail is the integer sum of
    C(n, j) M^j Q^(n-j) over j >= k, over the one denominator D^n."""
    p = Fraction(p)
    if k <= 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    M, D = p.numerator, p.denominator
    Q = D - M
    if Q == 0:
        return Fraction(1)
    hits, term = 0, comb(n, k) * M**k * Q ** (n - k)
    for j in range(k, n + 1):
        hits += term
        # C(n, j+1) M^(j+1) Q^(n-j-1): an exact division
        term = term * (n - j) * M // ((j + 1) * Q)
    return Fraction(hits, D**n)


def binom_rung_tail(n: int, u: int, alpha_target: float) -> Fraction:
    """The infinite-stream tail at rung u, Pr(Beta(n+1-u, u) >= t), through
    the identity

        Pr(Beta(n+1-u, u) >= t) = Pr(Bin(n, 1-t) >= u),

    with t = 1.0 - alpha_target rounded exactly as the package rounds it.
    Sums the upper binomial tail directly, where ``beta_survival_int``
    takes the complement of the tail at t."""
    return binom_tail(n, 1 - Fraction(1.0 - alpha_target), u)


def reg_inc_beta_int(x, a: int, b: int) -> Fraction:
    """I_x(a, b) for integer shapes via the identity
    I_x(a, b) = Pr(Bin(a+b-1, x) >= a)."""
    return binom_tail(a + b - 1, x, a)


def beta_survival_int(t, a: int, b: int) -> Fraction:
    """Pr(Z >= t) for Z ~ Beta(a, b) with integer shapes."""
    return 1 - reg_inc_beta_int(t, a, b)


def beta_fn(x: int, y: int) -> Fraction:
    """B(x, y) for positive integers: (x-1)! (y-1)! / (x+y-1)!."""
    return Fraction(factorial(x - 1) * factorial(y - 1), factorial(x + y - 1))


def bb_pmf(r: int, m: int, a: int, b: int) -> Fraction:
    """Beta-Binomial(m; a, b) pmf at r, exact for integer shapes."""
    return Fraction(comb(m, r)) * beta_fn(r + a, m - r + b) / beta_fn(a, b)


def bb_survival(x_star: int, m: int, a: int, b: int) -> Fraction:
    """Pr(X >= x_star) for X ~ Beta-Binomial(m; a, b), integer shapes."""
    return sum((bb_pmf(r, m, a, b) for r in range(max(0, x_star), m + 1)), Fraction(0))


def bb_window_tail(x_star: int, m: int, n: int, u: int) -> Fraction:
    """Pr(X >= x_star) for X ~ Beta-Binomial(m; n+1-u, u), the window tail
    at rung u, through the hypergeometric identity

        Pr(X >= x*) = Pr(Hypergeom(N=n+m, K=n, draws=u+c) >= u),  c = m - x*.

    At most c of the m test scores exceed the (n+1-u)-th calibration score
    exactly when the top u+c of all n+m scores hold at least u calibration
    scores.  One integer sum and one division, so it reaches n and m in
    the thousands, where the pmf-by-pmf Fraction sum does not.
    """
    if x_star <= 0:
        return Fraction(1)
    if x_star > m:
        return Fraction(0)
    draws = u + m - x_star
    # hits = sum over i of C(n, i) C(m, draws - i); each factor steps to its
    # next value by one exact small-integer multiply and divide
    hits = 0
    c_n, c_m = comb(n, u), comb(m, draws - u)
    for i in range(u, min(n, draws) + 1):
        hits += c_n * c_m
        c_n = c_n * (n - i) // (i + 1)
        c_m = c_m * (draws - i) // (m - draws + i + 1)
    return Fraction(hits, comb(n + m, draws))


def bb_rung_count_tail(x_star: int, m: int, n: int, u: int) -> Fraction:
    """The same window tail as :func:`bb_window_tail`, as a law of the rung:

        Pr(X >= x*) = Pr(V >= u),  V ~ Beta-Binomial(n; c+1, m-c),  c = m - x*,

    for 1 <= x* <= m.  At most c of the m test scores exceed the
    (n+1-u)-th smallest calibration score exactly when at least u
    calibration scores exceed the (c+1)-th largest test score.  Each term
    is Pr(V = v) = C(v+c, c) C(n-v+m-c-1, m-c-1) / C(n+m, m), in integers.
    """
    if not 1 <= x_star <= m:
        raise ValueError(f"the rung-count law needs 1 <= x* <= m, got x* = {x_star}, m = {m}")
    c = m - x_star
    hits = sum(comb(v + c, c) * comb(n - v + m - c - 1, m - c - 1) for v in range(u, n + 1))
    return Fraction(hits, comb(n + m, m))


def log_beta_int(a: int, b: int) -> float:
    """ln B(a, b) through exact integers: B(a, b) = 1 / ((a+b-1) C(a+b-2, a-1)).

    ``math.log`` of an integer takes its exponent apart before rounding, so
    each log is accurate however large the binomial coefficient grows.
    """
    return -math.log(a + b - 1) - math.log(comb(a + b - 2, a - 1))


def binom_cdf_mp(n: int, x: float, ks, digits: int = 30) -> list[float]:
    """Pr(Bin(n, x) <= k) for each k in ks, summed in mpmath at ``digits``
    significant digits, with x exact.  The terms run out from the mode, by
    the ratio p(v+1)/p(v) = (n-v) x / ((v+1)(1-x)), until they fall below
    10^-(digits+10) of the mode's.  This checks the float kernel's rounding
    at sizes no rational sum reaches; its formula is checked against
    ``binom_tail`` at small n."""
    import mpmath

    with mpmath.workdps(digits):
        p = mpmath.mpf(x)
        odds = p / (1 - p)
        tiny = mpmath.mpf(10) ** -(digits + 10)
        mode = int((n + 1) * p)
        terms = {mode: mpmath.mpf(1)}
        term, v = mpmath.mpf(1), mode
        while v < n and term > tiny:
            term = term * (n - v) * odds / (v + 1)
            v += 1
            terms[v] = term
        term, v = mpmath.mpf(1), mode
        while v > 0 and term > tiny:
            term = term * v / ((n - v + 1) * odds)
            v -= 1
            terms[v] = term
        total = mpmath.fsum(terms.values())
        return [float(mpmath.fsum(t for v, t in terms.items() if v <= k) / total) for k in ks]


def ssbc_scan_infinite(n: int, alpha_target, delta):
    """Exhaustive SSBC grid scan for an infinite test stream.

    Returns (u, tail) for the largest rung u/(n+1) < alpha_target whose
    tail Pr(Beta(n+1-u, u) >= 1 - alpha_target) reaches 1 - delta, or None
    when no rung does.
    """
    alpha_target = Fraction(alpha_target)
    delta = Fraction(delta)
    best = None
    for u in range(1, n + 1):
        if Fraction(u, n + 1) >= alpha_target:
            break
        tail = beta_survival_int(1 - alpha_target, n + 1 - u, u)
        if tail >= 1 - delta:
            best = (u, tail)
    return best


def window_threshold_count(n: int, delta, m: int) -> int:
    """Largest x with Pr(X >= x) >= 1 - delta for X ~ Beta-Binomial(m; n, 1),
    the covered count at the first rung; x = 0 always qualifies."""
    threshold = 1 - Fraction(delta)
    survival = Fraction(0)
    for x in range(m, 0, -1):
        survival += bb_pmf(x, m, n, 1)
        if survival >= threshold:
            return x
    return 0


def window_threshold_bisect(n: int, delta, m: int) -> int:
    """Smallest c in [0, m] with C(n+m-c-1, n) <= delta * C(n+m, n), i.e.
    Pr(X <= m-c-1) <= delta for X ~ Beta-Binomial(m; n, 1), by exact
    bisection; x* = m - c.  c = m qualifies, since C(n-1, n) = 0."""
    exact = Fraction(delta)
    total = comb(n + m, n)
    lo, hi = 0, m
    while lo < hi:
        mid = (lo + hi) // 2
        if comb(n + m - mid - 1, n) * exact.denominator <= exact.numerator * total:
            hi = mid
        else:
            lo = mid + 1
    return lo


def ols_slope_through_origin(pairs) -> float:
    """Least-squares slope of y on x with zero intercept."""
    sxy = math.fsum(x * y for x, y in pairs)
    sxx = math.fsum(x * x for x, _ in pairs)
    return sxy / sxx


def total_variation(counts, pmf) -> float:
    """TV distance between a histogram (counts) and a pmf on the same grid."""
    total = sum(counts)
    return 0.5 * math.fsum(abs(c / total - p) for c, p in zip(counts, pmf))


def splitmix64(state: int, i: int) -> int:
    """Output i (from 0) of SplitMix64 whose state starts at ``state``, in
    exact Python ints: the state after i + 1 steps of 0x9E3779B97F4A7C15,
    passed through the xor-shift-multiply finalizer of Steele, Lea & Flood
    (OOPSLA 2014)."""
    mask = (1 << 64) - 1
    z = (state + (i + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def stream_uniform(seed: int, counter: int) -> float:
    """The Monte Carlo stream's uniform at ``counter``: the top 53 bits of
    SplitMix64 output ``counter`` from state ``seed``, scaled by 2**-53
    (exact, as 53-bit ints are floats)."""
    return (splitmix64(seed, counter) >> 11) * 2.0**-53


def method_report(report, name: str):
    """The MethodReport of one method in a SimReport."""
    for method in report.methods:
        if method.method == name:
            return method
    raise KeyError(name)


def full_scan(tail_fn, u_hi: int, delta: float):
    """(u, tail) for the largest u in 1..u_hi with 1.0 - tail_fn(u) <= delta,
    or None.  Evaluates every rung and assumes nothing about monotonicity:
    the reference for ``ssbc.adjust.search_grid``."""
    best = None
    for u in range(1, u_hi + 1):
        tail = tail_fn(u)
        if 1.0 - tail <= delta:
            best = (u, tail)
    return best


def error_cap(alpha: float, r: int) -> int:
    """The per-window error budget floor(alpha r), with alpha read as the
    decimal it prints as, in exact rationals (0.29 of 100 is 29, although
    0.29 * 100 floats to 28.999999999999996)."""
    return math.floor(Fraction(str(alpha)) * r)


def error_count_conditional(e: int, r: int, s_j: int, n_j: int) -> float:
    """Pr(e_j = e | m_j = r) = C(r,e) B(e+s_j, r-e+n_j-s_j) / B(s_j, n_j-s_j),
    the exact :func:`bb_pmf` rounded once; 1 for the empty window r = 0."""
    if s_j <= 0 or s_j >= n_j:
        raise DegenerateRungError(
            f"Beta(s_j, n_j - s_j) undefined for s_j={s_j}, n_j={n_j}"
        )
    if not (0 <= e <= r):
        raise ValueError(f"need 0 <= e <= r, got e={e}, r={r}")
    return float(bb_pmf(e, r, s_j, n_j - s_j))


@dataclass(frozen=True)
class JointPredictive:
    """Joint law over (e, r): probabilities[e, r] = Pr(e_j = e, m_j = r),
    zero above the diagonal (e > r).  Immutable once built."""

    probabilities: np.ndarray
    s_j: int
    prevalence_shape: tuple[float, float]
    error_shape: tuple[float, float]

    def marginal_count(self) -> np.ndarray:
        """Marginal law of the class count m_j (sums over e)."""
        return self.probabilities.sum(axis=0)

    def total_mass(self) -> float:
        m = self.probabilities.shape[1] - 1
        return math.fsum(
            self.probabilities[e, r] for r in range(m + 1) for e in range(r + 1)
        )


def joint_predictive(spec: MondrianSpec, s_j: int) -> JointPredictive:
    """Joint law Pr(e_j = e, m_j = r) = Pr(m_j = r) Pr(e_j = e | m_j = r),
    with the error-rate law parameterized by the miscoverage count s_j (on
    the grid, the rung u).  Each pair is an exact product, rounded once.
    Raises RuntimeError if its mass is not 1."""
    if s_j <= 0 or s_j >= spec.n_j:
        raise DegenerateRungError(f"s_j={s_j} is degenerate for n_j={spec.n_j}")
    m, k, k_j = spec.m, spec.k, spec.k_j
    if 0 < k_j < k:
        count_pmf = [bb_pmf(r, m, k_j, k - k_j) for r in range(m + 1)]
    else:  # all-other or all-class-j training: a point mass at 0 or m
        count_pmf = [Fraction(r == (m if k_j else 0)) for r in range(m + 1)]
    probs = np.zeros((m + 1, m + 1))
    for r in range(m + 1):
        if count_pmf[r]:
            for e in range(r + 1):
                probs[e, r] = count_pmf[r] * bb_pmf(e, r, s_j, spec.n_j - s_j)
    probs.flags.writeable = False
    law = JointPredictive(
        probabilities=probs,
        s_j=s_j,
        prevalence_shape=(float(spec.k_j), float(spec.k - spec.k_j)),
        error_shape=(float(s_j), float(spec.n_j - s_j)),
    )
    mass = law.total_mass()
    if abs(mass - 1.0) > _JOINT_MASS_TOL:
        raise RuntimeError(f"joint predictive mass {mass} deviates from 1 beyond tolerance")
    return law
