import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbc.specfun import (
    _log_beta,
    beta_survival,
    betabinom_pmf,
    betabinom_pmf_vector,
    betabinom_survival,
    reg_inc_beta,
)

from oracles import (
    bb_pmf,
    binom_cdf_mp,
    bb_survival,
    bb_window_tail,
    beta_survival_int,
    log_beta_int,
    reg_inc_beta_int,
)


# Each public kernel with valid arguments, the position of its trial count
# m (None if it has none), and first arguments outside its range.  The
# shapes a and b are always the last two arguments.
KERNELS = {
    "reg_inc_beta": (reg_inc_beta, (0.3, 2.0, 3.0), None, (-0.1, 1.2)),
    "beta_survival": (beta_survival, (0.3, 2.0, 3.0), None, (-0.1, 1.2)),
    "betabinom_pmf": (betabinom_pmf, (4, 10, 2.0, 3.0), 1, (-1, 11)),
    "betabinom_pmf_vector": (betabinom_pmf_vector, (10, 2.0, 3.0), 0, ()),
    "betabinom_survival": (betabinom_survival, (4, 10, 2.0, 3.0), 1, (-1, 12)),
}


def _bad_calls():
    for name, (_, args, m_at, bad_points) in KERNELS.items():
        # betabinom_pmf_vector takes one zero shape, for the law's point-mass
        # limit (TestBetaBinomial.test_one_zero_shape_is_a_point_mass)
        zero_is_bad = name != "betabinom_pmf_vector"
        bad = [(len(args) - 2, v) for v in (0.0, -1.5, math.nan, math.inf) if v or zero_is_bad]
        bad += [(len(args) - 1, v) for v in (0, -2, math.nan, -math.inf) if v or zero_is_bad]
        if m_at is not None:
            bad += [(m_at, v) for v in (True, 0, -3)]
        bad += [(0, v) for v in bad_points]
        for at, value in bad:
            yield pytest.param(name, at, value, id=f"{name}-arg{at}={value!r}")


@pytest.mark.parametrize("name,at,value", list(_bad_calls()))
def test_every_kernel_rejects_bad_arguments(name, at, value):
    kernel, args, _, _ = KERNELS[name]
    kernel(*args)  # valid as given
    with pytest.raises(ValueError):
        kernel(*args[:at], value, *args[at + 1:])


class TestLogBeta:
    def test_known_values(self):
        assert _log_beta(1, 1) == pytest.approx(0.0, abs=1e-15)
        assert _log_beta(2, 3) == pytest.approx(math.log(1 / 12), rel=1e-14)
        assert _log_beta(50, 1) == pytest.approx(math.log(1 / 50), rel=1e-14)

    @pytest.mark.parametrize("a,b", [(2, 5), (40, 3), (123, 456), (2000, 17), (9999, 9999)])
    def test_integer_factorial_oracle(self, a, b):
        assert _log_beta(a, b) == pytest.approx(log_beta_int(a, b), rel=1e-12)

    def test_large_shapes_relative_error(self):
        # contract holds up to shapes of 1e6; spot-check the top decades
        for a, b in [(10_000, 10_000), (100_000, 7), (100_000, 100_000)]:
            assert _log_beta(a, b) == pytest.approx(log_beta_int(a, b), rel=1e-12)

    @given(st.floats(0.05, 500.0), st.floats(0.05, 500.0))
    @settings(max_examples=100)
    def test_symmetry(self, a, b):
        assert _log_beta(a, b) == pytest.approx(_log_beta(b, a), rel=1e-13, abs=1e-13)


class TestRegIncBeta:
    def test_uniform(self):
        assert reg_inc_beta(0.37, 1, 1) == pytest.approx(0.37, abs=1e-15)

    def test_symmetric_midpoint(self):
        assert reg_inc_beta(0.5, 7, 7) == pytest.approx(0.5, abs=1e-13)

    def test_power_law(self):
        assert reg_inc_beta(0.9, 50, 1) == pytest.approx(0.9**50, rel=1e-12)

    def test_endpoints(self):
        # Bin(a+b-1, x) is a point mass at x = 0 and x = 1
        for p in [(4, 3), (1, 1), (1, 60), (60, 1.0), (500_000, 500_001)]:
            assert reg_inc_beta(0.0, *p) == 0.0
            assert reg_inc_beta(1.0, *p) == 1.0
            assert beta_survival(0.0, *p) == 1.0
            assert beta_survival(1.0, *p) == 0.0

    @given(
        st.integers(1, 100),
        st.integers(1, 100),
        st.integers(1, 99),
    )
    @settings(max_examples=300, deadline=None)
    def test_binomial_sum_identity(self, a, b, xi):
        x = xi / 100
        expected = float(reg_inc_beta_int(x, a, b))
        assert reg_inc_beta(x, a, b) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(1, 80), st.integers(1, 80))
    @settings(max_examples=100)
    def test_nondecreasing_in_x(self, a, b):
        xs = [i / 20 for i in range(21)]
        values = [reg_inc_beta(x, a, b) for x in xs]
        assert all(lo <= hi + 1e-13 for lo, hi in zip(values, values[1:]))

    @given(st.integers(1, 200), st.integers(1, 200), st.floats(0.001, 0.999))
    @settings(max_examples=200)
    def test_complements_survival(self, a, b, t):
        assert reg_inc_beta(t, a, b) + beta_survival(t, a, b) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(2.5, 3), (3, 0.5), (1.0000001, 4), (1e-3, 2)])
    def test_non_integer_shapes_are_refused(self, a, b):
        # both kernels are binomial tails, so the shapes are integer-valued
        with pytest.raises(ValueError, match="integers"):
            reg_inc_beta(0.3, a, b)
        with pytest.raises(ValueError, match="integers"):
            beta_survival(0.3, a, b)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(1.2, 2, 2)
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 2, 2)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0, 2)


class TestBetaSurvival:
    def test_at_zero(self):
        for a, b in [(13, 1), (1, 13), (12.0, 7.0)]:
            assert beta_survival(0.0, a, b) == 1.0

    def test_closed_form_small_tail(self):
        assert beta_survival(0.99, 5, 1) == pytest.approx(1 - 0.99**5, rel=1e-12)

    def test_order_statistic_tail(self):
        # oracle: 1 - (0.9^50 + 50 * 0.1 * 0.9^49), exact rational evaluation
        expected = 0.9662141403075681
        assert beta_survival(0.9, 49, 2) == pytest.approx(expected, abs=1e-12)
        assert float(beta_survival_int(0.9, 49, 2)) == pytest.approx(expected, abs=1e-15)

    def test_near_one_accuracy(self):
        # survival close to 1 must not lose absolute accuracy to cancellation
        got = beta_survival(0.5, 49, 2)
        expected = float(beta_survival_int(0.5, 49, 2))
        assert got == pytest.approx(expected, abs=1e-13)


def contract(n: int) -> float:
    """The module's accuracy contract for a Beta tail with a + b - 1 = n."""
    return 1e-15 + 1e-17 * math.sqrt(n)


def sampled_splits(rng: random.Random, n: int, x: float, count: int) -> list[int]:
    """Split points k within 5 sd of the mean of Bin(n, x), where neither
    side of the split is 0 or 1."""
    mean, sd = n * x, math.sqrt(n * x * (1 - x))
    return [min(max(round(mean + rng.uniform(-5, 5) * sd), 0), n - 1) for _ in range(count)]


class TestBetaSurvivalAgainstScipy:
    @pytest.mark.parametrize("n", [100, 1_000, 10_000])
    def test_error_within_contract(self, n):
        # sample rungs u and points t within 4 sd of the law's mean, where
        # the tail is neither 0 nor 1; scipy's own error is below 1e-15 here
        special = pytest.importorskip("scipy.special")
        rng = random.Random(n)
        for _ in range(200):
            u = rng.randint(1, n)
            a, b = n + 1 - u, u
            mean = a / (a + b)
            sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
            t = min(max(mean + rng.uniform(-4, 4) * sd, 1e-9), 1 - 1e-9)
            got = beta_survival(t, float(a), float(b))
            assert abs(got - float(special.betaincc(a, b, t))) <= 1e-15 + contract(n), (a, b, t)

    @pytest.mark.parametrize("n,x", [(10**9, 0.9), (10**9, 0.41), (10**10, 0.683)])
    def test_large_laws_agree(self, n, x):
        # At these sizes scipy's binomial CDF is itself off by more than the
        # contract: against 40-digit mpmath sums, by up to 8.0e-13 at
        # n = 1e9 and 3.1e-12 at n = 1e10.  The bound adds 4e-17 sqrt(n)
        # for it.
        binom = pytest.importorskip("scipy.stats").binom
        bound = contract(n) + 4e-17 * math.sqrt(n)
        for k in sampled_splits(random.Random(n), n, x, 6):
            want = float(binom.cdf(k, n, x))
            assert abs(beta_survival(x, k + 1, n - k) - want) <= bound, (n, x, k)
            assert abs(reg_inc_beta(x, k + 1, n - k) - (1 - want)) <= bound, (n, x, k)


class TestBetaSurvivalAgainstMpmath:
    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_error_within_1e_13(self, n):
        pytest.importorskip("mpmath")
        rng = random.Random(n)
        for x in (0.9, 1.0 - 0.317, 0.41, rng.uniform(0.01, 0.99)):
            ks = sampled_splits(rng, n, x, 8)
            for k, want in zip(ks, binom_cdf_mp(n, x, ks)):
                assert abs(beta_survival(x, k + 1, n - k) - want) <= 1e-13, (n, x, k)
                assert abs(reg_inc_beta(x, k + 1, n - k) - (1 - want)) <= 1e-13, (n, x, k)


class TestBetaSurvivalFarTails:
    @pytest.mark.parametrize("x", [0.1, 0.3])
    def test_lower_tail_at_minus_6_sd_keeps_its_relative_accuracy(self, x):
        # Each side of the walk stops at 2**-60 of the mode term, about 9.1 sd
        # out, so Pr(V <= k) at -6 sd (~1e-9) keeps ~10 correct digits, and
        # the central values stay within the contract.
        pytest.importorskip("mpmath")
        n = 10**6
        mean, sd = n * x, math.sqrt(n * x * (1 - x))
        ks = [round(mean + z * sd) for z in (-6, -3, -1, 0, 1, 3, 6)]
        far, *central = zip(ks, binom_cdf_mp(n, x, ks, digits=40))
        k, want = far
        assert abs(beta_survival(x, k + 1, n - k) - want) <= 1e-9 * want, (x, k)
        for k, want in central:
            assert abs(beta_survival(x, k + 1, n - k) - want) <= contract(n), (x, k)
            assert abs(reg_inc_beta(x, k + 1, n - k) - (1 - want)) <= contract(n), (x, k)


class TestBinomialWalkCap:
    def test_too_wide_laws_are_refused_before_walking(self):
        # variance N x (1 - x) above 2**34: refused at once, whatever N is
        for n, x in [(2**36 + 4, 0.5), (10**12, 0.9), (10**400, 0.3)]:
            with pytest.raises(ValueError, match="MAX_WALK_VARIANCE"):
                beta_survival(x, n // 2, n - n // 2)

    def test_narrow_laws_of_huge_n_are_walked(self):
        # Bin(10**30, 2**-100) has variance below 1: Pr(V = 0) = (1 - x)^N
        x, n = 2.0**-100, 10**30
        none = math.exp(n * math.log1p(-x))
        assert beta_survival(x, 1, n) == pytest.approx(none, rel=1e-14)
        assert reg_inc_beta(x, 1, n) == pytest.approx(1 - none, rel=1e-14)


# Both Beta tails at laws a + b - 1 = N from 1 to 1e10, on both sides of
# the mode and past the walked range, as float.hex, to the last bit:
# (x, a, b, reg_inc_beta(x, a, b), beta_survival(x, a, b)).
TAIL_BITS = [
    (0.41, 1, 1, "0x1.a3d70a3d70a3dp-2", "0x1.2e147ae147ae2p-1"),
    (0.0, 3, 5, "0x0.0p+0", "0x1.0000000000000p+0"),
    (1.0, 3, 5, "0x1.0000000000000p+0", "0x0.0p+0"),
    (2.0**-100, 1, 10**10, "0x0.0p+0", "0x1.0000000000000p+0"),
    (2.0**-100, 2, 10**10 - 1, "0x0.0p+0", "0x1.0000000000000p+0"),
    (0.41, 100, 901, "0x1.0000000000000p+0", "0x0.0p+0"),
    (0.41, 380, 621, "0x1.f3691a86a4061p-1", "0x1.92dcaf2b7f31cp-6"),
    (0.41, 450, 551, "0x1.754db49e7f91dp-8", "0x1.fd156496c3013p-1"),
    (0.683, 682_001, 318_000, "0x1.f7df5d679d693p-1", "0x1.0414530c52ec9p-6"),
    (0.683, 684_501, 315_500, "0x1.49182dc02f313p-11", "0x1.ffadb9f48ff7bp-1"),
    (0.9, 89_995_001, 10_005_000, "0x1.e784d1cf90718p-1", "0x1.87b2e306f9785p-5"),
    (0.9, 90_004_001, 9_996_000, "0x1.757749a9f0c40p-4", "0x1.d15116cac1f4ap-1"),
    (0.683, 683_010_001, 316_990_000, "0x1.fca7120b17271p-3", "0x1.80d63b7d3a8d6p-1"),
    (0.9, 8_999_970_001, 1_000_030_000, "0x1.aec435c045892p-1", "0x1.44ef28feec599p-3"),
    (0.9, 9_000_050_001, 999_950_000, "0x1.877a81edd8ee3p-5", "0x1.e78857e123062p-1"),
]


class TestBetaTailBits:
    @pytest.mark.parametrize("x,a,b,lower,upper", TAIL_BITS)
    def test_both_tails_to_the_last_bit(self, x, a, b, lower, upper):
        assert reg_inc_beta(x, a, b).hex() == lower
        assert beta_survival(x, a, b).hex() == upper

    def test_reg_inc_beta_refuses_too_wide_laws(self):
        for n, x in [(2**36 + 4, 0.5), (10**12, 0.9), (10**400, 0.3)]:
            with pytest.raises(ValueError, match="MAX_WALK_VARIANCE"):
                reg_inc_beta(x, n // 2, n - n // 2)


class TestPmfVectorMemory:
    @pytest.mark.parametrize("a,b", [(1, 1), (901, 100), (5, 996)])
    def test_peak_stays_near_the_returned_list(self, a, b):
        # The walk's terms become the returned list, each divided in place:
        # no second list of m + 1 floats is held at once.
        tracemalloc.start()
        try:
            pmf = betabinom_pmf_vector(2**16, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sys.getsizeof(pmf) + sum(map(sys.getsizeof, pmf))
        assert peak <= 1.5 * size, (peak, size)


class TestBetaBinomial:
    def test_uniform_mixture(self):
        for r in range(11):
            assert betabinom_pmf(r, 10, 1, 1) == pytest.approx(1 / 11, abs=1e-12)

    def test_beta_ratio_closed_forms(self):
        assert betabinom_pmf(10, 10, 50, 1) == pytest.approx(50 / 60, abs=1e-12)
        assert betabinom_pmf(0, 5, 1, 50) == pytest.approx(50 / 55, abs=1e-12)

    @pytest.mark.parametrize(
        "m,a,b",
        [(1, 1, 1), (7, 3, 9), (25, 50, 2), (60, 0.5, 0.5), (100, 46, 5), (200, 1000, 3), (40, 9500, 8200)],
    )
    def test_normalization(self, m, a, b):
        total = math.fsum(betabinom_pmf_vector(m, a, b))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m,a,b", [
        (92, 428571428571428, 571428571428572),  # log-space terms summed to ~108
        (50, 3 * 10**17, 4 * 10**17),  # a log-space term overflowed
    ])
    def test_huge_shapes_match_mpmath(self, m, a, b):
        # Pr(X = r) = C(m, r) a^(r) b^(m-r) / (a+b)^(m), in rising factorials
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            want = [mp.binomial(m, r) * mp.rf(a, r) * mp.rf(b, m - r) / mp.rf(a + b, m)
                    for r in range(m + 1)]
        for r, (got, exact) in enumerate(zip(betabinom_pmf_vector(m, a, b), want)):
            assert abs(got - exact) <= 1e-14 * exact, r

    def test_one_zero_shape_is_a_point_mass(self):
        # Beta-Binomial(m; 0, b) is the point mass at r = 0, (m; a, 0) at r = m
        for m in (1, 2, 7, 300, 10**4):
            at_zero = [1.0] + [0.0] * m
            for shape in (1, 2, 0.5, 2.5, 10**18, 1e300):
                for zero in (0, 0.0):
                    assert betabinom_pmf_vector(m, zero, shape) == at_zero, (m, shape)
                    assert betabinom_pmf_vector(m, shape, zero) == at_zero[::-1], (m, shape)
        # but not two zero shapes, and not a negative or non-finite one
        for a, b in [(0, 0), (0.0, 0.0), (0, -1), (-0.5, 0), (0, math.nan), (math.nan, 0.0),
                     (0, math.inf), (math.inf, 0)]:
            with pytest.raises(ValueError):
                betabinom_pmf_vector(5, a, b)

    def test_pmf_vector_against_exact_rationals(self):
        rng = random.Random(2026)
        for _ in range(30):
            m = rng.randint(1, 300)
            a, b = rng.randint(1, 400), rng.randint(1, 400)
            for r, got in enumerate(betabinom_pmf_vector(m, a, b)):
                exact = bb_pmf(r, m, a, b)
                assert abs(got - exact) <= 1e-14 * exact, (m, a, b, r)

    @given(st.integers(1, 40), st.floats(0.1, 300.0), st.floats(0.1, 300.0))
    @settings(max_examples=150)
    def test_symmetry(self, m, a, b):
        for r in range(m + 1):
            assert betabinom_pmf(r, m, a, b) == pytest.approx(betabinom_pmf(m - r, m, b, a), abs=1e-10)

    def test_pmf_against_exact_rationals(self):
        for (m, a, b) in [(12, 4, 9), (30, 17, 2), (55, 20, 36)]:
            for r in range(m + 1):
                expected = float(bb_pmf(r, m, a, b))
                assert betabinom_pmf(r, m, a, b) == pytest.approx(expected, abs=1e-12)

    def test_pmf_domain_errors(self):
        p = (10, 2, 3)
        with pytest.raises(ValueError):
            betabinom_pmf(-1, *p)
        with pytest.raises(ValueError):
            betabinom_pmf(11, *p)
        with pytest.raises(ValueError):
            betabinom_pmf(0, 0, 1, 1)


class TestBetaBinomialSurvival:
    def test_boundaries(self):
        p = (10, 2.5, 7)
        assert betabinom_survival(0, *p) == 1.0
        assert betabinom_survival(11, *p) == 0.0

    def test_uniform_tail(self):
        assert betabinom_survival(6, 10, 1, 1) == pytest.approx(5 / 11, abs=1e-12)

    def test_against_exact_rationals(self):
        for (m, a, b) in [(20, 6, 3), (41, 18, 25), (100, 50, 1)]:
            for x in range(m + 2):
                assert betabinom_survival(x, m, a, b) == pytest.approx(
                    float(bb_survival(x, m, a, b)), abs=1e-10
                )

    @given(st.integers(1, 50), st.floats(0.2, 200.0), st.floats(0.2, 200.0))
    @settings(max_examples=100)
    def test_nonincreasing(self, m, a, b):
        values = [betabinom_survival(x, m, a, b) for x in range(m + 2)]
        assert all(hi >= lo - 1e-12 for hi, lo in zip(values, values[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            betabinom_survival(12, 10, 1, 1)


class TestBetaBinomialTailAgainstHypergeometric:
    """The module's Beta-Binomial contract, checked against the exact
    integer hypergeometric route at coverage-law shapes (n+1-u, u)."""

    @pytest.mark.parametrize(
        "n,m", [(100, 100), (1000, 1000), (2000, 2000), (1000, 10_000), (2000, 20_000), (1000, 100_000)]
    )
    def test_error_within_contract(self, n, m):
        bound = 1e-15 * (n + 1 + m) * math.log(n + 1 + m)
        for alpha in (0.1, 0.3):
            x_star = m - round(alpha * m)
            u_hi = math.ceil(alpha * (n + 1)) - 1
            for u in (1, u_hi // 2, u_hi * 9 // 10, u_hi):
                got = betabinom_survival(x_star, m, n + 1 - u, u)
                exact = bb_window_tail(x_star, m, n, u)
                assert abs(Fraction(got) - exact) <= bound, (n, m, alpha, u)
