import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbc.coverage import (
    CalibrationContext,
    CoverageRegime,
    highest_grid_index_below,
    order_index,
    tail_prob,
    window_threshold,
)
from ssbc.specfun import beta_survival, betabinom_survival

from oracles import (
    bb_rung_count_tail, bb_survival, bb_window_tail, beta_survival_int, binom_rung_tail
)


class TestDecimalLevels:
    """A level is the decimal repr prints for it, and each level-to-count
    map is that decimal's exact integer ceiling."""

    def test_exact_products_do_not_drift(self):
        # 0.07 * 100 floats to 7.000000000000001: the grid rung below 0.07
        # at n = 99 is 6, not 7
        assert highest_grid_index_below(0.07, 99) == 6
        # (1 - 0.18) * 150 floats to 123.00000000000001; must not ceil to 124
        assert window_threshold(0.18, 150) == 123
        assert order_index(0.18, 149) == 123

    def test_plain_values_unchanged(self):
        assert order_index(0.1, 50) == 46  # ceil(45.9)
        assert highest_grid_index_below(0.1, 22) == 2  # ceil(2.3) - 1

    def test_window_threshold_domain_errors(self):
        for alpha, m in ((0.0, 10), (1.0, 10), (1.5, 10), (0.1, 0), (0.1, 2.0)):
            with pytest.raises(ValueError):
                window_threshold(alpha, m)

    def test_maps_equal_exact_decimal_ceilings(self):
        # typed decimals of 1 to 12 digits, and grid levels u/(n+1) as the
        # decimals they print as, with n and m log-uniform up to 1e12
        rng = random.Random(21)
        for i in range(20_000):
            n, m = (int(10 ** rng.uniform(0, 12)) for _ in range(2))
            if i % 2:
                digits = rng.randint(1, 12)
                exact = Fraction(rng.randint(1, 10**digits - 1), 10**digits)
                alpha = float(exact)
                assert Fraction(repr(alpha)) == exact
            else:
                alpha = rng.randint(1, n) / (n + 1)
                exact = Fraction(repr(alpha))
            assert order_index(alpha, n) == math.ceil((1 - exact) * (n + 1)), (alpha, n)
            assert highest_grid_index_below(alpha, n) == math.ceil(exact * (n + 1)) - 1, (alpha, n)
            assert window_threshold(alpha, m) == math.ceil((1 - exact) * m), (alpha, m)


class TestOrderIndex:
    def test_examples(self):
        assert order_index(0.1, 50) == 46
        # the decimal 0.0392156862745098 that 2/51 prints as lies below 2/51,
        # so (1 - alpha) 51 lies above 49 and its ceiling is 50
        assert order_index(2 / 51, 50) == 50
        assert order_index(0.5, 25) == 13
        # 0.7505 * 590725088501 = 443339178920.0005; the product of doubles
        # is within rounding of the integer below
        assert order_index(0.2495, 590725088500) == 443339178921

    def test_exact_integer_product(self):
        # (1-0.1)*50 is exactly 45; the ceiling must not round up
        assert order_index(0.1, 49) == 45

    def test_degenerate_everything_set(self):
        assert order_index(0.01, 5) == 6  # k = n+1 sentinel

    @given(st.floats(0.001, 0.999), st.integers(1, 500))
    @settings(max_examples=300)
    def test_range_and_definition(self, alpha, n):
        k = order_index(alpha, n)
        assert 1 <= k <= n + 1
        # k is the smallest integer >= (1-alpha)(n+1), alpha its decimal
        target = (1 - Fraction(repr(alpha))) * (n + 1)
        assert k - 1 < target <= k

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            order_index(0.0, 10)
        with pytest.raises(ValueError):
            order_index(1.0, 10)
        with pytest.raises(ValueError):
            order_index(0.5, 0)


class TestCoverageLaw:
    """tail_prob builds the law at rung u itself: Beta(n+1-u, u), or
    Beta-Binomial(m; n+1-u, u) over a window of size m."""

    def test_examples(self):
        regime = CoverageRegime.infinite()
        for n, u in [(50, 2), (25, 9)]:
            expected = beta_survival(0.9, float(n + 1 - u), float(u))
            assert tail_prob(n, u, regime, 0.1) == expected

    def test_first_rung_window(self):
        expected = betabinom_survival(4, 4, 7.0, 1.0)
        assert tail_prob(7, 1, CoverageRegime.window(4), 0.1) == expected
        assert expected == pytest.approx(7 / 11, abs=1e-12)  # Pr(X = 4) = 7/11

    @given(st.integers(1, 400))
    @settings(max_examples=200)
    def test_round_trip_every_rung(self, n):
        for u in (1, max(1, n // 2), n):
            expected = beta_survival(0.5, float(n + 1 - u), float(u))
            assert tail_prob(n, u, CoverageRegime.infinite(), 0.5) == expected

    def test_rejects_off_grid(self):
        # rungs are the integers 1..n; 0, n+1, floats and bools are not rungs
        for u in (0, 51, 5.1, 2 / 51, True):
            with pytest.raises(ValueError):
                tail_prob(50, u, CoverageRegime.infinite(), 0.1)
            with pytest.raises(ValueError):
                tail_prob(50, u, CoverageRegime.window(10), 0.1)

    def test_rejects_zero_shape(self):
        # n = 0 leaves no rung, and shapes come from integers only
        with pytest.raises(ValueError):
            tail_prob(0, 1, CoverageRegime.infinite(), 0.1)
        with pytest.raises(ValueError):
            tail_prob(50.0, 2, CoverageRegime.infinite(), 0.1)
        with pytest.raises(ValueError):
            tail_prob(True, 1, CoverageRegime.infinite(), 0.1)
        with pytest.raises(ValueError):
            tail_prob(50, 2, CoverageRegime.infinite(), 0.0)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            CoverageRegime.window(0)
        with pytest.raises(ValueError):
            CoverageRegime("window")
        with pytest.raises(ValueError):
            CoverageRegime("infinite", m=3)
        with pytest.raises(ValueError):
            CoverageRegime("banana")


class TestTailProb:
    def test_infinite_frozen(self):
        assert tail_prob(50, 2, CoverageRegime.infinite(), 0.1) == pytest.approx(
            0.9662141403075681, abs=1e-12
        )

    def test_first_rung_closed_form(self):
        # shapes (n, 1): Pr(Z >= 1-alpha) = 1 - (1-alpha)^n
        for n, alpha in [(50, 0.1), (7, 0.35), (200, 0.02)]:
            tail = tail_prob(n, 1, CoverageRegime.infinite(), alpha)
            assert tail == pytest.approx(1 - (1 - alpha) ** n, rel=1e-11)

    def test_uniform_window(self):
        # n = u = 1 gives BB(m; 1, 1); threshold at m: one point of mass 1/(m+1)
        assert tail_prob(1, 1, CoverageRegime.window(10), 0.05) == pytest.approx(1 / 11, abs=1e-12)

    def test_window_matches_exact_oracle(self):
        expected = float(bb_survival(90, 100, 49, 2))
        assert tail_prob(50, 2, CoverageRegime.window(100), 0.1) == pytest.approx(
            expected, abs=1e-10
        )

    @given(st.integers(2, 150), st.floats(0.02, 0.98))
    @settings(max_examples=150, deadline=None)
    def test_nonincreasing_in_rung(self, n, alpha_target):
        regime = CoverageRegime.infinite()
        tails = [tail_prob(n, u, regime, alpha_target) for u in range(1, n + 1)]
        assert all(hi >= lo - 1e-12 for hi, lo in zip(tails, tails[1:]))

    def test_window_converges_to_infinite(self):
        infinite = tail_prob(50, 2, CoverageRegime.infinite(), 0.1)
        windowed = tail_prob(50, 2, CoverageRegime.window(10_000), 0.1)
        assert abs(windowed - infinite) <= 0.02

    def test_target_near_one_saturates(self):
        alpha = 1 - 1e-12
        assert tail_prob(20, 5, CoverageRegime.infinite(), alpha) == pytest.approx(1.0, abs=1e-9)
        # x* = ceil(13 (1 - alpha)) = 1: the window must cover one point
        assert window_threshold(alpha, 13) == 1
        exact = float(bb_window_tail(1, 13, 20, 5))
        assert exact == pytest.approx(0.99999584762848, abs=1e-14)
        assert tail_prob(20, 5, CoverageRegime.window(13), alpha) == pytest.approx(exact, abs=1e-12)

    def test_window_tail_at_most_one(self):
        # the exact tail is within 1e-13 of 1, and the summed side of the
        # Beta-Binomial rounds to 1.0000000000444
        tail = tail_prob(1000, 2, CoverageRegime.window(50_000), 0.485888)
        assert 0.0 <= tail <= 1.0
        exact = bb_window_tail(window_threshold(0.485888, 50_000), 50_000, 1000, 2)
        assert abs(tail - exact) <= 1e-12

    def test_window_law_of_the_rung_count(self):
        # Pr(X >= x*), X ~ BB(m; n+1-u, u), equals Pr(V >= u), V ~ BB(n; c+1, m-c)
        # with c = m - x*: exactly, between two integer routes, and within the
        # specfun window contract 1e-15 N ln N, N = n + 1 + m, for tail_prob
        rng = random.Random(19)
        rungs = 0
        for _ in range(200):
            n, m = rng.randint(1, 40), rng.randint(1, 40)
            alpha = rng.uniform(0.001, 0.999)
            x_star = window_threshold(alpha, m)
            if not 1 <= x_star <= m:
                continue
            bound = 1e-15 * (n + 1 + m) * math.log(n + 1 + m)
            for u in range(1, n + 1):
                exact = bb_window_tail(x_star, m, n, u)
                assert bb_rung_count_tail(x_star, m, n, u) == exact, (n, m, x_star, u)
                tail = tail_prob(n, u, CoverageRegime.window(m), alpha)
                assert abs(tail - exact) <= bound, (n, m, alpha, u)
                rungs += 1
        assert rungs > 2000

    def test_exact_binomial_identity_sweep(self):
        # infinite-regime tails against the exact binomial-sum oracle
        for n, u, alpha in [(25, 9, 0.5), (50, 3, 0.1), (80, 40, 0.45)]:
            expected = float(beta_survival_int(1 - alpha, n + 1 - u, u))
            tail = tail_prob(n, u, CoverageRegime.infinite(), alpha)
            assert tail == pytest.approx(expected, abs=1e-11)

    def test_upper_binomial_tail_identity(self):
        # Pr(Beta(n+1-u, u) >= t) = Pr(Bin(n, 1-t) >= u), within the
        # beta_survival contract 1e-15 + 1e-17 sqrt(n)
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 120)
            u = rng.randint(1, n)
            alpha = rng.uniform(0.001, 0.999)
            exact = binom_rung_tail(n, u, alpha)
            tail = tail_prob(n, u, CoverageRegime.infinite(), alpha)
            assert abs(tail - exact) <= 1e-15 + 1e-17 * math.sqrt(n), (n, u, alpha)


    def test_decision_past_1e10(self):
        # Pr(Bin(n, 1-t) <= u-1) is 0.0419984 at u = 3242264692 and 0.0420003
        # at u + 1 (scipy), so rung u passes 1 - 0.042 and rung u + 1 fails
        n, alpha, u = 10228220841, 0.317, 3242264692
        regime = CoverageRegime.infinite()
        assert tail_prob(n, u, regime, alpha) >= 0.958
        assert tail_prob(n, u + 1, regime, alpha) < 0.958


class TestCalibrationContext:
    def test_validation(self):
        CalibrationContext(10, 0.5, 0.1)
        with pytest.raises(ValueError):
            CalibrationContext(0, 0.5, 0.1)
        with pytest.raises(ValueError):
            CalibrationContext(n=True, alpha_target=0.5, delta=0.1)
        with pytest.raises(ValueError):
            CalibrationContext(10, 0.0, 0.1)
        with pytest.raises(ValueError):
            CalibrationContext(10, 0.5, 1.0)
