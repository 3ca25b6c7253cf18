import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbc.coverage import (
    CalibrationContext,
    CoverageLaw,
    CoverageRegime,
    GridError,
    coverage_law,
    grid_index,
    order_index,
    snapped_ceil,
    snapped_floor,
    tail_prob,
)

from oracles import beta_survival_int, bb_survival


class TestSnapping:
    def test_exact_products_do_not_drift(self):
        # (1 - 20/51) * 51 floats to 31.000000000000004; must not ceil to 32
        assert snapped_ceil((1 - 20 / 51) * 51, scale=51) == 31
        # 0.29 * 100 floats to 28.999999999999996; must not floor to 28
        assert snapped_floor(0.29 * 100, scale=100) == 29

    def test_plain_values_unchanged(self):
        assert snapped_ceil(45.9, scale=51) == 46
        assert snapped_floor(2.3, scale=23) == 2


class TestOrderIndex:
    def test_examples(self):
        assert order_index(0.1, 50) == 46
        assert order_index(2 / 51, 50) == 49
        assert order_index(0.5, 25) == 13

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
        # k is the smallest integer >= (1-alpha)(n+1), modulo float snap
        target = (1 - alpha) * (n + 1)
        assert k >= target - 1e-6
        assert k - 1 < target + 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            order_index(0.0, 10)
        with pytest.raises(ValueError):
            order_index(1.0, 10)
        with pytest.raises(ValueError):
            order_index(0.5, 0)


class TestCoverageLaw:
    def test_examples(self):
        law = coverage_law(2 / 51, 50, CoverageRegime.infinite())
        assert (law.a, law.b) == (49, 2)
        law = coverage_law(9 / 26, 25, CoverageRegime.infinite())
        assert (law.a, law.b) == (17, 9)

    def test_first_rung_window(self):
        law = coverage_law(1 / 8, 7, CoverageRegime.window(4))
        assert (law.a, law.b) == (7, 1)
        assert law.regime.m == 4

    @given(st.integers(1, 400))
    @settings(max_examples=200)
    def test_round_trip_every_rung(self, n):
        for u in (1, max(1, n // 2), n):
            law = coverage_law(u / (n + 1), n, CoverageRegime.infinite())
            assert (law.a, law.b) == (n + 1 - u, u)
            assert law.a + law.b == n + 1

    def test_rejects_off_grid(self):
        with pytest.raises(GridError):
            coverage_law(0.1, 50, CoverageRegime.infinite())  # 0.1 * 51 = 5.1
        with pytest.raises(GridError):
            coverage_law(0.0, 50, CoverageRegime.infinite())
        with pytest.raises(GridError):
            coverage_law(51 / 51, 50, CoverageRegime.infinite())
        with pytest.raises(GridError):
            grid_index(2 / 51 + 1e-7, 50)

    def test_rejects_zero_shape(self):
        with pytest.raises(ValueError):
            CoverageLaw(a=0, b=5, regime=CoverageRegime.infinite())
        # shapes are integers: neither a float nor a bool is one
        with pytest.raises(ValueError):
            CoverageLaw(a=2.5, b=True, regime=CoverageRegime.infinite())
        with pytest.raises(ValueError):
            CoverageLaw(a=2, b=True, regime=CoverageRegime.infinite())

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
        law = coverage_law(2 / 51, 50, CoverageRegime.infinite())
        assert tail_prob(law, 0.1) == pytest.approx(0.9662141403075681, abs=1e-12)

    def test_first_rung_closed_form(self):
        # shapes (n, 1): Pr(Z >= 1-alpha) = 1 - (1-alpha)^n
        for n, alpha in [(50, 0.1), (7, 0.35), (200, 0.02)]:
            law = coverage_law(1 / (n + 1), n, CoverageRegime.infinite())
            assert tail_prob(law, alpha) == pytest.approx(1 - (1 - alpha) ** n, rel=1e-11)

    def test_uniform_window(self):
        # BB(m; 1, 1) with threshold at m: single grid point has mass 1/(m+1)
        law = CoverageLaw(a=1, b=1, regime=CoverageRegime.window(10))
        assert tail_prob(law, 0.05) == pytest.approx(1 / 11, abs=1e-12)

    def test_window_matches_exact_oracle(self):
        law = coverage_law(2 / 51, 50, CoverageRegime.window(100))
        expected = float(bb_survival(90, 100, 49, 2))
        assert tail_prob(law, 0.1) == pytest.approx(expected, abs=1e-10)

    @given(st.integers(2, 150), st.floats(0.02, 0.98))
    @settings(max_examples=150, deadline=None)
    def test_nonincreasing_in_rung(self, n, alpha_target):
        regime = CoverageRegime.infinite()
        tails = [
            tail_prob(coverage_law(u / (n + 1), n, regime), alpha_target)
            for u in range(1, n + 1)
        ]
        assert all(hi >= lo - 1e-12 for hi, lo in zip(tails, tails[1:]))

    def test_window_converges_to_infinite(self):
        infinite = tail_prob(coverage_law(2 / 51, 50, CoverageRegime.infinite()), 0.1)
        windowed = tail_prob(coverage_law(2 / 51, 50, CoverageRegime.window(10_000)), 0.1)
        assert abs(windowed - infinite) <= 0.02

    def test_target_near_one_saturates(self):
        law = coverage_law(5 / 21, 20, CoverageRegime.infinite())
        assert tail_prob(law, 1 - 1e-12) == pytest.approx(1.0, abs=1e-9)
        law_w = coverage_law(5 / 21, 20, CoverageRegime.window(13))
        assert tail_prob(law_w, 1 - 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_exact_binomial_identity_sweep(self):
        # infinite-regime tails against the exact binomial-sum oracle
        for n, u, alpha in [(25, 9, 0.5), (50, 3, 0.1), (80, 40, 0.45)]:
            law = coverage_law(u / (n + 1), n, CoverageRegime.infinite())
            expected = float(beta_survival_int(1 - alpha, n + 1 - u, u))
            assert tail_prob(law, alpha) == pytest.approx(expected, abs=1e-11)


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
