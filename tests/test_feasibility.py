import math
import random
from fractions import Fraction

import pytest

from ssbc.adjust import ssbc_adjust
from ssbc import feasibility
from ssbc.coverage import CalibrationContext, CoverageRegime, window_threshold
from ssbc.feasibility import (
    alpha_star_exact_finite,
    alpha_star_infinite,
    alpha_star_laplace,
    feasibility_report,
    grid_implementable,
    rung_table,
)

from oracles import bb_window_tail, window_threshold_bisect, window_threshold_count


class TestClosedForms:
    def test_alpha_star_infinite(self):
        assert alpha_star_infinite(50, 0.1) == pytest.approx(0.0450074139785641, abs=1e-13)
        assert alpha_star_infinite(1, 0.1) == pytest.approx(0.9, abs=1e-14)
        assert alpha_star_infinite(10**7, 0.1) < 1e-6

    def test_grid_implementable(self):
        ok, delta_max = grid_implementable(50, 0.1)
        assert ok
        assert delta_max == pytest.approx(0.371527882126962, abs=1e-13)
        ok, delta_max = grid_implementable(1, 0.6)
        assert not ok
        assert delta_max == pytest.approx(0.5, abs=1e-15)

    def test_delta_max_limit(self):
        _, delta_max = grid_implementable(10**6, 0.1)
        assert delta_max == pytest.approx(math.exp(-1), abs=1e-6)

    def test_laplace(self):
        assert alpha_star_laplace(50, 0.1, 100) == pytest.approx(0.0532783011404966, abs=1e-13)
        assert alpha_star_laplace(1, 0.25, 4) == pytest.approx(0.836373537367834, abs=1e-13)

    def test_laplace_recovers_infinite_limit(self):
        base = alpha_star_infinite(50, 0.1)
        assert alpha_star_laplace(50, 0.1, 10**12) == pytest.approx(base, abs=1e-7)

    @pytest.mark.parametrize("n", [10**6, 10**9, 10**12, 10**17])
    def test_large_n_matches_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            _, delta_max = grid_implementable(n, 0.1)
            exact_max = mpmath.power(mpmath.mpf(n) / (n + 1), n)
            assert delta_max == pytest.approx(float(exact_max), rel=1e-14, abs=0)
            for delta in (0.999, 0.5, 0.1, 1e-300):
                a = 1 - mpmath.power(mpmath.mpf(delta), mpmath.mpf(1) / n)
                assert alpha_star_infinite(n, delta) == pytest.approx(float(a), rel=1e-14, abs=0)
                for m in (1, 10**6):
                    laplace = a + mpmath.sqrt(a * (1 - a) / (2 * mpmath.pi * m))
                    got = alpha_star_laplace(n, delta, m)
                    assert got == pytest.approx(float(laplace), rel=1e-14, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_star_infinite(0, 0.1)
        with pytest.raises(ValueError):
            alpha_star_infinite(5, 0.0)
        with pytest.raises(ValueError):
            alpha_star_laplace(5, 0.1, 0)
        with pytest.raises(ValueError):
            alpha_star_infinite(True, 0.1)
        with pytest.raises(ValueError):
            rung_table(True, 0.3, CoverageRegime.infinite())


class TestExactFinite:
    def test_anchor_case(self):
        got = alpha_star_exact_finite(50, 0.1, 100)
        assert got == pytest.approx(0.05, abs=1e-12)
        assert abs(got - 0.0533) <= 1 / 100 + 1e-12

    def test_matches_exact_rational_scan(self):
        rng = random.Random(2025)
        cases = [(50, 0.1, 100), (25, 0.25, 25), (10, 0.4, 17), (3, 0.5, 7)] + [
            (rng.randint(1, 60), rng.uniform(0.01, 0.95), rng.randint(1, 80)) for _ in range(150)
        ]
        for n, delta, m in cases:
            best = window_threshold_count(n, delta, m)
            assert alpha_star_exact_finite(n, delta, m) == (m - best) / m, (n, delta, m)

    def test_high_delta_hits_zero(self):
        # survival(m) = n/(n+m); with n=3, m=7 that is 0.3 >= 1-0.71
        assert alpha_star_exact_finite(3, 0.71, 7) == 0.0
        assert alpha_star_exact_finite(3, 0.69, 7) > 0.0

    def test_single_item_window(self):
        assert alpha_star_exact_finite(1, 0.9, 1) in (0.0, 1.0)
        assert alpha_star_exact_finite(1, 0.9, 1) == 0.0  # survival(1) = 1/2 >= 0.1
        assert alpha_star_exact_finite(1, 0.05, 1) == 1.0  # 1/2 < 0.95

    def test_step_cap_keeps_answers_below_it(self, monkeypatch):
        # The cap bounds the first product, min(n, c_start + 1) factors: the
        # first form at (1000, 0.1, 10^4) and the second at (5, 0.3, 10^6).
        for n, delta, m, factors in [(1000, 0.1, 10**4, 22), (5, 0.3, 10**6, 5)]:
            c_start = max(0, math.ceil((m + 1) * alpha_star_infinite(n, delta)) - 3)
            assert min(n, c_start + 1) == factors
            answer = window_threshold_bisect(n, delta, m) / m
            assert alpha_star_exact_finite(n, delta, m) == answer
            monkeypatch.setattr(feasibility, "MAX_PRODUCT_STEPS", factors)
            assert alpha_star_exact_finite(n, delta, m) == answer
            monkeypatch.setattr(feasibility, "MAX_PRODUCT_STEPS", factors - 1)
            with pytest.raises(ValueError, match=f"2\\*\\*52 and {factors - 1} factors"):
                alpha_star_exact_finite(n, delta, m)
            monkeypatch.undo()

    def test_matches_exact_bisection(self):
        # Seeded draws against the exact math.comb bisection on c.  A draw
        # whose boundary P(c) lies within 1e-12 relative of delta is an
        # exact-rational near tie that a float product cannot decide; it is
        # skipped and counted.  Every draw also checks the proven bracket
        # (m+1) a - 1 <= c* <= (m+n) a, with a = 1 - delta^(1/n) exactly.
        rng = random.Random(1313)
        draws = [(rng.randint(1, 300), int(10 ** rng.uniform(0, 6))) for _ in range(500)]
        draws += [(rng.randint(1, 20), int(10 ** rng.uniform(0, 12))) for _ in range(500)]
        skipped = 0
        for n, m in draws:
            if rng.random() < 0.5:
                delta = rng.uniform(0.001, 0.999)
            else:
                delta = 10 ** rng.uniform(-300, -3)
            c_star = window_threshold_bisect(n, delta, m)
            exact = Fraction(delta)
            total = math.comb(n + m, n)
            # the pair P(c*) <= delta < P(c* - 1), as exact rationals
            boundary = [c for c in (c_star - 1, c_star) if c >= 0]
            if any(abs(Fraction(math.comb(n + m - c - 1, n), total) - exact) <= exact * 1e-12
                   for c in boundary):
                skipped += 1
            else:
                got = alpha_star_exact_finite(n, delta, m)
                assert got == c_star / m, (n, delta, m)
            # ((m - c*) / (m+1))^n <= delta <= ((m+n - c*) / (m+n))^n
            num, den = exact.numerator, exact.denominator
            assert (m - c_star) ** n * den <= num * (m + 1) ** n, (n, delta, m)
            assert (m + n - c_star) ** n * den >= num * (m + n) ** n, (n, delta, m)
        print(f"exact bisection: {skipped} of {len(draws)} draws skipped as near ties")
        assert skipped <= 3

    def test_gap_vanishes_for_large_windows(self):
        base = alpha_star_infinite(50, 0.1)
        got = alpha_star_exact_finite(50, 0.1, 10_000)
        assert abs(got - base) <= 1e-3

    def test_interior_gap_nonnegative(self):
        # away from coarse lattices the finite window needs extra slack
        for m in (50, 100, 200, 400, 800, 1600):
            assert alpha_star_exact_finite(50, 0.1, m) >= alpha_star_infinite(50, 0.1)

    def test_coarse_lattice_can_undershoot(self):
        # the 1/m lattice can certify below the continuous threshold when a
        # lattice point sits just under it with enough discrete mass: with
        # n=25, delta=0.25, m=25 the rung 24/25 passes (mass 0.7551 >= 0.75)
        got = alpha_star_exact_finite(25, 0.25, 25)
        assert got == pytest.approx(0.04, abs=1e-12)
        assert got < alpha_star_infinite(25, 0.25)


class TestSlopeScaling:
    def test_interior_config_tracks_laplace_slope(self):
        # The exact gap alpha*_m - alpha*_inf is O(1/m) plus at most one 1/m
        # lattice step, so a fitted 1/sqrt(m) slope passes or fails a band by
        # where the lattice falls (ratio 2.27 to the published slope on this
        # grid).  Check the exact value and the bracket the heuristic gives.
        n, delta = 100, 0.05
        alpha0 = alpha_star_infinite(n, delta)
        for m in (30 * 2**k for k in range(7)):  # 30..1920
            got = alpha_star_exact_finite(n, delta, m)
            assert got == pytest.approx(1 - window_threshold_count(n, delta, m) / m, abs=1e-12)
            assert alpha0 - 1 / m <= got <= alpha_star_laplace(n, delta, m) + 1 / m


class TestRungTable:
    def test_infinite_frozen_rungs(self):
        table = rung_table(50, 0.1, CoverageRegime.infinite())
        assert [r.u for r in table.rungs] == list(range(1, 51))
        assert table.rungs[0].attainable_delta == pytest.approx(0.0051537752073201, abs=1e-12)
        assert table.rungs[1].attainable_delta == pytest.approx(0.0337858596924319, abs=1e-12)
        assert table.rungs[2].attainable_delta == pytest.approx(0.1117287562766333, abs=1e-10)

    def test_window_tails_stay_in_unit_interval(self):
        # rungs 1..3 have exact tails within 1e-13 of 1, where rounding in
        # the summed side of the Beta-Binomial lands past 1
        table = rung_table(97, 0.485888, CoverageRegime.window(79))
        assert all(0.0 <= r.attainable_delta <= 1.0 for r in table.rungs)
        x_star = window_threshold(0.485888, 79)
        for rung in table.rungs[:3]:
            exact = 1 - bb_window_tail(x_star, 79, 97, rung.u)
            assert abs(rung.attainable_delta - exact) <= 1e-13

    def test_window_first_feasible_rung(self):
        table = rung_table(50, 0.1, CoverageRegime.window(100))
        feasible = [r for r in table.rungs if r.attainable_delta <= 0.1]
        assert feasible[-1].u == 2
        assert feasible[-1].attainable_delta == pytest.approx(0.0471632080144703, abs=1e-10)

    def test_last_rung_closed_form(self):
        for n, alpha in [(12, 0.3), (40, 0.07)]:
            table = rung_table(n, alpha, CoverageRegime.infinite())
            assert table.rungs[-1].attainable_delta == pytest.approx(1 - alpha**n, rel=1e-10)

    def test_monotone_in_u(self):
        for regime in (CoverageRegime.infinite(), CoverageRegime.window(30)):
            table = rung_table(35, 0.22, regime)
            deltas = [r.attainable_delta for r in table.rungs]
            assert all(lo <= hi + 1e-12 for lo, hi in zip(deltas, deltas[1:]))


class TestFeasibilityReport:
    def test_fields(self):
        report = feasibility_report(50, 0.1)
        assert report.alpha_star_inf == pytest.approx(0.0450074139785641, abs=1e-13)
        assert report.implementable
        assert report.m is None
        assert report.alpha_star_m is None

    def test_window_fields(self):
        report = feasibility_report(50, 0.1, m=100)
        assert report.alpha_star_m == pytest.approx(0.05, abs=1e-12)
        assert report.alpha_star_m_laplace == pytest.approx(0.0532783011404966, abs=1e-12)

    def test_consistency_with_adjuster(self):
        # implementability matches adjuster feasibility at the continuous
        # threshold (nudged off the knife edge where the tail equals 1-delta)
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(1, 300)
            delta = rng.uniform(0.001, 0.99)
            implementable, delta_max = grid_implementable(n, delta)
            if abs(delta - delta_max) < 1e-9:
                continue
            alpha_target = alpha_star_infinite(n, delta) * (1 + 1e-9)
            if not (0 < alpha_target < 1):
                continue
            report = ssbc_adjust(
                CalibrationContext(n, alpha_target, delta), CoverageRegime.infinite()
            )
            assert report.feasible == implementable
