import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssbc.adjust
from ssbc.adjust import dkwm_adjust, dkwm_eps, search_grid, ssbc_adjust
from ssbc.coverage import CalibrationContext, CoverageRegime, highest_grid_index_below, tail_prob
from ssbc.mondrian import MondrianSpec, budget_success_prob, ssbc_mondrian

from oracles import full_scan, ssbc_scan_infinite


def _assert_matches_scan(report, best, skipped, note):
    """The report agrees with an exhaustive scan's answer ``best``."""
    assert report.feasible == (best is not None)
    assert report.skipped_rungs == skipped
    if best is None:
        assert report.u_star is None and report.achieved_tail is None
        assert report.note == note
    else:
        assert (report.u_star, report.achieved_tail) == best  # tail bits included
        assert report.note is None


class TestSearchGrid:
    def test_answer_and_evaluation_bound(self):
        for u_hi in (0, 1, 2, 3, 7, 8, 10**6):
            # "none pass", "answer at 1", an interior answer, "all pass"
            for u_star in sorted({0, min(1, u_hi), u_hi // 3, max(0, u_hi - 1), u_hi}):
                calls = []

                def tail(u):
                    calls.append(u)
                    return float(u_star - u)  # nonincreasing; passes iff u <= u_star

                got = search_grid(tail, u_hi, 1.0)
                assert got == (None if u_star == 0 else (u_star, 0.0))
                assert all(1 <= u <= u_hi for u in calls)
                assert len(calls) <= math.ceil(math.log2(u_hi + 1))


class TestPassRuleAtRoundingTie:
    """A rung passes when the violation 1.0 - tail it prints is at most
    delta.  fl(1 - 0.001) rounds down to the double 0.999, whose violation
    prints as 0.0010000000000000009 > 0.001, so a stubbed tail of 0.999
    fails every rung.  At delta = 0.1 a stubbed 0.9 prints
    0.09999999999999998 and passes every rung."""

    def test_tail_below_one_minus_delta_fails(self, monkeypatch):
        monkeypatch.setattr(ssbc.adjust, "tail_prob", lambda *args: 0.999)
        report = ssbc_adjust(CalibrationContext(50, 0.1, 0.001), CoverageRegime.infinite())
        assert not report.feasible and report.u_star is None

    def test_tail_above_one_minus_delta_passes(self, monkeypatch):
        monkeypatch.setattr(ssbc.adjust, "tail_prob", lambda *args: 0.9)
        ctx = CalibrationContext(50, 0.1, 0.1)
        report = ssbc_adjust(ctx, CoverageRegime.infinite())
        assert (report.u_star, report.achieved_tail) == (5, 0.9)  # every rung below 0.1 passes
        assert report.achieved_violation <= ctx.delta


class TestHighestGridIndexBelow:
    def test_strictness_at_grid_point(self):
        # 13/26 equals 0.5 exactly: excluded by the strict inequality
        assert highest_grid_index_below(0.5, 25) == 12
        assert highest_grid_index_below(0.5, 50) == 25

    def test_off_grid(self):
        assert highest_grid_index_below(0.1, 50) == 5  # 5/51 < 0.1 < 6/51

    def test_none_below(self):
        assert highest_grid_index_below(0.01, 5) == 0

    @given(st.integers(1, 10**8), st.integers(1, 6), st.integers(1, 999_999))
    @settings(max_examples=500)
    def test_short_decimal_levels_are_exact(self, n, digits, numerator):
        # the top rung of the decimal level itself: u/(n+1) < alpha exactly
        alpha = Fraction(numerator % 10**digits or 1, 10**digits)
        top = math.ceil(alpha * (n + 1)) - 1
        assert highest_grid_index_below(float(alpha), n) == min(n, top)


class TestSsbcAdjust:
    def test_table_case(self):
        report = ssbc_adjust(CalibrationContext(25, 0.5, 0.1), CoverageRegime.infinite())
        assert report.feasible
        assert report.u_star == 9
        assert report.alpha_adj == pytest.approx(9 / 26, abs=1e-15)
        assert report.achieved_violation == pytest.approx(0.0538760721683502, abs=1e-12)
        assert report.method == "ssbc"

    def test_windowed_case(self):
        report = ssbc_adjust(CalibrationContext(50, 0.1, 0.1), CoverageRegime.window(100))
        assert report.feasible
        assert report.u_star == 2
        assert report.achieved_violation == pytest.approx(0.0471632080144703, abs=1e-10)

    def test_infinite_case_small_target(self):
        report = ssbc_adjust(CalibrationContext(50, 0.1, 0.1), CoverageRegime.infinite())
        assert report.u_star == 2
        assert report.alpha_adj == pytest.approx(2 / 51, abs=1e-15)
        assert report.achieved_violation == pytest.approx(0.0337858596924319, abs=1e-12)

    def test_infeasible(self):
        report = ssbc_adjust(CalibrationContext(5, 0.01, 0.05), CoverageRegime.infinite())
        assert not report.feasible
        assert report.alpha_adj is None
        assert report.u_star is None
        assert report.note

    def test_matches_exact_oracle_scan(self):
        rng = random.Random(91)
        for _ in range(40):
            n = rng.randint(1, 120)
            alpha_target = rng.uniform(0.02, 0.98)
            delta = rng.uniform(0.01, 0.9)
            report = ssbc_adjust(
                CalibrationContext(n, alpha_target, delta), CoverageRegime.infinite()
            )
            oracle = ssbc_scan_infinite(n, alpha_target, delta)
            if oracle is None:
                assert not report.feasible
            else:
                assert report.feasible
                assert report.u_star == oracle[0]

    def test_full_scan_agrees_with_early_exit(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 150)
            ctx = CalibrationContext(n, rng.uniform(0.02, 0.98), rng.uniform(0.01, 0.9))
            regime = (
                CoverageRegime.window(rng.randint(1, 60))
                if rng.random() < 0.4
                else CoverageRegime.infinite()
            )
            best = full_scan(
                lambda u: tail_prob(n, u, regime, ctx.alpha_target),
                highest_grid_index_below(ctx.alpha_target, n),
                ctx.delta,
            )
            _assert_matches_scan(
                ssbc_adjust(ctx, regime),
                best,
                (),
                "no grid level below alpha_target satisfies the tail constraint",
            )
        rng = random.Random(29)
        specs = [
            MondrianSpec(k=10, k_j=4, n_j=1, m=5, alpha_target=0.9, delta=0.5),  # all degenerate
            MondrianSpec(k=10, k_j=4, n_j=2, m=15, alpha_target=0.9, delta=0.01),  # skip, infeasible
        ]
        for _ in range(60):
            k = rng.randint(1, 60)
            specs.append(
                MondrianSpec(
                    k=k,
                    k_j=rng.randint(0, k),
                    n_j=rng.randint(1, 40),
                    m=rng.randint(1, 15),
                    alpha_target=rng.uniform(0.02, 0.98),
                    delta=rng.uniform(0.01, 0.9),
                )
            )
        for spec in specs:
            skipped = []

            def p_good(u):
                if u == spec.n_j:  # outside budget_success_prob's domain
                    skipped.append(u)
                    return -math.inf
                return budget_success_prob(spec, u)

            highest = highest_grid_index_below(spec.alpha_target, spec.n_j)
            best = full_scan(p_good, highest, spec.delta)
            if skipped and len(skipped) == highest:
                note = "every grid level below alpha_target has a degenerate miscoverage law"
            else:
                note = "no grid level below alpha_target meets the budget constraint"
            _assert_matches_scan(ssbc_mondrian(spec), best, tuple(skipped), note)

    def test_reverification_and_maximality(self):
        rng = random.Random(5)
        for _ in range(80):
            n = rng.randint(2, 150)
            ctx = CalibrationContext(n, rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.9))
            regime = CoverageRegime.infinite()
            report = ssbc_adjust(ctx, regime)
            if not report.feasible:
                continue
            assert report.alpha_adj < ctx.alpha_target
            assert report.alpha_adj == report.u_star / (n + 1)
            tail = tail_prob(n, report.u_star, regime, ctx.alpha_target)
            assert tail >= 1 - ctx.delta
            next_u = report.u_star + 1
            if next_u <= highest_grid_index_below(ctx.alpha_target, n):
                worse = tail_prob(n, next_u, regime, ctx.alpha_target)
                assert worse < 1 - ctx.delta

    def test_monotone_in_delta(self):
        n, alpha_target = 60, 0.3
        regime = CoverageRegime.infinite()
        previous = 0
        for delta in (0.01, 0.05, 0.1, 0.2, 0.4, 0.8):
            report = ssbc_adjust(CalibrationContext(n, alpha_target, delta), regime)
            u = report.u_star if report.feasible else 0
            assert u >= previous
            previous = u

    def test_infeasible_iff_first_rung_fails(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 80)
            alpha_target = rng.uniform(0.01, 0.99)
            delta = rng.uniform(0.01, 0.9)
            report = ssbc_adjust(
                CalibrationContext(n, alpha_target, delta), CoverageRegime.infinite()
            )
            first_below = 1 / (n + 1) < alpha_target
            first_passes = first_below and (1 - alpha_target) ** n <= delta + 1e-13
            assert report.feasible == (first_below and first_passes)

    def test_infinite_answers_are_binomial_quantiles(self):
        # With t = 1.0 - alpha_target, Pr(Beta(n+1-u, u) >= t) = Pr(Bin(n, 1-t) >= u),
        # so u* is the largest u <= u_hi with Pr(Bin(n, 1-t) <= u-1) <= delta.
        # scipy's binomial CDF shares no code with the package.
        binom = pytest.importorskip("scipy.stats").binom
        rng = random.Random(37)
        ties = 0
        for _ in range(400):
            n = round(10 ** rng.uniform(1, 8))
            alpha_target, delta = rng.uniform(0.01, 0.5), rng.uniform(0.01, 0.3)
            report = ssbc_adjust(
                CalibrationContext(n, alpha_target, delta), CoverageRegime.infinite()
            )
            p = 1 - (1.0 - alpha_target)  # exact: 1.0 - alpha_target >= 0.5
            u_hi = highest_grid_index_below(alpha_target, n)
            got = report.u_star or 0
            # rung got passes and rung got + 1 fails, where they are rungs;
            # the binomial CDF is nondecreasing, so got is the largest
            decisions = [
                (u == got, binom.cdf(u - 1, n, p)) for u in (got, got + 1) if 1 <= u <= u_hi
            ]
            # closer than the beta_survival contract plus scipy's own error
            if any(abs(cdf - delta) < 1e-15 + 5e-17 * math.sqrt(n) for _, cdf in decisions):
                ties += 1
                continue
            for passes, cdf in decisions:
                assert (cdf <= delta) == passes, (n, alpha_target, delta, got)
        assert ties <= 4


class TestDkwmAdjust:
    def test_margin_value(self):
        assert dkwm_eps(25, 0.1) == pytest.approx(0.214596602628935, rel=1e-12)

    def test_feasible_case(self):
        report = dkwm_adjust(CalibrationContext(25, 0.5, 0.1))
        assert report.feasible
        assert report.epsilon == pytest.approx(0.214596602628935, rel=1e-12)
        assert report.alpha_adj == pytest.approx(0.285403397371065, rel=1e-12)
        # induced order index k = 19, grid rung u = 7
        assert report.u_star == 7
        assert report.achieved_violation == pytest.approx(0.00731664896011353, abs=1e-12)

    def test_infeasible_case(self):
        report = dkwm_adjust(CalibrationContext(50, 0.05, 0.1))
        assert not report.feasible
        assert report.epsilon == pytest.approx(0.151742712939, rel=1e-9)

    def test_alpha_adj_converges_to_target(self):
        previous = -1.0
        for n in (100, 1000, 10_000, 100_000, 1_000_000):
            report = dkwm_adjust(CalibrationContext(n, 0.2, 0.1))
            assert report.alpha_adj > previous
            previous = report.alpha_adj
        assert 0.2 - previous < 0.002

    @pytest.mark.parametrize("delta", [5e-324, 1e-320])
    def test_subnormal_delta_gives_a_finite_margin(self, delta):
        # 1/delta overflows below 1/DBL_MAX; with delta = num/den exactly,
        # ln(1/delta) = ln(den) - ln(num) on integers
        num, den = delta.as_integer_ratio()
        report = dkwm_adjust(CalibrationContext(5, 0.5, delta))
        assert math.isfinite(report.epsilon)
        assert report.epsilon == pytest.approx(
            math.sqrt((math.log(den) - math.log(num)) / 10), rel=1e-14
        )
        assert not report.feasible
        assert report.alpha_adj is None and report.u_star is None
        assert report.note == "alpha_target - eps is not positive"

    def test_margin_unchanged_where_the_reciprocal_is_finite(self):
        # the smallest delta whose reciprocal is finite, and deltas above it,
        # keep the quotient's log; the next delta down takes -ln(delta)
        lowest = 1.0 / sys.float_info.max
        while math.isinf(1.0 / lowest):
            lowest = math.nextafter(lowest, 1.0)
        while not math.isinf(1.0 / math.nextafter(lowest, 0.0)):
            lowest = math.nextafter(lowest, 0.0)
        deltas = [lowest, math.nextafter(lowest, 1.0), 1e-308, 1e-300, 1e-10, 0.1, 0.9]
        for n in (1, 25, 10**6):
            for delta in deltas:
                assert dkwm_eps(n, delta) == math.sqrt(math.log(1.0 / delta) / (2.0 * n))
            below = math.nextafter(lowest, 0.0)
            assert dkwm_eps(n, below) == math.sqrt(-math.log(below) / (2.0 * n))

    def test_everything_set_rung(self):
        # alpha_adj lands below the first rung: order index n+1, coverage 1
        report = dkwm_adjust(CalibrationContext(3, 0.4, 0.45))
        assert report.feasible
        assert 0 < report.alpha_adj < 1 / 4
        assert report.u_star == 0
        assert report.achieved_tail == 1.0


class TestDominance:
    def test_ssbc_never_more_conservative(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 200)
            ctx = CalibrationContext(n, rng.uniform(0.02, 0.98), rng.uniform(0.01, 0.9))
            ssbc = ssbc_adjust(ctx, CoverageRegime.infinite())
            dkwm = dkwm_adjust(ctx)
            if not (ssbc.feasible and dkwm.feasible):
                continue
            checked += 1
            assert ssbc.u_star >= dkwm.u_star
            assert ssbc.alpha_adj >= dkwm.u_star / (n + 1) - 1e-15
            assert ssbc.achieved_violation >= dkwm.achieved_violation - 1e-12
        assert checked > 50
