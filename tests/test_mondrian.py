import math
import random
from fractions import Fraction

import numpy as np
import pytest

import ssbc.mondrian
from ssbc.adjust import ssbc_adjust
from ssbc.coverage import CalibrationContext, CoverageRegime, window_threshold
from ssbc.mc import _words
from ssbc.mondrian import MondrianSpec, budget_success_prob, class_count_predictive, ssbc_mondrian
from ssbc.specfun import beta_survival

from oracles import (
    DegenerateRungError,
    bb_pmf,
    bb_window_tail,
    error_cap,
    error_count_conditional,
    joint_predictive,
    stream_uniform,
)


def _p_good_brute_force(spec: MondrianSpec, s_j: int) -> float:
    """Direct enumeration over all (e, r) pairs with exact rational inner
    laws; independent of the package's summation strategy."""
    count_law = class_count_predictive(spec)
    total = Fraction(0)
    for r in range(spec.m + 1):
        weight = Fraction(count_law[r]).limit_denominator(10**15) if count_law[r] else Fraction(0)
        if weight == 0:
            continue
        cap = math.floor(Fraction(spec.alpha_target).limit_denominator(10**9) * r)
        if r == 0:
            inner = Fraction(1)
        else:
            inner = sum(bb_pmf(e, r, s_j, spec.n_j - s_j) for e in range(0, min(cap, r) + 1))
        total += weight * inner
    return float(total)


class TestClassCountPredictive:
    def _spec(self, k, k_j, m=10):
        return MondrianSpec(k=k, k_j=k_j, n_j=50, m=m, alpha_target=0.1, delta=0.1)

    def test_point_mass_all_class(self):
        counts = class_count_predictive(self._spec(100, 100, m=20))
        assert counts[20] == 1.0
        assert sum(counts[:20]) == 0.0

    def test_point_mass_no_class(self):
        counts = class_count_predictive(self._spec(100, 0, m=20))
        assert counts[0] == 1.0
        assert sum(counts[1:]) == 0.0

    def test_uniform_when_symmetric_single(self):
        counts = class_count_predictive(self._spec(2, 1, m=10))
        assert np.allclose(counts, 1 / 11, atol=1e-12)

    def test_product_form(self):
        counts = class_count_predictive(self._spec(60, 50, m=10))
        expected = 1.0
        for i in range(10):
            expected *= (50 + i) / (60 + i)
        assert counts[10] == pytest.approx(expected, abs=1e-12)
        assert counts[10] == pytest.approx(0.184771648791657, abs=1e-12)

    def test_mass_sums_to_one(self):
        counts = class_count_predictive(self._spec(37, 12, m=25))
        assert math.fsum(counts) == pytest.approx(1.0, abs=1e-10)


class TestErrorCountConditional:
    def test_empty_window(self):
        assert error_count_conditional(0, 0, 3, 10) == 1.0

    def test_single_item_uniform(self):
        assert error_count_conditional(0, 1, 1, 2) == pytest.approx(0.5, abs=1e-12)
        assert error_count_conditional(1, 1, 1, 2) == pytest.approx(0.5, abs=1e-12)

    def test_row_sums(self):
        total = math.fsum(error_count_conditional(e, 20, 5, 50) for e in range(21))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_exact_rationals(self):
        for e in range(8):
            assert error_count_conditional(e, 7, 2, 9) == pytest.approx(
                float(bb_pmf(e, 7, 2, 7)), abs=1e-12
            )

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateRungError):
            error_count_conditional(0, 3, 0, 10)
        with pytest.raises(DegenerateRungError):
            error_count_conditional(0, 3, 10, 10)

    def test_order_error(self):
        with pytest.raises(ValueError):
            error_count_conditional(4, 3, 2, 10)


class TestJointPredictive:
    SPEC = MondrianSpec(k=100, k_j=30, n_j=40, m=15, alpha_target=0.1, delta=0.1)

    def test_total_mass(self):
        law = joint_predictive(self.SPEC, 4)
        assert abs(law.total_mass() - 1.0) <= 1e-9

    def test_upper_triangle_zero(self):
        law = joint_predictive(self.SPEC, 4)
        m = self.SPEC.m
        for r in range(m + 1):
            for e in range(r + 1, m + 1):
                assert law.probabilities[e, r] == 0.0

    def test_marginal_recovers_count_law(self):
        law = joint_predictive(self.SPEC, 4)
        assert np.allclose(
            law.marginal_count(), class_count_predictive(self.SPEC), atol=1e-12
        )

    def test_collapse_at_full_prevalence(self):
        spec = MondrianSpec(k=100, k_j=100, n_j=40, m=15, alpha_target=0.1, delta=0.1)
        law = joint_predictive(spec, 4)
        assert law.probabilities[:, :15].sum() == 0.0
        assert math.fsum(law.probabilities[:, 15]) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_alpha(self):
        with pytest.raises(DegenerateRungError):
            joint_predictive(self.SPEC, 0)

    def test_immutable(self):
        law = joint_predictive(self.SPEC, 4)
        with pytest.raises(ValueError):
            law.probabilities[0, 0] = 0.5


class TestErrorBudget:
    # budget_success_prob caps a window of r class items at r - x*, with x*
    # the window threshold ceil((1 - alpha) r); that is floor(alpha r)
    def test_floor_examples(self):
        assert 23 - window_threshold(0.1, 23) == 2
        assert 9 - window_threshold(0.1, 9) == 0
        # 0.29 * 100 floats below 29; the decimal threshold keeps the exact cap
        assert 100 - window_threshold(0.29, 100) == 29

    def test_matches_decimal_floor(self):
        # seeded decimal levels of 1 to 6 digits: the threshold of the
        # decimal gives the exact rational cap at every r up to 10^4
        rng = random.Random(1515)
        for _ in range(2000):
            digits = rng.randint(1, 6)
            alpha = rng.randint(1, 10**digits - 1) / 10**digits
            r = int(10 ** rng.uniform(0, 4))
            assert r - window_threshold(alpha, r) == error_cap(alpha, r), (alpha, r)
        for r in (1, 7, 100, 9999, 10**4):
            for alpha in (0.1, 0.29, 0.5, 0.7, 0.999999, 0.000001):
                assert r - window_threshold(alpha, r) == error_cap(alpha, r), (alpha, r)


class TestBudgetSuccessProb:
    def test_frozen_coupled_value(self):
        spec = MondrianSpec(k=40, k_j=12, n_j=30, m=12, alpha_target=0.2, delta=0.15)
        assert budget_success_prob(spec, 3) == pytest.approx(
            0.799659157034133, abs=1e-10
        )

    def test_single_column_case(self):
        spec = MondrianSpec(k=100, k_j=100, n_j=50, m=10, alpha_target=0.1, delta=0.1)
        got = budget_success_prob(spec, 1)
        # all windows carry exactly m class items; budget floor(0.1*10) = 1
        expected = float(bb_pmf(0, 10, 1, 49) + bb_pmf(1, 10, 1, 49))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.973699590882525, abs=1e-10)

    def test_brute_force_enumeration(self):
        spec = MondrianSpec(k=30, k_j=10, n_j=20, m=10, alpha_target=0.25, delta=0.2)
        got = budget_success_prob(spec, 3)
        assert got == pytest.approx(_p_good_brute_force(spec, 3), abs=1e-9)

    def test_matches_exact_window_mixture(self):
        # Each window count r contributes Pr(m_j = r) times the window tail
        # Pr(X >= r - floor(alpha r)), X ~ Beta-Binomial(r; n_j - u, u),
        # taken here in exact rationals through the hypergeometric identity.
        # Levels below 1/2 sum the error side of each law, levels from 1/2
        # the covered side, so the draws take both.
        rng = random.Random(1517)
        for low_alpha in (True, False) * 30:
            k = rng.randint(1, 120)
            spec = MondrianSpec(
                k=k,
                k_j=rng.randint(0, k),
                n_j=rng.randint(2, 80),
                m=rng.randint(1, 60),
                alpha_target=(rng.randint(1, 499) if low_alpha else rng.randint(500, 999)) / 1000,
                delta=0.1,
            )
            count_pmf = class_count_predictive(spec)
            for u in {1, rng.randint(1, spec.n_j - 1), spec.n_j - 1}:
                exact = Fraction(count_pmf[0]) + sum(
                    Fraction(count_pmf[r])
                    * bb_window_tail(r - error_cap(spec.alpha_target, r), r, spec.n_j - 1, u)
                    for r in range(1, spec.m + 1)
                )
                got = budget_success_prob(spec, u)
                assert got == pytest.approx(float(exact), abs=1e-12), (spec, u)

    def test_nonincreasing_in_rung(self):
        # ssbc_mondrian bisects over the rungs, which is exact only if the
        # success probability never rises with u; check every non-degenerate
        # rung 1..n_j-1 of seeded random specs
        rng = random.Random(41)
        specs = [MondrianSpec(k=50, k_j=15, n_j=40, m=15, alpha_target=0.5, delta=0.2)]
        for _ in range(40):
            k = rng.randint(1, 40)
            specs.append(
                MondrianSpec(
                    k=k,
                    k_j=rng.randint(0, k),
                    n_j=rng.randint(2, 40),
                    m=rng.randint(1, 20),
                    alpha_target=rng.uniform(0.02, 0.98),
                    delta=0.1,
                )
            )
        for spec in specs:
            values = [budget_success_prob(spec, u) for u in range(1, spec.n_j)]
            assert all(hi >= lo - 1e-12 for hi, lo in zip(values, values[1:]))

    def test_coupling_matters(self):
        # replacing the conditional error law by its marginal changes the
        # answer measurably on this documented spec
        spec = MondrianSpec(k=40, k_j=12, n_j=30, m=12, alpha_target=0.2, delta=0.15)
        s_j = 3
        count_law = class_count_predictive(spec)
        marginal_e = np.zeros(spec.m + 1)
        for r in range(spec.m + 1):
            for e in range(r + 1):
                marginal_e[e] += count_law[r] * error_count_conditional(e, r, s_j, spec.n_j)
        miscomputed = math.fsum(
            count_law[r] * math.fsum(marginal_e[: error_cap(spec.alpha_target, r) + 1])
            for r in range(spec.m + 1)
        )
        coupled = budget_success_prob(spec, 3)
        assert miscomputed == pytest.approx(0.777591406683534, abs=1e-9)
        assert abs(coupled - miscomputed) > 1e-3

    def test_off_grid_rejected(self):
        spec = MondrianSpec(k=30, k_j=10, n_j=20, m=10, alpha_target=0.25, delta=0.2)
        # rungs are the integers 1..n_j; 0, n_j+1, floats and bools are not rungs
        for u in (0, 21, 0.13, 3 / 21, 3.0, True):
            with pytest.raises(ValueError):
                budget_success_prob(spec, u)

    def test_degenerate_rung_rejected(self):
        spec = MondrianSpec(k=30, k_j=10, n_j=5, m=10, alpha_target=0.9, delta=0.2)
        # Beta(s_j, n_j - s_j) is undefined at s_j = u = n_j
        with pytest.raises(ValueError, match=r"rung u must be an integer in \[1, 4\], got 5"):
            budget_success_prob(spec, 5)

    def test_single_calibration_item_has_no_rung(self):
        # with n_j = 1 the only rung is u = n_j, so no rung has an error law
        spec = MondrianSpec(k=10, k_j=4, n_j=1, m=5, alpha_target=0.9, delta=0.5)
        for u in (1, 0, 2):
            with pytest.raises(ValueError, match=r"n_j = 1 has no rung .* u = n_j = 1"):
                budget_success_prob(spec, u)


class TestSsbcMondrian:
    def test_frozen_case(self):
        spec = MondrianSpec(k=40, k_j=12, n_j=30, m=12, alpha_target=0.2, delta=0.15)
        report = ssbc_mondrian(spec)
        assert report.feasible
        assert report.u_star == 2
        assert report.alpha_adj == pytest.approx(2 / 31, abs=1e-15)
        assert report.achieved_tail == pytest.approx(0.866934349175412, abs=1e-10)

    def test_full_prevalence_matches_single_column_search(self):
        spec = MondrianSpec(k=100, k_j=100, n_j=50, m=10, alpha_target=0.1, delta=0.1)
        report = ssbc_mondrian(spec)
        assert report.feasible
        assert report.u_star == 2
        assert report.achieved_tail == pytest.approx(0.928481343627918, abs=1e-10)
        # independent search over rungs with the exact single-column law
        cap = error_cap(spec.alpha_target, spec.m)
        best = None
        for u in range(1, 50):
            if u / 51 >= spec.alpha_target or u >= spec.n_j:
                continue
            p_good = float(sum(bb_pmf(e, 10, u, 50 - u) for e in range(cap + 1)))
            if p_good >= 1 - spec.delta:
                best = u
        assert report.u_star == best

    def test_vacuous_delta_returns_largest_nondegenerate_rung(self):
        spec = MondrianSpec(k=40, k_j=12, n_j=30, m=12, alpha_target=0.2, delta=0.999)
        report = ssbc_mondrian(spec)
        assert report.feasible
        assert report.u_star == 6  # largest u with u/31 < 0.2

    def test_reverification(self):
        rng = random.Random(11)
        for _ in range(25):
            k = rng.randint(2, 80)
            spec = MondrianSpec(
                k=k,
                k_j=rng.randint(0, k),
                n_j=rng.randint(2, 40),
                m=rng.randint(1, 20),
                alpha_target=rng.uniform(0.05, 0.9),
                delta=rng.uniform(0.05, 0.9),
            )
            report = ssbc_mondrian(spec)
            if report.feasible:
                assert budget_success_prob(spec, report.u_star) >= 1 - spec.delta

    def test_pass_rule_at_rounding_tie(self, monkeypatch):
        # fl(1 - 0.001) rounds down to 0.999, whose violation 1.0 - 0.999
        # prints as 0.0010000000000000009 > 0.001: no rung passes.
        # fl(1 - 0.1) = 0.9 prints 0.09999999999999998 <= 0.1: every rung passes.
        spec = MondrianSpec(k=40, k_j=12, n_j=30, m=12, alpha_target=0.2, delta=0.001)
        monkeypatch.setattr(ssbc.mondrian, "budget_success_prob", lambda spec, u: 0.999)
        assert not ssbc_mondrian(spec).feasible
        spec = MondrianSpec(k=40, k_j=12, n_j=30, m=12, alpha_target=0.2, delta=0.1)
        monkeypatch.setattr(ssbc.mondrian, "budget_success_prob", lambda spec, u: 0.9)
        report = ssbc_mondrian(spec)
        assert (report.u_star, report.achieved_tail) == (6, 0.9)  # largest u with u/31 < 0.2

    def test_all_rungs_degenerate(self):
        spec = MondrianSpec(k=10, k_j=4, n_j=1, m=5, alpha_target=0.9, delta=0.5)
        report = ssbc_mondrian(spec)
        assert not report.feasible
        assert report.skipped_rungs == (1,)
        assert "degenerate" in report.note

    def test_single_item_window_closed_form(self):
        spec = MondrianSpec(k=12, k_j=5, n_j=10, m=1, alpha_target=0.45, delta=0.1)
        # p_good(u) = Pr(m_j = 0) + Pr(m_j = 1) Pr(e = 0); frozen per rung
        expected = {1: 0.9583333333333333, 2: 0.9166666666666667, 3: 0.875, 4: 0.8333333333333333}
        for u, value in expected.items():
            assert budget_success_prob(spec, u) == pytest.approx(value, abs=1e-12)
        # rung 2 is the largest with p_good >= 0.9
        report = ssbc_mondrian(spec)
        assert report.feasible
        assert report.u_star == 2

    def test_consistency_with_plain_windowed_search(self):
        # with prevalence pinned at 1 the window always holds m class items,
        # so the budget search should track the plain finite-window rung;
        # the error-rate law totals n_j where the coverage law totals n_j+1,
        # which can shift the chosen rung by at most one at moderate n_j
        cases = {(50, 200, 0.2, 0.1): (6, 6), (40, 400, 0.15, 0.1): (3, 3), (30, 100, 0.3, 0.2): (7, 6)}
        for (n_j, m, alpha, delta), (u_vanilla, u_mondrian) in cases.items():
            vanilla = ssbc_adjust(
                CalibrationContext(n_j, alpha, delta), CoverageRegime.window(m)
            )
            mondrian = ssbc_mondrian(
                MondrianSpec(k=500, k_j=500, n_j=n_j, m=m, alpha_target=alpha, delta=delta)
            )
            assert vanilla.u_star == u_vanilla
            assert mondrian.u_star == u_mondrian
            assert abs(vanilla.u_star - mondrian.u_star) <= 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MondrianSpec(k=10, k_j=11, n_j=5, m=3, alpha_target=0.1, delta=0.1)
        with pytest.raises(ValueError):
            MondrianSpec(k=True, k_j=1, n_j=5, m=3, alpha_target=0.1, delta=0.1)
        with pytest.raises(ValueError):
            MondrianSpec(k=10, k_j=5, n_j=0, m=3, alpha_target=0.1, delta=0.1)
        with pytest.raises(ValueError):
            MondrianSpec(k=10, k_j=5, n_j=5, m=3, alpha_target=1.1, delta=0.1)


def realized_successes(spec: MondrianSpec, u: int, draws: int, seed: int,
                       prevalence: float | None = None) -> int:
    """Windows, of ``draws``, that stay within their error budget when
    class-j scores are thresholded at the real order statistic of rung u.

    Draw i takes a prevalence p ~ Beta(k_j, k - k_j) (or the fixed
    ``prevalence``) and a class count r ~ Bin(m, p) from numpy's generator
    at ``seed``, and its scores from the counter stream of ``simulate``:
    the words at counters i (n_j + m) .. i (n_j + m) + n_j + m - 1, the first
    n_j the calibration scores and the next r the window's.  The threshold
    is the (n_j + 1 - u)-th smallest calibration score; a window score at
    most the threshold is covered, and the window succeeds when at least
    ``window_threshold(alpha, r)`` of its r scores are (r = 0 always does).
    No miscoverage is drawn from a Beta law."""
    n_j, m = spec.n_j, spec.m
    rng = np.random.default_rng(seed)
    p = (rng.beta(spec.k_j, spec.k - spec.k_j, draws) if prevalence is None
         else np.full(draws, prevalence))
    counts = rng.binomial(m, p)
    need = np.array([0] + [window_threshold(spec.alpha_target, r) for r in range(1, m + 1)])
    width, k = n_j + m, n_j + 1 - u
    rows = max(1, 2**16 // width)
    words = np.empty(rows * width, dtype=np.uint64)
    bits = np.empty_like(words)
    successes = 0
    for lo in range(0, draws, rows):
        r = counts[lo : lo + rows]
        block = words[: len(r) * width]
        _words(seed, lo * width, block, bits[: len(block)])
        keys = block.reshape(len(r), width)
        threshold = np.partition(keys[:, :n_j], k - 1, axis=1)[:, k - 1 : k]
        in_window = np.arange(m) < r[:, None]
        covered = ((keys[:, n_j:] <= threshold) & in_window).sum(axis=1)
        successes += int((covered >= need[r]).sum())
    return successes


class TestPromiseBySimulation:
    # The printed success must not exceed the realized one by more than
    # chance allows: with S successes in R draws, Pr(Bin(R, printed) <= S)
    # must exceed FALSE_ALARM.  That is the binomial law's own margin, about
    # 4.9 standard errors (0.005 at R = 100,000), not a normal approximation.
    # The binomial tail is the package's beta_survival, which test_specfun
    # checks within 1e-15 of exact sums, far below FALSE_ALARM.
    FALSE_ALARM = 1e-6
    DRAWS = 100_000
    SPECS = [(40, 12, 30, 12, 0.2, 0.15), (1000, 300, 100, 200, 0.3, 0.1),
             (20, 3, 15, 40, 0.25, 0.1)]

    def test_words_are_the_counter_stream(self):
        words = np.empty(6, dtype=np.uint64)
        _words(7, 1000, words, np.empty_like(words))
        assert [int(v) * 2.0**-53 for v in words] == [stream_uniform(7, 1000 + i)
                                                      for i in range(6)]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: "-".join(map(str, s)))
    def test_realized_success_meets_the_printed_one(self, spec):
        spec = MondrianSpec(*spec)
        report = ssbc_mondrian(spec)
        printed = report.achieved_tail
        wins = realized_successes(spec, report.u_star, self.DRAWS, seed=spec.k_j)
        p_value = beta_survival(printed, wins + 1, self.DRAWS - wins) if wins < self.DRAWS else 1.0
        assert p_value > self.FALSE_ALARM, (wins / self.DRAWS, printed)
