"""Cross-command identities at moderate delta.

Where two subcommands evaluate one law by different code, their answers
must agree: ``rungs`` and ``adjust`` (both regimes), ``adjust --method
dkwm`` and ``rungs``, ``feasible --m`` and rung 1 of the window law,
``simulate``'s theory rate and ``adjust``'s window violation, and
``adjust`` at a one-score window and the rung floor(delta (n+1)), and
``mondrian``'s success at the two prevalence limits k_j = 0 and k_j = k
against 1 and the window law.  Each check
runs seeded log-uniform draws with delta in [1e-6, 0.9], through the
functions the subcommands call.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from ssbc.adjust import dkwm_adjust, ssbc_adjust
from ssbc.coverage import CalibrationContext, CoverageRegime, tail_prob, window_threshold
from ssbc.feasibility import feasibility_report, rung_table
from ssbc.mc import SimConfig, run_simulation
from ssbc.mondrian import MondrianSpec, budget_success_prob


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def level(rng: random.Random, lo: float, hi: float) -> float:
    """A log-uniform level in [lo, hi], typed as a 3-digit decimal."""
    return float(f"{log_uniform(rng, lo, hi):.3g}")


def delta(rng: random.Random) -> float:
    return log_uniform(rng, 1e-6, 0.9)


def u_hi(alpha: float, n: int) -> int:
    """The top rung below the level, from the exact decimal the level prints as."""
    return math.ceil(Fraction(repr(alpha)) * (n + 1)) - 1


@pytest.mark.parametrize("kind", ["inf", "window"])
def test_adjust_answers_the_top_rung_the_table_passes(kind):
    # u* is the largest u <= u_hi with attainable_delta(u) <= delta, and the
    # answer is infeasible when no such rung exists.
    rng = random.Random(f"rungs-adjust-{kind}")
    answered = 0
    for _ in range(200):
        n, alpha, d = int(log_uniform(rng, 1, 300)), level(rng, 1e-3, 0.9), delta(rng)
        regime = (CoverageRegime.infinite() if kind == "inf"
                  else CoverageRegime.window(int(log_uniform(rng, 1, 300))))
        rungs = rung_table(n, alpha, regime).rungs
        report = ssbc_adjust(CalibrationContext(n, alpha, d), regime)
        passing = [rung for rung in rungs[: u_hi(alpha, n)] if rung.attainable_delta <= d]
        case = (n, alpha, d, regime)
        if not passing:
            assert not report.feasible, case
            continue
        answered += 1
        top = passing[-1]
        assert report.feasible and report.u_star == top.u, case
        assert report.achieved_violation == top.attainable_delta, case
    assert answered >= 25


def test_dkwm_tail_is_its_rungs_row():
    # At u_star >= 1, dkwm's achieved_tail is 1 - attainable_delta of its rung.
    rng = random.Random("dkwm-rungs")
    checked = 0
    for _ in range(150):
        n, alpha, d = int(log_uniform(rng, 1, 1000)), level(rng, 0.05, 0.9), delta(rng)
        report = dkwm_adjust(CalibrationContext(n, alpha, d))
        if not (report.feasible and report.u_star >= 1):
            continue
        checked += 1
        rung = rung_table(n, alpha, CoverageRegime.infinite()).rungs[report.u_star - 1]
        assert rung.attainable_delta == 1.0 - report.achieved_tail, (n, alpha, d)
    assert checked >= 50


def test_feasible_threshold_is_where_window_rung_one_flips():
    # feasible --m reports c* / m; rung 1's tail Pr(X >= x), X ~ BB(m; n, 1),
    # passes 1 - delta at x = m - c* and fails at x = m - c* + 1.  The level
    # (c -/+ 1/2) / m puts the window threshold at x = m - c (+ 1).
    rng = random.Random("feasible-window")
    checked = 0
    for _ in range(200):
        n, m, d = int(log_uniform(rng, 1, 3000)), int(log_uniform(rng, 1, 20000)), delta(rng)
        c = round(feasibility_report(n, d, m).alpha_star_m * m)
        window = CoverageRegime.window(m)
        case = (n, m, d, c)
        if c < m:
            alpha = (c + 0.5) / m
            assert window_threshold(alpha, m) == m - c, case
            assert tail_prob(n, 1, window, alpha) >= 1.0 - d, case
            checked += 1
        if c > 0:
            alpha = (c - 0.5) / m
            assert window_threshold(alpha, m) == m - c + 1, case
            assert tail_prob(n, 1, window, alpha) < 1.0 - d, case
            checked += 1
    assert checked >= 300


def test_simulate_theory_rate_is_adjusts_window_violation():
    # Both are Pr(X < x*), X ~ BB(m; n+1-u*, u*), by the pmf walk and by the
    # window tail; they agree within the window contract 1e-15 N ln N.
    rng = random.Random("simulate-adjust")
    checked = 0
    for _ in range(80):
        n, m = int(log_uniform(rng, 2, 1000)), int(log_uniform(rng, 1, 1000))
        alpha, d = level(rng, 0.01, 0.9), delta(rng)
        (method,) = run_simulation(SimConfig(n, m, alpha, d, runs=1, seed=0,
                                             methods=("ssbc",))).methods
        report = ssbc_adjust(CalibrationContext(n, alpha, d), CoverageRegime.window(m))
        case = (n, m, alpha, d)
        assert method.skipped == (not report.feasible), case
        if method.skipped:
            continue
        checked += 1
        assert method.u_star == report.u_star, case
        big_n = n + 1 + m
        assert (abs(method.theory_violation_rate - report.achieved_violation)
                <= 1e-15 * big_n * math.log(big_n)), case
    assert checked >= 20


def test_one_score_window_rung_is_delta_times_n_plus_one():
    # With m = 1 the window misses with probability u/(n+1) at rung u, so
    # u* = min(u_hi, floor(delta (n+1))) in exact fractions of the decimals,
    # 0 meaning infeasible.  No draw here lands exactly on delta (n+1) = u:
    # at such a tie the lgamma tail reads u/(n+1) a few ulps high once n is
    # in the thousands, and u* comes out one rung low (ROADMAP item 15).
    rng = random.Random("window-m1")
    answered = 0
    for _ in range(2000):
        n, alpha, d = int(log_uniform(rng, 1, 1e5)), level(rng, 1e-3, 0.9), level(rng, 1e-6, 0.9)
        expected = min(u_hi(alpha, n), math.floor(Fraction(repr(d)) * (n + 1)))
        report = ssbc_adjust(CalibrationContext(n, alpha, d), CoverageRegime.window(1))
        assert (report.u_star if report.feasible else 0) == expected, (n, alpha, d)
        answered += expected > 0
    assert answered >= 600


def test_mondrian_budget_at_the_two_prevalence_limits():
    # With k_j = 0 every window holds no class-j item, so it always meets its
    # budget; with k_j = k every window is all class j, so the success is the
    # window tail at calibration size n_j - 1.  Both hold bit for bit.
    rng = random.Random("mondrian-limits")
    checked = 0
    for _ in range(200):
        k, n_j = int(log_uniform(rng, 1, 1e4)), int(log_uniform(rng, 2, 500))
        m, alpha, d = int(log_uniform(rng, 1, 300)), level(rng, 1e-3, 0.9), delta(rng)
        window = CoverageRegime.window(m)
        for u in range(1, n_j):
            case = (k, n_j, m, alpha, u)
            assert budget_success_prob(MondrianSpec(k, 0, n_j, m, alpha, d), u) == 1.0, case
            assert (budget_success_prob(MondrianSpec(k, k, n_j, m, alpha, d), u)
                    == tail_prob(n_j - 1, u, window, alpha)), case
            checked += 1
    assert checked >= 5000
