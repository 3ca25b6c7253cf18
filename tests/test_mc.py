import concurrent.futures
import math
import os

import numpy as np
import pytest

from ssbc.coverage import CalibrationContext, CoverageRegime, window_threshold
from ssbc.adjust import ssbc_adjust
from ssbc.mc import SimConfig, run_simulation, theory_overlay
from ssbc.serialize import canonical_json

from oracles import bb_survival, method_report


class TestViolationThreshold:
    def test_examples(self):
        assert window_threshold(0.1, 100) == 90
        assert window_threshold(0.1, 95) == 86  # ceil(85.5)
        # (1 - alpha) m = 1e-12 is no integer: one covered point is needed
        assert window_threshold(1 - 1e-13, 10) == 1


class TestTheoryOverlay:
    CONFIG = SimConfig(n=50, m=100, alpha_target=0.1, delta=0.1, runs=10, seed=1)

    def test_nominal_shapes(self):
        pmf = theory_overlay(self.CONFIG, 0.1)
        # order index 46 of n=50: shapes (46, 5)
        expected = [float(v) for v in
                    (bb_survival(r, 100, 46, 5) - bb_survival(r + 1, 100, 46, 5) for r in range(101))]
        assert np.allclose(pmf, expected, atol=1e-10)

    def test_adjusted_rung_shapes(self):
        report = ssbc_adjust(CalibrationContext(50, 0.1, 0.1), CoverageRegime.window(100))
        pmf = theory_overlay(self.CONFIG, report.alpha_adj)
        expected = [float(v) for v in
                    (bb_survival(r, 100, 49, 2) - bb_survival(r + 1, 100, 49, 2) for r in range(101))]
        assert np.allclose(pmf, expected, atol=1e-10)

    def test_everything_set_point_mass(self):
        config = SimConfig(n=3, m=5, alpha_target=0.5, delta=0.1, runs=10, seed=1)
        pmf = theory_overlay(config, 0.01)  # order index 4 = n+1
        assert pmf == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)

    def test_single_item_window(self):
        config = SimConfig(n=9, m=1, alpha_target=0.2, delta=0.1, runs=10, seed=1)
        pmf = theory_overlay(config, 0.2)
        assert len(pmf) == 2
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)


class TestRunSimulation:
    def test_reports_are_reproducible(self):
        config = SimConfig(n=20, m=30, alpha_target=0.2, delta=0.2, runs=400, seed=99)
        first = run_simulation(config)
        second = run_simulation(config)
        assert first == second

    def test_worker_count_does_not_change_report(self):
        config = SimConfig(n=15, m=20, alpha_target=0.25, delta=0.2, runs=300, seed=5)
        solo = run_simulation(config, workers=1)
        multi = run_simulation(config, workers=3)
        assert solo == multi
        assert canonical_json(solo.to_dict()) == canonical_json(multi.to_dict())

    def test_histogram_accounting(self):
        config = SimConfig(n=25, m=40, alpha_target=0.15, delta=0.2, runs=500, seed=3)
        report = run_simulation(config)
        x_star = window_threshold(config.alpha_target, config.m)
        for method in report.methods:
            assert sum(method.coverage_histogram) == config.runs
            assert method.violations == sum(method.coverage_histogram[:x_star])
            assert method.empirical_violation_rate == method.violations / config.runs

    def test_empirical_matches_theory_within_mc_error(self):
        config = SimConfig(
            n=50, m=100, alpha_target=0.1, delta=0.1, runs=20_000, seed=12345,
            methods=("none",),
        )
        report = run_simulation(config)
        result = method_report(report, "none")
        se = math.sqrt(result.theory_violation_rate * (1 - result.theory_violation_rate) / config.runs)
        assert abs(result.empirical_violation_rate - result.theory_violation_rate) <= 3 * se
        assert result.theory_violation_rate == pytest.approx(0.396439547745066, abs=1e-10)

    def test_infeasible_method_is_skipped(self):
        config = SimConfig(
            n=5, m=10, alpha_target=0.01, delta=0.05, runs=50, seed=2,
            methods=("none", "ssbc", "dkwm"),
        )
        report = run_simulation(config)
        assert not method_report(report, "none").skipped
        assert method_report(report, "ssbc").skipped
        assert method_report(report, "dkwm").skipped
        assert method_report(report, "ssbc").note

    def test_rank_invariance_across_score_models(self):
        # coverage depends only on ranks, so continuous models must agree
        # within two-sided binomial sampling error at 99% confidence
        runs = 100_000
        rates = {}
        for model in ("abs_cauchy", "uniform"):
            config = SimConfig(
                n=50, m=100, alpha_target=0.1, delta=0.1, runs=runs, seed=777,
                score_model=model, methods=("none",),
            )
            rates[model] = method_report(run_simulation(config), "none").empirical_violation_rate
        pooled = (rates["abs_cauchy"] + rates["uniform"]) / 2
        z99 = 2.576
        bound = z99 * math.sqrt(2 * pooled * (1 - pooled) / runs)
        assert abs(rates["abs_cauchy"] - rates["uniform"]) <= bound

    def test_score_model_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=5, m=5, alpha_target=0.1, delta=0.1, runs=10, seed=1, score_model="levy")
        with pytest.raises(ValueError):
            SimConfig(n=5, m=5, alpha_target=0.1, delta=0.1, runs=10, seed=1, methods=("vanilla",))
        with pytest.raises(ValueError):
            SimConfig(n=5, m=5, alpha_target=0.1, delta=0.1, runs=10, seed=1, methods=("none", "none"))
        with pytest.raises(ValueError):
            SimConfig(n=5, m=5, alpha_target=0.1, delta=0.1, runs=True, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n=5, m=5, alpha_target=0.1, delta=0.1, runs=10, seed=True)
        with pytest.raises(ValueError):
            SimConfig(n=5, m=5, alpha_target=0.1, delta=0.1, runs=10, seed=2**64)

    def test_seed_echo_and_metadata(self):
        config = SimConfig(n=10, m=10, alpha_target=0.3, delta=0.3, runs=50, seed=424242)
        report = run_simulation(config)
        assert report.seed_echo == 424242
        assert report.runs_completed == 50
        assert report.score_model == "abs_cauchy"

    def test_workers_must_be_a_positive_integer(self):
        config = SimConfig(n=10, m=10, alpha_target=0.3, delta=0.3, runs=60, seed=8)
        for workers in (0, -1, True, 2.0):
            with pytest.raises(ValueError):
                run_simulation(config, workers=workers)

    def test_pool_is_bounded_by_cpu_count_and_chunks(self, monkeypatch):
        # the executor is replaced by one that records its size and runs each
        # range inline, so no process is ever started
        requested, submitted = [], []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, config, ks, lo, hi):
                submitted.append((lo, hi))
                future = concurrent.futures.Future()
                future.set_result(fn(config, ks, lo, hi))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        config = SimConfig(n=10, m=10, alpha_target=0.3, delta=0.3, runs=60, seed=8)
        baseline = run_simulation(config, workers=1)
        cases = [
            # (cpu_count, workers, pool size, ranges submitted)
            (2, 3, 2, [(0, 20), (20, 40), (40, 60)]),
            (2, 10_000, 2, [(r, r + 1) for r in range(60)]),
            (16, 4, 4, [(0, 15), (15, 30), (30, 45), (45, 60)]),
            (None, 2, 1, [(0, 30), (30, 60)]),
        ]
        for cpus, workers, pool_size, ranges in cases:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            requested.clear()
            submitted.clear()
            assert run_simulation(config, workers=workers) == baseline
            assert requested == [pool_size]
            assert submitted == ranges
        few_runs = SimConfig(n=10, m=10, alpha_target=0.3, delta=0.3, runs=3, seed=8)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        requested.clear()
        run_simulation(few_runs, workers=8)
        assert requested == [3]
