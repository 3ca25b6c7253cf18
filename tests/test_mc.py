import concurrent.futures
import hashlib
import math
import os
import random

import numpy as np
import pytest

from ssbc.coverage import CalibrationContext, CoverageRegime, window_threshold
from ssbc.adjust import ssbc_adjust
from ssbc.mc import BLOCK_DRAWS, SimConfig, _count_runs, _words, run_simulation, theory_overlay
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


class TestStreams:
    ALL = ("none", "ssbc", "dkwm")
    # sha256 of canonical_json(report.to_dict()), recorded with the kernel
    # that drew each run from np.random.default_rng((seed, run)); a change
    # to any run's stream or to the counting changes a digest
    PINNED = [
        (dict(n=40, m=60, alpha_target=0.1, delta=0.1, runs=700, seed=11,
              score_model="abs_cauchy", methods=ALL),
         "89b7c0503756f71e62f1e9e2fe6361d2b400b43b9014b1d05397fd75f00711cf"),
        (dict(n=40, m=60, alpha_target=0.1, delta=0.1, runs=700, seed=12,
              score_model="abs_normal", methods=ALL),
         "4d0b5e549470c1232e9d88d24c864a5eb8ac5e601fe8a46f854d7653419334fd"),
        (dict(n=40, m=60, alpha_target=0.1, delta=0.1, runs=700, seed=13,
              score_model="uniform", methods=ALL),
         "dd12bb1c13f0b6a8043c758d91ab66736e6a9a956161f5020854337dd05e7b77"),
        # order index 6 > n: the everything set covers every window
        (dict(n=5, m=10, alpha_target=0.1, delta=0.2, runs=300, seed=2**64 - 1,
              methods=("none",)),
         "8fba7c03f1c08597a8e94879596398812c33ecf883736b4c7adc7fd9abd17868"),
        (dict(n=1, m=7, alpha_target=0.6, delta=0.3, runs=200, seed=2**32, methods=("none",)),
         "3082f09251bd7eb1a811514e7c554fbb888a690a4d24b4d9b97f2a8996f77212"),
        (dict(n=9, m=1, alpha_target=0.2, delta=0.3, runs=200, seed=7,
              score_model="abs_normal", methods=("none", "ssbc")),
         "04e41b594860ef26d2258726d8bda2290729d63dba07c965c8587eb8f8fdae30"),
        # with BLOCK_DRAWS = 2**15, 1000 runs are 7 blocks of 131 runs and one of 83
        (dict(n=100, m=150, alpha_target=0.3, delta=0.1, runs=1000, seed=2**40 + 3,
              methods=ALL),
         "2410375562464818112466f99605880578234fa8d0c28f0108269609c448d1a8"),
        # one run's draws exceed BLOCK_DRAWS: one run per block
        (dict(n=30000, m=5000, alpha_target=0.05, delta=0.1, runs=3, seed=5,
              score_model="uniform", methods=("none", "ssbc")),
         "95dc0e85e34a8707e7c1468a76ab14a22118cf67cae59feae726e13ae6aecfc6"),
    ]

    @pytest.mark.parametrize("case, digest", PINNED)
    def test_pinned_report_bytes(self, case, digest):
        report = run_simulation(SimConfig(**case))
        assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == digest

    @staticmethod
    def per_run_loop(config, ks, start, stop):
        """The counting kernel one run at a time, each run seeded by
        default_rng((seed, run)): the reference for the blocked kernel."""
        n, m = config.n, config.m
        hist = np.zeros((len(ks), m + 1), dtype=np.int64)
        for run in range(start, stop):
            rng = np.random.default_rng((config.seed, run))
            if config.score_model == "abs_cauchy":
                draws = np.abs(np.tan(np.pi * (rng.random(n + m) - 0.5)))
            elif config.score_model == "abs_normal":
                draws = np.abs(rng.standard_normal(n + m))
            else:
                draws = rng.random(n + m)
            calibration, window = np.sort(draws[:n]), draws[n:]
            for j, k in enumerate(ks):
                hist[j, m if k > n else np.count_nonzero(window <= calibration[k - 1])] += 1
        return hist

    def test_blocked_kernel_matches_per_run_loop(self):
        rng = random.Random(1011)
        for score_model in ("abs_cauchy", "abs_normal", "uniform"):
            for _ in range(4):
                n, m = rng.randint(1, 400), rng.randint(1, 400)
                rows = BLOCK_DRAWS // (n + m)
                start = rng.randint(0, 3 * rows)
                stop = start + rng.randint(1, 2 * rows + 5)
                config = SimConfig(n=n, m=m, alpha_target=0.1, delta=0.1, runs=stop,
                                   seed=rng.randrange(2**64), score_model=score_model)
                ks = (1, rng.randint(1, n), n, n + 1)
                assert np.array_equal(
                    _count_runs(config, ks, start, stop), self.per_run_loop(config, ks, start, stop)
                ), (config, ks, start, stop)

    def test_entropy_words_match_numpy_seeding(self):
        for seed in (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1):
            for run in (0, 1, 2**32):
                words = np.array(_words(seed) + _words(run), dtype=np.uint32)
                assert np.array_equal(
                    np.random.SeedSequence(words).generate_state(4),
                    np.random.SeedSequence((seed, run)).generate_state(4),
                ), (seed, run)
