import hashlib
import json
import math
import os
import random
import statistics
import sys
import threading
from decimal import Context

import numpy as np
import pytest

from ssbc.coverage import CalibrationContext, CoverageRegime, order_index, window_threshold
from ssbc.adjust import ssbc_adjust
from ssbc.mc import (
    BLOCK_DRAWS,
    MAX_RUN_DRAWS,
    MAX_SIM_DRAWS,
    MethodReport,
    SimConfig,
    _SORT_MAX_N,
    _count_runs,
    _words,
    run_simulation,
    theory_overlay,
)
from ssbc.serialize import canonical_json

from oracles import bb_survival, bb_window_tail, method_report, splitmix64, stream_uniform


def kernel_words(seed, counter, count):
    """``count`` words of the package's stream from ``counter`` on."""
    words = np.empty(count, dtype=np.uint64)
    _words(seed, counter, words, np.empty(count, dtype=np.uint64))
    return words


def kernel_uniforms(seed, counter, count):
    """``count`` uniforms of the package's stream from ``counter`` on: its
    words times 2**-53."""
    return kernel_words(seed, counter, count) * 2.0**-53


def cauchy_scores(words):
    """abs_cauchy's float route, |tan(pi (U - 1/2))| of U = v 2**-53, that
    the kernel's integer keys stand in for."""
    return np.abs(np.tan(np.pi * (words * 2.0**-53 - 0.5)))


def normal_scores(words):
    """abs_normal's scores |Phi^-1(U)| of U = v 2**-53 through the float
    inverse CDF, that the kernel's integer keys stand in for; U = 0 scores
    +inf, the limit."""
    inv_cdf = statistics.NormalDist().inv_cdf
    scores = [abs(inv_cdf(v * 2.0**-53)) if v else math.inf for v in np.ravel(words).tolist()]
    return np.array(scores).reshape(np.shape(words))


# each model's float scores of an array of words
SCORES = {
    "abs_cauchy": cauchy_scores,
    "abs_normal": normal_scores,
    "uniform": lambda words: words * 2.0**-53,
}


class TestViolationThreshold:
    def test_examples(self):
        assert window_threshold(0.1, 100) == 90
        assert window_threshold(0.1, 95) == 86  # ceil(85.5)
        # (1 - alpha) m = 1e-12 is no integer: one covered point is needed
        assert window_threshold(1 - 1e-13, 10) == 1


class TestTheoryOverlay:
    CONFIG = SimConfig(n=50, m=100, alpha_target=0.1, delta=0.1, runs=10, seed=1)

    def test_nominal_shapes(self):
        none = MethodReport("none", skipped=False, alpha_used=0.1)
        pmf = theory_overlay(self.CONFIG, none)
        # order index 46 of n=50: shapes (46, 5)
        expected = [float(v) for v in
                    (bb_survival(r, 100, 46, 5) - bb_survival(r + 1, 100, 46, 5) for r in range(101))]
        assert np.allclose(pmf, expected, atol=1e-10)

    def test_adjusted_rung_shapes(self):
        report = ssbc_adjust(CalibrationContext(50, 0.1, 0.1), CoverageRegime.window(100))
        pmf = theory_overlay(
            self.CONFIG,
            MethodReport("ssbc", skipped=False, alpha_used=report.alpha_adj, u_star=report.u_star),
        )
        expected = [float(v) for v in
                    (bb_survival(r, 100, 49, 2) - bb_survival(r + 1, 100, 49, 2) for r in range(101))]
        assert np.allclose(pmf, expected, atol=1e-10)

    def test_everything_set_point_mass(self):
        config = SimConfig(n=3, m=5, alpha_target=0.5, delta=0.1, runs=10, seed=1)
        pmf = theory_overlay(config, MethodReport("dkwm", skipped=False, u_star=0))  # k = 4 = n+1
        assert pmf == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)

    def test_single_item_window(self):
        config = SimConfig(n=9, m=1, alpha_target=0.2, delta=0.1, runs=10, seed=1)
        none = MethodReport("none", skipped=False, alpha_used=0.2)
        pmf = theory_overlay(config, none)
        assert len(pmf) == 2
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)

    def test_skipped_method_has_no_overlay(self):
        # n = 5 is too small for either adjuster at alpha = delta = 0.05: a
        # skipped report has no rung, and must not read as the method "none"
        config = SimConfig(n=5, m=10, alpha_target=0.05, delta=0.05, runs=10, seed=1,
                           methods=("none", "ssbc", "dkwm"))
        none, *skipped = run_simulation(config).methods
        assert len(theory_overlay(config, none)) == 11
        assert [method.skipped for method in skipped] == [True, True]
        for method in skipped:
            with pytest.raises(ValueError) as refusal:
                theory_overlay(config, method)
            assert method.method in str(refusal.value) and method.note in str(refusal.value)


class TestRunSimulation:
    def test_reports_are_reproducible(self):
        config = SimConfig(n=20, m=30, alpha_target=0.2, delta=0.2, runs=400, seed=99)
        first = run_simulation(config)
        second = run_simulation(config)
        assert first == second

    def test_worker_count_does_not_change_report(self, monkeypatch):
        # with 64 usable CPUs each worker count is a thread count, so the
        # runs split unevenly (3 and 7) and into ranges of 4 or 5 (64 threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        for score_model in ("abs_cauchy", "abs_normal", "uniform"):
            config = SimConfig(n=15, m=20, alpha_target=0.25, delta=0.2, runs=300, seed=5,
                               score_model=score_model, methods=("none", "ssbc", "dkwm"))
            solo = run_simulation(config, workers=1)
            solo_json = canonical_json(solo.to_dict())
            for workers in (2, 3, 7, config.runs + 5):
                multi = run_simulation(config, workers=workers)
                assert solo == multi, (score_model, workers)
                assert canonical_json(multi.to_dict()) == solo_json, (score_model, workers)

    def test_histogram_accounting(self):
        config = SimConfig(n=25, m=40, alpha_target=0.15, delta=0.2, runs=500, seed=3)
        report = run_simulation(config)
        x_star = window_threshold(config.alpha_target, config.m)
        for method in report.methods:
            assert sum(method.coverage_histogram) == config.runs
            assert method.violations == sum(method.coverage_histogram[:x_star])
            assert method.empirical_violation_rate == method.violations / config.runs

    def test_printed_theory_rate_is_the_exact_value_rounded(self):
        # Pr(coverage count < x*) under the exact window law, through the
        # hypergeometric identity, against the 12 digits the report prints
        rng = random.Random(26)
        for _ in range(100):
            n, m = (int(10 ** rng.uniform(0, 3)) for _ in range(2))
            config = SimConfig(n=n, m=m, alpha_target=rng.randint(1, 500) / 1000,
                               delta=rng.randint(1, 500) / 1000, runs=1, seed=1,
                               methods=("none", "ssbc", "dkwm"))
            x_star = window_threshold(config.alpha_target, m)
            report = run_simulation(config)
            printed = json.loads(canonical_json(report.to_dict()))["methods"]
            for method, shown in zip(report.methods, printed):
                if method.skipped:
                    continue
                u = method.u_star if method.u_star is not None else n + 1 - order_index(
                    config.alpha_target, n)
                exact = 1 - bb_window_tail(x_star, m, n, u)
                want = Context(prec=40).divide(exact.numerator, exact.denominator)
                assert shown["theory_violation_rate"] == float(f"{want:.12g}"), (config, method)

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

    def test_every_method_skipped_with_many_workers(self):
        # with no active method the runs need no draws, however they split
        config = SimConfig(n=5, m=20, alpha_target=0.05, delta=0.05, runs=200, seed=9,
                           methods=("ssbc", "dkwm"))
        solo = run_simulation(config, workers=1)
        assert all(method.skipped for method in solo.methods)
        assert solo.runs_completed == config.runs
        for workers in (2, 64, config.runs + 5):
            assert run_simulation(config, workers=workers) == solo, workers

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

    def test_draw_limit(self):
        # MAX_SIM_DRAWS = runs * (n + m) is accepted, one more run is not;
        # MAX_RUN_DRAWS = n + m is accepted, one more draw is not, at every
        # run count.  A SimConfig allocates nothing.
        SimConfig(n=1, m=1, alpha_target=0.5, delta=0.4, runs=MAX_SIM_DRAWS // 2, seed=1)
        with pytest.raises(ValueError, match="MAX_SIM_DRAWS"):
            SimConfig(n=1, m=1, alpha_target=0.5, delta=0.4, runs=MAX_SIM_DRAWS // 2 + 1, seed=1)
        for runs in (1, 2):
            for n, m in ((MAX_RUN_DRAWS - 1, 1), (1, MAX_RUN_DRAWS - 1)):
                SimConfig(n=n, m=m, alpha_target=0.5, delta=0.4, runs=runs, seed=1)
                with pytest.raises(ValueError, match="MAX_RUN_DRAWS"):
                    SimConfig(n=n + 1, m=m, alpha_target=0.5, delta=0.4, runs=runs, seed=1)

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
        # Blocks of 2**6 draws: 3 runs of w = 20 each, so 60 runs are 20
        # blocks.  Every thread the simulation starts is recorded, and so is
        # every block each thread claims from the shared iterator.
        import types

        import ssbc.mc

        monkeypatch.setattr(ssbc.mc, "BLOCK_DRAWS", 2**6)
        monkeypatch.setattr(ssbc.mc, "_STEPS", ssbc.mc._STEPS[: 2**6])
        started, claimed = [], []

        class Helper(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def recording(config, ks, start, stop, blocks):
            def claims():
                for lo in blocks:
                    claimed.append((threading.get_ident(), lo))
                    yield lo
            return _count_runs(config, ks, start, stop, claims())

        monkeypatch.setattr(ssbc.mc, "threading", types.SimpleNamespace(Thread=Helper))
        monkeypatch.setattr(ssbc.mc, "_count_runs", recording)
        config = SimConfig(n=10, m=10, alpha_target=0.3, delta=0.3, runs=60, seed=8,
                           methods=("none", "ssbc", "dkwm"))
        baseline = run_simulation(config, workers=1)
        # min(workers, usable CPUs, blocks) threads, the caller among them
        cases = [
            # (usable CPUs, workers, threads)
            (2, 3, 2),
            (2, 10_000, 2),
            (16, 4, 4),
            (16, 7, 7),
            (64, 10_000, 20),
            # no CPU count: one thread
            (None, 2, 1),
        ]

        def check(workers, threads, config=config, baseline=baseline):
            started.clear()
            claimed.clear()
            assert run_simulation(config, workers=workers) == baseline
            assert len(started) == threads - 1
            assert not any(helper.is_alive() for helper in started)
            # each block once, each by the caller or a helper it started
            blocks = range(0, config.runs, min(max(1, 2**6 // 20), config.runs))
            assert sorted(lo for _, lo in claimed) == list(blocks)
            counters = {threading.get_ident()} | {helper.ident for helper in started}
            assert {ident for ident, _ in claimed} <= counters

        # the CPUs the process may run on bound the threads, not the host's
        # count; where os has no sched_getaffinity, os.cpu_count() does.
        # Threads switch every microsecond, so that a block claimed twice or
        # lost would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
            for cpus, *case in cases:
                if cpus is not None:
                    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                        raising=False)
                    check(*case)
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            for cpus, *case in cases:
                monkeypatch.setattr(os, "cpu_count", lambda: cpus)
                check(*case)
        finally:
            sys.setswitchinterval(interval)
        # one block is counted on the calling thread alone
        few_runs = SimConfig(n=10, m=10, alpha_target=0.3, delta=0.3, runs=3, seed=8)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        check(8, 1, few_runs, run_simulation(few_runs, workers=1))

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_a_failing_thread_fails_the_call_and_none_outlives_it(self, failing, monkeypatch):
        # n + m = 50: 1,310 runs a block, so 3,000 runs are 3 blocks
        import ssbc.mc

        def count_runs(*args):
            if (threading.current_thread() is threading.main_thread()) == (failing == "caller"):
                raise MemoryError(f"{failing} failed")
            return _count_runs(*args)

        monkeypatch.setattr(ssbc.mc, "_count_runs", count_runs)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        before = threading.active_count()
        config = SimConfig(n=20, m=30, alpha_target=0.1, delta=0.1, runs=3000, seed=1)
        with pytest.raises(MemoryError, match=f"{failing} failed"):
            run_simulation(config, workers=2)
        assert threading.active_count() == before

    def test_runs_are_independent_across_seeds(self):
        # Each method's violation count x over a report's 500 runs is
        # Binomial(500, p) at its theory rate p, independently over seeds, so
        # the sum of (x - 500p)**2 / (500p(1-p)) over 300 seeds is nearly
        # chi-square with 300 degrees of freedom.  Its two-sided 1e-6 quantiles
        # (Wilson-Hilferty) are about 195 and 436: a stream whose runs or
        # seeds overlap, or a count off by a block, lands outside them, and a
        # true binomial count falls outside once in a million.
        runs, seeds = 500, 300
        rng = random.Random(7)
        sums = {}
        for _ in range(seeds):
            config = SimConfig(n=200, m=100, alpha_target=0.2, delta=0.05, runs=runs,
                               seed=rng.getrandbits(64), score_model="uniform",
                               methods=("none", "ssbc", "dkwm"))
            for method in run_simulation(config).methods:
                p = method.theory_violation_rate
                z2 = (method.violations - runs * p) ** 2 / (runs * p * (1 - p))
                sums[method.method] = sums.get(method.method, 0.0) + z2
        z = statistics.NormalDist().inv_cdf(1 - 0.5e-6)
        low, high = (seeds * (1 - 2 / (9 * seeds) + s * z * math.sqrt(2 / (9 * seeds))) ** 3
                     for s in (-1, 1))
        for name, total in sums.items():
            assert low < total < high, (name, total, low, high)


class TestGenerator:
    """The stream against the pure-Python SplitMix64 in ``oracles``, and
    the integer keys against the scores they stand in for."""

    SEEDS = (0, 1234567, 2**64 - 1)

    def test_reference_matches_published_vector(self):
        # the first outputs of SplitMix64 from state 1234567
        assert [splitmix64(1234567, i) for i in range(3)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_match_reference(self, seed):
        for counter in (0, 10**12 - 5, 2**64 - 4):
            got = kernel_uniforms(seed, counter, 10)
            assert got.tolist() == [stream_uniform(seed, counter + j) for j in range(10)]
        # a fill longer than BLOCK_DRAWS crosses the edge of the kernel's step table
        got = kernel_uniforms(seed, 7, BLOCK_DRAWS + 5)
        for j in (0, 1, BLOCK_DRAWS - 2, BLOCK_DRAWS - 1, BLOCK_DRAWS, BLOCK_DRAWS + 4):
            assert got[j] == stream_uniform(seed, 7 + j), j

    @pytest.mark.parametrize("seed", (1, 2**63))
    def test_chi_square_uniformity(self, seed):
        # 2**20 draws in 1024 bins, by their top ten bits and by their lowest
        # ten: the statistic must lie within 5 standard deviations of its
        # mean, the degrees of freedom
        draws = kernel_uniforms(seed, 0, 2**20)
        bins = 1024
        expected = len(draws) / bins
        for label in ((draws * bins).astype(np.int64), (draws * 2**53).astype(np.int64) % bins):
            counts = np.bincount(label, minlength=bins)
            chi2 = float(((counts - expected) ** 2).sum() / expected)
            assert abs(chi2 - (bins - 1)) < 5 * math.sqrt(2 * (bins - 1)), chi2

    def test_nearby_seeds_share_no_draws(self):
        # a stream that is a shift of its neighbour's repeats its draws
        first = np.concatenate([kernel_uniforms(seed, 0, 10**4) for seed in range(64)])
        assert len(np.unique(first)) == len(first)

    def test_integer_keys_order_as_scores(self):
        # the kernel sorts and compares abs_cauchy's key a = |v - 2**52| and
        # uniform's word v in place of their float scores: on windows of
        # 10**6 consecutive keys, the words 2**52 - a and 2**52 + a must tie
        # and the scores strictly increase with a (and U with v).  The
        # windows: key 0; score 1 at a = 2**51, where tan's slope is least
        # against the score's ulp; score 2, where a key step moves the score
        # by the fewest ulps once the product's rounding is counted; the top
        # end up to a = 2**52 inclusive; and seeded spots
        width = 10**6
        crosses_two = int(math.atan(2) / (np.pi / 2) * 2**52)
        rng = random.Random(2025)
        starts = [0, 2**51 - width // 2, crosses_two - width // 2, 2**52 + 1 - width]
        starts += [rng.randrange(2**52 + 1 - width) for _ in range(8)]
        for lo in starts:
            keys = np.arange(lo, lo + width, dtype=np.uint64)
            below = cauchy_scores(2**52 - keys)
            assert np.all(np.diff(below) > 0), lo
            above = keys[keys < 2**52] + 2**52
            assert np.array_equal(cauchy_scores(above), below[: len(above)]), lo
            for words in (keys, above):
                assert np.all(np.diff(words * 2.0**-53) > 0), lo
        # abs_normal shares abs_cauchy's key.  Its score |Phi^-1(U)| through
        # the float inverse CDF, on windows of 2000 keys strided by 2**6: from
        # a to a + 2**6 the score s grows by at least 2**-47 / phi(s), that is
        # 2**5 / (s phi(s)) >= 132 of its ulps, some 130 after the inverse
        # CDF's rounding, so a double resolves each step.  The windows: key 0;
        # score 1, where s phi(s) peaks; the top end up to a = 2**52 - 1; and
        # seeded spots.  The top key 2**52 is the word 0 alone, scoring +inf.
        stride, count = 2**6, 2000
        span = stride * (count - 1)
        at_one = int((statistics.NormalDist().cdf(1) - 0.5) * 2**53)
        starts = [0, at_one - span // 2, 2**52 - 1 - span]
        starts += [rng.randrange(2**52 - span) for _ in range(8)]
        for lo in starts:
            keys = np.arange(lo, lo + span + 1, stride, dtype=np.uint64)
            above = normal_scores(2**52 + keys)
            assert np.all(np.diff(above) > 0), lo
            assert np.array_equal(normal_scores(2**52 - keys), above), lo
        top = normal_scores(np.array([0, 1, 2**53 - 1], dtype=np.uint64))
        assert top[0] == math.inf and top[1] == top[2] < math.inf


class TestStreams:
    ALL = ("none", "ssbc", "dkwm")
    # sha256 of canonical_json(report.to_dict()), recorded with the kernel
    # whose run r takes the uniforms at counters r*w .. r*w + w - 1 of
    # SplitMix64 started at state seed; a change to the stream, the keys or
    # the counting changes a digest
    PINNED = [
        (dict(n=40, m=60, alpha_target=0.1, delta=0.1, runs=700, seed=11,
              score_model="abs_cauchy", methods=ALL),
         "8619254ff983dbc44cb226dc33f96b6918f008707c348d2d6060bdb7d351f2f0"),
        (dict(n=40, m=60, alpha_target=0.1, delta=0.1, runs=700, seed=12,
              score_model="abs_normal", methods=ALL),
         "cc44ec95f93f80690c40c68b640c5da6476bb9b8cab6e79c6d1686e7cbf79f39"),
        (dict(n=40, m=60, alpha_target=0.1, delta=0.1, runs=700, seed=13,
              score_model="uniform", methods=ALL),
         "4392d0e82b30b8343ae69818546cef4fcf0e30b3432e917376684bbc7b8878d5"),
        # order index 6 > n: the everything set covers every window
        (dict(n=5, m=10, alpha_target=0.1, delta=0.2, runs=300, seed=2**64 - 1,
              methods=("none",)),
         "8fba7c03f1c08597a8e94879596398812c33ecf883736b4c7adc7fd9abd17868"),
        (dict(n=1, m=7, alpha_target=0.6, delta=0.3, runs=200, seed=2**32, methods=("none",)),
         "5230d7c5060a83fb4ebd8df2bbf50a9a109c4bab5d36c4856785170049c7677e"),
        # a one-score window
        (dict(n=9, m=1, alpha_target=0.2, delta=0.3, runs=200, seed=7,
              score_model="abs_normal", methods=("none", "ssbc")),
         "ce8cd56aa183aae64da7c9df742949a6fd44f048107e5ff866dbdfb7733b2c32"),
        # with BLOCK_DRAWS = 2**16, 1000 runs are 3 blocks of 262 runs and one of 214
        (dict(n=100, m=150, alpha_target=0.3, delta=0.1, runs=1000, seed=2**40 + 3,
              methods=ALL),
         "2bd60cdd49c307242e4653dff1ebf1a35b8080f2f3670bb6a877bd1a72c7a33d"),
        # one run's draws exceed half of BLOCK_DRAWS: one run per block.  Its
        # theory rates print as 0.483032367453 and 0.099434990236, the exact
        # 0.48303236745273004... and 0.099434990236023866... rounded
        (dict(n=30000, m=5000, alpha_target=0.05, delta=0.1, runs=3, seed=5,
              score_model="uniform", methods=("none", "ssbc")),
         "abc24fa583fd1a7bc45b27a393fce5aea532b1a629b71be740bf9e4acd41d889"),
    ]

    @pytest.mark.parametrize("case, digest", PINNED)
    def test_pinned_report_bytes(self, case, digest):
        report = run_simulation(SimConfig(**case))
        assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == digest

    @pytest.mark.parametrize("case, digest", [p for p in PINNED if len(p[0]["methods"]) > 1])
    def test_block_size_does_not_change_bytes(self, case, digest, monkeypatch):
        # 2**10 draws a block: 4 runs a block at w = 250, and 35 fills of
        # the step table for one run of w = 35000
        import ssbc.mc

        monkeypatch.setattr(ssbc.mc, "BLOCK_DRAWS", 2**10)
        monkeypatch.setattr(ssbc.mc, "_STEPS", ssbc.mc._STEPS[: 2**10])
        report = run_simulation(SimConfig(**case))
        assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == digest

    @staticmethod
    def per_run_loop(config, ks, start, stop):
        """The counting kernel one run at a time on the reference generator:
        run r's scores are the uniforms at counters r*w .. r*w + w - 1,
        w = n + m, through the model's float scores; the first n calibrate."""
        n, m = config.n, config.m
        hist = np.zeros((len(ks), m + 1), dtype=np.int64)
        for run in range(start, stop):
            counters = range(run * (n + m), (run + 1) * (n + m))
            words = np.array([splitmix64(config.seed, c) >> 11 for c in counters], dtype=np.uint64)
            draws = SCORES[config.score_model](words)
            calibration, window = np.sort(draws[:n]), draws[n:]
            for j, k in enumerate(ks):
                hist[j, m if k > n else np.count_nonzero(window <= calibration[k - 1])] += 1
        return hist

    @staticmethod
    def clustered_orders(rng, n, alpha, distinct):
        """``distinct`` order indices within 5 of the target's own at level
        alpha: near the top of the row at alpha 0.1, near the bottom at 0.9.
        Above _SORT_MAX_N such a row is partitioned and only its short side
        sorted."""
        k = order_index(alpha, n)
        return tuple(rng.sample(range(k - 5, k + 6), distinct))

    def test_blocked_kernel_matches_per_run_loop(self):
        rng = random.Random(1011)
        for score_model in SCORES:
            cases = []
            for _ in range(3):
                n, m = rng.randint(1, 120), rng.randint(1, 120)
                cases.append((n, m, (1, rng.randint(1, n), n, n + 1)))
            # rows above the full-sort length, with 1, 2 and 3 distinct orders
            # near the top and near the bottom
            for alpha, distinct in [(0.1, 1), (0.9, 2), (0.1, 3), (0.9, 3)]:
                n, m = _SORT_MAX_N + rng.randint(1, 150), rng.randint(1, 60)
                cases.append((n, m, (*self.clustered_orders(rng, n, alpha, distinct), n + 1)))
            for n, m, ks in cases:
                rows = BLOCK_DRAWS // (n + m)
                start = rng.randint(0, 2 * rows)
                stop = start + rng.randint(1, rows + 5)
                config = SimConfig(n=n, m=m, alpha_target=0.1, delta=0.1, runs=stop,
                                   seed=rng.randrange(2**64), score_model=score_model)
                assert np.array_equal(
                    _count_runs(config, ks, start, stop), self.per_run_loop(config, ks, start, stop)
                ), (config, ks, start, stop)

    def test_methods_sharing_an_order_index(self):
        # each distinct order index is counted once and copied to every
        # method that has it, the everything set among them
        rng = random.Random(1213)
        for score_model in SCORES:
            n, m = rng.randint(2, 120), rng.randint(1, 120)
            cases = [(n, m, rng.randint(1, n), 300)]
            # rows above the full-sort length, the order near the top and the bottom
            for alpha in (0.1, 0.9):
                n = _SORT_MAX_N + rng.randint(1, 150)
                cases.append((n, rng.randint(1, 60), order_index(alpha, n), 60))
            for n, m, k, runs in cases:
                config = SimConfig(n=n, m=m, alpha_target=0.1, delta=0.1, runs=runs,
                                   seed=rng.randrange(2**64), score_model=score_model)
                for ks in ((k, k, n + 1), (n + 1, k, n + 1, k), (n + 1, n + 1)):
                    assert np.array_equal(
                        _count_runs(config, ks, 17, runs), self.per_run_loop(config, ks, 17, runs)
                    ), (config, ks)

    def test_keys_count_as_float_scores_on_tied_words(self, monkeypatch):
        # the stream replaced by words drawn from a few values around 2**52
        # and at both ends, so that runs are full of ties, of words 2**52 - a
        # and 2**52 + a, and of the extreme keys: the kernel's counts on its
        # integer keys must equal those of the float scores
        import ssbc.mc

        values = np.array([0, 1, 2**51, 2**52 - 2, 2**52 - 1, 2**52, 2**52 + 1, 2**52 + 2,
                           3 * 2**51, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
        table = np.random.default_rng(1415).choice(values, 3000 * 9)

        def tied_words(seed, counter, state, bits):
            state[:] = table[counter : counter + len(state)]

        monkeypatch.setattr(ssbc.mc, "_words", tied_words)
        # rows of 4, and rows above the full-sort length with three orders
        # near the top and near the bottom
        n = _SORT_MAX_N + 44
        cases = [(4, 5, (1, 2, 3, 4))]
        cases += [(n, 5, self.clustered_orders(random.Random(alpha), n, alpha, 3))
                  for alpha in (0.1, 0.9)]
        for n, m, ks in cases:
            runs = len(table) // (n + m)
            for score_model, to_scores in SCORES.items():
                config = SimConfig(n=n, m=m, alpha_target=0.1, delta=0.1, runs=runs, seed=0,
                                   score_model=score_model)
                draws = to_scores(table[: runs * (n + m)]).reshape(runs, n + m)
                calibration = np.sort(draws[:, :n], axis=1)
                covered = [(draws[:, n:] <= calibration[:, [k - 1]]).sum(axis=1) for k in ks]
                expected = [np.bincount(c, minlength=m + 1) for c in covered]
                assert np.array_equal(_count_runs(config, ks, 0, runs), expected), (n, score_model)

    @pytest.mark.parametrize("score_model", SCORES)
    def test_any_partition_sums_to_the_whole(self, score_model):
        rng = random.Random(score_model)
        for _ in range(3):
            n, m = rng.randint(1, 300), rng.randint(1, 300)
            rows = max(1, BLOCK_DRAWS // (n + m))
            start = rng.randint(0, 2 * rows)
            stop = start + rng.randint(2, 3 * rows + 7)
            config = SimConfig(n=n, m=m, alpha_target=0.1, delta=0.1, runs=stop,
                               seed=rng.randrange(2**64), score_model=score_model)
            ks = (1, rng.randint(1, n), n, n + 1)
            cuts = sorted(rng.sample(range(start + 1, stop), min(6, stop - start - 1)))
            bounds = [start, *cuts, stop]
            parts = sum(_count_runs(config, ks, lo, hi) for lo, hi in zip(bounds, bounds[1:]))
            assert np.array_equal(_count_runs(config, ks, start, stop), parts), (config, bounds)

    @pytest.mark.parametrize("n, m", [(15, 20), (300, 40)])
    def test_one_run_ranges_sum_to_the_whole(self, n, m):
        # the finest split, one range per run, with rows sorted whole (n = 15)
        # and partitioned near the top (n = 300, above _SORT_MAX_N)
        runs = 150
        config = SimConfig(n=n, m=m, alpha_target=0.1, delta=0.1, runs=runs, seed=77)
        ks = (n - n // 10, n, n + 1)
        parts = sum(_count_runs(config, ks, r, r + 1) for r in range(runs))
        assert np.array_equal(_count_runs(config, ks, 0, runs), parts)

    @pytest.mark.parametrize("n, m", [(40, 61), (25, 75)])
    def test_abs_models_differ_only_in_the_echoed_model(self, n, m):
        # abs_normal and abs_cauchy count on the same key |v - 2**52|, at odd
        # and even n + m alike
        reports = {}
        for score_model in ("abs_cauchy", "abs_normal"):
            config = SimConfig(n=n, m=m, alpha_target=0.1, delta=0.1, runs=500, seed=31,
                               score_model=score_model, methods=self.ALL)
            report = run_simulation(config).to_dict()
            assert report.pop("score_model") == score_model
            reports[score_model] = canonical_json(report)
        assert reports["abs_cauchy"] == reports["abs_normal"]
