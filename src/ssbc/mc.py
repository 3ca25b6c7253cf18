"""Seeded Monte Carlo harness for validating coverage corrections.

Each run draws a fresh calibration set and a fresh inference window from
the chosen score model, thresholds at each method's level, and records the
window coverage.  Every run gets its own random stream derived from
(seed, run_index), so reports are byte-identical no matter how many worker
processes execute the runs, and to those of earlier versions.  Runs are
counted a block at a time: each run fills one row of a block, and the sort,
the comparisons and the histogram update are done once per block.

``numpy.random`` is reached only inside the counting kernel, so a process
that hands every run to worker processes never loads it.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .adjust import dkwm_adjust, ssbc_adjust
from .coverage import (
    CalibrationContext,
    CoverageRegime,
    Record,
    check_int,
    check_unit,
    order_index,
    window_threshold,
)
from .specfun import betabinom_pmf_vector

SCORE_MODELS = ("abs_cauchy", "abs_normal", "uniform")
METHOD_NAMES = ("none", "ssbc", "dkwm")
# Draws per block of runs: a worker holds 256 KiB of draws at a time, or one
# run's draws if they are larger.
BLOCK_DRAWS = 1 << 15


class SimConfig(Record):
    """Simulation description; identical configs give identical reports."""

    def __init__(
        self, n: int, m: int, alpha_target: float, delta: float, runs: int, seed: int,
        score_model: str = "abs_cauchy", methods: tuple[str, ...] = ("none", "ssbc"),
    ) -> None:
        vars(self).update(
            n=n, m=m, alpha_target=alpha_target, delta=delta, runs=runs, seed=seed,
            score_model=score_model, methods=methods
        )
        check_int("n", n)
        check_int("m", m)
        check_unit("alpha_target", alpha_target)
        check_unit("delta", delta)
        check_int("runs", runs)
        check_int("seed", seed, 0, 2**64 - 1)
        if score_model not in SCORE_MODELS:
            raise ValueError(f"score_model must be one of {SCORE_MODELS}, got {score_model!r}")
        if not methods:
            raise ValueError("at least one method is required")
        seen = set()
        for name in methods:
            if name not in METHOD_NAMES:
                raise ValueError(f"unknown method {name!r}; valid: {METHOD_NAMES}")
            if name in seen:
                raise ValueError(f"duplicate method {name!r}")
            seen.add(name)


class MethodReport(Record):
    def __init__(
        self, method: str, skipped: bool, alpha_used: float | None = None,
        u_star: int | None = None, empirical_violation_rate: float | None = None,
        theory_violation_rate: float | None = None, violations: int | None = None,
        coverage_histogram: tuple[int, ...] | None = None, note: str | None = None,
    ) -> None:
        vars(self).update(
            method=method, skipped=skipped, alpha_used=alpha_used, u_star=u_star,
            empirical_violation_rate=empirical_violation_rate,
            theory_violation_rate=theory_violation_rate, violations=violations,
            coverage_histogram=coverage_histogram, note=note
        )

    def to_dict(self) -> dict:
        out = {"method": self.method, "skipped": self.skipped}
        if self.skipped:
            out["note"] = self.note
            return out
        out.update(
            {
                "alpha_used": self.alpha_used,
                "u_star": self.u_star,
                "empirical_violation_rate": self.empirical_violation_rate,
                "theory_violation_rate": self.theory_violation_rate,
                "violations": self.violations,
                "coverage_histogram": list(self.coverage_histogram),
            }
        )
        return out


class SimReport(Record):
    def __init__(
        self, n: int, m: int, alpha_target: float, delta: float, score_model: str,
        runs_completed: int, seed_echo: int, methods: tuple[MethodReport, ...],
    ) -> None:
        vars(self).update(
            n=n, m=m, alpha_target=alpha_target, delta=delta, score_model=score_model,
            runs_completed=runs_completed, seed_echo=seed_echo, methods=methods
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "alpha_target": self.alpha_target,
            "delta": self.delta,
            "score_model": self.score_model,
            "runs_completed": self.runs_completed,
            "seed_echo": self.seed_echo,
            "methods": [r.to_dict() for r in self.methods],
        }


def _draw_scores(rng: np.random.Generator, score_model: str, out: np.ndarray) -> None:
    """Fill out with one run's raw draws: standard normals for abs_normal,
    uniforms on [0, 1) otherwise; :func:`_to_scores` maps them to scores."""
    if score_model == "abs_normal":
        rng.standard_normal(out=out)
    else:
        rng.random(out=out)


def _to_scores(draws: np.ndarray, score_model: str) -> None:
    """Map raw draws to scores in place.  Each ufunc is elementwise, so a
    block of runs gets the values each run's row would get alone."""
    if score_model == "abs_cauchy":
        # |tan(pi (U - 1/2))| is a standard Cauchy folded at zero
        draws -= 0.5
        draws *= np.pi
        np.tan(draws, out=draws)
    if score_model != "uniform":
        np.abs(draws, out=draws)


def _words(value: int) -> list[int]:
    """The 32-bit words of a nonnegative int, low word first; [0] for 0.
    This is how numpy coerces an int seed to SeedSequence entropy."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _count_runs(config: SimConfig, ks: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """Coverage histograms for runs [start, stop): row j is method j's
    counts over coverage grid 0..m.

    Run r draws from the stream of ``np.random.default_rng((seed, r))``,
    built here from the same SeedSequence entropy, which is cheaper.  Runs
    are taken ``max(1, BLOCK_DRAWS // (n+m))`` at a time (fewer if the
    range is shorter): each fills one row of the block, and then each
    method's threshold comparison, count and histogram update is one array
    operation over the whole block.
    """
    n, m = config.n, config.m
    random = np.random  # loads numpy.random in the process that counts
    seed_words = _words(config.seed)
    hist = np.zeros((len(ks), m + 1), dtype=np.int64)
    block = np.empty((min(max(1, BLOCK_DRAWS // (n + m)), stop - start), n + m))
    for lo in range(start, stop, len(block)):
        runs = range(lo, min(lo + len(block), stop))
        draws = block[: len(runs)]
        for row, run in zip(draws, runs):
            entropy = np.array(seed_words + _words(run), dtype=np.uint32)
            rng = random.Generator(random.PCG64(random.SeedSequence(entropy)))
            _draw_scores(rng, config.score_model, row)
        _to_scores(draws, config.score_model)
        calibration, window = draws[:, :n], draws[:, n:]
        calibration.sort(axis=1)
        for j, k in enumerate(ks):
            if k > n:
                hist[j, m] += len(runs)
            else:
                # score equal to the threshold counts as covered
                covered = np.count_nonzero(window <= calibration[:, k - 1 : k], axis=1)
                hist[j] += np.bincount(covered, minlength=m + 1)
    return hist


def theory_overlay(config: SimConfig, method_alpha: float) -> tuple[float, ...]:
    """Coverage pmf over {0..m}/m implied by thresholding at method_alpha:
    Beta-Binomial(m; k, n+1-k) with k the induced order index, collapsing to
    a point mass at full coverage when k = n+1."""
    k = order_index(method_alpha, config.n)
    if k > config.n:
        pmf = [0.0] * config.m + [1.0]
        return tuple(pmf)
    return tuple(betabinom_pmf_vector(config.m, float(k), float(config.n + 1 - k)))


def run_simulation(config: SimConfig, workers: int = 1) -> SimReport:
    """Execute the experiment and summarize per-method violation rates,
    coverage histograms, and theory overlays.

    ``workers`` splits the runs into that many disjoint ranges, executed by
    a process pool of at most ``os.cpu_count()`` processes; the result does
    not depend on the worker count.
    """
    check_int("workers", workers)
    # Each method's adjusted level; an infeasible adjuster marks its method
    # skipped instead of failing the simulation.  The active reports are
    # finished below, once the runs are counted.
    ctx = CalibrationContext(n=config.n, alpha_target=config.alpha_target, delta=config.delta)
    reports = []
    for name in config.methods:
        if name == "none":
            reports.append(MethodReport(name, skipped=False, alpha_used=config.alpha_target))
            continue
        adj = (ssbc_adjust(ctx, CoverageRegime.window(config.m)) if name == "ssbc"
               else dkwm_adjust(ctx))
        reports.append(
            MethodReport(name, skipped=False, alpha_used=adj.alpha_adj, u_star=adj.u_star)
            if adj.feasible else MethodReport(name, skipped=True, note=adj.note)
        )
    active = [i for i, report in enumerate(reports) if not report.skipped]
    ks = tuple(order_index(reports[i].alpha_used, config.n) for i in active)

    total = np.zeros((len(ks), config.m + 1), dtype=np.int64)
    if ks:
        if workers == 1:
            total = _count_runs(config, ks, 0, config.runs)
        else:
            # Imported here: concurrent.futures.process and multiprocessing
            # cost ~20 ms to load, and one worker needs neither.
            from concurrent.futures import ProcessPoolExecutor

            # More ranges than runs would only add empty ones.
            bounds = np.linspace(0, config.runs, min(workers, config.runs) + 1).astype(int)
            chunks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
            processes = min(os.cpu_count() or 1, len(chunks))
            with ProcessPoolExecutor(max_workers=processes) as pool:
                futures = [pool.submit(_count_runs, config, ks, lo, hi) for lo, hi in chunks]
                for future in futures:
                    total += future.result()

    x_star = window_threshold(config.alpha_target, config.m)
    for i, hist in zip(active, total):
        report = reports[i]
        violations = int(hist[:x_star].sum())
        reports[i] = MethodReport(
            method=report.method,
            skipped=False,
            alpha_used=report.alpha_used,
            u_star=report.u_star,
            empirical_violation_rate=violations / config.runs,
            theory_violation_rate=math.fsum(theory_overlay(config, report.alpha_used)[:x_star]),
            violations=violations,
            coverage_histogram=tuple(int(c) for c in hist),
        )
    return SimReport(
        n=config.n,
        m=config.m,
        alpha_target=config.alpha_target,
        delta=config.delta,
        score_model=config.score_model,
        runs_completed=config.runs,
        seed_echo=config.seed,
        methods=tuple(reports),
    )
