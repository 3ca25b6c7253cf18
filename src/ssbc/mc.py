"""Seeded Monte Carlo harness for validating coverage corrections.

Each run draws a fresh calibration set and a fresh inference window from
the chosen score model, thresholds at each method's level, and records the
window coverage.  Every run gets its own random stream derived from
(seed, run_index), so reports are byte-identical no matter how many worker
processes execute the runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .adjust import dkwm_adjust, ssbc_adjust
from .coverage import (
    CalibrationContext,
    CoverageRegime,
    check_int,
    check_unit,
    order_index,
    snapped_ceil,
)
from .specfun import BetaBinomialParams, betabinom_pmf_vector

SCORE_MODELS = ("abs_cauchy", "abs_normal", "uniform")
METHOD_NAMES = ("none", "ssbc", "dkwm")

WORKERS_ENV_VAR = "SSBC_SIM_WORKERS"


@dataclass(frozen=True)
class SimConfig:
    """Simulation description; identical configs give identical reports."""

    n: int
    m: int
    alpha_target: float
    delta: float
    runs: int
    seed: int
    score_model: str = "abs_cauchy"
    methods: tuple[str, ...] = ("none", "ssbc")

    def __post_init__(self) -> None:
        check_int("n", self.n)
        check_int("m", self.m)
        check_unit("alpha_target", self.alpha_target)
        check_unit("delta", self.delta)
        check_int("runs", self.runs)
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.score_model not in SCORE_MODELS:
            raise ValueError(f"score_model must be one of {SCORE_MODELS}, got {self.score_model!r}")
        if not self.methods:
            raise ValueError("at least one method is required")
        seen = set()
        for name in self.methods:
            if name not in METHOD_NAMES:
                raise ValueError(f"unknown method {name!r}; valid: {METHOD_NAMES}")
            if name in seen:
                raise ValueError(f"duplicate method {name!r}")
            seen.add(name)


@dataclass(frozen=True)
class MethodReport:
    method: str
    skipped: bool
    alpha_used: float | None = None
    u_star: int | None = None
    empirical_violation_rate: float | None = None
    theory_violation_rate: float | None = None
    violations: int | None = None
    coverage_histogram: tuple[int, ...] | None = None
    note: str | None = None

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


@dataclass(frozen=True)
class SimReport:
    n: int
    m: int
    alpha_target: float
    delta: float
    score_model: str
    runs_completed: int
    seed_echo: int
    methods: tuple[MethodReport, ...]

    def method_report(self, name: str) -> MethodReport:
        for report in self.methods:
            if report.method == name:
                return report
        raise KeyError(name)

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


def _draw_scores(rng: np.random.Generator, score_model: str, size: int) -> np.ndarray:
    if score_model == "abs_cauchy":
        # |tan(pi (U - 1/2))| is a standard Cauchy folded at zero
        return np.abs(np.tan(np.pi * (rng.random(size) - 0.5)))
    if score_model == "abs_normal":
        return np.abs(rng.standard_normal(size))
    return rng.random(size)


def _count_runs(config: SimConfig, ks: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """Coverage histograms for runs [start, stop): row j is method j's
    counts over coverage grid 0..m."""
    n, m = config.n, config.m
    hist = np.zeros((len(ks), m + 1), dtype=np.int64)
    for run in range(start, stop):
        rng = np.random.default_rng((config.seed, run))
        draws = _draw_scores(rng, config.score_model, n + m)
        calibration = np.sort(draws[:n])
        window = draws[n:]
        for j, k in enumerate(ks):
            if k > n:
                covered = m
            else:
                # score equal to the threshold counts as covered
                covered = int(np.count_nonzero(window <= calibration[k - 1]))
            hist[j, covered] += 1
    return hist


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "")
        workers = int(env) if env else 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    return workers


def _resolve_methods(config: SimConfig) -> list[MethodReport]:
    """Per-method adjusted levels; infeasible adjusters mark the method
    skipped instead of failing the simulation."""
    ctx = CalibrationContext(n=config.n, alpha_target=config.alpha_target, delta=config.delta)
    resolved = []
    for name in config.methods:
        if name == "none":
            resolved.append(MethodReport(method=name, skipped=False, alpha_used=config.alpha_target))
            continue
        report = (
            ssbc_adjust(ctx, CoverageRegime.window(config.m)) if name == "ssbc" else dkwm_adjust(ctx)
        )
        if not report.feasible:
            resolved.append(MethodReport(method=name, skipped=True, note=report.note))
        else:
            resolved.append(
                MethodReport(
                    method=name, skipped=False, alpha_used=report.alpha_adj, u_star=report.u_star
                )
            )
    return resolved


def theory_overlay(config: SimConfig, method_alpha: float) -> tuple[float, ...]:
    """Coverage pmf over {0..m}/m implied by thresholding at method_alpha:
    Beta-Binomial(m; k, n+1-k) with k the induced order index, collapsing to
    a point mass at full coverage when k = n+1."""
    k = order_index(method_alpha, config.n)
    if k > config.n:
        pmf = [0.0] * config.m + [1.0]
        return tuple(pmf)
    params = BetaBinomialParams(config.m, float(k), float(config.n + 1 - k))
    return tuple(betabinom_pmf_vector(params))


def violation_threshold(alpha_target: float, m: int) -> int:
    """Smallest covered count that is NOT a violation: x* = ceil((1-alpha) m).
    A window violates when its covered count is below x*."""
    x_star = snapped_ceil((1.0 - alpha_target) * m, scale=m)
    return max(0, min(m + 1, x_star))


def run_simulation(config: SimConfig, workers: int | None = None) -> SimReport:
    """Execute the experiment and summarize per-method violation rates,
    coverage histograms, and theory overlays.

    ``workers`` parallelizes over disjoint run ranges (default from the
    SSBC_SIM_WORKERS environment variable, else 1); the result does not
    depend on the worker count.
    """
    workers = _resolve_workers(workers)
    resolved = _resolve_methods(config)
    active = [r for r in resolved if not r.skipped]
    ks = tuple(order_index(r.alpha_used, config.n) for r in active)

    total = np.zeros((len(ks), config.m + 1), dtype=np.int64)
    if ks:
        if workers == 1:
            total = _count_runs(config, ks, 0, config.runs)
        else:
            # Imported here: concurrent.futures.process and multiprocessing
            # cost ~20 ms to load, and one worker needs neither.
            from concurrent.futures import ProcessPoolExecutor

            bounds = np.linspace(0, config.runs, workers + 1).astype(int)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_count_runs, config, ks, int(lo), int(hi))
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                    if lo < hi
                ]
                for future in futures:
                    total += future.result()

    x_star = violation_threshold(config.alpha_target, config.m)
    reports = []
    index = 0
    for report in resolved:
        if report.skipped:
            reports.append(report)
            continue
        hist = total[index]
        index += 1
        violations = int(hist[:x_star].sum())
        overlay = theory_overlay(config, report.alpha_used)
        reports.append(
            MethodReport(
                method=report.method,
                skipped=False,
                alpha_used=report.alpha_used,
                u_star=report.u_star,
                empirical_violation_rate=violations / config.runs,
                theory_violation_rate=math.fsum(overlay[:x_star]),
                violations=violations,
                coverage_histogram=tuple(int(c) for c in hist),
            )
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
