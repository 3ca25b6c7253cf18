"""Seeded Monte Carlo harness for validating coverage corrections.

Each run draws a fresh calibration set and a fresh inference window from the
chosen score model, thresholds at each method's level, and records the
window coverage.  A model's scores are the uniforms U themselves (uniform),
|tan(pi (U - 1/2))| (abs_cauchy) or the half-normal |Phi^-1(U)|
(abs_normal).  The draws come from a counter-based stream: run r's w = n + m
uniforms are outputs ``r*w .. r*w + w - 1`` of SplitMix64 started at state
``seed`` (Steele, Lea & Flood, OOPSLA 2014), so any run's draws can be
computed without the ones before it (Salmon et al., SC 2011).  Every thread,
the caller included, claims the next block of runs from one shared iterator,
and reports are byte-identical whichever thread counts a block.  A block is
15 to 18 array operations however many methods are counted: ten make the
stream's words; none (uniform) or two (the abs_ models) make the integer
keys that every model orders in place of its scores (see
:func:`_count_runs`); one sorts the calibration keys, or two select the
order statistics the methods read; and four count every method's covered
window scores.  Threads run while numpy releases the interpreter lock inside
those operations, so fewer, longer ones leave them less time waiting on it.
"""

from __future__ import annotations

import math
import os
import threading
from itertools import islice

import numpy as np

from .adjust import dkwm_adjust, ssbc_adjust
from .coverage import (
    CalibrationContext, CoverageRegime, Record, check_int, check_unit, order_index, window_threshold
)
from .specfun import betabinom_pmf_vector

SCORE_MODELS = ("abs_cauchy", "abs_normal", "uniform")
METHOD_NAMES = ("none", "ssbc", "dkwm")
# Draws per block of runs: a thread holds 512 KiB of words, as much
# scratch and up to 192 KiB of comparisons at a time, or one run's worth of
# each if that is larger.
BLOCK_DRAWS = 1 << 16
# Most draws of a simulation, runs * (n + m) (~1-2.5 min at 6-15 ns a draw on 2 vCPUs), and
# of one run, n + m (a thread holds two words a draw, the theory pmf a float a window count:
# one run of 2**24 draws peaked at 286 MiB with m = 1 and 946 MiB with n = 1, ru_maxrss).
MAX_SIM_DRAWS = 10**10
MAX_RUN_DRAWS = 2**24
# Longest calibration row that _count_runs sorts whole; a longer row is
# partitioned at one order index and only the side beyond it is sorted, if
# that side is at most a third of the row.  On an AVX-512 CPU numpy 2.4.6
# sorts an int64 row of at most 256 keys in one sorting network.  Per block
# of 2**16 draws, m = n, order indices near 0.9n, 2-vCPU Xeon, sort against
# select: n = 256 89 / 114 us, n = 257 151 / 95 us, n = 1000 142 / 57 us;
# at n = 300 with the side beyond half the row 162 / 182 us, a third 165 / 127 us.
_SORT_MAX_N = 256

# SplitMix64: output i of the generator whose state starts at s is the
# xor-shift-multiply finalizer in _words applied to s + (i + 1) * _GAMMA
# mod 2**64.
_GAMMA = 0x9E3779B97F4A7C15
# The state increments of the first BLOCK_DRAWS outputs past a counter.
_STEPS = np.arange(1, BLOCK_DRAWS + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_STEPS.flags.writeable = False


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
        if n + m > MAX_RUN_DRAWS:
            raise ValueError(f"a run of {n + m} draws exceeds MAX_RUN_DRAWS = {MAX_RUN_DRAWS}")
        if runs * (n + m) > MAX_SIM_DRAWS:
            raise ValueError(f"{runs} runs of {n + m} draws exceed MAX_SIM_DRAWS = {MAX_SIM_DRAWS}")
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

    def _to_dict(self) -> dict:
        # An active report prints u_star even when its method ("none") has no rung.
        return Record._to_dict(self, () if self.skipped else ("u_star",))

    to_dict = _to_dict


class SimReport(Record):
    def __init__(
        self, n: int, m: int, alpha_target: float, delta: float, score_model: str,
        runs_completed: int, seed_echo: int, methods: tuple[MethodReport, ...],
    ) -> None:
        vars(self).update(
            n=n, m=m, alpha_target=alpha_target, delta=delta, score_model=score_model,
            runs_completed=runs_completed, seed_echo=seed_echo, methods=methods
        )

    to_dict = Record._to_dict


def _words(seed: int, counter: int, state: np.ndarray, bits: np.ndarray) -> None:
    """Fill state with the words at counters counter, counter+1, ... of
    seed's stream: output i of SplitMix64 started at state ``seed``,
    shifted right by 11 bits, so each word v lies in [0, 2**53) and its
    uniform is U = v * 2**-53.  ``bits`` is uint64 scratch of state's
    length."""
    for lo in range(0, len(state), BLOCK_DRAWS):
        chunk = state[lo : lo + BLOCK_DRAWS]
        # the offset is taken in Python ints; the per-word sums wrap mod 2**64
        np.add(_STEPS[: len(chunk)], (seed + (counter + lo) * _GAMMA) % 2**64, out=chunk)
    np.right_shift(state, 30, out=bits)
    state ^= bits
    state *= 0xBF58476D1CE4E5B9
    np.right_shift(state, 27, out=bits)
    state ^= bits
    state *= 0x94D049BB133111EB
    np.right_shift(state, 31, out=bits)
    state ^= bits
    state >>= 11


def _count_runs(config: SimConfig, ks: tuple[int, ...], start: int, stop: int,
                blocks=None) -> np.ndarray:
    """Coverage histograms for runs [start, stop): row j is method j's
    counts over coverage grid 0..m.

    Run r's draws are the w = n + m words at counters ``r*w .. r*w + w - 1``
    of the seed's stream (see :func:`_words`); the first n give its
    calibration scores and the next m its window scores.  The draws depend
    only on the counter, so the histograms of any split of a range sum to
    those of the whole.  Runs are taken ``max(1, BLOCK_DRAWS // w)`` at a
    time (fewer if the range is shorter): each fills one row of the block.
    Given ``blocks``, an iterator of the blocks' first runs that threads
    share, only the blocks claimed from it are counted.  Every distinct
    order index k <= n is then compared with every window score of the
    block in one array operation, and counted in one more; a method whose k
    is n + 1 covers every window, so its runs need no draws.

    Only the calibration keys at those order indices are read, so a row is
    sorted whole, or partitioned at one of them and sorted only beyond it
    (see ``_SORT_MAX_N``); either way they are in place, ties included.

    Coverage depends only on how the scores order, so every model orders and
    compares integer keys that order as its scores do, ties included:

    - uniform: the word v itself, as U = v 2**-53 is exact.
    - abs_normal and abs_cauchy: |v - 2**52|, the word's distance from
      U = 1/2 in units of 2**-53.
    - abs_normal's score is the inverse-CDF half-normal draw
      |Phi^-1(U)| = Phi^-1(1/2 + |U - 1/2|), and Phi^-1 rises strictly, so
      the score rises strictly with the key and the words 2**52 - a and
      2**52 + a tie.  The key's top value 2**52 belongs to U = 0 alone, as
      the score +inf would.
    - abs_cauchy: the score |tan(pi (U - 1/2))| is |tan(fl(s c))| with
      s = v - 2**52, exact as a float, and c = fl(pi 2**-53); rounding is
      symmetric and tan is odd, so s and -s tie.  From key a to a + 1 the
      rounded product grows by more than c - ulp > 0, which tan's slope
      1 + tan^2 turns into at least 1.4 ulps of the score (fewest where it
      crosses 2): a tan within 0.7 ulp keeps the scores strictly increasing
      in the key on 0..2**52.
    """
    n, m = config.n, config.m
    width = n + m
    rows = min(max(1, BLOCK_DRAWS // width), stop - start)
    blocks = range(start, stop, rows) if blocks is None else blocks
    orders = sorted({k for k in ks if k <= n})
    # Row i counts order index orders[i]; the last row is the everything
    # set (k = n + 1).
    counts = np.zeros((len(orders) + 1, m + 1), dtype=np.int64)
    pick = [orders.index(k) if k <= n else -1 for k in ks]
    if not orders:
        counts[-1, m] = sum(min(rows, stop - lo) for lo in blocks)
        return counts[pick]
    # The generator state holds the words, which become the keys in place;
    # `bits` is the generator's scratch; and `below` holds each order
    # statistic's comparisons with the window keys, at most 3 bytes per draw.
    state = np.empty(rows * width, dtype=np.uint64)
    bits = np.empty_like(state)
    below = np.empty((rows, len(orders), m), dtype=bool)
    # count c of row i is element i (m + 1) + c of the flattened counts, in
    # the narrowest integers that hold every element's index (the bools
    # sum fastest into those)
    covered = np.empty((rows, len(orders)), dtype=np.min_scalar_type(counts.size))
    offsets = np.arange(len(orders), dtype=covered.dtype) * (m + 1)
    columns = np.array(orders) - 1
    first, last = columns[0], columns[-1]
    kth, side = None, slice(None)
    if n > _SORT_MAX_N and 3 * min(n - first, last + 1) <= n:
        kth, side = (first, slice(first, None)) if n - first <= last + 1 else (last, slice(last + 1))
    for lo in blocks:
        count = min(rows, stop - lo)
        counts[-1, m] += count
        words = state[: count * width]
        _words(config.seed, lo * width, words, bits[: count * width])
        if config.score_model == "uniform":
            keys = words.reshape(count, width)
        else:
            keys = words.view(np.int64).reshape(count, width)
            keys -= 2**52
            np.abs(keys, out=keys)
        calibration, window = keys[:, :n], keys[:, n:]
        if kth is not None:
            calibration.partition(kth, axis=1)
        calibration[:, side].sort(axis=1)
        # score equal to the threshold counts as covered
        np.less_equal(window[:, None, :], calibration[:, columns, None], out=below[:count])
        np.add.reduce(below[:count], axis=2, out=covered[:count])
        covered[:count] += offsets
        np.add.at(counts.reshape(-1), covered[:count], 1)
    return counts[pick]


def _order_index(config: SimConfig, rung: int | None) -> int:
    """The order index n + 1 - rung a method thresholds at; "none" has the target's."""
    return order_index(config.alpha_target, config.n) if rung is None else config.n + 1 - rung


def theory_overlay(config: SimConfig, method: MethodReport) -> tuple[float, ...]:
    """Coverage pmf over {0..m}/m of a method of a run of config:
    Beta-Binomial(m; k, n+1-k) at the order index k it thresholds at, a
    point mass at full coverage when k = n+1.  A skipped method has no
    order index: ValueError."""
    if method.skipped:
        raise ValueError(f"method {method.method!r} was skipped: {method.note}")
    k = _order_index(config, method.u_star)
    return tuple(betabinom_pmf_vector(config.m, k, config.n + 1 - k))


def run_simulation(config: SimConfig, workers: int = 1) -> SimReport:
    """Execute the experiment and summarize per-method violation rates,
    coverage histograms, and theory overlays.

    Every thread, the caller included, claims the next of :func:`_count_runs`'
    blocks from one shared iterator until none is left.  There are
    ``min(workers, usable CPUs, blocks)`` threads, for the CPUs the process
    may run on (``os.sched_getaffinity``, else ``os.cpu_count()``), so
    ``workers`` only caps them and a request of one block runs on one thread.
    The caller starts the other ``threads - 1``, prices the theory while they
    count, and joins them before it returns or raises what one of them
    raised.  Which thread counts a block does not change the result.  The
    abs_normal and abs_cauchy models count on the same integer keys, so their
    reports differ only in the echoed ``score_model``.
    """
    check_int("workers", workers)
    n, m, runs = config.n, config.m, config.runs
    # Each active method's level and rung ("none" has none); an infeasible one is skipped.
    ctx = CalibrationContext(n=n, alpha_target=config.alpha_target, delta=config.delta)
    levels, reports = {}, {}
    for name in config.methods:
        if name == "none":
            levels[name] = config.alpha_target, None
            continue
        adj = ssbc_adjust(ctx, CoverageRegime.window(m)) if name == "ssbc" else dkwm_adjust(ctx)
        if adj.feasible:
            levels[name] = adj.alpha_adj, adj.u_star
        else:
            reports[name] = MethodReport(name, skipped=True, note=adj.note)
    ks = tuple(_order_index(config, rung) for _, rung in levels.values())
    starts = range(0, runs, min(max(1, BLOCK_DRAWS // (n + m)), runs))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(workers, cpus or 1, len(starts))
    blocks = iter(starts)  # unlike a generator's, two threads may advance it at once
    parts, errors = [], []

    def count() -> None:
        try:
            parts.append(_count_runs(config, ks, 0, runs, blocks))
        except BaseException as error:  # raised again by the caller
            errors.append(error)
            for _ in blocks:  # the other threads stop after their current block
                pass

    x_star = window_threshold(config.alpha_target, m)
    helpers = [threading.Thread(target=count) for _ in range(threads - 1)]
    try:
        for helper in helpers:
            helper.start()
        # fsum is correctly rounded in any order; from x* - 1 down it is ~20x faster
        theory = [math.fsum(islice(reversed(betabinom_pmf_vector(m, k, n + 1 - k)),
                                   m + 1 - x_star, None)) for k in ks]
        count()
    finally:
        for helper in filter(threading.Thread.is_alive, helpers):  # started, not yet ended
            helper.join()
    if errors:
        raise errors[0]

    for (name, (alpha_used, rung)), hist, rate in zip(levels.items(), sum(parts), theory):
        violations = int(hist[:x_star].sum())
        reports[name] = MethodReport(name, False, alpha_used, rung, violations / runs, rate,
                                     violations, tuple(hist.tolist()))
    return SimReport(n, m, config.alpha_target, config.delta, config.score_model, runs,
                     config.seed, tuple(reports[name] for name in config.methods))
