"""Seeded request generators for the three workloads.

Each generator turns the workload seed into plain argument values; the
library under test only ever sees those values.  A generator is an endless
stream of *cycles*.  A cycle holds a fixed mix of request kinds, so a run
that stops at a cycle boundary always measures the same mix.  The
large_queries parameters of each kind are a fixed set of
well-spread design points (see Design), so the work in a cycle varies
little from cycle to cycle and from seed to seed.  This module imports
nothing from the library.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist

ALPHA_RANGE = (0.01, 0.5)
DELTA_RANGE = (0.01, 0.3)

# large_queries: LARGE_PER_KIND queries of each kind per cycle, plus
# SWEEP_BASES blocks per regime of SWEEP_SIZE delta-sweep queries at a
# repeated (n, alpha, regime).  No usage data says how often each kind is
# asked, so every kind gets the same count, and the sweeps, as one more
# kind, about the same (18).  The sweep share (18/113, 15.9%) is therefore
# an assumption, not a measured mix.  The cycle (113 queries) is odd, and
# large enough that the p90 keeps ten samples beyond it even in a run of
# one cycle with a few failures.
#
# The sweeps take (n, alpha) from the adjust design points SWEEP_POINTS,
# in the low, middle and high thirds of their costliest parameter.  A
# sweep base of its own, placed anywhere in the top third of n, gave three
# ~0.8 s queries on some seeds and three that fail at once (n > ~1.5e7)
# on others.
LARGE_KINDS = ("adjust_inf", "adjust_window", "feasibility", "rung_table", "mondrian")
LARGE_PER_KIND = 19
SWEEP_POINTS = (3, 9, 15)
SWEEP_BASES = len(SWEEP_POINTS)
SWEEP_SIZE = 3
SWEEP_QUERIES = 2 * SWEEP_BASES * SWEEP_SIZE
LARGE_CYCLE = LARGE_PER_KIND * len(LARGE_KINDS) + SWEEP_QUERIES
SWEEP_SHARE = SWEEP_QUERIES / LARGE_CYCLE

# Per-query work caps, in tail/pmf terms that the linear top-down rung walk
# of adjust.py and mondrian.py evaluates (about 3-5 us each).  Without them one window query
# at n = m = 1e5, alpha = 0.5 takes ~40 s and a run cannot fit in its time
# limit; with them the slowest query stays within a few seconds.  The caps
# bound alpha only, through alpha_upper(); n and m keep their full ranges.
WINDOW_WORK_CAP = 3e5
MONDRIAN_WORK_CAP = 1e6

# cli_readme: one request of each kind per cycle, next to the README examples.
CLI_KINDS = (
    "adjust_inf",
    "adjust_window",
    "adjust_dkwm",
    "feasible_m",
    "rungs_json",
    "rungs_csv",
    "mondrian",
    "simulate",
)
CLI_SIM_METHODS = ("none,ssbc", "none,ssbc,dkwm", "none", "ssbc,dkwm")
SCORE_MODELS = ("abs_cauchy", "abs_normal", "uniform")

# simulate: the acceptance config and the large config.
SIM_SMALL = {"m": 100, "alpha_target": 0.1, "delta": 0.1, "methods": ("none", "ssbc"),
             "score_model": "abs_cauchy", "runs": 10_000}
SIM_LARGE = {"n": 1000, "m": 1000, "alpha_target": 0.1, "delta": 0.1,
             "methods": ("none", "ssbc", "dkwm"), "runs": 2_000}


def log_scale(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def lin_scale(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def level(x: float) -> float:
    """CLI levels carry 4 decimals, so a level prints the same on a command
    line as the float the in-process reference uses."""
    return round(x, 4)


def fine(x: float) -> float:
    """In-process levels carry 9 decimals: the jitter between cycles always
    changes them, so no argument tuple repeats."""
    return round(x, 9)


def window_walk_terms(n: int, m: int, alpha: float, delta: float) -> float:
    """Estimated tail terms for one window-regime search: rungs walked (the
    normal approximation of the distance from the top rung to the answer)
    times the terms in the smaller tail sum."""
    z = max(NormalDist().inv_cdf(1.0 - delta), 0.0)
    rungs = 1.0 + z * (n + 1) * math.sqrt(alpha * (1.0 - alpha) * (1.0 / n + 1.0 / m))
    return rungs * (min(alpha, 1.0 - alpha) * m + 1.0)


def mondrian_walk_terms(n_j: int, m: int, alpha: float) -> float:
    """Upper bound on pmf terms for one Mondrian search: every rung below
    alpha walked, each summing about alpha * r terms for r = 0..m."""
    return alpha * (n_j + 1) * alpha * m * m / 2.0


def alpha_upper(work, cap: float) -> float:
    """Largest alpha in ALPHA_RANGE with work(alpha) <= cap, for a work
    estimate increasing in alpha."""
    lo, hi = ALPHA_RANGE
    if work(hi) <= cap:
        return hi
    if work(lo) > cap:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if work(mid) <= cap:
            lo = mid
        else:
            hi = mid
    return lo


_BASES = (2, 3, 5, 7, 11, 13)


def radical_inverse(i: int, base: int) -> float:
    inverse, scale = 0.0, 1.0 / base
    while i:
        inverse += scale * (i % base)
        i //= base
        scale /= base
    return inverse


# Every cycle runs the same design of each kind, each coordinate moved by
# at most JITTER: no two cycles repeat an argument tuple, so a cache keyed
# on exact arguments gains nothing across cycles, yet each cycle costs
# nearly the same.  With fresh points per cycle the mix a run covered
# depended on how many cycles it fitted, which moved the latency
# percentiles by ~25% between runs.
SHIFT_SPAN = 1.0 / 32
JITTER = 0.002


class Design:
    """k well-spread points in [0, 1)^dims for one query kind (a Hammersley
    set): coordinate 0 has one point near the middle of each of k equal
    strata, the others are radical inverses.  The seed places each point
    within the middle fifth of its stratum and shifts the other coordinates
    by less than SHIFT_SPAN."""

    def __init__(self, rng: random.Random, k: int, dims: int) -> None:
        shift = [SHIFT_SPAN * rng.random() for _ in range(dims)]
        self.points = [
            [(i + 0.4 + 0.2 * rng.random()) / k]
            + [(1.0 - SHIFT_SPAN) * radical_inverse(i + 1, base) + s
               for base, s in zip(_BASES, shift[1:])]
            for i in range(k)
        ]

    def jittered(self, rng: random.Random) -> list[list[float]]:
        return [[min(max(u + JITTER * (2.0 * rng.random() - 1.0), 0.0), 1.0 - 1e-9) for u in point]
                for point in self.points]


def _adjust_inf(u_n: float, u_a: float, u_d: float) -> dict:
    return {
        "kind": "adjust",
        "n": round(log_scale(u_n, 1e3, 1e8)),
        "m": None,
        "alpha": fine(log_scale(u_a, *ALPHA_RANGE)),
        "delta": fine(lin_scale(u_d, *DELTA_RANGE)),
    }


def _adjust_window(u_a: float, u_n: float, u_m: float, u_d: float, worst_delta=None) -> dict:
    n = round(log_scale(u_n, 1e3, 1e5))
    m = round(log_scale(u_m, 1e3, 1e5))
    delta = fine(lin_scale(u_d, *DELTA_RANGE))
    cap_delta = delta if worst_delta is None else worst_delta
    hi = alpha_upper(lambda a: window_walk_terms(n, m, a, cap_delta), WINDOW_WORK_CAP)
    alpha = fine(log_scale(u_a, ALPHA_RANGE[0], hi))
    return {"kind": "adjust", "n": n, "m": m, "alpha": alpha, "delta": delta}


def _feasibility(u_m: float, u_n: float, u_d: float) -> dict:
    return {
        "kind": "feasibility",
        "n": round(log_scale(u_n, 10, 1e4)),
        "delta": fine(lin_scale(u_d, *DELTA_RANGE)),
        "m": round(log_scale(u_m, 10, 1e5)),
    }


def _rung_table(u_n: float, u_window: float, u_m: float, u_a: float) -> dict:
    return {
        "kind": "rung_table",
        "n": round(log_scale(u_n, 10, 1e3)),
        "alpha": fine(log_scale(u_a, *ALPHA_RANGE)),
        "m": round(log_scale(u_m, 10, 1e3)) if u_window < 0.5 else None,
    }


def _mondrian(u_m: float, u_a: float, u_nj: float, u_k: float, u_p: float, u_d: float) -> dict:
    m = round(log_scale(u_m, 100, 1000))
    n_j = round(log_scale(u_nj, 10, 100))
    size = round(log_scale(u_k, 20, 2000))
    hi = alpha_upper(lambda a: mondrian_walk_terms(n_j, m, a), MONDRIAN_WORK_CAP)
    return {
        "kind": "mondrian",
        "k": size,
        "k_j": min(size - 1, max(1, round(lin_scale(u_p, 0.1, 0.9) * size))),
        "n_j": n_j,
        "m": m,
        "alpha": fine(log_scale(u_a, ALPHA_RANGE[0], hi)),
        "delta": fine(lin_scale(u_d, *DELTA_RANGE)),
    }


# kind -> (builder, dimensions); the parameter that drives the cost most
# comes first, on the evenest Halton base.
_LARGE_KINDS = {
    "adjust_inf": (_adjust_inf, 3),
    "adjust_window": (_adjust_window, 4),
    "feasibility": (_feasibility, 3),
    "rung_table": (_rung_table, 4),
    "mondrian": (_mondrian, 6),
}


def large_query_cycles(seed: int):
    """Endless cycles of large_queries requests (see LARGE_PER_KIND)."""
    rng = random.Random(seed)
    designs = {kind: Design(rng, LARGE_PER_KIND, _LARGE_KINDS[kind][1]) for kind in LARGE_KINDS}
    while True:
        points = {kind: design.jittered(rng) for kind, design in designs.items()}
        queries = [_LARGE_KINDS[kind][0](*point) for kind in LARGE_KINDS for point in points[kind]]
        rng.shuffle(queries)

        # Each sweep repeats the (n, alpha, regime) of one adjust design
        # point over SWEEP_SIZE deltas, one in each third of DELTA_RANGE.
        bases = [_adjust_inf(*points["adjust_inf"][i]) for i in SWEEP_POINTS]
        bases += [_adjust_window(*points["adjust_window"][i], worst_delta=DELTA_RANGE[0])
                  for i in SWEEP_POINTS]
        for base in bases:
            sweep = [dict(base, delta=fine(lin_scale((j + rng.random()) / SWEEP_SIZE, *DELTA_RANGE)),
                          sweep=True)
                     for j in range(SWEEP_SIZE)]
            rng.shuffle(sweep)
            at = rng.randrange(len(queries) + 1)
            queries[at:at] = sweep
        yield queries


def _cli_draw(rng: random.Random, kind: str) -> dict:
    n = round(log_scale(rng.random(), 5, 200))
    m = round(log_scale(rng.random(), 5, 200))
    alpha = level(log_scale(rng.random(), *ALPHA_RANGE))
    delta = level(lin_scale(rng.random(), *DELTA_RANGE))
    if kind in ("adjust_inf", "adjust_window", "adjust_dkwm"):
        params = {"n": n, "alpha": alpha, "delta": delta,
                  "m": m if kind == "adjust_window" else None,
                  "method": "dkwm" if kind == "adjust_dkwm" else "ssbc"}
        argv = ["adjust", "--n", str(n), "--alpha", repr(alpha), "--delta", repr(delta)]
        argv += ["--regime", "window", "--m", str(m)] if params["m"] else ["--regime", "inf"]
        if kind == "adjust_dkwm":
            argv += ["--method", "dkwm"]
    elif kind == "feasible_m":
        params = {"n": n, "delta": delta, "m": m}
        argv = ["feasible", "--n", str(n), "--delta", repr(delta), "--m", str(m)]
    elif kind in ("rungs_json", "rungs_csv"):
        window = rng.random() < 0.5
        params = {"n": n, "alpha": alpha, "m": m if window else None,
                  "format": "csv" if kind == "rungs_csv" else "json"}
        argv = ["rungs", "--n", str(n), "--alpha", repr(alpha)]
        argv += ["--regime", "window", "--m", str(m)] if window else ["--regime", "inf"]
        if kind == "rungs_csv":
            argv += ["--format", "csv"]
    elif kind == "mondrian":
        size = round(log_scale(rng.random(), 10, 200))
        params = {
            "k": size,
            "k_j": min(size - 1, max(1, round(lin_scale(rng.random(), 0.1, 0.9) * size))),
            "n_j": round(log_scale(rng.random(), 5, 100)),
            "m": round(log_scale(rng.random(), 5, 50)),
            "alpha": alpha,
            "delta": delta,
        }
        argv = ["mondrian", "--k", str(params["k"]), "--kj", str(params["k_j"]),
                "--nj", str(params["n_j"]), "--m", str(params["m"]),
                "--alpha", repr(alpha), "--delta", repr(delta)]
    elif kind == "simulate":
        params = {"n": n, "m": m, "alpha": alpha, "delta": delta,
                  "runs": rng.randrange(500, 2001), "seed": rng.getrandbits(32),
                  "methods": rng.choice(CLI_SIM_METHODS),
                  "score_model": rng.choice(SCORE_MODELS)}
        argv = ["simulate", "--n", str(n), "--m", str(m), "--alpha", repr(alpha),
                "--delta", repr(delta), "--runs", str(params["runs"]),
                "--seed", str(params["seed"]), "--methods", params["methods"],
                "--score-model", params["score_model"], "--workers", "1"]
    else:
        raise ValueError(f"unknown CLI request kind {kind!r}")
    return {"kind": kind, "params": params, "argv": argv}


def cli_cycles(seed: int, examples: list[dict]):
    """Endless cycles of cli_readme requests: every README example (checked
    against its golden bytes) plus one seeded draw of each CLI_KINDS.  Every
    cycle repeats the same requests in a new order; each CLI call is a fresh
    process, so a repeat keeps nothing from the last one."""
    rng = random.Random(seed)
    requests = [{"kind": "golden", "argv": list(e["argv"]), "file": e["file"], "exit": e["exit"]}
                for e in examples]
    requests += [_cli_draw(rng, kind) for kind in CLI_KINDS]
    while True:
        cycle = [dict(request) for request in requests]
        rng.shuffle(cycle)
        yield cycle


def sim_cycles(seed: int):
    """Endless cycles of simulate requests: the acceptance config at n = 50
    and at n = 100, and the large config once per score model, each with
    its own Monte Carlo seed."""
    rng = random.Random(seed)
    while True:
        cycle = [dict(SIM_SMALL, size="small", n=n, seed=rng.getrandbits(63)) for n in (50, 100)]
        cycle += [dict(SIM_LARGE, size="large", score_model=model, seed=rng.getrandbits(63))
                  for model in SCORE_MODELS]
        rng.shuffle(cycle)
        yield cycle
