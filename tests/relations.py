"""Relations that every accepted input satisfies, checked on seeded random draws.

A relation needs no oracle: it compares the package with itself, at two inputs
or through two commands, so it can run wherever the validators accept the
input, far past the sizes exact oracles reach.  Each relation takes a
``random.Random`` and a :class:`Domain`, draws one case, and returns how many
comparisons it made and a line for each that broke, led by the argvs of the
CLI calls that show it.  A draw that a command refuses (ValueError, exit 1),
or would refuse, is not answered.

``HOLDING`` lists the relations that hold on the Tier-1 domain, which
``test_relations.py`` runs: u* nondecreasing in delta and in alpha, DKWM's rung
at most SSBC's infinite u*, and ``feasible --m``'s c inside its proven
bracket.  ``BROKEN`` lists three that fail today: ``rungs``' attainable delta
nondecreasing in u, ``budget_success_prob`` nonincreasing in u, and u*
nondecreasing in alpha with delta down to 1e-40.  A relation joins Tier-1
in the change that makes it hold.

Long run, over the wide domain (n and m log-uniform up to 1e9, delta
log-uniform down to 1e-300, levels of 1 to 9 significant digits), printing
each counterexample and a count per relation:

    PYTHONPATH=src python tests/relations.py --seconds 60 [--seed 0]
"""

from __future__ import annotations

import argparse
import math
import random
import time
from dataclasses import dataclass
from decimal import Decimal, localcontext

from ssbc.adjust import dkwm_adjust, ssbc_adjust
from ssbc.coverage import CalibrationContext, CoverageRegime, highest_grid_index_below
from ssbc.feasibility import feasibility_report, rung_table
from ssbc.mondrian import MondrianSpec, budget_success_prob
from ssbc.specfun import MAX_REQUEST_TERMS


@dataclass(frozen=True)
class Domain:
    """Where a relation draws: n and m log-uniform in [1, size], delta
    log-uniform in [delta_min, 0.9], a level log-uniform in [1e-3, 0.99]
    and typed with 1..digits significant digits (exactly digits when
    fixed_digits)."""

    size: int
    delta_min: float
    digits: int
    fixed_digits: bool = False


TIER1 = Domain(size=3000, delta_min=1e-6, digits=3, fixed_digits=True)
WIDE = Domain(size=10**9, delta_min=1e-300, digits=9)
# Where the alpha relation was seen to break at small delta (ROADMAP item 17).
SMALL_DELTA = Domain(size=5000, delta_min=1e-40, digits=3, fixed_digits=True)


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def size(rng: random.Random, domain: Domain) -> int:
    return int(log_uniform(rng, 1, domain.size))


def delta(rng: random.Random, domain: Domain) -> float:
    return log_uniform(rng, domain.delta_min, 0.9)


def level(rng: random.Random, domain: Domain) -> float:
    digits = domain.digits if domain.fixed_digits else rng.randint(1, domain.digits)
    while True:
        value = float(f"{log_uniform(rng, 1e-3, 0.99):.{digits}g}")
        if 0.0 < value < 1.0:
            return value


def regime(rng: random.Random, domain: Domain, kind: str) -> CoverageRegime:
    return CoverageRegime.infinite() if kind == "inf" else CoverageRegime.window(size(rng, domain))


def regime_flags(regime: CoverageRegime) -> str:
    return f"--regime window --m {regime.m}" if regime.is_window else "--regime inf"


def adjust_argv(n: int, alpha: float, d: float, regime: CoverageRegime, extra: str = "") -> str:
    return f"ssbc adjust --n {n} --alpha {alpha!r} --delta {d!r} {regime_flags(regime)}{extra}"


def u_star(n: int, alpha: float, d: float, regime: CoverageRegime) -> int:
    """SSBC's answer, 0 when infeasible."""
    report = ssbc_adjust(CalibrationContext(n, alpha, d), regime)
    return report.u_star if report.feasible else 0


def _two(rng: random.Random, draw) -> tuple:
    """Two draws, in increasing order."""
    return tuple(sorted((draw(rng), draw(rng))))


def delta_monotone(rng: random.Random, domain: Domain):
    """u* is nondecreasing in delta, in both regimes."""
    n, alpha = size(rng, domain), level(rng, domain)
    lo, hi = _two(rng, lambda r: delta(r, domain))
    broken = []
    for kind in ("inf", "window"):
        law = regime(rng, domain, kind)
        low, high = u_star(n, alpha, lo, law), u_star(n, alpha, hi, law)
        if low > high:
            broken.append(f"{adjust_argv(n, alpha, lo, law)}  # u* {low}, but {high} at "
                          f"{adjust_argv(n, alpha, hi, law)}")
    return 2, broken


def alpha_monotone(rng: random.Random, domain: Domain):
    """u* is nondecreasing in alpha, in both regimes."""
    n, d = size(rng, domain), delta(rng, domain)
    lo, hi = _two(rng, lambda r: level(r, domain))
    broken = []
    for kind in ("inf", "window"):
        law = regime(rng, domain, kind)
        low, high = u_star(n, lo, d, law), u_star(n, hi, d, law)
        if low > high:
            broken.append(f"{adjust_argv(n, lo, d, law)}  # u* {low}, but {high} at "
                          f"{adjust_argv(n, hi, d, law)}")
    return 2, broken


def alpha_monotone_small_delta(rng: random.Random, domain: Domain):
    """u* is nondecreasing in alpha on SMALL_DELTA, whatever the domain."""
    return alpha_monotone(rng, SMALL_DELTA)


def dkwm_below_ssbc(rng: random.Random, domain: Domain):
    """DKWM's rung is valid and u* is the largest valid rung, so DKWM's rung
    is at most SSBC's infinite u*."""
    n, alpha, d = size(rng, domain), level(rng, domain), delta(rng, domain)
    report = dkwm_adjust(CalibrationContext(n, alpha, d))
    if not (report.feasible and report.u_star >= 1):
        return 0, []
    top = u_star(n, alpha, d, CoverageRegime.infinite())
    if report.u_star <= top:
        return 1, []
    return 1, [f"{adjust_argv(n, alpha, d, CoverageRegime.infinite(), ' --method dkwm')}"
               f"  # rung {report.u_star}, but SSBC's u* is {top}"]


def _sign(d: float, num: int, den: int, n: int) -> int:
    """The sign of delta - (num/den)^n: in exact integers up to n = 10**4,
    else from 60-digit decimal logs (a tie closer than ~1e-50 is out of
    their reach)."""
    if num == 0:
        return 1
    if n <= 10**4:
        p, q = d.as_integer_ratio()
        gap = p * den**n - q * num**n
    else:
        with localcontext() as ctx:
            ctx.prec = 60
            gap = Decimal(d).ln() - n * (Decimal(num) / Decimal(den)).ln()
    return (gap > 0) - (gap < 0)


def feasible_bracket(rng: random.Random, domain: Domain):
    """``feasible --m``'s c, the smallest with P(c) <= delta, lies in
    [(m+1) a - 1, (m+n) a], a = 1 - delta^(1/n), because P(c) lies between
    (1 - (c+1)/(m+1))^n and (1 - (c+1)/(m+n))^n.  In powers, with no root:
    delta >= ((m-c)/(m+1))^n unless c >= m, and delta <= ((m+n-c)/(m+n))^n."""
    n, m, d = size(rng, domain), size(rng, domain), delta(rng, domain)
    c = round(feasibility_report(n, d, m).alpha_star_m * m)
    if (c >= m or _sign(d, m - c, m + 1, n) >= 0) and _sign(d, m + n - c, m + n, n) <= 0:
        return 1, []
    return 1, [f"ssbc feasible --n {n} --delta {d!r} --m {m}  # c = {c} lies outside "
               f"[(m+1) a - 1, (m+n) a]"]


def rungs_monotone(rng: random.Random, domain: Domain):
    """``rungs``' attainable delta is nondecreasing in u, in both regimes."""
    n, alpha = size(rng, domain), level(rng, domain)
    checks, broken = 0, []
    for kind in ("inf", "window"):
        law = regime(rng, domain, kind)
        rows = [rung.attainable_delta for rung in rung_table(n, alpha, law).rungs]
        falls = [u for u in range(1, len(rows)) if rows[u - 1] > rows[u]]
        checks += len(rows) - 1
        if falls:
            u = falls[0]
            broken.append(f"ssbc rungs --n {n} --alpha {alpha!r} {regime_flags(law)} --format csv"
                          f"  # {len(falls)} falls, first rows {u}, {u + 1}: "
                          f"{rows[u - 1]!r} > {rows[u]!r}")
    return checks, broken


def budget_monotone(rng: random.Random, domain: Domain):
    """``budget_success_prob`` is nonincreasing in u, at two adjacent rungs
    below the level (``ssbc_mondrian``'s docstring proves it)."""
    k, n_j, m = size(rng, domain), max(3, size(rng, domain)), size(rng, domain)
    alpha, d = level(rng, domain), delta(rng, domain)
    k_j = rng.randint(0, k)
    u_hi = min(highest_grid_index_below(alpha, n_j), n_j - 1)
    # two rungs' terms, each bounded as ssbc_mondrian bounds one rung's
    if u_hi < 2 or 2 * (2 * m + 1 + min(alpha, 1 - alpha) * m * (m + 1) / 2) > MAX_REQUEST_TERMS:
        return None
    spec = MondrianSpec(k, k_j, n_j, m, alpha, d)
    u = rng.randint(1, u_hi - 1)
    here, above = budget_success_prob(spec, u), budget_success_prob(spec, u + 1)
    if here >= above:
        return 1, []
    return 1, [f"ssbc mondrian --k {k} --kj {k_j} --nj {n_j} --m {m} --alpha {alpha!r} "
               f"--delta {d!r}  # success {here!r} at rung {u}, {above!r} at {u + 1}"]


HOLDING = {f.__name__: f for f in (delta_monotone, alpha_monotone, dkwm_below_ssbc,
                                   feasible_bracket)}
BROKEN = {f.__name__: f for f in (rungs_monotone, budget_monotone, alpha_monotone_small_delta)}


def run(relation, domain: Domain, rng: random.Random, draws: int):
    """(draws answered, checks, broken lines) over ``draws`` draws; a draw
    that a command refuses is not answered."""
    answered, checks, broken = 0, 0, []
    for _ in range(draws):
        try:
            outcome = relation(rng, domain)
        except ValueError:
            continue
        if outcome is not None:
            answered += 1
            checks += outcome[0]
            broken += outcome[1]
    return answered, checks, broken


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="wall time to spend, shared round-robin by the relations")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    relations = HOLDING | BROKEN
    tallies = {name: [0, 0, 0, 0] for name in relations}  # draws, answered, checks, broken
    rngs = {name: random.Random(f"{name}-{args.seed}") for name in relations}
    end = time.monotonic() + args.seconds
    while time.monotonic() < end:
        for name, relation in relations.items():
            answered, checks, broken = run(relation, WIDE, rngs[name], 1)
            counts = (1, answered, checks, len(broken))
            tallies[name] = [total + count for total, count in zip(tallies[name], counts)]
            for line in broken:
                print(f"{name}: {line}", flush=True)
    for name, (drawn, answered, checks, broken) in tallies.items():
        status = "holding" if name in HOLDING else "broken today"
        print(f"# {name} ({status}): {drawn} draws, {answered} answered, "
              f"{checks} checks, {broken} broken")


if __name__ == "__main__":
    main()
