"""Output checks, run outside the timed region.  Each returns None when the
output is right and a one-line reason when it is wrong.

- large_queries answers are re-decided with scipy, which shares no code
  with the library.  A decision is wrong only when scipy puts the tail on
  the other side of 1 - delta by more than MARGIN.
- cli_readme outputs are byte-compared: README examples with the golden
  files, every other request with canonical_json of the in-process report.
- simulate reports are checked by properties that hold for any random
  stream: histogram totals, and each method's violation rate within Z_BOUND
  standard errors of its exact theory rate.
"""

from __future__ import annotations

import math
from fractions import Fraction

from harness import BENCH_DIR

# Absolute slack on a tail probability.  The library's Beta tail error grows
# to ~1.4e-8 at n = 1e7 and stays below 1e-7 over the drawn sizes.
MARGIN = 1e-6
Z_BOUND = 5.0


def _threshold_count(alpha: float, m: int) -> int:
    """Smallest covered count meeting 1 - alpha over m points, exactly."""
    return math.ceil((1 - Fraction(str(alpha))) * m)


def _top_rung(alpha: float, n: int) -> int:
    """Largest u with u/(n+1) < alpha."""
    return max(0, min(n, math.ceil(Fraction(str(alpha)) * (n + 1)) - 1))


def _scipy_tail(n: int, u, alpha: float, m: int | None):
    """Pr(coverage >= 1 - alpha) at rung(s) u: Beta(n+1-u, u) tail, or its
    Beta-Binomial(m; n+1-u, u) analogue over a window."""
    from scipy.stats import beta, betabinom

    if m is None:
        return beta.sf(1.0 - alpha, n + 1 - u, u)
    return betabinom.sf(_threshold_count(alpha, m) - 1, m, n + 1 - u, u)


def _check_decision(report, u_top: int, tail_at, threshold: float) -> str | None:
    """A top-down search answer u*: tail(u*) meets the threshold, and
    tail(u*+1) does not.  Infeasible: rung 1 does not meet it."""
    if not report.feasible:
        if u_top >= 1 and tail_at(1) >= threshold + MARGIN:
            return "reported infeasible, but rung 1 meets 1 - delta"
        return None
    u = report.u_star
    if not 1 <= u <= u_top:
        return f"u_star={u} outside [1, {u_top}]"
    tail = tail_at(u)
    if tail < threshold - MARGIN:
        return f"tail {tail!r} at u_star={u} is below 1 - delta"
    if abs(report.achieved_tail - tail) > MARGIN:
        return f"achieved_tail {report.achieved_tail!r} differs from scipy {tail!r}"
    if u < u_top and tail_at(u + 1) >= threshold + MARGIN:
        return f"rung u_star+1={u + 1} also meets 1 - delta"
    return None


def _mondrian_success(q: dict, u: int) -> float:
    """Probability that a window stays within floor(alpha * r) errors, with
    r ~ Beta-Binomial(m; k_j, k-k_j) and errors | r ~ Beta-Binomial(r; u, n_j-u)."""
    import numpy as np
    from scipy.stats import betabinom

    m = q["m"]
    r = np.arange(m + 1)
    count = betabinom.pmf(r, m, q["k_j"], q["k"] - q["k_j"])
    level = Fraction(str(q["alpha"]))
    cap = (level.numerator * r) // level.denominator
    within = np.ones(m + 1)
    within[1:] = betabinom.cdf(cap[1:], r[1:], u, q["n_j"] - u)
    return float(np.sum(count * within))


def _close(value: float, reference: float, rel: float = 1e-9) -> bool:
    return abs(value - reference) <= rel * max(abs(reference), 1e-300)


def check_query(q: dict, report) -> str | None:
    import numpy as np
    from scipy.stats import betabinom

    kind = q["kind"]
    if kind == "adjust":
        n, m, alpha = q["n"], q["m"], q["alpha"]
        u_top = _top_rung(alpha, n)
        wrong = _check_decision(report, u_top, lambda u: float(_scipy_tail(n, u, alpha, m)),
                                1.0 - q["delta"])
        if wrong is None and report.feasible and report.alpha_adj != report.u_star / (n + 1):
            wrong = f"alpha_adj {report.alpha_adj!r} is not u_star/(n+1)"
        return wrong
    if kind == "mondrian":
        u_top = min(_top_rung(q["alpha"], q["n_j"]), q["n_j"] - 1)
        return _check_decision(report, u_top, lambda u: _mondrian_success(q, u), 1.0 - q["delta"])
    if kind == "feasibility":
        n, delta, m = q["n"], q["delta"], q["m"]
        if not _close(report.alpha_star_inf, -math.expm1(math.log(delta) / n)):
            return f"alpha_star_inf {report.alpha_star_inf!r} is not 1 - delta^(1/n)"
        delta_max = math.exp(n * math.log1p(-1.0 / (n + 1)))
        if not _close(report.delta_max_grid, delta_max):
            return f"delta_max_grid {report.delta_max_grid!r} is not (n/(n+1))^n"
        if abs(delta - delta_max) > 1e-12 and report.implementable != (delta <= delta_max):
            return f"implementable={report.implementable} disagrees with delta <= delta_max"
        root = delta ** (1.0 / n)
        laplace = 1.0 - root + math.sqrt(root * (1.0 - root) / (2.0 * math.pi * m))
        if not _close(report.alpha_star_m_laplace, laplace):
            return f"alpha_star_m_laplace {report.alpha_star_m_laplace!r} is not {laplace!r}"
        # alpha_star_m = 1 - x*/m for the largest x* with Pr(X >= x*) >= 1 - delta
        x = round((1.0 - report.alpha_star_m) * m)
        threshold = 1.0 - delta
        if x >= 1 and betabinom.sf(x - 1, m, n, 1) < threshold - MARGIN:
            return f"alpha_star_m={report.alpha_star_m!r}: Pr(X >= {x}) is below 1 - delta"
        if x < m and betabinom.sf(x, m, n, 1) >= threshold + MARGIN:
            return f"alpha_star_m={report.alpha_star_m!r}: Pr(X >= {x + 1}) also meets 1 - delta"
        return None
    if kind == "rung_table":
        n, alpha, m = q["n"], q["alpha"], q["m"]
        u = np.arange(1, n + 1)
        if [r.u for r in report.rungs] != list(range(1, n + 1)):
            return "rungs are not u = 1..n"
        if any(r.alpha_prime != r.u / (n + 1) for r in report.rungs):
            return "a rung's alpha_prime is not u/(n+1)"
        expected = 1.0 - _scipy_tail(n, u, alpha, m)
        got = np.array([r.attainable_delta for r in report.rungs])
        worst = float(np.max(np.abs(got - expected)))
        if worst > MARGIN:
            return f"attainable_delta differs from scipy by {worst!r}"
        return None
    raise ValueError(f"unknown query kind {kind!r}")


def expected_cli(request: dict) -> tuple[int, bytes]:
    """Exit code and stdout bytes the CLI must produce, from the in-process
    API (golden files for the README examples)."""
    if request["kind"] == "golden":
        return request["exit"], (BENCH_DIR / "golden" / request["file"]).read_bytes()

    import ssbc
    from ssbc.serialize import canonical_json, format_float

    kind, p = request["kind"], request["params"]

    def regime():
        return ssbc.CoverageRegime.window(p["m"]) if p["m"] else ssbc.CoverageRegime.infinite()

    status = 0
    if kind.startswith("adjust"):
        ctx = ssbc.CalibrationContext(n=p["n"], alpha_target=p["alpha"], delta=p["delta"])
        report = ssbc.dkwm_adjust(ctx) if p["method"] == "dkwm" else ssbc.ssbc_adjust(ctx, regime())
        status = 0 if report.feasible else 2
        text = canonical_json(report.to_dict())
    elif kind == "feasible_m":
        text = canonical_json(ssbc.feasibility_report(p["n"], p["delta"], m=p["m"]).to_dict())
    elif kind.startswith("rungs"):
        table = ssbc.rung_table(p["n"], p["alpha"], regime())
        if p["format"] == "csv":
            text = "\n".join(["u,alpha_prime,attainable_delta"] + [
                f"{r.u},{format_float(r.alpha_prime)},{format_float(r.attainable_delta)}"
                for r in table.rungs
            ])
        else:
            text = canonical_json(table.to_dict())
    elif kind == "mondrian":
        report = ssbc.ssbc_mondrian(ssbc.MondrianSpec(
            k=p["k"], k_j=p["k_j"], n_j=p["n_j"], m=p["m"], alpha_target=p["alpha"],
            delta=p["delta"]))
        status = 0 if report.feasible else 2
        data = report.to_dict()
        data["inputs"].update(k=p["k"], k_j=p["k_j"], n_j=p["n_j"])
        text = canonical_json(data)
    elif kind == "simulate":
        config = ssbc.SimConfig(
            n=p["n"], m=p["m"], alpha_target=p["alpha"], delta=p["delta"], runs=p["runs"],
            seed=p["seed"], score_model=p["score_model"], methods=tuple(p["methods"].split(",")))
        text = canonical_json(ssbc.run_simulation(config, workers=1).to_dict())
    else:
        raise ValueError(f"unknown CLI request kind {kind!r}")
    return status, (text + "\n").encode()


def check_cli(request: dict, outcome) -> str | None:
    status, stdout, stderr = outcome
    want_status, want_stdout = expected_cli(request)
    if status != want_status:
        return f"exit {status}, expected {want_status}: {stderr.decode()[-300:]!r}"
    if stdout != want_stdout:
        return f"stdout differs from the {'golden file' if request['kind'] == 'golden' else 'API'}"
    return None


def check_sim(config: dict, report) -> str | None:
    runs, m = config["runs"], config["m"]
    if report.runs_completed != runs:
        return f"runs_completed={report.runs_completed}, expected {runs}"
    x_star = _threshold_count(config["alpha_target"], m)
    for method in report.methods:
        if method.skipped:
            continue
        hist = method.coverage_histogram
        if len(hist) != m + 1 or sum(hist) != runs:
            return f"{method.method}: histogram has {len(hist)} bins and total {sum(hist)}"
        if method.violations != sum(hist[:x_star]):
            return f"{method.method}: violations {method.violations} != histogram below x*"
        theory = method.theory_violation_rate
        bound = Z_BOUND * math.sqrt(theory * (1.0 - theory) / runs) + 1.0 / runs
        if abs(method.empirical_violation_rate - theory) > bound:
            return (f"{method.method}: empirical violation rate "
                    f"{method.empirical_violation_rate!r} is more than {Z_BOUND} standard "
                    f"errors from theory {theory!r}")
    return None


def check_worker_determinism(config, workers: int) -> str | None:
    """The report's JSON must not depend on the worker count."""
    import ssbc
    from ssbc.serialize import canonical_json

    one = canonical_json(ssbc.run_simulation(config, workers=1).to_dict())
    many = canonical_json(ssbc.run_simulation(config, workers=workers).to_dict())
    if one != many:
        return f"simulate JSON differs between 1 and {workers} workers"
    return None
