"""The three workloads: how a request runs, what one unit of work is, how
the output is checked, and which per-layer figures only it can give.

Every workload keeps one client in a closed loop.  Only ``simulate`` uses
worker processes, NPROC of them.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import checks
import inputs
from harness import BENCH_DIR, CHILD_TIMEOUT_S, NPROC, ROOT, child_env
from tracer import Tracer


MC_METRICS = ("mc.us_per_run.small", "mc.us_per_run.large", "mc.us_per_run_1w.small",
              "mc.parallel_efficiency", "mc.bytes_drawn_per_run")


class Workload:
    """Defaults: a request is one unit of work, the traced run calls the
    same entry point, no run-level check and no Monte Carlo layer."""

    def execute(self, request: dict):
        raise NotImplementedError

    def execute_traced(self, request: dict):
        return self.execute(request)

    def work(self, request: dict) -> int:
        return 1

    def after_checks(self, seed: int) -> list[str | None]:
        """Checks of the run as a whole: None for a pass, else the reason."""
        return []

    def mc_metrics(self, tracer: Tracer, records) -> dict[str, float]:
        return {name: 0.0 for name in MC_METRICS}


class CliReadme(Workload):
    """One fresh ``python -m ssbc.cli`` process per request."""

    name = "cli_readme"
    setup_code = (
        "import contextlib, io, ssbc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    ssbc.cli.main(['adjust', '--n', '50', '--alpha', '0.1', '--delta', '0.1',"
        " '--regime', 'window', '--m', '100'])\n"
    )

    def __init__(self) -> None:
        manifest = json.loads((BENCH_DIR / "golden" / "manifest.json").read_text())
        self.examples = manifest["examples"]

    def cycles(self, seed: int):
        return inputs.cli_cycles(seed, self.examples)

    def execute(self, request: dict):
        proc = subprocess.run([sys.executable, "-m", "ssbc.cli", *request["argv"]],
                              capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def execute_traced(self, request: dict):
        """In-process ``cli.main(argv)`` with stdout and stderr captured."""
        from ssbc import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main(list(request["argv"]))
        return status, out.getvalue().encode(), err.getvalue().encode()

    def check(self, request: dict, outcome) -> str | None:
        return checks.check_cli(request, outcome)


class LargeQueries(Workload):
    """In-process API queries; the import happens once, before timing."""

    name = "large_queries"
    setup_code = (
        "import ssbc\n"
        "ssbc.ssbc_adjust(ssbc.CalibrationContext(1000, 0.1, 0.1), ssbc.CoverageRegime.infinite())\n"
    )

    def __init__(self) -> None:
        import ssbc

        self.ssbc = ssbc

    def cycles(self, seed: int):
        return inputs.large_query_cycles(seed)

    def execute(self, q: dict):
        ssbc = self.ssbc
        kind = q["kind"]
        if kind in ("adjust", "rung_table"):
            regime = ssbc.CoverageRegime.window(q["m"]) if q["m"] else ssbc.CoverageRegime.infinite()
            if kind == "rung_table":
                return ssbc.rung_table(q["n"], q["alpha"], regime)
            return ssbc.ssbc_adjust(ssbc.CalibrationContext(q["n"], q["alpha"], q["delta"]), regime)
        if kind == "feasibility":
            return ssbc.feasibility_report(q["n"], q["delta"], m=q["m"])
        return ssbc.ssbc_mondrian(ssbc.MondrianSpec(
            k=q["k"], k_j=q["k_j"], n_j=q["n_j"], m=q["m"], alpha_target=q["alpha"],
            delta=q["delta"]))

    def check(self, q: dict, report) -> str | None:
        return checks.check_query(q, report)


class Simulate(Workload):
    """In-process ``run_simulation`` with NPROC workers; a unit of work is
    one Monte Carlo run."""

    name = "simulate"
    setup_code = (
        "import ssbc\n"
        "ssbc.run_simulation(ssbc.SimConfig(n=50, m=100, alpha_target=0.1, delta=0.1,"
        f" runs=1000, seed=1), workers={NPROC})\n"
    )

    def __init__(self) -> None:
        import ssbc

        self.ssbc = ssbc

    def cycles(self, seed: int):
        return inputs.sim_cycles(seed)

    def config(self, c: dict):
        return self.ssbc.SimConfig(
            n=c["n"], m=c["m"], alpha_target=c["alpha_target"], delta=c["delta"],
            runs=c["runs"], seed=c["seed"], score_model=c["score_model"],
            methods=tuple(c["methods"]))

    def execute(self, c: dict, workers: int = NPROC):
        return self.ssbc.run_simulation(self.config(c), workers=workers)

    def check(self, c: dict, report) -> str | None:
        return checks.check_sim(c, report)

    def work(self, c: dict) -> int:
        return c["runs"]

    def after_checks(self, seed: int) -> list[str | None]:
        """Worker-count invariance on one small config, outside timing."""
        config = self.config(dict(inputs.SIM_SMALL, n=50, runs=2000, seed=seed))
        return [checks.check_worker_determinism(config, NPROC)]

    def mc_metrics(self, tracer: Tracer, records) -> dict[str, float]:
        """us per run by config size, from the traced run_simulation spans,
        plus a one-worker baseline of the first small config."""
        seconds = {"small": 0.0, "large": 0.0}
        runs = {"small": 0, "large": 0}
        by_request = {span.request: span.total for span in tracer.by_name("mc.run_simulation")}
        for i, record in enumerate(records):
            c = record.request
            seconds[c["size"]] += by_request.get(i, 0.0)
            runs[c["size"]] += c["runs"]
        first_small = next(i for i, r in enumerate(records) if r.request["size"] == "small")
        small = records[first_small].request
        baseline = Tracer()
        with baseline.installed(), baseline.request(0):
            self.execute(small, workers=1)
        one_worker = baseline.total("mc.run_simulation")
        many_workers = by_request.get(first_small, 0.0)
        drawn = sum(8 * (r.request["n"] + r.request["m"]) * r.request["runs"] for r in records)
        return {
            "mc.us_per_run.small": 1e6 * seconds["small"] / max(runs["small"], 1),
            "mc.us_per_run.large": 1e6 * seconds["large"] / max(runs["large"], 1),
            "mc.us_per_run_1w.small": 1e6 * one_worker / small["runs"],
            "mc.parallel_efficiency": one_worker / (NPROC * many_workers) if many_workers else 0.0,
            "mc.bytes_drawn_per_run": drawn / sum(r.request["runs"] for r in records),
        }


WORKLOADS = {w.name: w for w in (CliReadme, LargeQueries, Simulate)}
