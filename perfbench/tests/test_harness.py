"""Tests of the benchmark harness itself:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys

import pytest

import harness
import inputs
import run
import workloads
from tracer import Tracer


def _first_cycles(cycles, count=3):
    return list(itertools.islice(cycles, count))


@pytest.mark.parametrize("make", [
    inputs.large_query_cycles,
    inputs.sim_cycles,
    lambda seed: inputs.cli_cycles(seed, workloads.CliReadme().examples),
])
def test_generators_are_deterministic_per_seed(make):
    assert _first_cycles(make(7)) == _first_cycles(make(7))
    assert _first_cycles(make(7)) != _first_cycles(make(8))


def test_large_query_mix_and_work_caps():
    for cycle in _first_cycles(inputs.large_query_cycles(3), 20):
        sweep = [q for q in cycle if q.get("sweep")]
        bases = {(q["n"], q["m"], q["alpha"]) for q in sweep}
        assert len(bases) == 2 * inputs.SWEEP_BASES
        assert sum(1 for n, m, alpha in bases if m is None) == inputs.SWEEP_BASES
        for base in bases:
            block = [q for q in sweep if (q["n"], q["m"], q["alpha"]) == base]
            assert len({q["delta"] for q in block}) == inputs.SWEEP_SIZE
        assert len(sweep) / len(cycle) == inputs.SWEEP_SHARE
        assert len(cycle) == inputs.LARGE_CYCLE and len(cycle) % 2 == 1
        kinds = [q["kind"] if q["kind"] != "adjust" else "adjust_window" if q["m"] else "adjust_inf"
                 for q in cycle if not q.get("sweep")]
        assert {kind: kinds.count(kind) for kind in kinds} == dict.fromkeys(
            inputs.LARGE_KINDS, inputs.LARGE_PER_KIND)
        for q in cycle:
            if q["kind"] == "adjust" and q["m"] is not None:
                work = inputs.window_walk_terms(q["n"], q["m"], q["alpha"], q["delta"])
                assert work <= inputs.WINDOW_WORK_CAP * 1.01
            if q["kind"] == "mondrian":
                work = inputs.mondrian_walk_terms(q["n_j"], q["m"], q["alpha"])
                assert work <= inputs.MONDRIAN_WORK_CAP * 1.01


def test_large_queries_never_repeat_an_argument_tuple():
    """A cache keyed on exact arguments gains nothing from one cycle to the
    next; only the delta-sweeps repeat an (n, alpha, regime)."""
    cycles = _first_cycles(inputs.large_query_cycles(5), 30)
    seen = set()
    for cycle in cycles:
        for q in cycle:
            args = tuple(sorted((k, v) for k, v in q.items() if k != "sweep"))
            assert args not in seen
            seen.add(args)


def test_percentile_keeps_ten_samples_beyond():
    samples = list(range(100))
    p90 = harness.percentile(samples, 90)
    assert sum(1 for s in samples if s > p90) >= 10
    assert harness.percentile(samples, 50) == 49
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        harness.percentile(list(range(19)), 50)


class _FakeWorkload:
    """Instant requests.  When ``failing``, every third raises and every
    fifth returns a wrong answer."""

    name = "fake"
    setup_code = "pass"

    def __init__(self, failing: bool = True):
        self.failing = failing

    def cycles(self, seed):
        counter = itertools.count()
        while True:
            yield [{"i": next(counter)} for _ in range(10)]

    def execute(self, request):
        if self.failing and request["i"] % 3 == 0:
            raise RuntimeError("boom")
        return request["i"]

    def check(self, request, outcome):
        return "wrong" if self.failing and outcome % 5 == 0 else None

    def work(self, request):
        return 1

    def after_checks(self, seed):
        return ["run-level check failed" if self.failing else None]


def test_failures_are_counted_not_swallowed():
    metrics, records, run_checked, _ = run.end_to_end(_FakeWorkload(), seed=0, seconds=0.01)
    attempted, failed, correct = run.summarize(records, run_checked)
    raised = sum(1 for r in records if r.request["i"] % 3 == 0)
    wrong = sum(1 for r in records if r.request["i"] % 3 and r.request["i"] % 5 == 0)
    assert len(records) - raised >= harness.MIN_REQUESTS
    assert attempted == len(records) + 1
    assert failed == raised + wrong + 1
    assert not correct
    assert all(r.error == "RuntimeError: boom" for r in records if r.request["i"] % 3 == 0)
    # The latencies leave the failures out; the result line counts them.
    line = json.loads(harness.result_line(metrics, False, attempted, failed, correct))
    assert (line["attempted"], line["failed"], line["correct"]) == (attempted, failed, False)


def test_a_request_that_raises_is_not_wrong_output():
    records = [harness.Record({"i": 0}, error="RuntimeError: x"), harness.Record({"i": 1}, 1)]
    assert run.summarize(records, [None]) == (3, 1, True)


def test_end_to_end_metric_names_match_benchmark_json():
    metrics, *_ = run.end_to_end(_FakeWorkload(failing=False), seed=0, seconds=0.01)
    assert set(metrics) == set(harness.declared_metrics(trace=False))
    line = json.loads(harness.result_line(metrics, False, 1, 0, True))
    assert line["metrics"].keys() == harness.declared_metrics(trace=False).keys()


def test_result_line_refuses_undeclared_or_missing_metrics():
    declared = harness.declared_metrics(trace=False)
    metrics = {name: 1.0 for name in declared}
    with pytest.raises(ValueError):
        harness.result_line({**metrics, "extra_ms": 1.0}, False, 1, 0, True)
    metrics.pop(next(iter(declared)))
    with pytest.raises(ValueError):
        harness.result_line(metrics, False, 1, 0, True)


def test_tracer_wraps_every_binding_and_computes_self_time():
    import ssbc
    from ssbc import coverage, specfun

    original = specfun.beta_survival
    tracer = Tracer()
    with tracer.installed():
        assert coverage.beta_survival is specfun.beta_survival is not original
        with tracer.request(0):
            ssbc.ssbc_adjust(ssbc.CalibrationContext(200, 0.1, 0.1), ssbc.CoverageRegime.infinite())
    assert coverage.beta_survival is original
    assert tracer.calls("coverage.tail_prob") == tracer.calls("specfun.beta_survival") >= 1
    assert tracer.child_calls("adjust.ssbc_adjust", "coverage.tail_prob") >= 1
    (adjust,) = tracer.by_name("adjust.ssbc_adjust")
    children = sum(child.total for child in adjust.children)
    assert adjust.self_time == pytest.approx(adjust.total - children)
    assert 0 <= adjust.self_time <= adjust.total


def test_tracer_refuses_a_missing_target(monkeypatch):
    import tracer

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("ssbc.adjust", "no_such_function"),))
    with pytest.raises(AttributeError):
        with Tracer().installed():
            pass


def test_traced_run_prints_declared_per_layer_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=harness.ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"].keys() == harness.declared_metrics(trace=True).keys()
    assert line["correct"] and line["failed"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_readme", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
