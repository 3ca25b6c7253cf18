"""ssbc benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {cli_readme,large_queries,simulate}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With --trace 0 it measures the
end-to-end metrics with tracing off; with --trace 1 it runs the workload
in-process twice over the same requests, untraced and then traced, and
reports the per-layer metrics and the tracing overhead.  Output checks run
after the timed region in both modes.  Human-readable lines come first;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Details and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from importlib import metadata
from statistics import median

import harness
from harness import NPROC, OUT_DIR, ROOT, SRC
from tracer import Tracer

SPECFUN = ("beta_survival", "betabinom_survival", "betabinom_pmf", "betabinom_pmf_vector")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_readme", "large_queries", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def run_checks(workload, records, seed: int) -> list[str | None]:
    """Sets ``wrong`` on each record whose output fails its check; returns
    the outcomes of the checks that concern the run as a whole (None for a
    pass, else the reason)."""
    for record in records:
        if record.error is None:
            record.wrong = workload.check(record.request, record.outcome)
    return workload.after_checks(seed)


def end_to_end(workload, seed: int, seconds: float):
    setup = harness.child_seconds(["-c", workload.setup_code], harness.SETUP_REPEATS)
    harness.timed(workload.execute, next(workload.cycles(seed))[0])  # first-call warm-up
    cycles = harness.closed_loop(workload.cycles(seed), workload.execute, seconds)
    rss_mb = harness.peak_rss_mb()
    records = [record for cycle in cycles for record in cycle]
    run_checked = run_checks(workload, records, seed)
    # Latencies of completed requests only; failures count in failed/attempted.
    latency_ms = [r.seconds * 1e3 for r in records if not r.failed]
    # Every cycle repeats one request mix, so the median of the cycle rates
    # ignores short slow spells of a shared machine.
    rates = [sum(workload.work(r.request) for r in cycle if not r.failed)
             / sum(r.seconds for r in cycle) for cycle in cycles]
    metrics = {
        "setup_s": median(setup),
        "latency_p50_ms": harness.percentile(latency_ms, 50),
        "latency_p90_ms": harness.percentile(latency_ms, 90),
        "throughput_per_s": median(rates),
        "peak_rss_mb": rss_mb,
    }
    notes = {"requests": len(records), "latency_samples": len(latency_ms), "cycles": len(cycles),
             "elapsed_s": sum(r.seconds for r in records), "setup_samples_s": setup,
             "cycle_rates_per_s": rates}
    return metrics, records, run_checked, notes


def traced(workload, seed: int, seconds: float):
    probes = harness.import_probe_ms()
    # Warm up lazy imports and first-call costs, then time the same requests
    # untraced and traced; the difference is the tracing overhead.
    harness.timed(workload.execute_traced, next(workload.cycles(seed))[0])
    untraced = [r for cycle in harness.closed_loop(workload.cycles(seed), workload.execute_traced,
                                                   seconds / 2) for r in cycle]
    tracer = Tracer()
    records = []
    with tracer.installed():
        for i, record in enumerate(untraced):
            with tracer.request(i):
                records.append(harness.timed(workload.execute_traced, record.request))
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in records)
    run_checked = run_checks(workload, records, seed)

    count = len(records)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = dict(probes)
    for name in SPECFUN:
        metrics[f"specfun.{name}.calls"] = tracer.calls(f"specfun.{name}") / count
        metrics[f"specfun.{name}.self_ms"] = 1e3 * tracer.self_time(f"specfun.{name}") / count
    metrics["coverage.tail_prob.calls"] = tracer.calls("coverage.tail_prob") / count
    metrics["coverage.tail_prob.self_ms"] = 1e3 * tracer.self_time("coverage.tail_prob") / count
    metrics["adjust.rungs_per_answer"] = ratio(
        tracer.child_calls("adjust.ssbc_adjust", "coverage.tail_prob"),
        tracer.answers("adjust.ssbc_adjust"))
    metrics["mondrian.rungs_per_answer"] = ratio(
        tracer.child_calls("mondrian.ssbc_mondrian", "mondrian.budget_success_prob"),
        tracer.answers("mondrian.ssbc_mondrian"))
    metrics["feasibility.rung_table.ms"] = 1e3 * ratio(
        tracer.total("feasibility.rung_table"), tracer.calls("feasibility.rung_table"))
    metrics["cli.main_ms"] = 1e3 * ratio(tracer.total("cli.main"), tracer.calls("cli.main"))
    metrics["serialize.canonical_json_us"] = 1e6 * ratio(
        tracer.total("serialize.canonical_json"), tracer.calls("serialize.canonical_json"))
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    metrics.update(workload.mc_metrics(tracer, records))

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    notes = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": len(tracer.spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, records, run_checked, notes


def summarize(records, run_checked: list[str | None]) -> tuple[int, int, bool]:
    """(attempted, failed, correct).  A request fails when it raised or its
    output was wrong; each run-level check is one more attempt.  ``correct``
    is false only for wrong outputs: a request that raised has no output to
    be wrong."""
    run_wrong = [reason for reason in run_checked if reason is not None]
    attempted = len(records) + len(run_checked)
    failed = sum(1 for r in records if r.failed) + len(run_wrong)
    correct = not run_wrong and all(r.wrong is None for r in records)
    return attempted, failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ssbc" / "__init__.py").is_file():
        print(f"error: no ssbc sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    trace = bool(args.trace)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": harness.git_sha(), "nproc": NPROC, "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()), flush=True)

    run = traced if trace else end_to_end
    metrics, records, run_checked, notes = run(workload, args.seed, args.seconds)
    attempted, failed, correct = summarize(records, run_checked)
    run_wrong = [reason for reason in run_checked if reason is not None]
    wrong = [r for r in records if r.wrong is not None]
    errors = [r for r in records if r.error is not None]

    units = harness.declared_metrics(trace)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units.get(name, '?')}")
    print(f"failed {failed}/{attempted} (failed_ratio {failed / attempted:.6g}): "
          f"{len(errors)} raised, {len(wrong)} wrong answers, "
          f"{len(run_wrong)} of {len(run_checked)} run-level checks failed")
    for reason in run_wrong + [f"{r.request}: {r.wrong}" for r in wrong[:5]]:
        print(f"  wrong: {reason}")
    for r in errors[:3]:
        print(f"  raised: {r.request}: {r.error}")
    if args.workload == "large_queries":
        sweep = sum(1 for r in records if r.request.get("sweep"))
        notes["sweep_share"] = sweep / len(records)
        print(f"delta-sweep share {sweep}/{len(records)}")

    OUT_DIR.mkdir(exist_ok=True)
    result = {"meta": meta, "metrics": metrics, "attempted": attempted, "failed": failed,
              "correct": correct, "notes": notes,
              "failures": run_wrong + [f"{r.request}: {r.error or r.wrong}"
                                       for r in records if r.failed]}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(harness.result_line(metrics, trace, attempted, failed, correct))
    return 0


if __name__ == "__main__":
    sys.exit(main())
