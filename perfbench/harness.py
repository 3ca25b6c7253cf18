"""Pieces shared by every workload: paths, the closed request loop,
percentiles, child-process probes and the result line."""

from __future__ import annotations

import json
import math
import os
import re
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
NPROC = len(os.sched_getaffinity(0))

# The p90 needs ten samples beyond it, so a timed loop runs for at least
# MIN_REQUESTS requests even past --seconds; LOOP_CAP_S stops it anyway so
# that a run ends well inside its 180 s limit.
MIN_REQUESTS = 100
LOOP_CAP_S = 120.0
CHILD_TIMEOUT_S = 60.0
SETUP_REPEATS = 9
PROBE_REPEATS = 5


@dataclass
class Record:
    """One request: its outcome or the error it raised, its latency, and
    the reason the output check rejected it, if it did."""

    request: dict
    outcome: object = None
    error: str | None = None
    seconds: float = 0.0
    wrong: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


def timed(execute, request: dict) -> Record:
    start = perf_counter()
    try:
        outcome = execute(request)
    except Exception as exc:  # a failing request is counted, and the loop goes on
        return Record(request, None, f"{type(exc).__name__}: {exc}", perf_counter() - start)
    return Record(request, outcome, None, perf_counter() - start)


def closed_loop(cycles, execute, seconds: float) -> list[list[Record]]:
    """One client, each request sent when the previous one returned.
    Stops at a cycle boundary, so every run measures whole request mixes;
    returns the records cycle by cycle.  Only requests that returned count
    towards MIN_REQUESTS, as only they have a latency."""
    done: list[list[Record]] = []
    count = 0
    start = perf_counter()
    for cycle in cycles:
        done.append([timed(execute, request) for request in cycle])
        count += sum(1 for record in done[-1] if record.error is None)
        elapsed = perf_counter() - start
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and count >= MIN_REQUESTS):
            return done
    raise AssertionError("request cycles are endless")


def percentile(samples, q: float, beyond: int = 10) -> float:
    """Nearest-rank q-th percentile.  Refuses (ValueError) unless at least
    ``beyond`` samples lie above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} beyond it; "
            f"need {beyond}"
        )
    return ordered[rank - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter on the checkout's sources; killed and reaped if
    it outlives CHILD_TIMEOUT_S."""
    return subprocess.run([sys.executable, *args], capture_output=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)


def child_seconds(args: list[str], repeats: int) -> list[float]:
    """Wall time of ``repeats`` fresh interpreters, spawn to exit."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        proc = run_child(args)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"probe {args} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return times


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_probe_ms(repeats: int = PROBE_REPEATS) -> dict[str, float]:
    """Median cumulative import time of the package and of numpy within it
    (``-X importtime``), and the median start-up of a bare interpreter."""
    ssbc_ms, numpy_ms = [], []
    for _ in range(repeats):
        proc = run_child(["-X", "importtime", "-c", "import ssbc"])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.decode()[-500:]}")
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            match = _IMPORTTIME.match(line)
            if match and match.group(2) in ("ssbc", "numpy"):
                cumulative[match.group(2)] = int(match.group(1)) / 1e3
        ssbc_ms.append(cumulative["ssbc"])
        numpy_ms.append(cumulative.get("numpy", 0.0))
    start_ms = [s * 1e3 for s in child_seconds(["-c", "pass"], repeats)]
    return {
        "import.ssbc_ms": median(ssbc_ms),
        "import.numpy_ms": median(numpy_ms),
        "interpreter_start_ms": median(start_ms),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child
    (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit as BENCHMARK.json declares them for the run kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(metrics: dict[str, float], trace: bool, attempted: int, failed: int,
                correct: bool) -> str:
    """The final stdout line.  Refuses a metric set that differs from the
    declared one, or a value that is not a finite number."""
    declared = declared_metrics(trace)
    if set(metrics) != set(declared):
        raise ValueError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}"
        )
    for name, value in metrics.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in declared.items()},
    })
