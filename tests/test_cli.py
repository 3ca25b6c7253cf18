import argparse
import importlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbc.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, build_parser, main
from ssbc.serialize import canonical_json

from oracles import (
    bb_pmf, bb_rung_count_tail, bb_window_tail, binom_rung_tail, error_cap, ssbc_scan_infinite,
    window_threshold_count
)
import relations


# Subnormal deltas, below 1/DBL_MAX, where 1/delta overflows; seeded draws
# stop at 1e-300, so each fuzz list names these too, and each must answer.
TINY_DELTAS = ("5e-324", "1e-320")

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = PERFBENCH / "golden"


def fresh_env() -> dict:
    """The environment of a new interpreter on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_fresh(code: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter.  The test process itself has numpy
    loaded, so import checks need one."""
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=fresh_env(),
                          capture_output=True, text=True, timeout=timeout)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Reads a JSON list of argvs on stdin and runs each through cli.main; prints
# one JSON line per call: its exit code, seconds, stderr, and the scalar
# fields of its JSON answer (parsed whenever the call answers in JSON).
_CALL_LOOP = """
import contextlib, io, json, sys, time
from ssbc.cli import main
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    seconds = time.perf_counter() - start
    answer = {}
    if code != 1 and (argv[argv.index("--format") + 1] if "--format" in argv else "json") == "json":
        answer = {key: value for key, value in json.loads(out.getvalue()).items()
                  if not isinstance(value, (dict, list))}
    print(json.dumps({"argv": argv, "code": code, "seconds": seconds,
                      "error": err.getvalue(), "answer": answer}), flush=True)
"""


def run_calls(argvs: list[list[str]], seconds: float, what: str) -> list[dict]:
    """Run each argv through ``cli.main`` in one new interpreter.  Each call
    must answer (exit 0 or 2, with JSON that parses) or end in exit 1 with
    ``error: `` and no traceback, within ``seconds``.  Prints the answered
    share and returns one record per call (see ``_CALL_LOOP``)."""
    proc = subprocess.run([sys.executable, "-c", _CALL_LOOP], input=json.dumps(argvs),
                          env=fresh_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    calls = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [call["argv"] for call in calls] == argvs
    for call in calls:
        assert call["seconds"] < seconds, (call["argv"], call["seconds"])
        assert call["code"] in (0, 1, 2), call
        if call["code"] == 1:
            assert call["error"].startswith("error: "), call
    print(f"{sum(call['code'] != 1 for call in calls)} of {len(calls)} fuzzed {what} calls answered")
    return calls


class TestAdjustCommand:
    def test_table_case_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "adjust", "--n", "25", "--alpha", "0.5", "--delta", "0.1",
            "--regime", "inf",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["feasible"] is True
        assert data["u_star"] == 9
        assert data["alpha_adj"] == pytest.approx(9 / 26, rel=1e-11)
        assert data["achieved_violation"] == pytest.approx(0.0538760721684, rel=1e-9)
        assert data["method"] == "ssbc"
        assert data["inputs"] == {"n": 25, "alpha_target": 0.5, "delta": 0.1, "regime": "infinite"}

    def test_windowed_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "adjust", "--n", "50", "--alpha", "0.1", "--delta", "0.1",
            "--regime", "window", "--m", "100",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["achieved_violation"] == pytest.approx(0.047163208, rel=1e-8)
        assert data["inputs"]["m"] == 100

    @pytest.mark.parametrize("argv,u_star", [
        # 1/10 lies just below the level and its tail 0.6126 meets 1 - delta
        (["--n", "9", "--alpha", "0.1000000001", "--delta", "0.5", "--regime", "inf"], 1),
        # alpha (n+1) = 500000000.2999..., so rung 500000000 lies below the level
        (["--n", "1000000000", "--alpha", "0.4999999998", "--delta", "0.6", "--regime", "window",
          "--m", "1"], 500_000_000),
    ])
    def test_level_just_above_a_rung_keeps_that_rung(self, capsys, argv, u_star):
        code, out, _ = run_cli(capsys, "adjust", *argv)
        assert code == EXIT_OK
        assert json.loads(out)["u_star"] == u_star

    def test_infeasible_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "adjust", "--n", "5", "--alpha", "0.01", "--delta", "0.05",
            "--regime", "inf",
        )
        assert code == EXIT_INFEASIBLE
        assert json.loads(out)["feasible"] is False

    def test_dkwm_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "adjust", "--n", "25", "--alpha", "0.5", "--delta", "0.1",
            "--regime", "inf", "--method", "dkwm",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["method"] == "dkwm"
        assert data["epsilon"] == pytest.approx(0.2145966026289, rel=1e-10)

    def test_missing_m_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "adjust", "--n", "50", "--alpha", "0.1", "--delta", "0.1",
            "--regime", "window",
        )
        assert code == EXIT_USAGE
        assert "--m" in err

    def test_stray_m_is_usage_error(self, capsys):
        for argv in (
            ("--n", "50", "--alpha", "0.1", "--m", "10"),
            ("--n", "25", "--alpha", "0.5", "--m", "5", "--method", "dkwm"),  # feasible, not exit 2
        ):
            code, out, err = run_cli(
                capsys, "adjust", "--delta", "0.1", "--regime", "inf", *argv
            )
            assert code == EXIT_USAGE, argv
            assert out == ""
            assert "--m is only valid with --regime window" in err

    def test_dkwm_has_no_window_variant(self, capsys):
        code, _, err = run_cli(
            capsys, "adjust", "--n", "50", "--alpha", "0.1", "--delta", "0.1",
            "--regime", "window", "--m", "100", "--method", "dkwm",
        )
        assert code == EXIT_USAGE
        assert "dkwm" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = run_cli(
            capsys, "adjust", "--n", "ten", "--alpha", "0.1", "--delta", "0.1",
            "--regime", "inf",
        )
        assert code == EXIT_USAGE

    def test_out_of_range_value(self, capsys):
        code, _, err = run_cli(
            capsys, "adjust", "--n", "50", "--alpha", "1.5", "--delta", "0.1",
            "--regime", "inf",
        )
        assert code == EXIT_USAGE
        assert "alpha" in err

    def test_kernel_failure_is_an_error_not_a_traceback(self):
        # The binomial law of this search is too wide for the tail walk
        # (variance above 2**34), which refuses it before any work; the CLI
        # must end with that message and exit 1.
        proc = run_fresh(
            "import sys\n"
            "from ssbc.cli import main\n"
            "sys.exit(main(['adjust', '--n', '100000000000', '--alpha', '0.3',"
            " '--delta', '0.45', '--regime', 'inf']))\n"
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: ")
        assert "MAX_WALK_VARIANCE" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "n, alpha, delta, u_star",
        [
            # scipy: Pr(Bin(n, 1-t) <= u*-1) = 0.13180636 <= delta < 0.13186692 at u*
            ("73548323", "0.215781402", "0.131813346", 15866417),
            # scipy: 0.09997182 <= delta < 0.10001012
            ("100000000", "0.3", "0.1", 29994127),
            # scipy: 0.449950 <= delta < 0.450036
            ("100000000", "0.3", "0.45", 29999424),
        ],
    )
    def test_large_n_answers(self, capsys, n, alpha, delta, u_star):
        # the answers of scipy's binomial CDF, the bracket quoted with each
        code, out, _ = run_cli(
            capsys, "adjust", "--n", n, "--alpha", alpha, "--delta", delta, "--regime", "inf"
        )
        assert code == EXIT_OK
        assert json.loads(out)["u_star"] == u_star

    def test_achieved_tail_is_right_to_every_printed_digit(self, capsys):
        # scipy: Pr(Bin(n, 1-t) >= u*) = 0.8681936360149 at u* = 15866417
        code, out, _ = run_cli(
            capsys, "adjust", "--n", "73548323", "--alpha", "0.215781402",
            "--delta", "0.131813346", "--regime", "inf",
        )
        assert code == EXIT_OK
        assert '"achieved_tail": 0.868193636015,' in out

    def test_top_rung_just_below_a_decimal_level(self, capsys):
        # alpha (n+1) = 15282841919.000007 exactly: within the float rounding
        # of an integer at this n, yet rung 15282841919 lies below the level,
        # and its tail 0.500000233 meets 1 - delta with margin 1.3e-7
        n, u_star = 36623311384, 15282841919
        assert Fraction(u_star, n + 1) < Fraction("0.4172982") <= Fraction(u_star + 1, n + 1)
        code, out, _ = run_cli(
            capsys, "adjust", "--n", str(n), "--alpha", "0.4172982", "--delta", "0.4999999",
            "--regime", "inf",
        )
        assert code == EXIT_OK
        assert json.loads(out)["u_star"] == u_star

    @pytest.mark.parametrize("argv, limit", [
        # each side of the window threshold holds more than MAX_WINDOW_TERMS
        # terms, so the first tail is refused before any is summed
        pytest.param(["adjust", "--n", "50", "--alpha", "0.1", "--delta", "0.1",
                      "--regime", "window", "--m", "100000000"], "MAX_WINDOW_TERMS", id="argv0"),
        pytest.param(["rungs", "--n", "3", "--alpha", "0.5", "--regime", "window",
                      "--m", "2000000000"], "MAX_WINDOW_TERMS", id="argv1"),
        # 10**5 rows of 65,536 terms each: about 3.6 h of work
        pytest.param(["rungs", "--n", "100000", "--alpha", "0.5", "--regime", "window",
                      "--m", "131072"], "MAX_REQUEST_TERMS", id="argv2"),
        # a bound of 4.0e8 terms over 10 rungs: about 110 s of work
        pytest.param(["mondrian", "--k", "100000", "--kj", "30000", "--nj", "5000",
                      "--m", "20000", "--alpha", "0.2", "--delta", "0.1"], "MAX_REQUEST_TERMS",
                     id="argv3"),
    ])
    def test_window_tail_too_wide_is_refused_at_once(self, argv, limit):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ssbc.cli", *argv], env=fresh_env(),
                              capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - start < 1
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: ")
        assert limit in proc.stderr

    def test_overflow_is_an_error_not_a_traceback(self):
        # Inputs beyond the range of a double overflow inside the float
        # kernels; each call must still end with a message and exit 1.
        big, window, n20 = str(10**400), str(10**31), str(10**20)
        argvs = [
            ["adjust", "--n", big, "--alpha", "0.1", "--delta", "0.1", "--regime", "inf"],
            ["feasible", "--n", big, "--delta", "0.1"],
            ["mondrian", "--k", big, "--kj", "5", "--nj", "20", "--m", "10",
             "--alpha", "0.1", "--delta", "0.1"],
            ["adjust", "--n", "50", "--alpha", "0.1", "--delta", "0.1",
             "--regime", "window", "--m", window],
            ["adjust", "--n", n20, "--alpha", "0.1", "--delta", "0.1", "--regime", "inf"],
        ]
        calls = run_calls(argvs, 10, "overflowing")
        assert [call["code"] for call in calls] == [1] * len(argvs)

    def test_json_round_trip_is_byte_stable(self, capsys):
        code, out, _ = run_cli(
            capsys, "adjust", "--n", "25", "--alpha", "0.5", "--delta", "0.1",
            "--regime", "inf",
        )
        text = out.strip()
        assert canonical_json(json.loads(text)) == text

    def test_human_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "adjust", "--n", "25", "--alpha", "0.5", "--delta", "0.1",
            "--regime", "inf", "--format", "human",
        )
        assert code == EXIT_OK
        assert "feasible: True" in out
        assert "u_star: 9" in out


class TestFeasibleCommand:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--n", "50", "--delta", "0.1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["alpha_star_inf"] == pytest.approx(0.045007414, rel=1e-8)
        assert data["delta_max_grid"] == pytest.approx(0.371527882127, rel=1e-10)
        assert data["implementable"] is True
        # without --m the window fields are left out, and the rest keep their order
        assert list(data) == ["n", "delta", "alpha_star_inf", "delta_max_grid", "implementable"]

    def test_window_fields(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--n", "50", "--delta", "0.1", "--m", "100")
        data = json.loads(out)
        assert data["alpha_star_m"] == pytest.approx(0.05, abs=1e-10)
        assert data["alpha_star_m_laplace"] == pytest.approx(0.05327830114, rel=1e-9)

    def test_grid_bound_at_huge_n(self, capsys):
        # (n/(n+1))^n -> 1/e, an independent route to delta_max at n = 1e17.
        # JSON prints 12 digits, so the 1e-15 bound is checked on the value.
        from ssbc.feasibility import grid_implementable

        code, out, _ = run_cli(capsys, "feasible", "--n", str(10**17), "--delta", "0.5")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["implementable"] is False
        assert data["delta_max_grid"] == float(format(math.exp(-1), ".12g"))
        assert abs(grid_implementable(10**17, 0.5)[1] - math.exp(-1)) <= 1e-15

    def test_large_window_answers_at_once(self, capsys):
        # The search starts next to the proven bound, so a window of 10^12
        # takes a few factors; the exact answer is x* = floor((m+1)/2).
        m = 10**12
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "feasible", "--n", "1", "--delta", "0.5", "--m", str(m))
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_OK
        assert json.loads(out)["alpha_star_m"] == 1.0 - ((m + 1) // 2) / m == 0.5

    def test_huge_window_is_an_error_within_seconds(self):
        # A first product over the 10^7-factor cap, and a start beyond 2**52,
        # are refused before any product is taken.
        for n, m in [("100000000", "1000000000000000000"), ("1", "100000000000000000")]:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "ssbc.cli", "feasible", "--n", n, "--delta", "0.5",
                 "--m", m],
                env=fresh_env(), capture_output=True, text=True, timeout=5,
            )
            assert time.perf_counter() - start < 1, (n, m)
            assert proc.returncode == EXIT_USAGE, (n, m)
            assert proc.stderr.startswith("error: "), (n, m)
            assert "Traceback" not in proc.stderr

    def test_fuzzed_inputs_answer_or_fail_within_seconds(self):
        # Log-uniform over n in [1, 1e18], m in [1, 1e30] and delta in
        # [1e-300, 0.999]: each call answers, or ends in exit 1 with a
        # message, within 10 s; a first product at its cap takes up to ~5.5 s
        # when its integers pass 2**53.  An m beyond a double ends in exit 1
        # through OverflowError.
        rng = random.Random(1318)
        argvs = [
            ["feasible", "--n", str(int(10 ** rng.uniform(0, 18))),
             "--delta", repr(10 ** rng.uniform(-300, math.log10(0.999))),
             "--m", str(int(10 ** rng.uniform(0, 30)))]
            for _ in range(60)
        ]
        tiny = [["feasible", "--n", "50", "--delta", delta, "--m", "100"] for delta in TINY_DELTAS]
        argvs += tiny
        argvs.append(["feasible", "--n", "50", "--delta", "0.1", "--m", str(10**400)])
        calls = run_calls(argvs, 10, "feasible")
        for call in calls:
            assert call["code"] in (0, 1), call
            if call["code"] == 0:
                assert 0.0 <= call["answer"]["alpha_star_m"] <= 1.0, call["argv"]
        answered = calls[-1 - len(tiny):-1]
        assert all(call["code"] == 0 for call in answered), answered
        assert calls[-1]["code"] == 1 and "float" in calls[-1]["error"], calls[-1]


class TestInfiniteFuzz:
    def test_fuzzed_inputs_answer_or_fail_within_seconds(self):
        # adjust and rungs with --regime inf, log-uniform over n in [1, 1e18]
        # (and n = 10**400), alpha in [1e-12, 0.999] and delta in
        # [1e-300, 0.999]: each call answers, or ends in exit 1 with a
        # message, within 10 s.  The tail walk refuses a law of variance
        # above 2**34, and rungs a table of more than 10**5 rows.
        rng = random.Random(1016)

        def level(lo):
            return repr(10 ** rng.uniform(lo, math.log10(0.999)))

        argvs = []
        for _ in range(40):
            n = str(int(10 ** rng.uniform(0, 18)))
            argvs.append(["adjust", "--n", n, "--alpha", level(-12), "--delta", level(-300),
                          "--regime", "inf"] + ["--method", "dkwm"] * (rng.random() < 0.25))
            n = str(int(10 ** rng.uniform(0, 18)))
            argvs.append(["rungs", "--n", n, "--alpha", level(-12), "--regime", "inf",
                          "--format", rng.choice(["json", "csv"])])
        for command in (["adjust", "--delta", "0.1"], ["rungs"]):
            argvs.append(command + ["--n", str(10**400), "--alpha", "0.1", "--regime", "inf"])
        # simulate prices dkwm with the same margin as adjust --method dkwm
        tiny = [argv for delta in TINY_DELTAS for argv in (
            ["adjust", "--n", "5", "--alpha", "0.5", "--delta", delta, "--regime", "inf"],
            ["adjust", "--n", "5", "--alpha", "0.5", "--delta", delta, "--regime", "inf",
             "--method", "dkwm"],
            ["simulate", "--n", "15", "--m", "20", "--alpha", "0.25", "--delta", delta,
             "--runs", "200", "--seed", "9", "--methods", "none,ssbc,dkwm"],
        )]
        calls = run_calls(argvs + tiny, 10, "infinite-regime")
        assert all(call["code"] != 1 for call in calls[-len(tiny):]), calls[-len(tiny):]


class TestWindowFuzz:
    """Window-regime adjust and rungs, and mondrian, on seeded draws made as
    ``relations`` makes them: n, n_j and m log-uniform up to 1e6, k up to 1e9
    with k_j at 0, at k or in between, delta log-uniform in [1e-300, 0.9],
    levels in [1e-3, 0.99] typed with 1 to 9 digits; 10**400 for each
    size flag; and ``TINY_DELTAS``, at which every call must answer."""

    DOMAIN = relations.Domain(size=10**6, delta_min=1e-300, digits=9)
    DRAWS = {"--n": relations.size, "--nj": relations.size, "--m": relations.size,
             "--alpha": relations.level, "--delta": relations.delta}
    BIG = str(10**400)

    def draw(self, rng: random.Random, *flags: str) -> list[str]:
        return [word for flag in flags for word in (flag, str(self.DRAWS[flag](rng, self.DOMAIN)))]

    def test_adjust(self):
        rng = random.Random(3301)
        argvs = [["adjust", *self.draw(rng, "--n", "--alpha", "--delta", "--m"),
                  "--regime", "window"] for _ in range(150)]
        for n, m in [(self.BIG, "10"), ("10", self.BIG)]:
            argvs.append(["adjust", "--n", n, "--alpha", "0.1", "--delta", "0.1",
                          "--regime", "window", "--m", m])
        tiny = [["adjust", "--n", "5", "--alpha", "0.5", "--delta", delta, "--regime", "window",
                 "--m", "10"] for delta in TINY_DELTAS]
        calls = run_calls(argvs + tiny, 10, "window adjust")
        assert all(call["code"] != 1 for call in calls[-len(tiny):]), calls[-len(tiny):]

    def test_rungs(self):
        # MAX_REQUEST_TERMS admits ~20-30 s of window tail terms in one table
        rng = random.Random(3302)
        argvs = [["rungs", *self.draw(rng, "--n", "--alpha", "--m"), "--regime", "window",
                  "--format", rng.choice(["json", "csv"])] for _ in range(8)]
        for n, m in [(self.BIG, "10"), ("10", self.BIG)]:
            argvs.append(["rungs", "--n", n, "--alpha", "0.1", "--regime", "window", "--m", m])
        run_calls(argvs, 30, "window rungs")

    def test_mondrian(self):
        # MAX_REQUEST_TERMS admits ~20-30 s of work in one search
        rng = random.Random(3303)
        argvs = []
        for _ in range(40):
            k = relations.size(rng, relations.WIDE)
            k_j = rng.choice([0, k, rng.randint(0, k)])
            argvs.append(["mondrian", "--k", str(k), "--kj", str(k_j),
                          *self.draw(rng, "--nj", "--m", "--alpha", "--delta")])
        small = {"--k": "40", "--kj": "5", "--nj": "20", "--m": "10"}
        for flag in small:
            sizes = small | {flag: self.BIG} | ({"--k": self.BIG} if flag == "--kj" else {})
            argvs.append(["mondrian", *(word for pair in sizes.items() for word in pair),
                          "--alpha", "0.1", "--delta", "0.1"])
        tiny = [["mondrian", *(word for pair in small.items() for word in pair), "--alpha", "0.1",
                 "--delta", delta] for delta in TINY_DELTAS]
        calls = run_calls(argvs + tiny, 30, "mondrian")
        assert all(call["code"] != 1 for call in calls[-len(tiny):]), calls[-len(tiny):]


class TestRungsCommand:
    def test_closed_pipe_ends_quietly(self):
        # ~800 KB of CSV, far more than a pipe holds: the reader takes one
        # line and closes its end while the CLI is still writing.
        proc = subprocess.Popen(
            [sys.executable, "-m", "ssbc.cli", "rungs", "--n", "20000", "--alpha", "0.1",
             "--regime", "inf", "--format", "csv"],
            env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"u,alpha_prime,attainable_delta\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_USAGE
        assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "rungs", "--n", "50", "--alpha", "0.1", "--regime", "inf",
            "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "u,alpha_prime,attainable_delta"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == pytest.approx(1 / 51, rel=1e-10)
        assert float(first[2]) == pytest.approx(0.00515377520732, rel=1e-9)
        second = lines[2].split(",")
        assert float(second[2]) == pytest.approx(0.0337858596924, rel=1e-9)
        third = lines[3].split(",")
        assert float(third[2]) == pytest.approx(0.111728756277, rel=1e-9)

    # Whole stdout: the key order n, alpha_target, regime, m (a window's
    # only), rungs; the human form renders the same keys.
    WINDOW_ROWS = [(1, "0.25", "0.416666666667"), (2, "0.5", "0.77380952381"),
                   (3, "0.75", "0.952380952381")]
    PINNED = [
        (("--regime", "window", "--m", "6"),
         '{"n": 3, "alpha_target": 0.3, "regime": "window", "m": 6, "rungs": ['
         + ", ".join(f'{{"u": {u}, "alpha_prime": {a}, "attainable_delta": {d}}}'
                     for u, a, d in WINDOW_ROWS) + "]}\n"),
        (("--regime", "inf"),
         '{"n": 3, "alpha_target": 0.3, "regime": "infinite", "rungs": ['
         '{"u": 1, "alpha_prime": 0.25, "attainable_delta": 0.343}, '
         '{"u": 2, "alpha_prime": 0.5, "attainable_delta": 0.784}, '
         '{"u": 3, "alpha_prime": 0.75, "attainable_delta": 0.973}]}\n'),
        (("--regime", "window", "--m", "6", "--format", "human"),
         "n: 3\nalpha_target: 0.3\nregime: window\nm: 6\nrungs:\n"
         + "".join(f"    u: {u}\n    alpha_prime: {a}\n    attainable_delta: {d}\n\n"
                   for u, a, d in WINDOW_ROWS)),
    ]

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "rungs", "--n", "10", "--alpha", "0.3", "--regime", "window", "--m", "25",
        )
        data = json.loads(out)
        assert data["m"] == 25
        assert len(data["rungs"]) == 10
        for argv, stdout in self.PINNED:
            assert run_cli(capsys, "rungs", "--n", "3", "--alpha", "0.3", *argv) == (
                EXIT_OK, stdout, ""
            ), argv


class TestMondrianCommand:
    def test_feasible(self, capsys):
        code, out, _ = run_cli(
            capsys, "mondrian", "--k", "40", "--kj", "12", "--nj", "30", "--m", "12",
            "--alpha", "0.2", "--delta", "0.15",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["u_star"] == 2
        assert data["achieved_tail"] == pytest.approx(0.866934349175, rel=1e-9)
        assert data["inputs"]["k_j"] == 12
        assert data["inputs"]["n_j"] == 30

    def test_infeasible_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "mondrian", "--k", "10", "--kj", "4", "--nj", "1", "--m", "5",
            "--alpha", "0.9", "--delta", "0.5",
        )
        assert code == EXIT_INFEASIBLE
        data = json.loads(out)
        assert data["skipped_rungs"] == [1]

    def test_huge_class_count_shapes_decide_right(self, capsys):
        # The count law BB(92; 428571428571428, 571428571428572), whose
        # log-space terms once summed to ~108: its terms in 50-digit mpmath,
        # times exact window tails, price every rung the search may take.
        mp = pytest.importorskip("mpmath")
        k, k_j, n_j, m, alpha, delta = 10**15, 428571428571428, 50, 92, "0.43", "0.22"
        code, out, err = run_cli(
            capsys, "mondrian", "--k", str(k), "--kj", str(k_j), "--nj", str(n_j),
            "--m", str(m), "--alpha", alpha, "--delta", delta,
        )
        assert code in (EXIT_OK, EXIT_INFEASIBLE) and err == ""
        data = json.loads(out)
        u_hi = min(math.ceil(Fraction(alpha) * (n_j + 1)) - 1, n_j - 1)
        with mp.workdps(50):
            weights = [mp.binomial(m, r) * mp.rf(k_j, r) * mp.rf(k - k_j, m - r) / mp.rf(k, m)
                       for r in range(m + 1)]

            def success(u):
                # the window of r class-j items may hold floor(alpha r) errors
                tails = (bb_window_tail(r - math.floor(Fraction(alpha) * r), r, n_j - 1, u)
                         for r in range(m + 1))
                return mp.fsum(w * mp.mpf(t.numerator) / t.denominator
                               for w, t in zip(weights, tails))

            target = 1 - Fraction(delta)

            def meets(u):
                return success(u) >= mp.mpf(target.numerator) / target.denominator

            if code == EXIT_OK:
                u = data["u_star"]
                assert meets(u) and (u == u_hi or not meets(u + 1)), u
                assert data["achieved_tail"] == pytest.approx(float(success(u)), abs=1e-11)
            else:
                assert not meets(1)


class TestSimulateCommand:
    ARGS = (
        "simulate", "--n", "15", "--m", "20", "--alpha", "0.25", "--delta", "0.2",
        "--runs", "200", "--seed", "9",
    )

    def test_json_deterministic_across_workers(self, capsys):
        outputs = []
        for workers in ("1", "2"):
            code, out, _ = run_cli(capsys, *self.ARGS, "--workers", workers)
            assert code == EXIT_OK
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_report_fields(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        data = json.loads(out)
        assert data["runs_completed"] == 200
        assert data["seed_echo"] == 9
        methods = {m["method"] for m in data["methods"]}
        assert methods == {"none", "ssbc"}
        for m in data["methods"]:
            if not m["skipped"]:
                assert sum(m["coverage_histogram"]) == 200

    def test_csv_histogram(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "method,coverage_level,count,theory_pmf"
        # one row per method per coverage level
        assert len(lines) == 1 + 2 * 21

    def test_method_subset(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--methods", "dkwm")
        data = json.loads(out)
        assert [m["method"] for m in data["methods"]] == ["dkwm"]

    def test_too_many_draws_are_refused_at_once(self):
        # 10**12 runs of 2 draws each: hours of counting
        argv = ["simulate", "--n", "1", "--m", "1", "--alpha", "0.5", "--delta", "0.4",
                "--runs", "1000000000000", "--seed", "1", "--methods", "none"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ssbc.cli", *argv], env=fresh_env(),
                              capture_output=True, text=True, timeout=30)
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr.startswith("error: ") and "MAX_SIM_DRAWS" in proc.stderr

    def test_a_failing_helper_is_an_error(self, capsys, monkeypatch):
        # 3,000 runs of 50 draws are 3 blocks: on two usable CPUs the caller
        # starts one helper, whose kernel fails
        import threading

        import ssbc.mc

        count_runs = ssbc.mc._count_runs

        def failing_off_the_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("helper failed")
            return count_runs(*args)

        monkeypatch.setattr(ssbc.mc, "_count_runs", failing_off_the_main_thread)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        before = threading.active_count()
        code, out, err = run_cli(capsys, "simulate", "--n", "20", "--m", "30", "--alpha", "0.1",
                                 "--delta", "0.1", "--runs", "3000", "--seed", "1",
                                 "--workers", "2")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "helper failed" in err
        assert threading.active_count() == before

    def test_unallocatable_draws_are_an_error(self, capsys, monkeypatch):
        # One draw past MAX_RUN_DRAWS, and 7.11 PiB of draws, are refused
        # at every run count before the simulation allocates anything.
        import ssbc.mc

        def unreachable(*args, **kwargs):
            raise AssertionError("run_simulation was reached")

        monkeypatch.setattr(ssbc.mc, "run_simulation", unreachable)
        for n, runs in ((ssbc.mc.MAX_RUN_DRAWS, 1), (ssbc.mc.MAX_RUN_DRAWS, 2), (10**15, 1)):
            code, out, err = run_cli(
                capsys, "simulate", "--n", str(n), "--m", "1", "--alpha", "0.1",
                "--delta", "0.1", "--runs", str(runs), "--seed", "1", "--methods", "none",
            )
            assert (code, out) == (EXIT_USAGE, "")
            assert err == (f"error: a run of {n + 1} draws exceeds "
                           f"MAX_RUN_DRAWS = {ssbc.mc.MAX_RUN_DRAWS}\n")


class TestGoldenExamples:
    """The README examples must keep their recorded stdout bytes and exit
    codes; the recordings are the benchmark's golden files."""

    EXAMPLES = json.loads((GOLDEN / "manifest.json").read_text())["examples"]

    @pytest.mark.parametrize("example", EXAMPLES, ids=[e["file"] for e in EXAMPLES])
    def test_stdout_and_exit_code(self, capsys, example):
        code, out, _ = run_cli(capsys, *example["argv"])
        assert code == example["exit"]
        assert out.encode() == (GOLDEN / example["file"]).read_bytes()


def rounded(value) -> str:
    """An exact value (a Fraction, a float, or an mpmath number) as
    format_float prints a float that lies that close to it: rounded to 12
    significant digits, then ``.12g`` of the float, so trailing zeros drop."""
    if isinstance(value, (Fraction, float)):
        value = Fraction(value)
        value = Context(prec=40).divide(value.numerator, value.denominator)
    else:
        import mpmath

        value = Decimal(mpmath.nstr(value, 40))
    return format(float(format(value, ".12g")), ".12g")


class TestGoldenAudit:
    """Every number in the golden files is its exact value rounded as the
    package prints it.  The exact values come from routes that share no code
    with the package: the rationals of ``oracles`` and, for the
    transcendental ones, 40-digit mpmath.  One printed digit is a known
    erratum, asserted as such: the window example's ``achieved_tail``."""

    # file: (golden token, exact rounding) of each known erratum
    ERRATA = {"adjust_window.out": {"achieved_tail": ("0.952836791985", "0.952836791986")}}

    @staticmethod
    def grid_top(alpha, n):
        """The highest rung u with u/(n+1) below the decimal alpha."""
        return math.ceil(Fraction(repr(alpha)) * (n + 1)) - 1

    @staticmethod
    def adjustment(u, n, tail, method, inputs, **extra):
        """An adjust report's fields at rung u, ``extra`` added or replacing."""
        return {"feasible": True, "alpha_adj": Fraction(u, n + 1), "u_star": u,
                "achieved_tail": tail, "achieved_violation": 1 - tail, "method": method,
                "inputs": inputs, **extra}

    def exact_adjust_inf(self):
        n, alpha, delta = 25, 0.5, 0.1
        u, tail = ssbc_scan_infinite(n, alpha, delta)
        assert tail == binom_rung_tail(n, u, alpha)
        return self.adjustment(u, n, tail, "ssbc", {"n": n, "alpha_target": alpha,
                                                    "delta": delta, "regime": "infinite"})

    def exact_adjust_window(self):
        n, alpha, delta, m = 50, 0.1, 0.1, 100
        x_star = m - error_cap(alpha, m)
        tails = {u: bb_window_tail(x_star, m, n, u) for u in range(1, self.grid_top(alpha, n) + 1)}
        u = max(u for u, tail in tails.items() if tail >= 1 - Fraction(repr(delta)))
        assert tails[u] == bb_rung_count_tail(x_star, m, n, u)
        return self.adjustment(u, n, tails[u], "ssbc", {"n": n, "alpha_target": alpha,
                                                        "delta": delta, "regime": "window", "m": m})

    def exact_adjust_dkwm(self):
        mpmath = pytest.importorskip("mpmath")
        n, alpha, delta = 25, 0.5, 0.1
        with mpmath.workdps(40):
            eps = mpmath.sqrt(mpmath.log(1 / mpmath.mpf(delta)) / (2 * n))
            alpha_adj = alpha - eps
            u = int(mpmath.floor((n + 1) * alpha_adj))
        return self.adjustment(u, n, binom_rung_tail(n, u, alpha), "dkwm",
                               {"n": n, "alpha_target": alpha, "delta": delta,
                                "regime": "infinite"}, alpha_adj=alpha_adj, epsilon=eps)

    def exact_feasible_m(self):
        mpmath = pytest.importorskip("mpmath")
        n, delta, m = 50, 0.1, 100
        with mpmath.workdps(40):
            a = 1 - mpmath.mpf(delta) ** (mpmath.mpf(1) / n)
            laplace = a + mpmath.sqrt(a * (1 - a) / (2 * mpmath.pi * m))
        delta_max = Fraction(n, n + 1) ** n
        return {"n": n, "delta": delta, "alpha_star_inf": a, "delta_max_grid": delta_max,
                "implementable": Fraction(delta) <= delta_max, "m": m,
                "alpha_star_m": Fraction(m - window_threshold_count(n, delta, m), m),
                "alpha_star_m_laplace": laplace}

    def exact_mondrian(self):
        k, k_j, n_j, m, alpha, delta = 40, 12, 30, 12, 0.2, 0.15
        # the count law times each count's window tail at calibration size n_j - 1
        success = {u: sum(bb_pmf(r, m, k_j, k - k_j)
                          * bb_window_tail(r - error_cap(alpha, r), r, n_j - 1, u)
                          for r in range(m + 1))
                   for u in range(1, min(self.grid_top(alpha, n_j), n_j - 1) + 1)}
        u = max(u for u, tail in success.items() if tail >= 1 - Fraction(repr(delta)))
        return self.adjustment(u, n_j, success[u], "ssbc", {
            "n": n_j, "alpha_target": alpha, "delta": delta, "regime": "window", "m": m,
            "k": k, "k_j": k_j, "n_j": n_j})

    @pytest.mark.parametrize("name", ["adjust_inf", "adjust_window", "adjust_dkwm", "feasible_m",
                                      "mondrian"])
    def test_json_output(self, name):
        file = f"{name}.out"
        # each float as its printed token; the echoed inputs beside the results
        golden = json.loads((GOLDEN / file).read_text(), parse_float=str)
        exact = getattr(self, f"exact_{name}")()
        golden |= golden.pop("inputs", {})
        exact |= exact.pop("inputs", {})
        errata = self.ERRATA.get(file, {})
        assert golden.keys() == exact.keys()
        for key, value in exact.items():
            if isinstance(value, (bool, int, str)):
                assert golden[key] == value, key
            elif key in errata:
                assert (golden[key], rounded(value)) == errata[key], key
            else:
                assert golden[key] == rounded(value), key

    def test_rungs_csv(self):
        n, alpha = 50, 0.1
        header, *rows = (GOLDEN / "rungs_csv.out").read_text().splitlines()
        assert header == "u,alpha_prime,attainable_delta"
        assert rows == [f"{u},{rounded(Fraction(u, n + 1))},"
                        f"{rounded(1 - binom_rung_tail(n, u, alpha))}" for u in range(1, n + 1)]


class TestByteCorpus:
    """Every argv of ``cli_corpus.ARGVS`` keeps the exit code, stdout and
    stderr pinned in ``cli_corpus.txt``, run in one new interpreter."""

    def test_every_argv_keeps_its_pins(self):
        corpus = Path(__file__).with_name("cli_corpus.py")
        proc = subprocess.run([sys.executable, str(corpus)], env=fresh_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        pinned = corpus.with_name("cli_corpus.txt").read_text().splitlines()
        assert len(pinned) >= 40
        assert proc.stdout.splitlines() == pinned


class TestBenchmarkHooks:
    """The benchmark's tracer wraps library functions by (module, name); a
    renamed or removed target would stop a traced run, so every target must
    resolve.  Reads perfbench/tracer.py and writes nothing under perfbench/."""

    @staticmethod
    def load_tracer():
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", PERFBENCH / "tracer.py"
        )
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        return tracer

    def test_tracer_targets_resolve(self):
        tracer = self.load_tracer()
        assert tracer.TARGETS
        for module, name in tracer.TARGETS:
            assert callable(getattr(importlib.import_module(module), name, None)), (module, name)

    def test_tail_kernels_are_traced_through_coverage(self):
        # The tracer wraps a kernel under every name a module binds it to;
        # coverage binds the two tail kernels by name and calls each once
        # per tail_prob.
        from ssbc import coverage, specfun
        from ssbc.coverage import CoverageRegime

        tracer = self.load_tracer()
        assert coverage.beta_survival is specfun.beta_survival
        assert coverage.betabinom_survival is specfun.betabinom_survival
        with tracer.Tracer().installed() as traced, traced.request(0):
            coverage.tail_prob(50, 2, CoverageRegime.infinite(), 0.1)
            coverage.tail_prob(50, 2, CoverageRegime.window(100), 0.1)
            coverage.tail_prob(50, 3, CoverageRegime.window(100), 0.1)
        assert traced.calls("coverage.tail_prob") == 3
        assert traced.calls("specfun.beta_survival") == 1
        assert traced.calls("specfun.betabinom_survival") == 2


class TestCanonicalJson:
    def test_float_formatting(self):
        assert canonical_json(0.0538760721683502) == "0.0538760721684"
        assert canonical_json(2.0) == "2"
        assert canonical_json(1e-5) == "1e-05"

    def test_structures(self):
        data = {"b": [1, 2.5, None, True], "a": "x"}
        assert canonical_json(data) == '{"b": [1, 2.5, null, true], "a": "x"}'

    def test_round_trip_idempotent(self):
        data = {"x": 0.1 + 0.2, "y": [3.14159265358979, 1 / 3], "z": {"deep": 1e-300}}
        first = canonical_json(data)
        second = canonical_json(json.loads(first))
        assert first == second

    @given(st.text(st.characters(codec=None, exclude_categories=())))
    @settings(max_examples=500)
    def test_strings_quote_as_json_dumps(self, text):
        # control characters, quotes, backslashes, DEL, non-ASCII, surrogates
        assert canonical_json({text: text}) == json.dumps({text: text})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(float("inf"))
        with pytest.raises(ValueError):
            canonical_json({"v": float("nan")})


class TestHelp:
    @pytest.mark.parametrize(
        "command,symbols",
        [
            ("adjust", ["α", "δ", "n"]),
            ("feasible", ["δ", "n", "m"]),
            ("rungs", ["α", "n"]),
            ("mondrian", ["k_j", "n_j", "α", "δ"]),
            ("simulate", ["α", "δ", "m"]),
        ],
    )
    def test_symbols_in_help(self, capsys, command, symbols):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for symbol in symbols:
            assert symbol in out

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE


def subparsers() -> dict:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


HELP = ("-h", "--help"), False, argparse.SUPPRESS, None, None
FORMATS = ("json", "human")
TABULAR_FORMATS = ("json", "csv", "human")

# (option strings, required, default, choices, type) of each action, in order.
FLAG_INVENTORY = {
    "adjust": [
        HELP,
        (("--n",), True, None, None, int),
        (("--alpha",), True, None, None, float),
        (("--delta",), True, None, None, float),
        (("--regime",), True, None, ("inf", "window"), None),
        (("--m",), False, None, None, int),
        (("--method",), False, "ssbc", ("ssbc", "dkwm"), None),
        (("--format",), False, "json", FORMATS, None),
    ],
    "feasible": [
        HELP,
        (("--n",), True, None, None, int),
        (("--delta",), True, None, None, float),
        (("--m",), False, None, None, int),
        (("--format",), False, "json", FORMATS, None),
    ],
    "rungs": [
        HELP,
        (("--n",), True, None, None, int),
        (("--alpha",), True, None, None, float),
        (("--regime",), True, None, ("inf", "window"), None),
        (("--m",), False, None, None, int),
        (("--format",), False, "json", TABULAR_FORMATS, None),
    ],
    "mondrian": [
        HELP,
        (("--k",), True, None, None, int),
        (("--kj",), True, None, None, int),
        (("--nj",), True, None, None, int),
        (("--m",), True, None, None, int),
        (("--alpha",), True, None, None, float),
        (("--delta",), True, None, None, float),
        (("--format",), False, "json", FORMATS, None),
    ],
    "simulate": [
        HELP,
        (("--n",), True, None, None, int),
        (("--alpha",), True, None, None, float),
        (("--delta",), True, None, None, float),
        (("--m",), True, None, None, int),
        (("--runs",), True, None, None, int),
        (("--seed",), True, None, None, int),
        (("--methods",), False, "none,ssbc", None, None),
        (("--score-model",), False, "abs_cauchy", ("abs_cauchy", "abs_normal", "uniform"),
         None),
        (("--workers",), False, 1, None, int),
        (("--format",), False, "json", TABULAR_FORMATS, None),
    ],
}


class TestParserSurface:
    def test_flag_inventory(self):
        found = {
            name: [(tuple(a.option_strings), a.required, a.default,
                    None if a.choices is None else tuple(a.choices), a.type)
                   for a in p._actions]
            for name, p in subparsers().items()
        }
        assert found == FLAG_INVENTORY

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = [line.strip().split() for line in block.replace("\\\n", " ").splitlines()
                 if line.strip()]
        assert len(lines) >= len(FLAG_INVENTORY)
        for argv in lines:
            assert argv[0] == "ssbc"
            args = build_parser().parse_args(argv[1:])
            assert args.command == argv[1]
        assert {argv[1] for argv in lines} == set(FLAG_INVENTORY)


MC_NAMES = ("MethodReport", "SimConfig", "SimReport", "run_simulation", "theory_overlay")

PUBLIC_API = {
    "AdjustmentReport", "CalibrationContext", "CoverageRegime", "FeasibilityReport",
    "METHOD_DKWM", "METHOD_SSBC", "MethodReport", "MondrianSpec", "Rung", "RungTable",
    "SimConfig", "SimReport", "alpha_star_exact_finite", "alpha_star_infinite",
    "alpha_star_laplace", "beta_survival", "betabinom_pmf", "betabinom_pmf_vector",
    "betabinom_survival", "budget_success_prob", "class_count_predictive", "dkwm_adjust",
    "dkwm_eps", "feasibility_report", "grid_implementable", "order_index", "reg_inc_beta",
    "rung_table",
    "run_simulation", "ssbc_adjust", "ssbc_mondrian", "tail_prob", "theory_overlay",
    "window_threshold",
}


class TestImports:
    """Each check runs in a fresh interpreter; the child asserts and a
    failed assertion shows as its traceback."""

    def check(self, code: str) -> None:
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr

    def test_analytic_commands_never_load_numpy(self):
        # Each subcommand, in its own interpreter, loads exactly the ssbc
        # modules it runs, and neither numpy, dataclasses (with inspect) nor
        # json.
        shared = {"ssbc", "ssbc.cli", "ssbc.serialize", "ssbc.coverage", "ssbc.specfun"}
        cases = [
            (["adjust", "--n", "25", "--alpha", "0.5", "--delta", "0.1", "--regime", "inf"],
             {"ssbc.adjust"}),
            (["adjust", "--n", "25", "--alpha", "0.5", "--delta", "0.1", "--regime", "inf",
              "--method", "dkwm"], {"ssbc.adjust"}),
            (["adjust", "--n", "50", "--alpha", "0.1", "--delta", "0.1", "--regime", "window",
              "--m", "100", "--format", "human"], {"ssbc.adjust"}),
            (["feasible", "--n", "50", "--delta", "0.1", "--m", "100"], {"ssbc.feasibility"}),
            (["rungs", "--n", "50", "--alpha", "0.1", "--regime", "inf", "--format", "csv"],
             {"ssbc.feasibility"}),
            (["rungs", "--n", "20", "--alpha", "0.1", "--regime", "window", "--m", "30"],
             {"ssbc.feasibility"}),
            (["mondrian", "--k", "40", "--kj", "12", "--nj", "30", "--m", "12",
              "--alpha", "0.2", "--delta", "0.15"], {"ssbc.mondrian", "ssbc.adjust"}),
        ]
        for argv, own in cases:
            self.check(f"""
                import contextlib, io, sys
                import ssbc.cli
                with contextlib.redirect_stdout(io.StringIO()):
                    assert ssbc.cli.main({argv!r}) == 0
                ours = {{name for name in sys.modules if name.split(".")[0] == "ssbc"}}
                assert ours == {shared | own!r}, sorted(ours)
                banned = {{"numpy", "dataclasses", "inspect", "json",
                           "concurrent.futures.process"}}
                assert not banned & set(sys.modules), banned & set(sys.modules)
            """)

    def test_import_loads_no_submodule(self):
        self.check("""
            import sys
            import ssbc
            assert [name for name in sys.modules if name.startswith("ssbc")] == ["ssbc"]
            assert "dataclasses" not in sys.modules
        """)

    def test_every_name_is_its_submodule_attribute(self):
        self.check("""
            import importlib
            import ssbc
            assert set(ssbc.__all__) <= set(dir(ssbc))
            for name in ssbc.__all__:
                owner = importlib.import_module(f"ssbc.{ssbc._NAMES[name]}")
                value = getattr(ssbc, name)
                assert value is getattr(owner, name), name
                # the table names the module that defines it, not one that re-exports it
                assert getattr(value, "__module__", owner.__name__) == owner.__name__, name
        """)

    # A simulate run draws with plain array operations and counts on
    # threads, so it never needs numpy's generators or a process pool.
    NOT_FOR_SIMULATE = ("numpy.random", "concurrent.futures.process", "multiprocessing")

    def test_one_worker_simulate_skips_the_process_pool(self):
        self.check(f"""
            import contextlib, io, sys
            import ssbc.cli
            argv = ["simulate", "--n", "20", "--m", "30", "--alpha", "0.1", "--delta", "0.1",
                    "--runs", "50", "--seed", "1", "--workers", "1"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert ssbc.cli.main(argv) == 0
            assert "ssbc.mc" in sys.modules
            assert "concurrent.futures.thread" not in sys.modules
            loaded = set({self.NOT_FOR_SIMULATE!r}) & set(sys.modules)
            assert not loaded, loaded
        """)

    def test_pooled_simulate_loads_no_random_or_process_modules(self):
        # 3,000 runs of 50 draws are 3 blocks, so with two usable CPUs the
        # caller starts one helper: a plain thread, with no executor
        self.check(f"""
            import contextlib, io, os, sys, threading
            import ssbc.cli
            started = []

            class Helper(threading.Thread):
                def start(self):
                    started.append(self)
                    super().start()

            threading.Thread = Helper
            os.sched_getaffinity = lambda pid: {{0, 1}}
            argv = ["simulate", "--n", "20", "--m", "30", "--alpha", "0.1", "--delta", "0.1",
                    "--runs", "3000", "--seed", "1", "--workers", "2",
                    "--score-model", "abs_normal"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert ssbc.cli.main(argv) == 0
            assert len(started) == 1
            assert "concurrent.futures" not in sys.modules
            loaded = set({self.NOT_FOR_SIMULATE!r}) & set(sys.modules)
            assert not loaded, loaded
        """)

    def test_mc_names_resolve_to_the_harness(self):
        self.check(f"""
            import sys
            import ssbc
            assert "ssbc.mc" not in sys.modules
            for name in {MC_NAMES!r}:
                assert getattr(ssbc, name) is getattr(ssbc.mc, name), name
        """)

    def test_public_names_unchanged(self):
        self.check(f"""
            import ssbc
            assert set(ssbc.__all__) == {PUBLIC_API!r}
            for name in ssbc.__all__:
                getattr(ssbc, name)
        """)

    def test_star_import_binds_mc_names(self):
        self.check(f"""
            from ssbc import *
            import ssbc, ssbc.mc
            for name in {MC_NAMES!r}:
                assert globals()[name] is getattr(ssbc.mc, name), name
            for name in ssbc.__all__:
                assert globals()[name] is getattr(ssbc, name), name
        """)

    def test_unknown_name_is_attribute_error(self):
        self.check("""
            import ssbc
            try:
                ssbc.no_such_name
            except AttributeError as exc:
                assert "no_such_name" in str(exc)
            else:
                raise AssertionError("ssbc.no_such_name resolved")
        """)
