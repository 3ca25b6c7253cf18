import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ssbc.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from ssbc.serialize import canonical_json


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter on this checkout's sources.  The
    test process itself has numpy loaded, so import checks need one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run_cli(
            capsys, "adjust", "--n", "50", "--alpha", "0.1", "--delta", "0.1",
            "--regime", "inf", "--m", "10",
        )
        assert code == EXIT_USAGE

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
        # The continued fraction does not converge at these shapes; the CLI
        # must still end with a message and exit 1.
        proc = run_fresh(
            "import sys\n"
            "from ssbc.cli import main\n"
            "sys.exit(main(['adjust', '--n', '73548323', '--alpha', '0.215781402',"
            " '--delta', '0.131813346', '--regime', 'inf']))\n"
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

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

    def test_window_fields(self, capsys):
        code, out, _ = run_cli(capsys, "feasible", "--n", "50", "--delta", "0.1", "--m", "100")
        data = json.loads(out)
        assert data["alpha_star_m"] == pytest.approx(0.05, abs=1e-10)
        assert data["alpha_star_m_laplace"] == pytest.approx(0.05327830114, rel=1e-9)


class TestRungsCommand:
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

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "rungs", "--n", "10", "--alpha", "0.3", "--regime", "window", "--m", "25",
        )
        data = json.loads(out)
        assert data["m"] == 25
        assert len(data["rungs"]) == 10


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


MC_NAMES = ("MethodReport", "SimConfig", "SimReport", "run_simulation", "theory_overlay")

PUBLIC_API = {
    "AdjustmentReport", "BetaBinomialParams", "BetaParams", "CalibrationContext",
    "CoverageLaw", "CoverageRegime", "DegenerateRungError", "FeasibilityReport", "GridError",
    "METHOD_DKWM", "METHOD_SSBC", "MethodReport", "MondrianSpec", "Rung", "RungTable",
    "SimConfig", "SimReport", "alpha_star_exact_finite", "alpha_star_infinite",
    "alpha_star_laplace", "beta_survival", "betabinom_pmf", "betabinom_pmf_vector",
    "betabinom_survival", "budget_success_prob", "class_count_predictive", "coverage_law",
    "dkwm_adjust", "dkwm_eps", "error_count_conditional", "feasibility_report",
    "grid_implementable", "log_beta", "miscoverage_count", "order_index", "reg_inc_beta",
    "rung_table", "run_simulation", "ssbc_adjust", "ssbc_mondrian", "tail_prob",
    "theory_overlay",
}


class TestImports:
    """Each check runs in a fresh interpreter; the child asserts and a
    failed assertion shows as its traceback."""

    def check(self, code: str) -> None:
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr

    def test_analytic_commands_never_load_numpy(self):
        self.check("""
            import contextlib, io, sys
            import ssbc, ssbc.cli
            argvs = [
                ["adjust", "--n", "25", "--alpha", "0.5", "--delta", "0.1", "--regime", "inf"],
                ["feasible", "--n", "50", "--delta", "0.1", "--m", "100"],
                ["rungs", "--n", "50", "--alpha", "0.1", "--regime", "inf", "--format", "csv"],
                ["mondrian", "--k", "40", "--kj", "12", "--nj", "30", "--m", "12",
                 "--alpha", "0.2", "--delta", "0.15"],
            ]
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert ssbc.cli.main(argv) == 0, argv
            loaded = {"numpy", "ssbc.mc", "concurrent.futures.process"} & set(sys.modules)
            assert not loaded, loaded
        """)

    def test_one_worker_simulate_skips_the_process_pool(self):
        self.check("""
            import contextlib, io, sys
            import ssbc.cli
            argv = ["simulate", "--n", "20", "--m", "30", "--alpha", "0.1", "--delta", "0.1",
                    "--runs", "50", "--seed", "1", "--workers", "1"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert ssbc.cli.main(argv) == 0
            assert "ssbc.mc" in sys.modules
            assert "concurrent.futures.process" not in sys.modules
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
            import ssbc.mc
            for name in {MC_NAMES!r}:
                assert globals()[name] is getattr(ssbc.mc, name), name
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
