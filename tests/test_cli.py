import hashlib
import json
from pathlib import Path

import pytest

from twinvest.cli import main
from twinvest.config import continuous_to_dict, model_to_dict
from twinvest.fixtures import f1, f2, f3, f4, f5


@pytest.fixture
def model_file(tmp_path):
    def write(model, name="model.json", **extra):
        obj = model_to_dict(model)
        obj.update(extra)
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return write


def sweep_section(count=3):
    return {
        "axes": [
            {"target": "cost", "coefficient": 1, "start": 0.5, "stop": 3.0, "count": count},
            {"target": "pi0", "coefficient": 1, "start": 0.1, "stop": 0.4, "count": count},
        ]
    }


class TestValidate:
    def test_valid_model(self, model_file, capsys):
        assert main(["validate", "--model", model_file(f1())]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_model_names_condition(self, model_file, capsys):
        import dataclasses

        path = model_file(dataclasses.replace(f1(), s_high=0.5))
        assert main(["validate", "--model", path]) == 2
        assert "baseline-contracting-viability" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"pi0": 3}', encoding="utf-8")
        assert main(["validate", "--model", str(path)]) == 1
        assert "pi0" in capsys.readouterr().err

    def test_continuous_section_checked(self, model_file, capsys):
        path = model_file(f1(), continuous=continuous_to_dict(f5()))
        assert main(["validate", "--model", path]) == 0
        out = capsys.readouterr().out
        assert "continuous: valid" in out

    def test_missing_model_flag(self, capsys):
        assert main(["validate"]) == 1


class TestSolve:
    def test_f2_summary(self, model_file, capsys):
        assert main(["solve", "--model", model_file(f2())]) == 0
        out = capsys.readouterr().out
        assert "regime=MaxInvestment" in out
        assert "deterrent_binding=true" in out
        values = dict(line.split("=") for line in out.splitlines() if "=" in line)
        assert float(values["v_opt"]) == pytest.approx(0.903444, abs=1e-4)
        assert float(values["v_star"]) == pytest.approx(0.903444, abs=1e-4)

    def test_f4_zero_investment(self, model_file, capsys):
        assert main(["solve", "--model", model_file(f4())]) == 0
        out = capsys.readouterr().out
        assert "regime=NoInvestment" in out
        assert "v_opt=0" in out

    def test_f3_interior(self, model_file, capsys):
        assert main(["solve", "--model", model_file(f3())]) == 0
        out = capsys.readouterr().out
        assert "regime=Interior" in out
        values = dict(line.split("=") for line in out.splitlines() if "=" in line)
        assert float(values["v_opt"]) == pytest.approx(0.122336, abs=1e-4)

    def test_grid_csv_reparses(self, model_file, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        assert main(["solve", "--model", model_file(f2()), "--grid", "11",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "v,agent_surplus,t_bar,outcome_separability,deterrent_margin"
        assert len(lines) == 12
        from twinvest.contracts import agent_surplus

        first_data = lines[1].split(",")
        assert abs(float(first_data[1]) - agent_surplus(f2(), float(first_data[0]))) < 1e-9

    def test_one_grid_evaluation(self, model_file, tmp_path, monkeypatch, capsys):
        # validate, optimal_investment and the --out table share one grid
        import twinvest.model

        calls = []
        real = twinvest.model.evaluate_grid
        monkeypatch.setattr(
            twinvest.model, "evaluate_grid", lambda *a: calls.append(1) or real(*a)
        )
        out_path = tmp_path / "grid.csv"
        assert main(["solve", "--model", model_file(f2()), "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_invalid_model_exit_code(self, model_file, capsys):
        import dataclasses

        path = model_file(dataclasses.replace(f1(), s_high=0.5))
        assert main(["solve", "--model", path]) == 2


class TestSimulate:
    def test_f2_myopic_two_rows(self, model_file, capsys):
        assert main(["simulate", "--model", model_file(f2()), "--agent", "myopic"]) == 0
        captured = capsys.readouterr()
        assert "displacement_period=2" in captured.err
        rows = captured.out.splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("1,true,low")
        assert rows[2].startswith("2,false,low")

    def test_f1_myopic_no_displacement(self, model_file, capsys):
        assert main(["simulate", "--model", model_file(f1()), "--agent", "myopic"]) == 0
        captured = capsys.readouterr()
        assert "displacement_period=none" in captured.err

    def test_cycles_pattern(self, model_file, capsys):
        assert main(["simulate", "--model", model_file(f2()),
                     "--alpha", "0.99", "--horizon", "12"]) == 0
        captured = capsys.readouterr()
        assert "cycle_length=5" in captured.err
        rows = captured.out.splitlines()[1:]
        employed = ["true" in r.split(",")[1] for r in rows]
        assert employed == [True] + [False] * 5 + [True] + [False] * 5

    def test_alpha_without_horizon_defaults_to_two_periods(self, model_file, capsys):
        assert main(["simulate", "--model", model_file(f2()), "--alpha", "0.5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_horizon_without_alpha_rejected(self, model_file, capsys):
        assert main(["simulate", "--model", model_file(f2()), "--horizon", "5"]) == 1

    def test_bad_alpha_rejected(self, model_file, capsys):
        assert main(["simulate", "--model", model_file(f2()), "--alpha", "1.5"]) == 1

    def test_delta_recorded_in_summary(self, model_file, capsys):
        assert main(["simulate", "--model", model_file(f2()), "--delta", "0.9"]) == 0
        assert "delta=0.9" in capsys.readouterr().err

    def test_seeded_realization_deterministic(self, model_file, tmp_path, capsys):
        path = model_file(f2())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--model", path, "--seed", "11", "--out", str(out1)]) == 0
        assert main(["simulate", "--model", path, "--seed", "11", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert "realized_outcome" in out1.read_text(encoding="utf-8").splitlines()[0]

    def test_trace_csv_reparses_to_expected_payoffs(self, model_file, capsys):
        from twinvest.dynamics import AgentKind, simulate_two_period

        assert main(["simulate", "--model", model_file(f1()), "--agent", "myopic"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        trace = simulate_two_period(f1(), AgentKind.MYOPIC)
        for row, record in zip(rows, trace.records):
            fields = row.split(",")
            assert abs(float(fields[7]) - record.agent_expected_payoff) < 1e-9
            assert abs(float(fields[8]) - record.principal_expected_payoff) < 1e-9


class TestSweep:
    def test_csv_to_stdout(self, model_file, capsys):
        path = model_file(f3(), sweep=sweep_section(2))
        assert main(["sweep", "--model", path]) == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[0].startswith("param1,param2,regime")
        assert len(rows) == 5
        assert "cells=4" in captured.err

    def test_single_cell_grid(self, model_file, capsys):
        path = model_file(f1(), sweep={
            "axes": [
                {"target": "cost", "coefficient": 1, "start": -0.1, "stop": -0.1, "count": 1},
                {"target": "pi0", "coefficient": 1, "start": 0.3, "stop": 0.3, "count": 1},
            ]
        })
        assert main(["sweep", "--model", path]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        assert "MaxInvestment" in rows[1]

    def test_invalid_cells_labeled(self, model_file, capsys):
        path = model_file(f3(), sweep={
            "axes": [
                {"target": "pi1", "coefficient": 0, "start": 0.1, "stop": 0.8, "count": 2},
                {"target": "cost", "coefficient": 0, "start": 0.2, "stop": 0.2, "count": 1},
            ]
        })
        assert main(["sweep", "--model", path]) == 0
        out = capsys.readouterr().out
        assert "Invalid" in out

    @pytest.mark.parametrize(
        "axis, named",
        [
            ({"target": "cost", "coefficient": 5, "start": 0.5, "stop": 3.0, "count": 3}, "cost[5]"),
            ({"target": "cost", "coefficient": 1, "start": -1.0, "stop": 3.0, "count": 3}, "cost[1]"),
        ],
    )
    def test_malformed_axis_is_a_named_error(self, model_file, capsys, axis, named):
        # a coefficient the exponential-decay cost lacks, and a negative decay rate
        other = {"target": "pi0", "coefficient": 1, "start": 0.1, "stop": 0.4, "count": 3}
        path = model_file(f3(), sweep={"axes": [axis, other]})
        assert main(["sweep", "--model", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sweep axis {named}: ")
        assert "Traceback" not in err

    def test_missing_sweep_section(self, model_file, capsys):
        assert main(["sweep", "--model", model_file(f3())]) == 1

    def test_three_axes_rejected(self, model_file, capsys):
        axis = {"target": "cost", "coefficient": 0, "start": 0.1, "stop": 0.2, "count": 2}
        path = model_file(f1(), sweep={"axes": [axis, axis, axis]})
        assert main(["sweep", "--model", path]) == 1


class TestVerify:
    def test_fixtures_only_passes(self, capsys):
        assert main(["verify", "--models", "0"]) == 0
        out = capsys.readouterr().out
        assert "oracle certification: PASS" in out

    def test_corrupted_solver_nonzero_exit(self, capsys, monkeypatch):
        import dataclasses

        import twinvest.oracle as oracle_module
        from twinvest.investment import optimal_investment as real_solver

        def corrupted(model, *args, **kwargs):
            sol = real_solver(model, *args, **kwargs)
            return dataclasses.replace(sol, v_opt=0.0, u_at_opt=0.0)

        monkeypatch.setattr(oracle_module, "optimal_investment", corrupted)
        assert main(["verify", "--models", "0"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_report_json_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--models", "0", "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["seed"] == 3
        assert len(payload["reports"]) == 5


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["solve", "simulate", "sweep", "verify"])
    def test_out_is_a_directory(self, command, model_file, tmp_path, capsys):
        if command == "verify":
            argv = ["verify", "--models", "0"]
        else:
            argv = [command, "--model", model_file(f3(), sweep=sweep_section())]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert "error: cannot write" in capsys.readouterr().err


class TestArgumentErrors:
    def test_unknown_flag_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--frobnicate"])
        assert exc.value.code == 1

    def test_unknown_command_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_unreadable_model_path(self, capsys):
        assert main(["solve", "--model", "/nonexistent/nowhere.json"]) == 1


class TestParserReuse:
    def test_cached_parser_keeps_no_state_between_calls(self, model_file, capsys):
        from twinvest.cli import _build_parser

        assert _build_parser() is _build_parser()
        path = model_file(f2())
        assert main(["simulate", "--model", path, "--alpha", "0.5", "--horizon", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert main(["simulate", "--model", path]) == 0
        captured = capsys.readouterr()
        assert "cycle_length=none" in captured.err
        rows = captured.out.splitlines()
        assert len(rows) == 3 and rows[2].startswith("2,false,low")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", path, "--alpha"])
        assert exc.value.code == 1
        assert main(["simulate", "--model", path, "--agent", "strategic"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedOutputBytes:
    """The shipped configs' outputs, byte for byte, pinned by digest."""

    def test_f3_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        assert main(["sweep", "--model", str(CONFIGS / "f3.json"), "--out", str(out)]) == 0
        assert sha256(out.read_bytes()) == "d115970a3870af58776ef4cf0f2c8ef161c64f471667e8fbe8f814dbe1c821e6"

    def test_f2_solve_summary_and_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["solve", "--model", str(CONFIGS / "f2.json"), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert sha256(stdout.encode("utf-8")) == "69de078607d25c47d6313fe0064bd973ecba70a73e305197060c69ce3a29bf60"
        assert sha256(out.read_bytes()) == "78e56fbcf71b1d61198655c24a0d516f0a4c6b175b0ba5831ca8d0d00dcea9d2"
