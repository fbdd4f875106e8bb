import dataclasses
import json
import math
from pathlib import Path

import pytest
from conftest import OVERSIZED_KEYS

import twinvest.dynamics
from twinvest.cli import main
from twinvest.config import load_model_file, section_to_dict
from twinvest.continuous import validate_continuous
from twinvest.families import ParametricFamily as F
from twinvest.fixtures import f1, f2, f3, f4, f5
from twinvest.model import validate
from twinvest.oracle import brute_force_investment


@pytest.fixture
def model_file(tmp_path):
    def write(model, name="model.json", **extra):
        obj = section_to_dict(model)
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

    @pytest.mark.parametrize("keys", OVERSIZED_KEYS, ids=lambda keys: keys[0])
    def test_integer_too_large_for_a_float_exits_1(self, oversized_file, capsys, keys):
        path, field = oversized_file(*keys)
        assert main(["validate", "--model", path]) == 1
        assert capsys.readouterr().err == f"error: {field}: expected a number a float can hold\n"

    def test_continuous_section_checked(self, model_file, capsys):
        path = model_file(f1(), continuous=section_to_dict(f5()))
        assert main(["validate", "--model", path]) == 0
        out = capsys.readouterr().out
        assert "continuous: valid" in out

    def test_missing_model_flag(self, capsys):
        assert main(["validate"]) == 1

    @pytest.mark.parametrize("name, violation", [
        # f5 with a convex success curve
        ("f5_convex_continuous.json", "p-concave at 0.04: p must be concave"),
        # f5 with p = 1e308 + 1e308*e, which overflows: named without a numpy warning
        ("f5_overflow_continuous.json", "finite-evaluation at 0.7984: p not finite/differentiable here"),
    ])
    def test_invalid_continuous_section_exits_2(self, capsys, name, violation):
        # the model section is still printed, first
        path = Path(__file__).with_name(name)
        assert main(["validate", "--model", str(path)]) == 2
        assert capsys.readouterr().out == (
            f"model: valid (checked on 1001-point grid)\ncontinuous: invalid: {violation}\n"
        )

    @pytest.mark.parametrize("model", [f1(), dataclasses.replace(f1(), s_high=0.5)], ids=["valid", "invalid"])
    @pytest.mark.parametrize(
        "continuous", [f5(), dataclasses.replace(f5(), p=F.power(0.0, 0.5, 1.5))], ids=["valid", "invalid"]
    )
    def test_both_sections_printed_and_either_fails(self, model_file, capsys, model, continuous):
        path = model_file(model, continuous=section_to_dict(continuous))
        reports = validate(model, 101), validate_continuous(continuous, 101)
        assert main(["validate", "--model", path, "--grid", "101"]) == (0 if all(r.passed for r in reports) else 2)
        assert capsys.readouterr().out == f"model: {reports[0].describe()}\ncontinuous: {reports[1].describe()}\n"


class TestOverflowingModel:
    @pytest.mark.parametrize("command", ["validate", "solve", "simulate"])
    def test_named_without_a_warning(self, model_file, capsys, command):
        # pi0 = 1e308 + 1e308*v overflows inside the grid: validate's report,
        # and no numpy warning (an error under this suite) before it
        path = model_file(dataclasses.replace(f3(), pi0=F.affine(1e308, 1e308)))
        assert main([command, "--model", path]) == 2
        assert "finite-evaluation" in capsys.readouterr().out


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

    def test_one_grid_evaluation(self, model_file, tmp_path, count_calls, capsys):
        # validate, optimal_investment and the --out table share one grid
        import twinvest.model

        calls = count_calls(twinvest.model.evaluate_grid)
        out_path = tmp_path / "grid.csv"
        assert main(["solve", "--model", model_file(f2()), "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_near_tie_run_end_solves(self, model_file, capsys):
        # the retention margin at the grid point 0.6 is -1e-13
        assert main(["solve", "--model", model_file(dataclasses.replace(f2(), s_high=0.736842105262958))]) == 0
        printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert float(printed["v_opt"]) <= float(printed["v_star"])

    def test_invalid_model_exit_code(self, model_file, capsys):
        path = model_file(dataclasses.replace(f1(), s_high=0.5))
        assert main(["solve", "--model", path]) == 2

    def test_near_tie_separability_solves(self, tmp_path, capsys):
        # Q - 1 is 3.3e-12 here, so cost/(Q-1) loses most of its digits;
        # the rent pi0*cost/(pi1-pi0) keeps them, and the model solves
        path = Path(__file__).with_name("near_tie_separability.json")
        model = load_model_file(path).model
        assert main(["solve", "--model", str(path), "--out", str(tmp_path / "grid.csv")]) == 0
        printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        ov, ou = brute_force_investment(model, 1e-4)
        # certify_investment's rule: v within 1e-3, the rent at most 1e-9 below the grid's
        assert abs(float(printed["v_opt"]) - ov) <= 1e-3
        assert ou - float(printed["u_opt"]) <= 1e-9


class TestSimulate:
    @pytest.mark.parametrize("agent", ["myopic", "strategic"])
    def test_invalid_model_reported(self, model_file, capsys, agent):
        model = dataclasses.replace(f1(), s_high=0.2)
        assert main(["simulate", "--model", model_file(model), "--agent", agent]) == 2
        captured = capsys.readouterr()
        assert captured.out == f"model: {validate(model).describe()}\n"
        assert captured.err == ""

    @pytest.mark.parametrize("mode", [["--agent", "myopic"], ["--alpha", "0.9"]])
    def test_invalid_model_validated_once(self, model_file, capsys, monkeypatch, mode):
        calls = []
        real = twinvest.dynamics.validate
        monkeypatch.setattr(twinvest.dynamics, "validate", lambda *a: calls.append(a) or real(*a))
        model = dataclasses.replace(f1(), s_high=0.2)
        assert main(["simulate", "--model", model_file(model), *mode]) == 2
        assert len(calls) == 1

    def test_bad_flag_reported_before_invalid_model(self, model_file, capsys):
        model = dataclasses.replace(f1(), s_high=0.2)
        assert main(["simulate", "--model", model_file(model), "--delta", "2"]) == 1
        assert capsys.readouterr().err == "error: --delta must lie in (0, 1), got 2.0\n"

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

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_non_positive_horizon_rejected(self, model_file, capsys, horizon):
        path = model_file(f2())
        assert main(["simulate", "--model", path, "--alpha", "0.5", "--horizon", horizon]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --horizon must be a positive finite number, got {horizon}\n"
        assert captured.out == ""

    def test_bad_alpha_rejected(self, model_file, capsys):
        assert main(["simulate", "--model", model_file(f2()), "--alpha", "1.5"]) == 1

    def test_strategic_agent_with_alpha_rejected(self, model_file, capsys):
        argv = ["simulate", "--model", model_file(f2()), "--alpha", "0.5", "--horizon", "3"]
        assert main([*argv, "--agent", "strategic"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --alpha (cycles mode) takes a myopic agent: a strategic one is never displaced\n"
        )
        assert captured.out == ""
        assert main([*argv, "--agent", "myopic"]) == 0

    def test_negative_seed_is_input_error(self, model_file, capsys):
        assert main(["simulate", "--model", model_file(f2()), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --seed must be >= 0, got -1\n"

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

    def test_grid_override_spans_a_one_value_axis(self, model_file, capsys):
        section = sweep_section()
        section["axes"][0]["count"] = 1
        assert main(["sweep", "--model", model_file(f3(), sweep=section), "--grid", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows[::3]] == [0.5, 1.75, 3.0]

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

    @pytest.mark.parametrize("grid", ["1", "3"])
    def test_overflowing_axis_range_is_named(self, model_file, capsys, grid):
        # the width 2e308 overflows: the error names the range, not the NaN
        # values it would spread, and numpy warns of nothing on the way
        section = sweep_section()
        section["axes"][0].update(start=-1e308, stop=1e308)
        assert main(["sweep", "--model", model_file(f3(), sweep=section), "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert err == "error: sweep axis cost[1]: the range from -1e+308 to 1e+308 is wider than the largest float\n"

    @pytest.mark.parametrize("end", ["start", "stop"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_axis_end_is_named(self, model_file, capsys, end, value):
        # json reads NaN and Infinity; the error names the end, not the range
        section = sweep_section()
        section["axes"][0][end] = value
        assert main(["sweep", "--model", model_file(f3(), sweep=section)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: sweep axis cost[1]: {end} must be finite, got {value!r}\n"

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

    def test_negative_seed_is_input_error(self, capsys):
        assert main(["verify", "--models", "0", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("step", ["nan", "inf", "-inf"])
    def test_non_finite_step_rejected(self, step, capsys):
        assert main(["verify", "--models", "0", f"--step={step}"]) == 1
        assert f"error: --step must be a positive finite number, got {step}" in capsys.readouterr().err

    def test_report_json_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--models", "0", "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["seed"] == 3
        assert len(payload["reports"]) == 5

    def test_disagreement_exits_3_and_is_written(self, tmp_path, capsys, monkeypatch):
        import twinvest.oracle as oracle_module
        from twinvest.contracts import Contract

        real = oracle_module.optimal_contract
        monkeypatch.setattr(
            oracle_module, "optimal_contract",
            lambda model, v: Contract(real(model, v).t_high + 0.5, 0.0) if v == 0.0 else real(model, v),
        )
        out = tmp_path / "report.json"
        assert main(["verify", "--models", "0", "--out", str(out)]) == 3
        printed = capsys.readouterr().out
        assert "optimal_contract: FAIL checks=12 " in printed
        assert printed.endswith("oracle certification: FAIL (5 reports)\n")
        reports = json.loads(out.read_text(encoding="utf-8"))["reports"]
        assert [r["target_op"] for r in reports if r["disagreements"]] == ["optimal_contract"]
        contract = reports[0]
        assert (contract["checks"], contract["max_value_error"], contract["value_tolerance"]) == (12, "0.5", "0.001000001")
        assert [d["inputs"] for d in contract["disagreements"]] == ["f1 v=0", "f2 v=0", "f3 v=0", "f4 v=0"]
        assert [d["oracle"] for d in contract["disagreements"]] == ["(0.4, 0)", "(0.4, 0)", "(0.334, 0)", "(0.4, 0)"]
        assert [d["analytic"] for d in contract["disagreements"]] == ["(0.9, 0)", "(0.9, 0)", "(0.833333, 0)", "(0.9, 0)"]


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

    @pytest.mark.parametrize("command, extra, message", [
        ("solve", [], "model file has no discrete model section"),
        ("solve", ["--grid", "1"], "--grid must be at least 2, got 1"),
        ("sweep", ["--grid", "0"], "--grid must be at least 1, got 0"),
        ("verify", ["--models", "-1"], "--models must be >= 0, got -1"),
    ])
    def test_input_error_named_on_stderr(self, command, extra, message, tmp_path, model_file, capsys):
        if command == "verify":
            argv = ["verify"]
        elif extra:
            argv = [command, "--model", model_file(f3(), sweep=sweep_section())]
        else:
            path = tmp_path / "continuous_only.json"
            path.write_text(json.dumps({"continuous": section_to_dict(f5())}), encoding="utf-8")
            argv = [command, "--model", str(path)]
        assert main(argv + extra) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


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

