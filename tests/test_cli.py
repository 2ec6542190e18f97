"""Problem files and the command line front end."""

import json
import math

import numpy as np
import pytest

from ctmcontrol import (
    ProblemFileError,
    parse_problem_file,
    serialize_problem_file,
)
from ctmcontrol.cli import main
import ctmcontrol.cli as cli

PROBLEMS = ("symmetric2.json", "asymmetric2.json", "quadratic2.json", "ring3.json")


def read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def symmetric_text():
    return read("problems/symmetric2.json")


# problem file format

@pytest.mark.parametrize("name", PROBLEMS)
def test_round_trip_is_idempotent(name):
    text = read(f"problems/{name}")
    problem, options = parse_problem_file(text)
    once = serialize_problem_file(problem, options)
    assert once == text
    again, opts2 = parse_problem_file(once)
    assert serialize_problem_file(again, opts2) == once


def test_optional_keys_get_defaults():
    text = json.dumps({
        "nodes": 2,
        "edges": [{"from": 1, "to": 2, "family": "entropic", "scale": 1},
                  {"from": 2, "to": 1, "family": "entropic", "scale": 1}],
        "terminal_payoff": [0, 0],
        "horizon": 1,
    })
    problem, options = parse_problem_file(text)
    assert problem.discount == 0.0
    assert np.all(problem.costs.shift == 0.0)
    assert options.rtol == 1e-8 and options.atol == 1e-10
    assert options.t_max == 200.0 and options.r_min == 2.0 ** -20


def edit_symmetric(**changes):
    doc = json.loads(symmetric_text())
    doc.update(changes)
    return json.dumps(doc)


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ProblemFileError, match="extra"):
        parse_problem_file(edit_symmetric(extra=1))
    doc = json.loads(symmetric_text())
    doc["edges"][0]["weight"] = 2
    with pytest.raises(ProblemFileError, match="weight"):
        parse_problem_file(json.dumps(doc))
    doc = json.loads(symmetric_text())
    doc["solver"]["dt"] = 0.1
    with pytest.raises(ProblemFileError, match="dt"):
        parse_problem_file(json.dumps(doc))


def test_missing_required_keys_rejected():
    for key in ("nodes", "edges", "terminal_payoff", "horizon"):
        doc = json.loads(symmetric_text())
        del doc[key]
        with pytest.raises(ProblemFileError, match=key):
            parse_problem_file(json.dumps(doc))


def test_bad_values_rejected():
    with pytest.raises(ProblemFileError):
        parse_problem_file(edit_symmetric(nodes=1))
    with pytest.raises(ProblemFileError):
        parse_problem_file(edit_symmetric(horizon=0))
    with pytest.raises(ProblemFileError):
        parse_problem_file(edit_symmetric(discount=-1))
    with pytest.raises(ProblemFileError):
        parse_problem_file(edit_symmetric(horizon=True))
    with pytest.raises(ProblemFileError):
        parse_problem_file(edit_symmetric(terminal_payoff=[0]))
    doc = json.loads(symmetric_text())
    doc["edges"][0]["scale"] = 0
    with pytest.raises(ProblemFileError):
        parse_problem_file(json.dumps(doc))


def test_nonfinite_numbers_rejected():
    text = symmetric_text().replace('"horizon": 1', '"horizon": Infinity')
    with pytest.raises(ProblemFileError):
        parse_problem_file(text)


def test_self_loop_reported_in_file_coordinates():
    doc = json.loads(symmetric_text())
    doc["edges"][1] = {"from": 2, "to": 2, "family": "entropic",
                       "scale": 1, "shift": 0}
    with pytest.raises(ProblemFileError, match="edge 2 from 2 to 2"):
        parse_problem_file(json.dumps(doc))


def test_syntax_errors_carry_position():
    with pytest.raises(ProblemFileError, match=r"line \d+, column \d+"):
        parse_problem_file('{"nodes": 2,,}')


# solve and policy commands

def test_solve_writes_table_and_summary(tmp_path, capsys):
    out = tmp_path / "values.csv"
    assert main(["solve", "problems/symmetric2.json", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["value_at_0"][0] - 1.0) < 1e-8
    assert summary["max_residual"] <= 1e-6
    assert summary["steps"] > 0
    lines = read(out).splitlines()
    assert lines[0] == "t,V_1,V_2"
    assert len(lines) == 258
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and abs(first[1] - 1.0) < 1e-8
    last = [float(x) for x in lines[-1].split(",")]
    assert last == [1.0, 0.0, 0.0]


def test_solve_output_is_reproducible(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["solve", "problems/asymmetric2.json", str(out1)])
    first = capsys.readouterr().out
    main(["solve", "problems/asymmetric2.json", str(out2)])
    second = capsys.readouterr().out
    assert first == second
    assert read(out1) == read(out2)


def test_solve_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": "two"}')
    assert main(["solve", str(bad), str(tmp_path / "o.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_missing_file_is_input_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json"), str(tmp_path / "o.csv")]) == 2
    capsys.readouterr()


def test_policy_symmetric_unit_rates(tmp_path):
    out = tmp_path / "policy.csv"
    assert main(["policy", "problems/symmetric2.json", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[0] == "t,lambda_1_2,lambda_2_1"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.max(np.abs(rows[:, 1:] - 1.0)) < 1e-8


def test_policy_quadratic_saturates_at_terminal(tmp_path):
    out = tmp_path / "policy.csv"
    assert main(["policy", "problems/quadratic2.json", str(out)]) == 0
    last = [float(x) for x in read(out).splitlines()[-1].split(",")]
    # slope into node 2 is -5 at the horizon, clamped through the shift
    assert last[1] == 0.0
    assert abs(last[2] - 6.0) < 1e-12


# ergodic command

def test_ergodic_both_methods_asymmetric(tmp_path):
    out = tmp_path / "ergodic.json"
    assert main(["ergodic", "problems/asymmetric2.json", str(out)]) == 0
    doc = json.loads(read(out))
    assert abs(doc["gamma"] - 2.0) < 1e-6
    assert abs(doc["xi"][1] + math.log(2.0)) < 1e-6
    assert doc["xi"][0] == 0.0
    assert doc["method"] == "both"
    assert "q_infinity" in doc
    assert doc["non_unique_corrector"] is False
    assert len(doc["diagnostics"]) > 0


def test_ergodic_vanishing_ring(tmp_path):
    out = tmp_path / "ergodic.json"
    assert main(["ergodic", "problems/ring3.json", str(out), "--method", "vanishing"]) == 0
    doc = json.loads(read(out))
    assert abs(doc["gamma"] - 1.0) < 1e-8
    assert doc["method"] == "vanishing"
    assert "q_infinity" not in doc


def test_ergodic_quadratic_flags_non_uniqueness(tmp_path):
    out = tmp_path / "ergodic.json"
    assert main(["ergodic", "problems/quadratic2.json", str(out), "--method", "direct"]) == 0
    doc = json.loads(read(out))
    assert abs(doc["gamma"] - 0.5) < 1e-6
    assert doc["non_unique_corrector"] is True


def test_ergodic_disagreement_exit_code(tmp_path, capsys, monkeypatch):
    real = cli.solve_ergodic_direct

    def skewed(model, t_max=200.0, **kwargs):
        sol = real(model, t_max, **kwargs)
        import dataclasses
        return dataclasses.replace(sol, gamma=sol.gamma + 1.0)

    monkeypatch.setattr(cli, "solve_ergodic_direct", skewed)
    out = tmp_path / "ergodic.json"
    assert main(["ergodic", "problems/symmetric2.json", str(out)]) == 4
    assert "disagree" in capsys.readouterr().err
    assert not out.exists()


# simulate command

def test_simulate_symmetric_degenerate_exact(tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", "problems/symmetric2.json", str(out),
                 "--paths", "200", "--seed", "7"]) == 0
    doc = json.loads(read(out))
    assert doc["z_score"] == 0.0
    assert abs(doc["mean"] - doc["reference_value"]) < 1e-9


def test_simulate_random_instance_within_three_sigma(tmp_path):
    from ctmcontrol.fixtures import random_problem
    rng = np.random.default_rng(61)
    problem = random_problem(rng, n_nodes=3, horizon=1.0)
    src = tmp_path / "random3.json"
    src.write_text(serialize_problem_file(problem))
    out = tmp_path / "sim.json"
    assert main(["simulate", str(src), str(out),
                 "--paths", "4000", "--seed", "1"]) == 0
    doc = json.loads(read(out))
    assert abs(doc["z_score"]) <= 3.0


def test_simulate_rejects_bad_paths(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert main(["simulate", "problems/symmetric2.json", str(out),
                 "--paths", "0"]) == 2
    capsys.readouterr()


def test_simulate_statistical_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    real = cli.solve_finite_horizon

    def shifted(problem, **kwargs):
        traj = real(problem, **kwargs)
        import dataclasses
        return dataclasses.replace(traj, values=traj.values + 0.25)

    monkeypatch.setattr(cli, "solve_finite_horizon", shifted)
    out = tmp_path / "sim.json"
    assert main(["simulate", "problems/asymmetric2.json", str(out),
                 "--paths", "500", "--seed", "3"]) == 5
    doc = json.loads(read(out))
    assert abs(doc["z_score"]) > 3.0
    capsys.readouterr()


# asymptotics command

def test_asymptotics_symmetric_flat(tmp_path):
    out = tmp_path / "asym.csv"
    assert main(["asymptotics", "problems/symmetric2.json", str(out),
                 "--horizons", "2,4,8"]) == 0
    lines = read(out).splitlines()
    assert lines[0] == "T,deviation"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [2.0, 4.0, 8.0]
    assert all(row[1] < 1e-8 for row in rows)


def test_asymptotics_violation_exit_code(tmp_path, capsys, monkeypatch):
    real = cli.solve_ergodic_direct

    def skewed(model, t_max=200.0, **kwargs):
        sol = real(model, t_max, **kwargs)
        import dataclasses
        return dataclasses.replace(sol, gamma=sol.gamma + 1e-3)

    monkeypatch.setattr(cli, "solve_ergodic_direct", skewed)
    out = tmp_path / "asym.csv"
    code = main(["asymptotics", "problems/symmetric2.json", str(out),
                 "--horizons", "2,4"])
    err = capsys.readouterr().err
    # a wrong growth rate either trips the q stabilization check (3) or
    # makes the deviation grow with the horizon (6)
    assert code in (3, 6)
    assert "error:" in err


def test_asymptotics_rejects_bad_horizons(tmp_path, capsys):
    out = tmp_path / "asym.csv"
    assert main(["asymptotics", "problems/symmetric2.json", str(out),
                 "--horizons", "4,2"]) == 2
    assert main(["asymptotics", "problems/symmetric2.json", str(out),
                 "--horizons", "abc"]) == 2
    assert main(["asymptotics", "problems/symmetric2.json", str(out),
                 "--horizons", "-1,2"]) == 2
    capsys.readouterr()


# argument handling

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# solver limits reported as exit codes

def short_window_file(tmp_path):
    doc = json.loads(read("problems/ring3.json"))
    doc["solver"]["t_max"] = 5
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_short_window_is_input_error_for_long_time_routes(tmp_path, capsys):
    src = short_window_file(tmp_path)
    out = str(tmp_path / "out")
    for method in ("direct", "both"):
        assert main(["ergodic", src, out, "--method", method]) == 2
        assert "t_max" in capsys.readouterr().err
    assert main(["asymptotics", src, out, "--horizons", "2,4"]) == 2
    assert "t_max" in capsys.readouterr().err


def test_short_window_accepted_where_unused(tmp_path, capsys):
    src = short_window_file(tmp_path)
    out = str(tmp_path / "out")
    assert main(["ergodic", src, out, "--method", "vanishing"]) == 0
    assert main(["solve", src, out]) == 0
    assert main(["policy", src, out]) == 0
    assert main(["simulate", src, out, "--paths", "200", "--seed", "5"]) == 0
    capsys.readouterr()


def test_step_budget_exhaustion_is_solver_failure(tmp_path, capsys, monkeypatch):
    import ctmcontrol.ode as ode
    monkeypatch.setattr(ode, "_MAX_STEPS", 5)
    assert main(["solve", "problems/ring3.json", str(tmp_path / "o.csv")]) == 3
    assert "step budget" in capsys.readouterr().err
