"""Problem files and the command line front end."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ctmcontrol import (
    NoConvergence,
    Problem,
    ProblemFileError,
    parse_problem_file,
    serialize_problem_file,
)
from ctmcontrol.cli import main
from ctmcontrol.fixtures import random_model
import ctmcontrol.cli as cli
from conftest import STRETCHED3_EDGES

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


@pytest.mark.parametrize("edges, message", [
    ([(1, 2), (2, 1), (3, 1)], "strongly connected"),
    ([(1, 2), (2, 1)], "node 3 has no edges"),
])
def test_graph_errors_are_input_errors(tmp_path, capsys, edges, message):
    doc = json.loads(symmetric_text())
    doc["nodes"] = 3
    doc["terminal_payoff"] = [0, 0, 0]
    doc["edges"] = [{"from": a, "to": b, "family": "entropic", "scale": 1, "shift": 0}
                    for a, b in edges]
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError, match=message):
        parse_problem_file(src.read_text())
    assert main(["solve", str(src), str(tmp_path / "o.csv")]) == 2
    assert message in capsys.readouterr().err


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


def test_ergodic_survives_overflowing_newton_trial(tmp_path):
    # a full Newton step of the vanishing route overflows exp on this model
    doc = {"nodes": 3, "terminal_payoff": [0, 0, 0], "horizon": 1,
           "edges": [{"from": i + 1, "to": j + 1, "family": family, "scale": scale,
                      "shift": shift} for i, j, family, scale, shift in STRETCHED3_EDGES]}
    src = tmp_path / "stretched3.json"
    src.write_text(json.dumps(doc))
    # the default route runs both methods and checks that they agree
    gammas = {}
    for method in ("both", "vanishing"):
        out = tmp_path / f"{method}.json"
        assert main(["ergodic", str(src), str(out), "--method", method]) == 0, method
        gammas[method] = json.loads(read(out))["gamma"]
    assert abs(gammas["vanishing"] - gammas["both"]) <= 1e-10 * abs(gammas["both"])


def test_ergodic_solves_quadratic_model_with_sliding_corrector(tmp_path):
    # gamma = 0 on this model and its corrector is not unique, so the
    # polish of either route moves xi by more than 1e-3
    model = random_model(np.random.default_rng(28), 3, family="quadratic")
    src = tmp_path / "quadratic3.json"
    src.write_text(serialize_problem_file(Problem(model, np.zeros(3), 1.0)))
    for method in ("both", "vanishing", "direct"):
        out = tmp_path / f"{method}.json"
        assert main(["ergodic", str(src), str(out), "--method", method]) == 0, method
        assert json.loads(read(out))["non_unique_corrector"] is True


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


def test_simulate_seed_range(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert main(["simulate", "problems/asymmetric2.json", str(out),
                 "--paths", "500", "--seed", str(1 << 128)]) == 2
    assert "2^128" in capsys.readouterr().err
    assert not out.exists()
    # seeds in [2^64, 2^128) fill the second key word
    low, high = tmp_path / "low.json", tmp_path / "high.json"
    for path, seed in ((low, 5), (high, (1 << 64) + 5)):
        assert main(["simulate", "problems/asymmetric2.json", str(path),
                     "--paths", "500", "--seed", str(seed)]) == 0
    assert json.loads(read(low))["mean"] != json.loads(read(high))["mean"]


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
    def stalled(*args, **kwargs):
        raise NoConvergence("deviation offset not stabilized")

    monkeypatch.setattr(cli, "deviation_profile", stalled)
    out = tmp_path / "asym.csv"
    args = ["asymptotics", "problems/symmetric2.json", str(out), "--horizons", "2,4"]
    assert main(args) == 3
    assert "error: deviation offset not stabilized" in capsys.readouterr().err

    def rising(*args, **kwargs):
        return 0.0, np.array([1e-3, 2e-3])

    monkeypatch.setattr(cli, "deviation_profile", rising)
    assert main(args) == 6
    assert "deviation rose" in capsys.readouterr().err


def test_asymptotics_rejects_bad_horizons(tmp_path, capsys):
    out = tmp_path / "asym.csv"
    for horizons in ("4,2", "abc", "-1,2", "2,inf", "nan"):
        assert main(["asymptotics", "problems/symmetric2.json", str(out),
                     "--horizons", horizons]) == 2
    capsys.readouterr()


def test_asymptotics_asymmetric_matches_turnpike(tmp_path):
    # gamma = 2 and the gap to the second eigenvalue is 4, so the exact
    # deviation is below 1e-17 from T = 10 on
    out = tmp_path / "asym.csv"
    assert main(["asymptotics", "problems/asymmetric2.json", str(out)]) == 0
    rows = [[float(x) for x in line.split(",")] for line in read(out).splitlines()[1:]]
    assert [row[0] for row in rows] == [10.0, 20.0, 40.0]
    assert all(row[1] <= 1e-10 for row in rows)


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


# one error boundary for every subcommand

SUBCOMMANDS = (
    ("solve",), ("policy",), ("ergodic",),
    ("simulate", "--paths", "200", "--seed", "5"),
    ("asymptotics", "--horizons", "2,4"),
)


def test_unwritable_output_is_input_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "out")
    for command, *extra in SUBCOMMANDS:
        assert main([command, "problems/symmetric2.json", out, *extra]) == 2, command
        err = capsys.readouterr().err
        assert "error:" in err and out in err
    assert main(["solve", "problems/symmetric2.json", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_bad_solver_option_is_input_error(tmp_path, capsys):
    doc = json.loads(read("problems/ring3.json"))
    doc["solver"]["rtol"] = 0
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    for command, *extra in SUBCOMMANDS:
        assert main([command, str(src), str(tmp_path / "out"), *extra]) == 2, command
        assert "rtol" in capsys.readouterr().err


def test_subcommands_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 1.3 MB of resident memory and none of the
    # subcommands needs it; np.unique is one call that imports it
    script = (
        "import sys\n"
        "from ctmcontrol.cli import main\n"
        "seen = []\n"
        f"for command, *extra in {SUBCOMMANDS!r}:\n"
        f"    code = main([command, 'problems/asymmetric2.json', {str(tmp_path / 'out')!r}, *extra])\n"
        "    seen.append((command, code, 'numpy.ma' in sys.modules))\n"
        "print(seen)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.abspath("src")}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert run.stdout.splitlines()[-1] == repr([(c[0], 0, False) for c in SUBCOMMANDS])
