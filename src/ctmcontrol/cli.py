"""Command line front end: file in, CSV/JSON out, meaningful exit codes.

Subcommands mirror the library workflow: solve writes the value table,
policy the optimal intensity table, ergodic the long-run constants,
simulate a Monte Carlo cross-check of the solved values, asymptotics
the decay of the finite-horizon correction. Node indices are 1-based
in every file and column name. Outputs use LF line endings, '.'
decimals with 17 significant digits, and are byte-identical across
runs with identical inputs and seeds.

Exit codes: 0 success, 2 input error, 3 solver failure, 4 method
disagreement, 5 statistical mismatch, 6 asymptotics violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .errors import ControlError, ProblemFileError, ZeroVariance
from .finite_horizon import Problem, extract_policy, solve_finite_horizon
from .problem_io import SolverOptions, format_number, parse_problem_file
from .simulate import estimate_value_gap, simulate
from .stationary import (
    DISCOUNT_LADDER,
    MIN_T_MAX,
    limit_deviation_offset,
    solve_ergodic_direct,
    solve_ergodic_vanishing_discount,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_DISAGREEMENT = 4
EXIT_STATISTICAL = 5
EXIT_ASYMPTOTICS = 6


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _json_text(value, indent: int = 0) -> str:
    """Canonical JSON: insertion-ordered keys, 17-digit numbers, LF."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {_json_text(v, indent + 1)}' for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in value)
        if flat:
            return "[" + ", ".join(_json_text(v) for v in value) + "]"
        inner = ",\n".join(f"{pad}  {_json_text(v, indent + 1)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_number(value)


def _load(path: str) -> tuple[Problem, SolverOptions]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    return parse_problem_file(text)


def _require_window(opts: SolverOptions) -> None:
    """The long-time integrations need t_max of at least MIN_T_MAX."""
    if opts.t_max < MIN_T_MAX:
        raise ProblemFileError(
            f"solver t_max {opts.t_max!r} is below the long-time minimum {MIN_T_MAX!r}")


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(x) for x in row))
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    try:
        problem, opts = _load(args.problem)
    except ProblemFileError as exc:
        return _fail(EXIT_INPUT, str(exc))
    try:
        traj = solve_finite_horizon(problem, rtol=opts.rtol, atol=opts.atol)
    except ControlError as exc:
        return _fail(EXIT_SOLVER, str(exc))
    header = ["t"] + [f"V_{i + 1}" for i in range(problem.costs.n_nodes)]
    rows = np.column_stack([traj.grid, traj.values])
    _write_text(args.output, _csv(header, rows))
    summary = {
        "value_at_0": list(traj.values[0]),
        "max_residual": traj.max_residual,
        "steps": traj.step_count,
    }
    print(_json_text(summary))
    return EXIT_OK


def cmd_policy(args) -> int:
    try:
        problem, opts = _load(args.problem)
    except ProblemFileError as exc:
        return _fail(EXIT_INPUT, str(exc))
    try:
        traj = solve_finite_horizon(problem, rtol=opts.rtol, atol=opts.atol)
        policy = extract_policy(problem, traj)
    except ControlError as exc:
        return _fail(EXIT_SOLVER, str(exc))
    model = problem.costs
    header = ["t"] + [
        f"lambda_{int(model.edge_src[e]) + 1}_{int(model.edge_dst[e]) + 1}"
        for e in range(model.n_edges)
    ]
    rows = np.column_stack([policy.grid, policy.intensities])
    _write_text(args.output, _csv(header, rows))
    return EXIT_OK


def _ergodic_payload(model, opts: SolverOptions, method: str):
    """Run the requested ergodic route(s); returns (payload, exit_code)."""
    ladder = tuple(r for r in DISCOUNT_LADDER if r >= opts.r_min * (1.0 - 1e-12))
    if method in ("vanishing", "both") and len(ladder) < 2:
        raise ProblemFileError(
            f"solver r_min {opts.r_min} leaves fewer than two discounts in the sweep")
    if method in ("direct", "both"):
        _require_window(opts)
    if method == "vanishing":
        sol = solve_ergodic_vanishing_discount(model, ladder)
    elif method == "direct":
        sol = solve_ergodic_direct(model, opts.t_max)
    else:
        sol_v = solve_ergodic_vanishing_discount(model, ladder)
        sol = solve_ergodic_direct(model, opts.t_max)
        if abs(sol_v.gamma - sol.gamma) > 1e-5:
            print(
                f"error: ergodic constants disagree: vanishing-discount "
                f"{sol_v.gamma!r}, direct {sol.gamma!r}",
                file=sys.stderr,
            )
            return None, EXIT_DISAGREEMENT
    payload = {"gamma": sol.gamma, "xi": list(sol.xi)}
    if sol.q_infinity is not None:
        payload["q_infinity"] = sol.q_infinity
    payload["method"] = method
    payload["diagnostics"] = [list(row) for row in sol.diagnostics]
    payload["non_unique_corrector"] = sol.non_unique_corrector
    return payload, EXIT_OK


def cmd_ergodic(args) -> int:
    try:
        problem, opts = _load(args.problem)
    except ProblemFileError as exc:
        return _fail(EXIT_INPUT, str(exc))
    try:
        payload, code = _ergodic_payload(problem.costs, opts, args.method)
    except ProblemFileError as exc:
        return _fail(EXIT_INPUT, str(exc))
    except ControlError as exc:
        return _fail(EXIT_SOLVER, str(exc))
    if payload is None:
        return code
    _write_text(args.output, _json_text(payload) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.paths < 1:
        return _fail(EXIT_INPUT, f"--paths must be at least 1, got {args.paths}")
    if args.seed < 0:
        return _fail(EXIT_INPUT, f"--seed must be nonnegative, got {args.seed}")
    try:
        problem, opts = _load(args.problem)
    except ProblemFileError as exc:
        return _fail(EXIT_INPUT, str(exc))
    try:
        traj = solve_finite_horizon(problem, rtol=opts.rtol, atol=opts.atol)
        policy = extract_policy(problem, traj)
        report = simulate(problem, policy, 0, args.paths, args.seed)
    except ControlError as exc:
        return _fail(EXIT_SOLVER, str(exc))
    reference = float(traj.values[0, 0])
    try:
        z = estimate_value_gap(report, reference)
    except ZeroVariance as exc:
        print(f"error: {exc}", file=sys.stderr)
        z = None
    payload = {
        "mean": report.mean_objective,
        "std_error": report.std_error,
        "reference_value": reference,
    }
    if z is not None:
        payload["z_score"] = z
    _write_text(args.output, _json_text(payload) + "\n")
    if z is None or abs(z) > 3.0:
        return EXIT_STATISTICAL
    return EXIT_OK


def cmd_asymptotics(args) -> int:
    try:
        horizons = [float(tok) for tok in args.horizons.split(",") if tok.strip()]
    except ValueError:
        return _fail(EXIT_INPUT, f"cannot parse --horizons {args.horizons!r}")
    if not horizons or any(t <= 0 for t in horizons):
        return _fail(EXIT_INPUT, "--horizons needs positive values")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        return _fail(EXIT_INPUT, "--horizons must be strictly increasing")
    try:
        problem, opts = _load(args.problem)
        _require_window(opts)
    except ProblemFileError as exc:
        return _fail(EXIT_INPUT, str(exc))
    # the expansion describes the undiscounted flow; discount is forced to 0
    problem = dataclasses.replace(problem, discount=0.0)
    model = problem.costs
    rtol, atol = min(opts.rtol, 1e-10), min(opts.atol, 1e-12)
    try:
        sol = solve_ergodic_direct(model, opts.t_max)
        q_inf = limit_deviation_offset(model, sol.gamma, sol.xi,
                                       problem.terminal_payoff, opts.t_max)
        deviations = []
        for horizon in horizons:
            pT = dataclasses.replace(problem, horizon=horizon)
            traj = solve_finite_horizon(pT, rtol=rtol, atol=atol)
            predicted = sol.gamma * horizon + sol.xi + q_inf
            deviations.append(float(np.max(np.abs(traj.values[0] - predicted))))
    except ControlError as exc:
        return _fail(EXIT_SOLVER, str(exc))
    _write_text(args.output, _csv(["T", "deviation"], zip(horizons, deviations)))
    for prev, cur in zip(deviations, deviations[1:]):
        if cur > prev + 1e-8:
            return _fail(
                EXIT_ASYMPTOTICS,
                f"deviation rose from {prev!r} to {cur!r} at a larger horizon")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmcontrol",
        description="Optimal control of continuous-time chains on finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the finite-horizon values, write a CSV table")
    p.add_argument("problem", help="problem file (JSON)")
    p.add_argument("output", help="CSV output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("policy", help="write the optimal intensity table as CSV")
    p.add_argument("problem")
    p.add_argument("output")
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("ergodic", help="compute the growth rate and corrector, write JSON")
    p.add_argument("problem")
    p.add_argument("output")
    p.add_argument("--method", choices=("both", "vanishing", "direct"), default="both")
    p.set_defaults(func=cmd_ergodic)

    p = sub.add_parser("simulate", help="Monte Carlo check of the solved values, write JSON")
    p.add_argument("problem")
    p.add_argument("output")
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("asymptotics",
                       help="tabulate the long-horizon deviation, write CSV")
    p.add_argument("problem")
    p.add_argument("output")
    p.add_argument("--horizons", default="10,20,40",
                   help="comma-separated strictly increasing horizons")
    p.set_defaults(func=cmd_asymptotics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_INPUT
        return EXIT_INPUT if code not in (0,) else EXIT_OK
    return args.func(args)


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
