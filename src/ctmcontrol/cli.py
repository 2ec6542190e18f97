"""Command line front end: file in, CSV/JSON out, meaningful exit codes.

Subcommands mirror the library workflow: solve writes the value table,
policy the optimal intensity table, ergodic the long-run constants,
simulate a Monte Carlo cross-check of the solved values, asymptotics
the decay of the finite-horizon correction. Node indices are 1-based
in every file and column name. Outputs use LF line endings, '.'
decimals with 17 significant digits, and are byte-identical across
runs with identical inputs and seeds.

Exit codes: 0 success, 2 input error (a bad problem file or option, an
output that cannot be written, or a horizon or --paths too large for
any array to hold), 3 solver failure (a failed allocation included),
4 method disagreement, 5 statistical mismatch, 6 asymptotics violation.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import ControlError, ProblemFileError, ZeroVariance
from .finite_horizon import MAX_FLOATS, Problem, extract_policy, solve_finite_horizon
from .problem_io import SolverOptions, format_number, parse_problem_file
from .simulate import estimate_value_gap, simulate
from .stationary import deviation_profile, solve_ergodic_direct, solve_ergodic_vanishing_discount

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


def _checked(route, *args, **kwargs):
    """Call a library route; a file value it rejects with ValueError is an input error."""
    try:
        return route(*args, **kwargs)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc


def _solve(path: str):
    """Load and solve a problem file; a horizon no grid can hold is an input error."""
    problem, opts = _load(path)
    return problem, _checked(solve_finite_horizon, problem, rtol=opts.rtol, atol=opts.atol)


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write the header line, then one line per row, each as it is formatted.

    Rows are formatted one at a time, so callers hand over a generator
    of rows; a row of Python floats (ndarray.tolist) formats faster than
    one of numpy scalars.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(format_number, row)) + "\n" for row in rows)


def cmd_solve(args) -> int:
    problem, traj = _solve(args.problem)
    header = ["t"] + [f"V_{i + 1}" for i in range(problem.costs.n_nodes)]
    _write_csv(args.output, header,
               ([t] + v.tolist() for t, v in zip(traj.grid.tolist(), traj.values)))
    summary = {
        "value_at_0": list(traj.values[0]),
        "max_residual": traj.max_residual,
        "steps": traj.step_count,
    }
    print(_json_text(summary))
    return EXIT_OK


def cmd_policy(args) -> int:
    problem, traj = _solve(args.problem)
    policy = extract_policy(problem, traj)
    model = problem.costs
    header = ["t"] + [
        f"lambda_{int(model.edge_src[e]) + 1}_{int(model.edge_dst[e]) + 1}"
        for e in range(model.n_edges)
    ]
    _write_csv(args.output, header,
               ([t] + lam.tolist() for t, lam in zip(policy.grid.tolist(), policy.intensities)))
    return EXIT_OK


def cmd_ergodic(args) -> int:
    problem, opts = _load(args.problem)
    model, method = problem.costs, args.method
    if method == "vanishing":
        sol = _checked(solve_ergodic_vanishing_discount, model, opts.r_min)
    elif method == "direct":
        sol = _checked(solve_ergodic_direct, model, opts.t_max)
    else:
        sol_v = _checked(solve_ergodic_vanishing_discount, model, opts.r_min)
        sol = _checked(solve_ergodic_direct, model, opts.t_max)
        if abs(sol_v.gamma - sol.gamma) > 1e-5:
            return _fail(EXIT_DISAGREEMENT, f"ergodic constants disagree: vanishing-discount "
                                            f"{sol_v.gamma!r}, direct {sol.gamma!r}")
    payload = {"gamma": sol.gamma, "xi": list(sol.xi)}
    if sol.q_infinity is not None:
        payload["q_infinity"] = sol.q_infinity
    payload["method"] = method
    payload["diagnostics"] = [list(row) for row in sol.diagnostics]
    payload["non_unique_corrector"] = sol.non_unique_corrector
    _write_text(args.output, _json_text(payload) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.paths < 2:
        return _fail(EXIT_INPUT, f"--paths must be at least 2, got {args.paths}")
    if args.paths > MAX_FLOATS:
        return _fail(EXIT_INPUT, f"--paths must be at most 2^53, got {args.paths}")
    if args.seed < 0:
        return _fail(EXIT_INPUT, f"--seed must be nonnegative, got {args.seed}")
    if args.seed >= 1 << 128:
        return _fail(EXIT_INPUT, f"--seed must be below 2^128, got {args.seed}")
    problem, traj = _solve(args.problem)
    policy = extract_policy(problem, traj)
    report = simulate(problem, policy, 0, args.paths, args.seed)
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
    if not horizons or not all(0.0 < t < math.inf for t in horizons):
        return _fail(EXIT_INPUT, "--horizons needs positive finite values")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        return _fail(EXIT_INPUT, "--horizons must be strictly increasing")
    problem, opts = _load(args.problem)
    # the expansion describes the undiscounted flow; the file's discount, rtol and atol are unused
    deviations = _checked(deviation_profile, problem.costs, problem.terminal_payoff, horizons,
                          opts.t_max)[1].tolist()
    _write_csv(args.output, ["T", "deviation"], zip(horizons, deviations))
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
    """Run one subcommand; input errors, an unwritable output included, exit 2."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except (ProblemFileError, OSError) as exc:
        return _fail(EXIT_INPUT, str(exc))
    except ControlError as exc:
        return _fail(EXIT_SOLVER, str(exc))
    except MemoryError as exc:
        return _fail(EXIT_SOLVER, f"out of memory: {exc}")


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
