"""Problem files: a strict JSON schema and its canonical serialization.

A problem file is a single JSON object with keys nodes, edges,
terminal_payoff, horizon, discount (optional, default 0) and solver
(optional tolerances). Node indices in files are 1-based; the library
uses 0-based indices throughout, and the translation happens here and
only here. Unknown keys anywhere are rejected.

The canonical form is fully explicit: every optional key is written
out, edges are sorted by (from, to), and numbers carry 17 significant
digits so parsing and re-serializing is idempotent and lossless.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .costs import CostFamily, CostModel, EdgeCost
from .errors import IsolatedNode, NotStronglyConnected, ProblemFileError
from .finite_horizon import DEFAULT_ATOL, DEFAULT_RTOL, Problem
from .graph import build_graph
from .stationary import DEFAULT_T_MAX, DISCOUNT_LADDER

_TOP_KEYS = ("nodes", "edges", "terminal_payoff", "horizon", "discount", "solver")
_EDGE_KEYS = ("from", "to", "family", "scale", "shift")
_SOLVER_KEYS = ("rtol", "atol", "t_max", "r_min")
_FAMILY_NAMES = {"entropic": CostFamily.ENTROPIC, "quadratic": CostFamily.QUADRATIC}


@dataclass(frozen=True)
class SolverOptions:
    """Numerical knobs a problem file may override."""

    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    t_max: float = DEFAULT_T_MAX
    r_min: float = DISCOUNT_LADDER[-1]


def format_number(x: float) -> str:
    """Decimal text with 17 significant digits, '.' separator."""
    return format(float(x), ".17g")


def _require_number(value, where: str, positive: bool = False,
                    nonnegative: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(f"{where} must be a number, got {value!r}")
    x = float(value)
    if not np.isfinite(x):
        raise ProblemFileError(f"{where} must be finite, got {value!r}")
    if positive and not x > 0.0:
        raise ProblemFileError(f"{where} must be positive, got {value!r}")
    if nonnegative and x < 0.0:
        raise ProblemFileError(f"{where} must be nonnegative, got {value!r}")
    return x


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(f"{where} must be an integer, got {value!r}")
    return value


def _check_keys(obj: dict, allowed: tuple, where: str) -> None:
    extra = [k for k in obj if k not in allowed]
    if extra:
        raise ProblemFileError(f"unknown key {extra[0]!r} in {where}")


def parse_problem_file(text: str) -> tuple[Problem, SolverOptions]:
    """Parse problem-file text into a validated Problem and options.

    Raises ProblemFileError for malformed JSON (with the line and
    column of the fault), for schema violations, and for semantically
    invalid data (self-loops, duplicate edges, bad index ranges, a node
    without edges, a graph that is not strongly connected) with
    messages in the file's 1-based node numbering.
    """
    def _bad_constant(token):
        raise ProblemFileError(f"non-finite number {token} is not allowed")

    try:
        doc = json.loads(text, parse_constant=_bad_constant)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError("top level must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "the top-level object")
    for key in ("nodes", "edges", "terminal_payoff", "horizon"):
        if key not in doc:
            raise ProblemFileError(f"missing required key {key!r}")

    n = _require_int(doc["nodes"], "nodes")
    if n < 2:
        raise ProblemFileError(f"nodes must be at least 2, got {n}")

    if not isinstance(doc["edges"], list) or not doc["edges"]:
        raise ProblemFileError("edges must be a nonempty list")
    seen: set[tuple[int, int]] = set()
    edge_costs: dict[tuple[int, int], EdgeCost] = {}
    for k, item in enumerate(doc["edges"]):
        where = f"edge {k + 1}"
        if not isinstance(item, dict):
            raise ProblemFileError(f"{where} must be an object")
        _check_keys(item, _EDGE_KEYS, where)
        for key in ("from", "to", "family", "scale"):
            if key not in item:
                raise ProblemFileError(f"{where} is missing key {key!r}")
        src = _require_int(item["from"], f"{where} 'from'")
        dst = _require_int(item["to"], f"{where} 'to'")
        if not (1 <= src <= n and 1 <= dst <= n):
            raise ProblemFileError(
                f"{where} from {src} to {dst}: node indices must be in 1..{n}")
        if src == dst:
            raise ProblemFileError(f"{where} from {src} to {dst} is a self-loop")
        if (src, dst) in seen:
            raise ProblemFileError(f"{where} from {src} to {dst} repeats an earlier edge")
        seen.add((src, dst))
        family = item["family"]
        if family not in _FAMILY_NAMES:
            raise ProblemFileError(
                f"{where} family must be 'entropic' or 'quadratic', got {family!r}")
        scale = _require_number(item["scale"], f"{where} 'scale'", positive=True)
        shift = _require_number(item.get("shift", 0.0), f"{where} 'shift'")
        edge_costs[(src - 1, dst - 1)] = EdgeCost(_FAMILY_NAMES[family], scale, shift)

    payoff = doc["terminal_payoff"]
    if not isinstance(payoff, list) or len(payoff) != n:
        raise ProblemFileError(f"terminal_payoff must be a list of {n} numbers")
    g = np.array([_require_number(v, f"terminal_payoff[{i}]")
                  for i, v in enumerate(payoff)])

    horizon = _require_number(doc["horizon"], "horizon", positive=True)
    discount = _require_number(doc.get("discount", 0.0), "discount", nonnegative=True)

    raw = doc.get("solver", {})
    if not isinstance(raw, dict):
        raise ProblemFileError("solver must be an object")
    _check_keys(raw, _SOLVER_KEYS, "the solver object")
    defaults = SolverOptions()
    options = SolverOptions(
        rtol=_require_number(raw.get("rtol", defaults.rtol), "solver 'rtol'", positive=True),
        atol=_require_number(raw.get("atol", defaults.atol), "solver 'atol'", positive=True),
        t_max=_require_number(raw.get("t_max", defaults.t_max), "solver 't_max'", positive=True),
        r_min=_require_number(raw.get("r_min", defaults.r_min), "solver 'r_min'", positive=True),
    )

    try:
        graph = build_graph(n, list(edge_costs))
    except IsolatedNode as exc:
        lonely = min(set(range(1, n + 1)).difference(*seen))
        raise ProblemFileError(f"node {lonely} has no edges") from exc
    except NotStronglyConnected as exc:
        raise ProblemFileError("the edges do not form a strongly connected graph") from exc
    model = CostModel(graph, edge_costs)
    return Problem(model, g, horizon, discount), options


def serialize_problem_file(problem: Problem, options: SolverOptions | None = None) -> str:
    """Render a Problem (and options) in the canonical file form.

    Fully explicit: discount, every shift, and the whole solver block
    are always written; edges appear sorted by (from, to); numbers use
    17 significant digits. The result ends with a newline and uses LF
    line endings.
    """
    model = problem.costs
    options = SolverOptions() if options is None else options
    lines = ["{"]
    lines.append(f'  "nodes": {model.n_nodes},')
    lines.append('  "edges": [')
    n_edges = model.n_edges
    for e in range(n_edges):
        src, dst = int(model.edge_src[e]) + 1, int(model.edge_dst[e]) + 1
        family = "entropic" if model.entropic[e] else "quadratic"
        comma = "," if e + 1 < n_edges else ""
        lines.append(
            f'    {{"from": {src}, "to": {dst}, "family": "{family}", '
            f'"scale": {format_number(model.scale[e])}, '
            f'"shift": {format_number(model.shift[e])}}}{comma}'
        )
    lines.append("  ],")
    payoff = ", ".join(format_number(v) for v in problem.terminal_payoff)
    lines.append(f'  "terminal_payoff": [{payoff}],')
    lines.append(f'  "horizon": {format_number(problem.horizon)},')
    lines.append(f'  "discount": {format_number(problem.discount)},')
    lines.append('  "solver": {')
    lines.append(f'    "rtol": {format_number(options.rtol)},')
    lines.append(f'    "atol": {format_number(options.atol)},')
    lines.append(f'    "t_max": {format_number(options.t_max)},')
    lines.append(f'    "r_min": {format_number(options.r_min)}')
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
