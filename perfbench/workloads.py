"""The benchmark's workloads: inputs drawn from a seed, one timed pass, checks.

Every workload is a closed loop with one caller: a pass issues its
calls one after another and the runner starts the next pass when the
previous one returns. Library calls go through module attributes
(``finite_horizon.solve_finite_horizon``, not a name bound at import),
so a traced run sees them through the rebound wrappers.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from ctmcontrol import cli, costs, finite_horizon, graph, problem_io, stationary

# the package re-exports the function simulate under the module's name
sampling = importlib.import_module("ctmcontrol.simulate")

# montecarlo runs two z-tests per model, 64 per pass: at 4.5 standard
# errors a correct solver fails fewer than 1 run in 2000
Z_LIMIT = 4.5


class Checks:
    """Counts attempted operations and keeps a message per failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def random_instance(rng: np.random.Generator, n: int):
    """Ring 0 -> 1 -> ... -> 0 plus each other ordered pair with probability 2/n.

    Families are a fair coin per edge, scales U(0.5, 2), shifts
    U(-0.5, 0.5), terminal payoffs U(-1, 1): the ranges of the
    package's random test fixtures, drawn here so that the inputs
    depend only on the seed and on this file.
    """
    chord = rng.random((n, n)) < 2.0 / n
    ring = np.arange(n)
    chord[ring, ring] = False
    chord[ring, (ring + 1) % n] = True
    src, dst = np.nonzero(chord)
    count = src.shape[0]
    entropic = rng.random(count) < 0.5
    scale = rng.uniform(0.5, 2.0, count)
    shift = rng.uniform(-0.5, 0.5, count)
    payoff = rng.uniform(-1.0, 1.0, n)
    edges = list(zip(src.tolist(), dst.tolist()))
    edge_costs = {
        e: costs.EdgeCost(costs.CostFamily.ENTROPIC if ent else costs.CostFamily.QUADRATIC,
                          float(a), float(b))
        for e, ent, a, b in zip(edges, entropic, scale, shift)
    }
    return edges, edge_costs, payoff


def build_model(n: int, edges, edge_costs):
    return costs.CostModel(graph.build_graph(n, edges), edge_costs)


def cole_hopf_value(doc: dict) -> np.ndarray:
    """V(0) = log(exp(T K) e^g) for an all-entropic undiscounted problem file.

    K_ij = a_ij e^{b_ij} on each edge and zero on the diagonal. K is
    nonnegative, so every Taylor term of the scaled exponential is too
    and the sum loses nothing to cancellation.
    """
    n = doc["nodes"]
    k = np.zeros((n, n))
    for e in doc["edges"]:
        k[e["from"] - 1, e["to"] - 1] = e["scale"] * math.exp(e.get("shift", 0.0))
    a = doc["horizon"] * k
    squarings = max(0, math.ceil(math.log2(max(float(a.sum(axis=1).max()), 1e-300) / 0.25)))
    a = a / 2.0 ** squarings
    expm = np.eye(n)
    term = np.eye(n)
    for j in range(1, 30):
        term = term @ a / j
        expm = expm + term
    for _ in range(squarings):
        expm = expm @ expm
    return np.log(expm @ np.exp(np.asarray(doc["terminal_payoff"], dtype=float)))


class CliFiles:
    """Every subcommand on each bundled problem file, through ``cli.main``."""

    name = "cli-files"
    FILES = ("asymmetric2.json", "quadratic2.json", "ring3.json", "symmetric2.json")
    PARSE_ROUNDS = 100

    def __init__(self, root: Path, seed: int, small: bool, out_dir: Path):
        self.paths = [root / "problems" / name for name in self.FILES]
        self.texts = [p.read_text(encoding="utf-8") for p in self.paths]
        self.out_dir = out_dir / f"cli-{seed}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # the exact oracle applies where every edge is entropic and r = 0
        self.exact = {}
        for path, text in zip(self.paths, self.texts):
            doc = json.loads(text)
            if doc.get("discount", 0) == 0 and all(e["family"] == "entropic"
                                                    for e in doc["edges"]):
                rtol = doc.get("solver", {}).get("rtol", problem_io.SolverOptions.rtol)
                self.exact[path.name] = (cole_hopf_value(doc), rtol)
        paths, horizons = ("2000", "10,20") if small else ("10000", "10,20,40")
        self.commands = (
            ("solve", ".csv", ()),
            ("policy", ".csv", ()),
            ("ergodic", ".json", ("--method", "both")),
            ("simulate", ".json", ("--paths", paths, "--seed", str(seed))),
            ("asymptotics", ".csv", ("--horizons", horizons)),
        )
        self.z_scores: dict[str, float] = {}
        self.cole_hopf_error: dict[str, float] = {}

    def run_pass(self, checks: Checks) -> dict:
        rounds = []
        for _ in range(self.PARSE_ROUNDS):
            t0 = perf_counter()
            for text in self.texts:
                problem_io.parse_problem_file(text)
            rounds.append(perf_counter() - t0)
        phases = {f"{command}_s": 0.0 for command, _, _ in self.commands}
        residuals = []
        for path in self.paths:
            for command, suffix, extra in self.commands:
                out = self.out_dir / f"{path.stem}.{command}{suffix}"
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    t0 = perf_counter()
                    code = cli.main([command, str(path), str(out), *extra])
                    phases[f"{command}_s"] += perf_counter() - t0
                checks.expect(code == 0, f"{command} {path.name}: exit {code}: "
                                         f"{stderr.getvalue().strip()}")
                if code != 0:
                    continue
                if command == "solve":
                    residuals.append(self._check_solve(path, out, stdout.getvalue(), checks))
                elif command == "simulate":
                    payload = json.loads(out.read_text(encoding="utf-8"))
                    self.z_scores[path.name] = payload["z_score"]
        phases["setup_s"] = float(np.median(rounds))
        if residuals:
            phases["max_residual"] = max(residuals)
        return phases

    def _check_solve(self, path: Path, out: Path, summary: str, checks: Checks) -> float:
        resid = float(json.loads(summary)["max_residual"])
        checks.expect(math.isfinite(resid), f"solve {path.name}: residual {resid}")
        if path.name in self.exact:
            exact, rtol = self.exact[path.name]
            with open(out, encoding="utf-8") as handle:
                handle.readline()
                v0 = np.array([float(x) for x in handle.readline().split(",")[1:]])
            err = float(np.max(np.abs(v0 - exact) / (1.0 + np.abs(exact))))
            self.cole_hopf_error[path.name] = err
            checks.expect(err <= rtol, f"solve {path.name}: V(0) off the Cole-Hopf "
                                       f"value by {err:.3e} (relative), above rtol {rtol}")
        return resid

    def data(self) -> dict:
        return {"z_scores": self.z_scores, "cole_hopf_error": self.cole_hopf_error}


class LargeGraph:
    """One n = 1000 mixed ring-with-chords model: build, solve, policy, Newton."""

    name = "large-graph"
    HORIZON = 1.0
    DISCOUNT = 0.5

    def __init__(self, root: Path, seed: int, small: bool, out_dir: Path):
        self.n = 100 if small else 1000
        self.edges, self.edge_costs, self.payoff = random_instance(
            np.random.default_rng(seed), self.n)
        self.n_edges = len(self.edges)

    def run_pass(self, checks: Checks) -> dict:
        t0 = perf_counter()
        model = build_model(self.n, self.edges, self.edge_costs)
        t1 = perf_counter()
        problem = finite_horizon.Problem(model, self.payoff, self.HORIZON)
        traj = finite_horizon.solve_finite_horizon(problem)
        t2 = perf_counter()
        finite_horizon.extract_policy(problem, traj)
        t3 = perf_counter()
        sv = stationary.solve_stationary(model, self.DISCOUNT)
        t4 = perf_counter()
        checks.expect(math.isfinite(traj.max_residual),
                      f"solve: residual {traj.max_residual}")
        check_stationary(model, sv, self.DISCOUNT, checks)
        return {"setup_s": t1 - t0, "solve_s": t2 - t1, "stationary_s": t4 - t3,
                "max_residual": traj.max_residual}

    def data(self) -> dict:
        return {"n_nodes": self.n, "n_edges": self.n_edges}


def check_stationary(model, sv, r: float, checks: Checks):
    """solve_stationary against the exact value of its own optimal policy."""
    lam = model.intensity_vector(sv.u)
    policy = finite_horizon.Policy(finite_horizon.PolicyMode.STATIONARY, lam)
    evaluated = sampling.evaluate_stationary_policy(model, policy, r)
    gap = float(np.max(np.abs(evaluated - sv.u)))
    checks.expect(gap <= 1e-9 * (1.0 + float(np.max(np.abs(sv.u)))),
                  f"stationary r={r}: policy evaluation differs by {gap:.3e}")
    return policy, evaluated


class MonteCarlo:
    """Exact path sampling on small mixed models, both policy modes.

    Paths per second depend on how often the drawn model makes the
    chain jump, so one model per seed would move the figures by a
    fifth from seed to seed; a pass runs 32 of them.
    """

    name = "montecarlo"
    N_NODES = 30
    HORIZON = 5.0
    DISCOUNT = 0.1
    STATIONARY_DISCOUNT = 0.5
    LONG_HORIZON = 40.0

    def __init__(self, root: Path, seed: int, small: bool, out_dir: Path):
        n_models, self.paths_tv, self.paths_st = (2, 200, 40) if small else (32, 400, 60)
        rng = np.random.default_rng(seed)
        self.models = [random_instance(rng, self.N_NODES) for _ in range(n_models)]
        # Philox keys for the sampler, one per model
        self.keys = [seed * 1000 + k for k in range(n_models)]
        self.z_scores: list[tuple[float, float]] = []

    def run_pass(self, checks: Checks) -> dict:
        t = dict.fromkeys(("setup_s", "solve_s", "stationary_s", "tv", "st"), 0.0)
        z_scores = []
        for (edges, edge_costs, payoff), key in zip(self.models, self.keys):
            t0 = perf_counter()
            model = build_model(self.N_NODES, edges, edge_costs)
            t1 = perf_counter()
            problem = finite_horizon.Problem(model, payoff, self.HORIZON, self.DISCOUNT)
            traj = finite_horizon.solve_finite_horizon(problem)
            t2 = perf_counter()
            policy = finite_horizon.extract_policy(problem, traj)
            t3 = perf_counter()
            report_tv = sampling.simulate(problem, policy, 0, self.paths_tv, key)
            t4 = perf_counter()
            sv = stationary.solve_stationary(model, self.STATIONARY_DISCOUNT)
            t5 = perf_counter()
            stationary_policy, evaluated = check_stationary(
                model, sv, self.STATIONARY_DISCOUNT, checks)
            # the exact stationary value as terminal payoff makes the
            # truncated horizon an unbiased estimate of the infinite one
            long_run = finite_horizon.Problem(model, evaluated, self.LONG_HORIZON,
                                              self.STATIONARY_DISCOUNT)
            t6 = perf_counter()
            report_st = sampling.simulate(long_run, stationary_policy, 0, self.paths_st, key)
            t7 = perf_counter()
            t["setup_s"] += t1 - t0
            t["solve_s"] += t2 - t1
            t["tv"] += t4 - t3
            t["stationary_s"] += t5 - t4
            t["st"] += t7 - t6
            z_tv = sampling.estimate_value_gap(report_tv, float(traj.values[0, 0]))
            z_st = sampling.estimate_value_gap(report_st, float(evaluated[0]))
            z_scores.append((z_tv, z_st))
            checks.expect(math.isfinite(traj.max_residual),
                          f"model {key}: residual {traj.max_residual}")
            checks.expect(abs(z_tv) <= Z_LIMIT, f"model {key}: time-varying z = {z_tv:.3f}")
            checks.expect(abs(z_st) <= Z_LIMIT, f"model {key}: stationary z = {z_st:.3f}")
        self.z_scores = z_scores
        n_models = len(self.models)
        return {
            "setup_s": t["setup_s"], "solve_s": t["solve_s"],
            "stationary_s": t["stationary_s"], "simulate_s": t["tv"] + t["st"],
            "paths_per_s.time_varying": n_models * self.paths_tv / t["tv"],
            "paths_per_s.stationary": n_models * self.paths_st / t["st"],
        }

    def data(self) -> dict:
        return {"z_scores": [{"time_varying": a, "stationary": b} for a, b in self.z_scores],
                "z_limit": Z_LIMIT}


WORKLOADS = {w.name: w for w in (CliFiles, LargeGraph, MonteCarlo)}
