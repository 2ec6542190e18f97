"""Metric catalogue.

BENCHMARK.json names the workloads, the gated end-to-end metrics with
their unit, direction and regression bound, and the per-layer metrics
with their units. This module reads those from it and adds the
end-to-end metrics that only some workloads have: they are printed on
those workloads and compared by ``compare.py``, not gated.
"""

import json
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                   .read_text(encoding="utf-8"))

ALL = tuple(w["name"] for w in BENCH["workloads"])

PER_LAYER_UNIT = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

# name: (unit, better, bound as a share of the parent median, workloads)
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"], ALL)
              for m in BENCH["end_to_end"]}
END_TO_END.update({
    # reads 0 on a passing run, so a bound relative to the median cannot gate it
    "fail_ratio": ("ratio", "lower", 0.0, ALL),
    "policy_s": ("s", "lower", 0.25, ("cli-files",)),
    "ergodic_s": ("s", "lower", 0.25, ("cli-files",)),
    "asymptotics_s": ("s", "lower", 0.25, ("cli-files",)),
    "simulate_s": ("s", "lower", 0.25, ("cli-files", "montecarlo")),
    "stationary_s": ("s", "lower", 0.25, ("large-graph", "montecarlo")),
    "paths_per_s.time_varying": ("1/s", "higher", 0.25, ("montecarlo",)),
    "paths_per_s.stationary": ("1/s", "higher", 0.25, ("montecarlo",)),
    # an instance property on random models: it is compared only between
    # two commits run on the same seeds
    "max_residual": ("abs", "lower", 0.25, ("cli-files", "large-graph")),
})

LAYERS = ("problem_io", "graph", "costs", "ode", "finite_horizon",
          "stationary", "simulate", "cli")


def gated() -> list[str]:
    """The end-to-end metrics BENCHMARK.json gates, in its order."""
    return [m["name"] for m in BENCH["end_to_end"]]


def for_workload(workload: str) -> list[str]:
    return [name for name, spec in END_TO_END.items() if workload in spec[3]]


def layer_metrics(summary: dict, counters: dict, wall: float, untraced_wall: float) -> dict:
    """Per-layer figures of one traced pass, from its span summary and counters.

    ``*_s`` figures named after a function are inclusive: they contain
    the spans under it. ``<layer>.self_s`` is the layer's own time, so
    ode.self_s is integration minus the cost kernels it calls and
    cli.self_s a subcommand minus the library calls under it.
    """
    inclusive, calls, own = summary["inclusive_s"], summary["calls"], summary["self_s"]

    def total(*labels):
        return sum(inclusive.get(label, 0.0) for label in labels)

    def per(seconds, count, unit=1e6):
        return unit * seconds / count if count else 0.0

    ham_calls = calls.get("costs.hamiltonian_vector", 0)
    out = {
        "problem_io.parse_s": total("problem_io.parse_problem_file"),
        "graph.build_s": total("graph.build_graph"),
        "costs.model_build_s": total("costs.CostModel"),
        "costs.hamiltonian_calls": ham_calls,
        "costs.hamiltonian_s": total("costs.hamiltonian_vector"),
        "costs.hamiltonian_us_per_call": per(total("costs.hamiltonian_vector"), ham_calls),
        "costs.intensity_s": total("costs.intensity_vector"),
        "ode.integrate_calls": counters.get("ode.integrate_calls", 0),
        "ode.steps_accepted": counters.get("ode.steps_accepted", 0),
        "ode.steps_rejected": counters.get("ode.steps_rejected", 0),
        "ode.integrate_s": total("ode.integrate_grid", "ode.integrate_endpoint"),
        "finite_horizon.solve_s": total("finite_horizon.solve_finite_horizon"),
        "finite_horizon.residual_s": total("finite_horizon.residual"),
        "finite_horizon.extract_policy_s": total("finite_horizon.extract_policy"),
        "stationary.newton_iters": counters.get("stationary.newton_iters", 0),
        "stationary.vanishing_s": total("stationary.solve_ergodic_vanishing_discount"),
        "stationary.direct_s": total("stationary.solve_ergodic_direct"),
        "stationary.sweep_stages": counters.get("stationary.sweep_stages", 0),
        "simulate.path_us.time_varying": per(counters.get("simulate.seconds.time-varying", 0.0),
                                             counters.get("simulate.paths.time-varying", 0)),
        "simulate.path_us.stationary": per(counters.get("simulate.seconds.stationary", 0.0),
                                           counters.get("simulate.paths.stationary", 0)),
        "simulate.evaluate_s": total("simulate.evaluate_stationary_policy"),
    }
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - untraced_wall
    out["trace.coverage"] = (wall - own.get("bench", 0.0)) / wall
    out["trace.spans"] = summary["spans"]
    return out
