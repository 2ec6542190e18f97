"""Reduced-size smoke test of the benchmark.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload with ``--small``. The untraced run must print
every end-to-end metric of the workload with its unit. A traced run of
one pass pair and a longer one with the same seed must report
identical solver counts. In the longer run every traced pass must be
one whole span tree, with the same counts as the other traced passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

REPEATABLE = ("ode.steps_accepted", "ode.steps_rejected", "ode.integrate_calls",
              "costs.hamiltonian_calls", "stationary.newton_iters", "stationary.sweep_stages",
              "trace.spans")


def run(workload: str, trace: int, seconds: float = 0.0,
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def results(proc: subprocess.CompletedProcess) -> tuple[dict, dict, dict]:
    """The report line, the result line, and the printed unit of each metric."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-2]:
        fields = line.split()
        if len(fields) == 3:
            printed[fields[0]] = fields[2]
    return json.loads(lines[-2])["report"], json.loads(lines[-1]), printed


@pytest.mark.parametrize("workload", metrics.ALL)
def test_every_metric_printed_and_counts_repeat(workload):
    report, result, printed = results(run(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == metrics.gated()
    for name in metrics.for_workload(workload):
        unit = metrics.END_TO_END[name][0]
        assert report["end_to_end"][name]["unit"] == unit
        assert printed[name] == unit

    short_report, short, _ = results(run(workload, 1))
    layers = short["metrics"]
    assert set(layers) == set(metrics.PER_LAYER_UNIT)
    assert layers["costs.hamiltonian_calls"]["value"] > 0
    assert layers["trace.coverage"]["value"] >= 0.9

    # long enough for a second pair of passes
    pair_s = short_report["untraced_passes"][0]["wall_s"] + layers["trace.wall_s"]["value"]
    long_report, long, _ = results(run(workload, 1, seconds=1.5 * pair_s))
    assert long_report["traced_passes"] >= 2
    for name in REPEATABLE:
        assert long["metrics"][name]["value"] == layers[name]["value"], name

    dump = json.loads((ROOT / ".bench_out" / f"trace-{workload}-3.json").read_text())
    passes = dump["passes"]
    assert len(passes) == long_report["traced_passes"]
    for name in REPEATABLE:
        assert len({p[name] for p in passes}) == 1, name
    # the wrappers are off during untraced passes: every span and every
    # count belongs to a traced pass
    spans = dump["spans"]
    roots = [dump["labels"][label] for parent, label in zip(spans["parent"], spans["label"])
             if parent < 0]
    assert roots == ["bench.pass"] * len(passes)
    assert len(spans["parent"]) == sum(p["trace.spans"] for p in passes)
    for name in ("ode.integrate_calls", "ode.steps_accepted", "stationary.newton_iters"):
        assert dump["counters"].get(name, 0) == sum(p[name] for p in passes), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("montecarlo", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
