"""Parent-versus-change comparison from alternating-order pairs.

    python3 perfbench/compare.py pairs --parent P --change C --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

``pairs`` runs this directory's run.py against two source checkouts
(``--root``), so both sides use identical benchmark code and settings:
every workload, for BENCHMARK.json's ``run_seconds``, in 10 pairs.
Pair i uses seed 100 + i on both sides and runs the parent first when
i is even, the change first when it is odd. One JSON line per run goes
to ``--out``.

``report`` gives, for every workload and end-to-end metric, each
side's median and quartiles, the pairs the change won (ties count for
neither) and a verdict:

* gain: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range;
* regression: the change's median is worse than the parent's by more
  than the metric's bound;
* unresolved: the parent's own spread is wider than the bound, unless
  every change run beats every parent run or every pair is an exact tie;
* unchanged otherwise.

The exit code is 1 when any run failed a check or any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import ALL, BENCH, END_TO_END, for_workload

HERE = Path(__file__).resolve().parent
PAIRS = 10
# the CLI simulate z-scores of the problem files were checked over seeds
# 0-199, so a correct solver passes its 3-sigma test on these
SEED_BASE = 100


def run_pairs(args) -> int:
    seconds = BENCH["run_seconds"]
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.out, "a", encoding="utf-8") as out:
        for i in range(PAIRS):
            seed = SEED_BASE + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in ALL:
                for side in order:
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--root", str(sides[side]),
                         "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", "0"],
                        capture_output=True, text=True, check=False)
                    lines = [line for line in proc.stdout.splitlines()
                             if line.startswith('{"report"')]
                    report = json.loads(lines[-1])["report"] if lines else {}
                    record = {
                        "pair": i, "side": side, "first": side == order[0],
                        "workload": workload, "seed": seed, "exit": proc.returncode,
                        "failed": report.get("failed"),
                        "metrics": {k: v["value"]
                                    for k, v in report.get("end_to_end", {}).items()},
                    }
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"pair {i} {workload} {side}: exit {proc.returncode}", flush=True)
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def _fmt(quartiles) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles)


def verdict(name: str, parent: dict, change: dict) -> dict:
    """Compare one metric; parent and change map pair index -> value."""
    _unit, better, bound, _ = END_TO_END[name]
    sign = 1.0 if better == "lower" else -1.0
    pairs = sorted(set(parent) & set(change))
    wins = sum(1 for i in pairs if sign * (change[i] - parent[i]) < 0)
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q, c_q = _quartiles(p_vals), _quartiles(c_vals)
    p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
    p_iqr = p_q[2] - p_q[0]
    scale = abs(p_med)
    rel_spread = p_iqr / scale if scale else (0.0 if p_iqr == 0 else float("inf"))
    worse_by = sign * (c_med - p_med)
    all_better = all(sign * (c - p) < 0 for c in c_vals for p in p_vals)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_iqr and worse_by < 0:
        result = "gain"
    elif worse_by > bound * scale:
        result = "regression"
    elif pairs and all(change[i] == parent[i] for i in pairs):
        # a deterministic figure, such as a residual, that did not move
        result = "unchanged"
    elif rel_spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {"metric": name, "parent": p_q, "change": c_q, "wins": wins,
            "pairs": len(pairs), "spread": rel_spread, "bound": bound, "verdict": result}


def report(args) -> int:
    with open(args.results, encoding="utf-8") as handle:
        runs = [json.loads(line) for line in handle if line.strip()]
    status = 0
    for run in runs:
        if run["exit"] != 0 or run["failed"]:
            print(f"FAILED run: {run['workload']} {run['side']} seed {run['seed']} "
                  f"exit {run['exit']}")
            status = 1
    for workload in ALL:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        print(f"\n{workload}")
        print(f"  {'metric':26s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
              f"{'wins':>6s} {'spread':>7s} {'bound':>6s}  verdict")
        for name in for_workload(workload):
            sides = {"parent": {}, "change": {}}
            for r in mine:
                if name in r["metrics"]:
                    sides[r["side"]][r["pair"]] = r["metrics"][name]
            if not sides["parent"] or not sides["change"]:
                continue
            v = verdict(name, sides["parent"], sides["change"])
            status = 1 if v["verdict"] == "regression" else status
            print(f"  {name:26s} {_fmt(v['parent']):>32s} {_fmt(v['change']):>32s} "
                  f"{v['wins']:>3d}/{v['pairs']:<2d} {v['spread']:7.3f} {v['bound']:6.2f}  "
                  f"{v['verdict']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="run alternating parent/change pairs")
    p.add_argument("--parent", required=True, help="parent source checkout")
    p.add_argument("--change", required=True, help="change source checkout")
    p.add_argument("--out", required=True, help="JSON-lines file, appended to")
    p.set_defaults(func=run_pairs)
    p = sub.add_parser("report", help="medians, quartiles and verdicts")
    p.add_argument("results")
    p.set_defaults(func=report)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
