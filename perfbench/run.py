"""Benchmark for ctmcontrol: one workload, one process, metrics as JSON.

    python3 perfbench/run.py --workload cli-files --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/`` directory. The run repeats whole passes of the workload
until ``--seconds`` have elapsed (at least one pass) and reports the
median over passes. With ``--trace 0`` the last line holds the
end-to-end metrics that BENCHMARK.json gates; with ``--trace 1``
untraced and traced passes alternate, ending on a traced one; the
last line holds the per-layer metrics of the traced passes and the
spans go to ``.bench_out/trace-<workload>-<seed>.json``. The line
before the last holds every metric of the workload, for
``compare.py``. Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import metrics

HERE = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the smoke test")
    parser.add_argument("--root", default=str(HERE.parent),
                        help="source checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def load_package(root: Path):
    """Import ctmcontrol from root/src and nowhere else; None if absent."""
    src = root / "src"
    if not (src / "ctmcontrol" / "__init__.py").is_file() or not (root / "problems").is_dir():
        return None
    # BLAS reads its thread count once, when numpy loads
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(src))
    import ctmcontrol

    if Path(ctmcontrol.__file__).resolve().parent != (src / "ctmcontrol").resolve():
        return None
    return ctmcontrol


def median_of(records: list[dict]) -> dict:
    keys = [k for k in records[0] if all(k in r for r in records)]
    return {k: statistics.median(r[k] for r in records) for k in keys}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    package = load_package(root)
    if package is None:
        print(f"error: no ctmcontrol sources (src/ctmcontrol, problems/) under {root}",
              file=sys.stderr)
        return 2
    import numpy as np
    import tracing
    import workloads

    out_dir = root / ".bench_out"
    checks = workloads.Checks()
    workload = workloads.WORKLOADS[args.workload](root, args.seed, args.small, out_dir)
    untraced: list[dict] = []
    traced: list[dict] = []
    tracer = instrumentation = None
    started = perf_counter()
    try:
        while True:
            # traced passes alternate with untraced ones, so the overhead
            # compares passes that ran at the same point of the run; the
            # wrappers are in place during traced passes only
            if args.trace and len(untraced) > len(traced):
                if tracer is None:
                    tracer = tracing.Tracer()
                    instrumentation = tracing.Instrumentation(tracer)
                before = dict(tracer.counters)
                first = len(tracer.start)
                instrumentation.install()
                try:
                    span = tracer.open("bench.pass")
                    workload.run_pass(checks)
                    wall = tracer.close(span)
                finally:
                    instrumentation.undo()
                counts = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
                summary = tracer.summarize(first, len(tracer.start))
                traced.append(metrics.layer_metrics(summary, counts, wall,
                                                    untraced[-1]["wall_s"]))
            else:
                t0 = perf_counter()
                record = workload.run_pass(checks)
                record["wall_s"] = perf_counter() - t0
                untraced.append(record)
            # a traced run ends on a traced pass, so every traced pass has
            # the untraced one before it
            if perf_counter() - started >= args.seconds and (
                    not args.trace or len(traced) == len(untraced)):
                break
    except Exception:
        checks.expect(False, traceback.format_exc())

    failed = len(checks.failures)
    ops = max(checks.attempted, 1)
    values = median_of(untraced) if untraced else {}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["fail_ratio"] = failed / ops
    e2e = {name: {"value": values[name], "unit": metrics.END_TO_END[name][0]}
           for name in metrics.for_workload(args.workload) if name in values}
    layers = {}
    if traced:
        for name, value in median_of(traced).items():
            layers[name] = {"value": value, "unit": metrics.PER_LAYER_UNIT[name]}
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "passes": traced, "untraced_passes": untraced})

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "small": args.small, "passes": len(untraced), "traced_passes": len(traced),
        "attempted": checks.attempted, "failed": failed, "failures": checks.failures,
        "end_to_end": e2e, "per_layer": layers, "data": workload.data(),
        "untraced_passes": untraced,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
                    "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
    }
    for name, entry in {**e2e, **layers}.items():
        print(f"{name:36s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"fail_ratio {failed}/{ops} operations; "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    for message in checks.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"report": report}))
    shown = layers if args.trace else {k: e2e[k] for k in metrics.gated() if k in e2e}
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed,
                      "metrics": shown}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
