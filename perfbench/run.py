"""Benchmark entry point.

    python3 perfbench/run.py --workload <suite|evals|cli|all> --seed N \
        --seconds S --trace <0|1> [--smoke]

Runs from the repository root against the sources under ``src/`` (nothing
is installed). Prints one line per metric, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--workload all`` runs the three workloads in turn in this
one process and prefixes each metric with its workload. ``--smoke`` runs a
single short round of each workload (fewer suite samples) for the tests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one BLAS thread: the program works on n <= 64 matrices, where more
# threads only add contention on a small box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("suite", "evals", "cli")


def _result(workload: str, run, trace: bool) -> dict:
    from perfbench import workloads
    if trace:
        units, values = workloads.PER_LAYER, run.per_layer
    else:
        units = workloads.END_TO_END
        values = run.end_to_end(workloads.peak_rss_mb(workload))
    return {
        "correct": not run.mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }


def _report(workload: str, result: dict, run) -> None:
    print(f"# workload {workload}: attempted={result['attempted']} "
          f"failed={result['failed']} correct={str(result['correct']).lower()}")
    for line in run.mismatches[:20]:
        print(f"#   mismatch: {line}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracbesov" / "__init__.py").is_file():
        print(f"error: no fracbesov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench import workloads

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run = workloads.execute(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        results[name] = _result(name, run, bool(args.trace))
        _report(name, results[name], run)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
