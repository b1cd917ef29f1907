"""Run one entrel benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload s1-pairs-train --seed 3 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). Exit codes: 0 when every correctness gate passed, 1 when a
gate or an operation failed, 2 for a usage error or missing sources.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "entrel" / "__init__.py").is_file():
        print(f"error: no entrel sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import entrel
    import bench_workloads as bench

    found = Path(entrel.__file__).resolve().parent
    if found != (src / "entrel").resolve():
        print(f"error: entrel was imported from {found}, not from {src}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    result = bench.run_workload(workload, args.seed, args.seconds, bool(args.trace), WORK_DIR)

    e2e = result["end_to_end"]
    print(f"{'metric':<24} {'reference':>12} {'wall':>12}")
    for name, unit in bench.END_TO_END.items():
        print(f"{name:<24} {e2e[name]:>12.6g} {result['wall'][name]:>12.6g} {unit}")
    print(f"{'dev_avg_ec_re':<24} {result['dev_avg_ec_re']:.6g} F1")
    print(f"{'failed_frac':<24} {result['failed'] / result['attempted']:.6g} fraction"
          f" ({result['failed']}/{result['attempted']})")
    for gate, ok in result["gates"].items():
        print(f"gate {gate}: {'pass' if ok else 'FAIL'}")
    for error in result["errors"]:
        print(f"error: {error}", file=sys.stderr)
    if args.trace:
        if result["absent"]:
            print(f"absent: {', '.join(result['absent'])}")
        print(f"spans: {result['spans_file']}")
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in bench.PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in bench.END_TO_END.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
