"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 [--workload NAME ...] [--out FILE]

For every workload and end-to-end metric it prints the median of the runs
and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json. ``--out`` also writes the medians,
the per-run values and the machine facts (CPU count, Python, numpy,
OpenBLAS version and thread count) as JSON.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def machine_facts() -> dict:
    import numpy

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__, "machine": platform.machine()}
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            config = getattr(lib, f"{prefix}_get_config64_", None)
            threads = getattr(lib, f"{prefix}_get_num_threads64_", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                facts["openblas"] = config().decode()
                facts["blas_threads"] = threads()
    return facts


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in _seeds(args.seeds)]
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary[workload][name] = {"median": statistics.median(values),
                                       "spread": spread(values), "values": values}
            print(f"{workload:<16} {name:<18} median {statistics.median(values):<12.6g}"
                  f" spread {spread(values):.4f} bound {bound}"
                  f"  [{' '.join(f'{v:.4g}' for v in values)}]", flush=True)
    if args.out:
        record = {"machine": machine_facts(), "seeds": args.seeds,
                  "run_seconds": spec["run_seconds"], "workloads": summary}
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
