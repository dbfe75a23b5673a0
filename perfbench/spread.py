"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload many-groups --seeds 10
    python3 perfbench/spread.py --workload all --seeds 10 --write-baseline

Runs ``run.py`` once per seed (0, 1, ...) exactly as a user would, then
prints for every end-to-end metric its median and its spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.
``--write-baseline`` stores the medians, spreads, report SHA-256 per seed
and the software versions in baseline.json.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from run import BLAS_THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
SHA_LINE = re.compile(r"^report sha256 ([0-9a-f]{64}) ")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    shas = [m.group(1) for m in map(SHA_LINE.match, lines) if m]
    if not result["correct"] or len(shas) != 1:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}")
    return result["metrics"], shas[0]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "FAIRUSE_THREADS": "unset",
        **{name: "1" for name in BLAS_THREAD_VARS},
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=names + ["all"])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = (json.loads(BASELINE.read_text(encoding="utf-8"))
                if BASELINE.exists() else {"workloads": {}})
    for workload in names if args.workload == "all" else [args.workload]:
        values = {name: [] for name in bounds}
        shas = {}
        for seed in range(args.seeds):
            metrics, shas[str(seed)] = run_once(workload, seed,
                                                spec["run_seconds"])
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.4g}" for k, v in values.items()), flush=True)
        summary = {}
        for name, vals in values.items():
            summary[name] = {"median": statistics.median(vals),
                             "spread": spread(vals)}
            print(f"{workload} {name}: median {summary[name]['median']:.4g}"
                  f", spread {summary[name]['spread']:.3f} (bound "
                  f"{bounds[name]}, steady below {bounds[name] / 3:.3f})")
        baseline["workloads"][workload] = {
            "run_seconds": spec["run_seconds"], "seeds": args.seeds,
            "metrics": summary, "report_sha256": shas}
    if args.write_baseline:
        baseline["environment"] = environment()
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
