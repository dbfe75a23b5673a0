"""Benchmark of the fairuse audit: end to end, and per module when traced.

Run from the repository root:

    python3 perfbench/run.py --workload many-groups --seed 0 --seconds 30
    python3 perfbench/run.py --workload all --trace 1

Each run sets up in fresh interpreters (``setup_s`` is the median time to
``import fairuse.cli`` over SETUP_SAMPLES of them; the first also writes the
workload's CSV with ``fairuse synth``), then measures in one more fresh
interpreter that runs only this workload, so its peak RSS is the
workload's own. FAIRUSE_THREADS is removed from the workers' environment,
so every audit uses the default single worker, and BLAS runs on one thread.

With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics instead. The
lines before it print every metric by name and unit, the failure fraction,
and the report's SHA-256 against the one recorded in baseline.json.
Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench"
BASELINE = HERE / "baseline.json"
WORKLOAD_NAMES = ("planted-metrics", "many-groups", "large-n")
SETUP_SAMPLES = 3
# One BLAS thread: with OpenBLAS's default of one per core, the logistic
# fits' matrix products use every core of a small shared host, and their
# wall time then follows the host's other load. One thread also keeps the
# report bytes independent of the core count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    env.pop("FAIRUSE_THREADS", None)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _call_worker(args, deadline):
    """Run worker.py with args and return its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)] + args, env=_worker_env(),
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, tiny, deadline):
    """Set up and measure one workload; returns (result, raw measurements)."""
    WORK.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed),
              "--work", str(WORK)] + (["--tiny"] if tiny else [])
    import_s = [_call_worker(["setup"] + common
                             + (["--generate"] if i == 0 else []),
                             deadline)["import_s"]
                for i in range(SETUP_SAMPLES)]
    raw = _call_worker(["measure"] + common
                       + ["--seconds", str(seconds), "--trace", str(trace)],
                       deadline)
    if trace:
        metrics = {k: (v, PER_LAYER_UNITS[k])
                   for k, v in raw.get("per_layer", {}).items()}
    elif raw["walls"]:
        metrics = {
            "wall_s": (statistics.median(raw["walls"]), "s"),
            "cpu_s": (statistics.median(raw["cpus"]), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(import_s), "s"),
        }
    else:
        metrics = {}
    result = {
        "correct": raw["failed"] == 0 and bool(metrics),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, raw


def _baseline_sha(workload, seed):
    if not BASELINE.exists():
        return None
    recorded = json.loads(BASELINE.read_text(encoding="utf-8"))
    return (recorded.get("workloads", {}).get(workload, {})
            .get("report_sha256", {}).get(str(seed)))


def describe(workload, seed, trace, tiny, result, raw):
    """Human-readable lines for one run."""
    n_walls = len(raw["walls"])
    lines = [f"# workload {workload}, seed {seed}, trace {trace}: "
             f"{raw['attempted']} audits ({n_walls} untraced, "
             f"{len(raw['traced_walls'])} traced), FAIRUSE_THREADS "
             f"{raw['fairuse_threads']}"]
    for name, m in result["metrics"].items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    if raw["walls"]:
        lines.append(f"untraced audit walls (s): "
                     f"{' '.join(f'{w:.3f}' for w in raw['walls'])}")
    lines.append(f"fail_frac {raw['failed'] / raw['attempted']:.6g} ratio "
                 f"({raw['failed']} of {raw['attempted']})")
    lines += [f"  problem: {p}" for p in raw["problems"]]
    for sha in raw["sha256"]:
        known = None if tiny else _baseline_sha(workload, seed)
        status = ("no baseline for this seed" if known is None
                  else "same as baseline" if sha == known
                  else "CHANGED from baseline")
        lines.append(f"report sha256 {sha} ({status})")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the fairuse audit end to end and per module.")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fairuse" / "cli.py").is_file():
        print(f"error: no fairuse sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    for name in names:
        try:
            result, raw = run_workload(name, args.seed, args.seconds,
                                       args.trace, args.tiny, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(name, args.seed, args.trace, args.tiny,
                                 result, raw)))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
