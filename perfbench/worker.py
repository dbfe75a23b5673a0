"""Workloads of the fairuse benchmark, run inside a fresh interpreter.

``run.py`` starts this file with ``src`` on PYTHONPATH and FAIRUSE_THREADS
unset. Two subcommands, each printing one JSON object as its last line:

- ``setup``: time ``import fairuse.cli`` in this fresh interpreter and,
  with ``--generate``, write the workload's CSV with the repository's own
  ``fairuse synth`` command (not timed);
- ``measure``: audit that CSV through ``fairuse.cli.main(argv)`` in a
  closed loop, one audit at a time, while the next audit still fits in
  ``--seconds`` (at least one audit, two when traced). Every
  report is checked; with ``--trace 1`` untraced and traced audits
  alternate and the traced ones give the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import report_problems  # noqa: E402
from tracing import Tracer, per_layer  # noqa: E402

# Each workload: the `fairuse synth` arguments that make its data and the
# `fairuse audit` arguments that audit it. "tiny" shrinks both for the
# benchmark's own smoke tests.
WORKLOADS = {
    "planted-metrics": {
        "synth": ["planted", "--m", "4", "--n-per-group", "500"],
        "audit": ["--metric", "error", "--metric", "auc", "--metric", "ece",
                  "--bootstrap", "500", "--format", "markdown"],
        "tiny": {"--n-per-group": "100", "--bootstrap": "100"},
        "m": 4,
    },
    "many-groups": {
        "synth": ["exchangeable", "--m", "32", "--n-per-group", "250"],
        "audit": ["--train-fraction", "1.0", "--metric", "error",
                  "--bootstrap", "500", "--format", "json"],
        "tiny": {"--n-per-group": "20", "--bootstrap": "100"},
        "m": 32,
    },
    "large-n": {
        "synth": ["planted", "--m", "4", "--n-per-group", "12500"],
        "audit": ["--metric", "error", "--bootstrap", "2000",
                  "--format", "json"],
        "tiny": {"--n-per-group": "200", "--bootstrap": "100"},
        "m": 4,
    },
}


def _sized(args, tiny_sizes):
    """Arguments with each flag in tiny_sizes set to its tiny value."""
    out = list(args)
    for flag, value in tiny_sizes.items():
        if flag in out:
            out[out.index(flag) + 1] = value
    return out


def csv_path(work, workload, tiny):
    suffix = "-tiny" if tiny else ""
    return Path(work) / f"{workload}{suffix}.csv"


def audit_argv(workload, seed, work, tiny):
    spec = WORKLOADS[workload]
    args = _sized(spec["audit"], spec["tiny"]) if tiny else spec["audit"]
    ext = ".md" if "markdown" in args else ".json"
    out = Path(work) / f"report-{workload}{ext}"
    return (["audit", "--data", str(csv_path(work, workload, tiny)),
             "--seed", str(seed), "--out", str(out)] + args, out)


def generate(workload, seed, work, tiny):
    """Write the workload's CSV with `fairuse synth`."""
    import fairuse.cli as cli
    spec = WORKLOADS[workload]
    args = _sized(spec["synth"], spec["tiny"]) if tiny else spec["synth"]
    path = csv_path(work, workload, tiny)
    code = cli.main(["synth"] + args + ["--seed", str(seed),
                                        "--out", str(path)])
    if code != 0:
        raise RuntimeError(f"fairuse synth exited {code}")


def setup(workload, seed, work, tiny, with_data):
    start = time.perf_counter()
    import fairuse.cli  # noqa: F401
    import_s = time.perf_counter() - start
    if with_data:
        generate(workload, seed, work, tiny)
    return {"import_s": import_s}


def _rendered(report, argv):
    if argv[argv.index("--format") + 1] == "json":
        return report.to_json_str() + "\n"
    return report.to_markdown()


def _one_audit(cli, argv, out, m, tracer, captured, walls, cpus,
               traced_walls, shas):
    """Run, time and check one audit; returns the problems found."""
    captured.clear()
    if tracer is not None:
        tracer.audit_id += 1
        tracer.install()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = cli.main(argv)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    except Exception as exc:  # an audit that raised is a failure
        return [f"raised {exc!r}"]
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        traced_walls.append(wall)
    else:
        walls.append(wall)
        cpus.append(cpu)
    written = out.read_text(encoding="utf-8") if out.exists() else ""
    shas.add(hashlib.sha256(written.encode("utf-8")).hexdigest())
    if not captured:
        return [f"exit code {code} and no report"]
    report = captured[0]
    found = report_problems(report.to_jsonable(), m, code, written,
                            _rendered(report, argv))
    if len(shas) > 1:
        found.append("report bytes differ from an earlier audit's")
    return found


def measure(workload, seed, seconds, trace, work, tiny):
    """Closed-loop audits of one workload; returns the raw measurements.

    Untraced audits give wall and CPU times. With trace, every second audit
    runs with the tracer installed; its report must equal the untraced
    ones byte for byte, and its spans give the per-layer metrics.
    """
    import fairuse.cli as cli
    argv, out = audit_argv(workload, seed, work, tiny)
    m = WORKLOADS[workload]["m"]
    captured = []
    real_audit = cli.audit

    def capture(*args, **kwargs):
        report = real_audit(*args, **kwargs)
        captured.append(report)
        return report

    cli.audit = capture
    tracer = Tracer()
    walls, cpus, traced_walls = [], [], []
    shas = set()
    problems = []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            traced = trace and attempted % 2 == 1
            attempted += 1
            found = _one_audit(cli, argv, out, m, tracer if traced else None,
                               captured, walls, cpus, traced_walls, shas)
            if found:
                failed += 1
                problems += [f"audit {attempted}: {p}" for p in found]
            # Stop before an audit that would end past the window, so a run
            # lasts --seconds however long one audit takes.
            typical = statistics.median(walls + traced_walls or [0.0])
            if (time.perf_counter() - start + typical >= seconds
                    and attempted >= (2 if trace else 1)):
                break
    finally:
        cli.audit = real_audit
    result = {
        "walls": walls, "cpus": cpus, "traced_walls": traced_walls,
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "sha256": sorted(shas),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fairuse_threads": os.environ.get("FAIRUSE_THREADS", "unset"),
    }
    if trace and walls and traced_walls:
        result["per_layer"] = per_layer(tracer, traced_walls, walls)
        tracer.write_spans(Path(work) / f"spans-{workload}.jsonl")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--generate", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.command == "setup":
        result = setup(args.workload, args.seed, args.work, args.tiny,
                       args.generate)
    else:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.work, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
