"""Command-line surface: audit, synth, intervene, replicate-paper.

Exit codes: 0 success (audit: no flagged violation), 1 usage or data
error, 3 audit found a violation under the chosen mode, 4 reference-table
mismatch from replicate-paper. Every randomized step derives from the
single --seed flag, so identical invocations produce byte-identical
outputs.
"""

import argparse
import json
import os
import sys

from . import __version__
from .audit import AuditConfig, audit
from .dataset import load_csv, save_csv, split
from .groups import DomainError
from .interventions import assign_best_of_three, \
    assign_generic_on_violation
from .metrics import metric_from_name
from .models import Strategy, TrainConfig, as_strategy, train_personalized
from .replicate import replicate
from .synth import EXPECTED_TABLES, GENERATORS, gen_exchangeable_null, \
    gen_planted_violation

__all__ = ["main"]

_USAGE_ERROR = 1
_VIOLATION_EXIT = 3
_MISMATCH_EXIT = 4

_EXPECTED_KEYS = {
    "misspecification": "misspecification",
    "group-effects": "group_specific_effects",
    "feature-selection": "feature_selection",
    "surrogate-outlier": "surrogate_outlier",
    "sampling-error": "sampling_error",
    "label-shift": "label_shift",
}


class _UsageError(Exception):
    pass


def _add_data_flags(p):
    p.add_argument("--data", help="single CSV, split by --train-fraction")
    p.add_argument("--train", help="training CSV (with --test)")
    p.add_argument("--test", help="evaluation CSV (with --train)")
    p.add_argument("--train-fraction", type=float, default=0.8,
                   help="train share of --data; 1.0 audits in-sample "
                        "(default 0.8)")


def _add_model_flags(p, strategy_flag="--strategy"):
    p.add_argument(strategy_flag, dest="encoding", default="onehot",
                   choices=[s.value for s in Strategy],
                   help="personalization strategy (default onehot)")
    p.add_argument("--loss", default="logistic",
                   help="training loss: logistic, hinge, or zero-one "
                        "(default logistic); zero-one is exact and "
                        "refuses fits with two or more encoded features "
                        "and more than 14 distinct points")
    p.add_argument("--l2", type=float, default=1e-4,
                   help="ridge penalty on base feature weights "
                        "(default 1e-4; surrogate losses need 0)")
    p.add_argument("--alpha", type=float, default=0.10,
                   help="significance level (default 0.10)")
    p.add_argument("--bootstrap", type=int, default=2000,
                   help="bootstrap replicates (default 2000)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed (default 0)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairuse",
        description="Audit personalized classifiers for group-level "
                    "fair use.")
    parser.add_argument("--version", action="version",
                        version=f"fairuse {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_audit = sub.add_parser(
        "audit", help="train, evaluate the misreport matrix, and test "
                      "rationality and envy-freeness")
    _add_data_flags(p_audit)
    _add_model_flags(p_audit)
    p_audit.add_argument("--metric", action="append",
                         choices=["error", "auc", "ece"],
                         help="metric to audit (repeatable; default "
                              "error)")
    p_audit.add_argument("--mode", default="significant",
                         choices=["significant", "point"],
                         help="violation basis for the exit code "
                              "(default significant)")
    p_audit.add_argument("--format", default="markdown",
                         choices=["markdown", "json", "csv"],
                         help="report format (default markdown)")
    p_audit.add_argument("--out", help="report path (default stdout)")

    p_synth = sub.add_parser(
        "synth", help="write a reference or randomized dataset as CSV")
    p_synth.add_argument("kind", choices=sorted(GENERATORS))
    p_synth.add_argument("--out", help="CSV path (default <kind>.csv)")
    p_synth.add_argument("--m", type=int, default=4,
                         help="group count for randomized kinds "
                              "(default 4)")
    p_synth.add_argument("--n-per-group", type=int, default=None,
                         help="rows per group for randomized kinds")
    p_synth.add_argument("--gap", type=float, default=-0.15,
                         help="planted rationality gap (default -0.15)")
    p_synth.add_argument("--seed", type=int, default=0)

    p_int = sub.add_parser(
        "intervene", help="audit, then plan per-group model "
                          "reassignment")
    _add_data_flags(p_int)
    _add_model_flags(p_int, strategy_flag="--encoding")
    p_int.add_argument("--strategy", dest="plan", default="generic",
                       choices=["generic", "best3"],
                       help="reassignment rule (default generic)")
    p_int.add_argument("--strictness", default="point",
                       choices=["point", "significant"],
                       help="violations that trigger reassignment "
                            "(default point)")
    p_int.add_argument("--validation-fraction", type=float, default=0.25,
                       help="train share held out for best3 selection "
                            "(default 0.25)")
    p_int.add_argument("--out", help="plan JSON path (default stdout)")

    p_rep = sub.add_parser(
        "replicate-paper", help="regenerate every reference table and "
                                "diff against the frozen expectations")
    p_rep.add_argument("--out", help="directory for the CSV/JSON bundle")
    return parser


def _load_train_test(args, seed):
    given = [bool(args.data), bool(args.train or args.test)]
    if all(given) or not any(given):
        raise _UsageError("provide either --data or both --train and "
                          "--test")
    if args.data:
        if not 0.0 < args.train_fraction <= 1.0:
            raise _UsageError("--train-fraction must lie in (0, 1]")
        ds = load_csv(args.data)
        if args.train_fraction == 1.0:
            return ds, ds
        return split(ds, args.train_fraction, seed)
    if not (args.train and args.test):
        raise _UsageError("--train and --test must be given together")
    return load_csv(args.train), load_csv(args.test)


def _audit_config(args):
    return AuditConfig(
        alpha=args.alpha, bootstrap_reps=args.bootstrap, seed=args.seed,
        train_config=TrainConfig(loss=args.loss, l2_penalty=args.l2))


def _write(out, *texts):
    """Write `texts` one after another to the file `out`, or to stdout,
    without joining them into one more copy."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            for text in texts:
                fh.write(text)
        print(f"wrote {out}")
    else:
        for text in texts:
            sys.stdout.write(text)


def _cmd_audit(args):
    train, test = _load_train_test(args, args.seed)
    metrics = tuple(metric_from_name(name)
                    for name in (args.metric or ["error"]))
    report = audit(train, test, as_strategy(args.encoding), metrics,
                   _audit_config(args))
    if args.format == "json":
        _write(args.out, report.to_json_str(), "\n")
    elif args.format == "csv":
        _write(args.out, report.to_csv())
    else:
        _write(args.out, report.to_markdown())
    if args.mode == "point":
        return _VIOLATION_EXIT if report.has_point_violation else 0
    return _VIOLATION_EXIT if report.has_significant_violation else 0


def _cmd_synth(args):
    kind = args.kind
    out = args.out or f"{kind}.csv"
    if kind == "planted":
        n = args.n_per_group if args.n_per_group is not None else 500
        result = gen_planted_violation(m=args.m, n_per_group=n,
                                       gap=args.gap, seed=args.seed)
    elif kind == "exchangeable":
        n = args.n_per_group if args.n_per_group is not None else 250
        result = gen_exchangeable_null(m=args.m, n_per_group=n,
                                       seed=args.seed)
    else:
        result = GENERATORS[kind]()
    sidecar = {}
    if kind == "feature-selection":
        ds, constraint = result
        save_csv(ds, out)
        print(f"wrote {out} ({ds.n} rows; constraint: {constraint})")
    elif kind in ("sampling-error", "label-shift"):
        train, truth = result
        save_csv(train, out)
        root, ext = os.path.splitext(out)
        truth_path = f"{root}_truth{ext or '.csv'}"
        save_csv(truth, truth_path)
        print(f"wrote {out} ({train.n} rows) and {truth_path} "
              f"({truth.n} rows)")
    else:
        save_csv(result, out)
        print(f"wrote {out} ({result.n} rows)")
    if kind in _EXPECTED_KEYS:
        sidecar = EXPECTED_TABLES[_EXPECTED_KEYS[kind]]
        path = f"{out}.expected.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


def _cmd_intervene(args):
    cfg = _audit_config(args)
    if args.plan == "generic":
        train, test = _load_train_test(args, args.seed)
        report = audit(train, test, as_strategy(args.encoding),
                       cfg=cfg)
        plan = assign_generic_on_violation(report,
                                           strictness=args.strictness)
    else:
        if not 0.0 < args.validation_fraction < 1.0:
            raise _UsageError("--validation-fraction must lie in (0, 1)")
        train, test = _load_train_test(args, args.seed)
        core, validation = split(train, 1.0 - args.validation_fraction,
                                 args.seed + 1)
        # In-sample, test holds the validation rows: audit core alone.
        report = audit(core, core if test is train else test,
                       as_strategy(args.encoding), cfg=cfg)
        decoupled = train_personalized(core, Strategy.DECOUPLED,
                                       cfg.train_config)
        plan = assign_best_of_three(report, decoupled, validation)
    _write(args.out, plan.to_json_str(), "\n")
    return 0


def _cmd_replicate(args):
    observed, diffs = replicate(args.out)
    for kind in sorted(observed):
        status = "MISMATCH" if any(d.startswith(kind) for d in diffs) \
            else "ok"
        print(f"{kind}: {status}")
    for line in diffs:
        print(f"  {line}")
    if args.out:
        print(f"bundle written to {args.out}")
    return _MISMATCH_EXIT if diffs else 0


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return _USAGE_ERROR if code else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return _USAGE_ERROR
    handlers = {
        "audit": _cmd_audit,
        "synth": _cmd_synth,
        "intervene": _cmd_intervene,
        "replicate-paper": _cmd_replicate,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (OSError, ValueError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
