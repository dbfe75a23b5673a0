"""Recompute every frozen reference table and diff against expectations.

Each generated failure-mode dataset ships with an expected table of
per-group tallies, error counts, and gains. This module re-derives those
numbers from scratch: exhaustive 0-1 and hinge trainers run on the frozen
constants, and the counting constructions are re-evaluated row by row.
Any disagreement names the exact failing cell.
"""

import json
import os

from .audit import misreport_matrix
from .dataset import save_csv, tally
from .metrics import ERROR_RATE, MarginTable
from .models import Strategy, TrainConfig, train_personalized, \
    train_zero_one_exhaustive
from .synth import (EXPECTED_TABLES, errors_by_cell, evaluate_rule,
                    gen_feature_selection, gen_group_specific_effects,
                    gen_label_shift, gen_misspecification,
                    gen_sampling_error, gen_surrogate_outlier)

__all__ = ["observed_tables", "diff_tables", "replicate"]


def _tally_map(ds):
    t = tally(ds)
    return {str(g): [t.counts[g].n_pos, t.counts[g].n_neg]
            for g in ds.space.cells()}


def _model_errors(model, ds):
    """A trained model's misclassified rows per cell on ds, keyed by cell
    string: (generic, truthful), read from its margin table's error-rate
    misreport matrix, column 0 and the diagonal of columns 1..m."""
    counts = misreport_matrix(MarginTable(model, ds), ERROR_RATE).counts
    cells = [str(c) for c in ds.space.cells()]
    return (dict(zip(cells, counts[:, 0].tolist())),
            dict(zip(cells, counts.diagonal(1).tolist())))


def _misspecification_observed():
    ds = gen_misspecification()
    generic = train_zero_one_exhaustive(ds, Strategy.GENERIC)
    onehot = train_zero_one_exhaustive(ds, Strategy.ONEHOT)
    generic_errors = _model_errors(generic, ds)[0]
    onehot_errors = _model_errors(onehot, ds)[1]
    return ds, {
        "tally": _tally_map(ds),
        "generic_errors": generic_errors,
        "generic_total": sum(generic_errors.values()),
        "onehot_errors": onehot_errors,
        "onehot_total": sum(onehot_errors.values()),
        "onehot_gains": {g: generic_errors[g] - onehot_errors[g]
                         for g in generic_errors},
    }


def _group_effects_observed():
    ds = gen_group_specific_effects()
    generic = train_zero_one_exhaustive(ds, Strategy.GENERIC)
    onehot = train_zero_one_exhaustive(ds, Strategy.ONEHOT)
    decoupled = train_zero_one_exhaustive(ds, Strategy.DECOUPLED)
    return ds, {
        "tally": _tally_map(ds),
        "generic_errors": _model_errors(generic, ds)[0],
        "onehot_errors": _model_errors(onehot, ds)[1],
        "decoupled_errors": _model_errors(decoupled, ds)[1],
    }


def _feature_selection_observed():
    ds, constraint = gen_feature_selection()
    expected = EXPECTED_TABLES["feature_selection"]
    t = tally(ds)
    totals = [sum(c.n_pos for c in t.counts.values()),
              sum(c.n_neg for c in t.counts.values())]
    out = {"tally_totals": totals, "constraint": constraint}
    h0_rule = expected["h0"]["rule"]
    h0_errors = errors_by_cell(ds, evaluate_rule(h0_rule, ds))
    out["h0"] = {"rule": h0_rule, "errors": h0_errors,
                 "total": sum(h0_errors.values())}
    for key in ("h1", "h2"):
        rule = expected[key]["rule"]
        errors = errors_by_cell(ds, evaluate_rule(rule, ds))
        out[key] = {
            "rule": rule,
            "errors": errors,
            "total": sum(errors.values()),
            "gains": {g: h0_errors[g] - errors[g] for g in errors},
            "overall_gain": sum(h0_errors.values()) - sum(errors.values()),
        }
    return ds, out


def _surrogate_observed():
    ds = gen_surrogate_outlier()
    out = {"tally": _tally_map(ds)}
    zo_generic = train_zero_one_exhaustive(ds, Strategy.GENERIC)
    zo_decoupled = train_zero_one_exhaustive(ds, Strategy.DECOUPLED)
    hinge_cfg = TrainConfig(loss="hinge")
    hg_generic = train_personalized(ds, Strategy.GENERIC, hinge_cfg)
    hg_decoupled = train_personalized(ds, Strategy.DECOUPLED, hinge_cfg)
    for name, generic, personalized in (
            ("zero_one", zo_generic, zo_decoupled),
            ("hinge", hg_generic, hg_decoupled)):
        generic_errors = _model_errors(generic, ds)[0]
        decoupled_errors = _model_errors(personalized, ds)[1]
        out[name] = {
            "generic_errors": generic_errors,
            "decoupled_errors": decoupled_errors,
            "gains": {g: generic_errors[g] - decoupled_errors[g]
                      for g in generic_errors},
        }
    return ds, out


def _counting_observed(kind, gen):
    train, truth = gen()
    expected = EXPECTED_TABLES[kind]
    h0_rule = expected["h0"]["rule"]
    pers_rule = expected["personalized"]["rule"]
    out = {
        "train_tally": _tally_map(train),
        "truth_tally": _tally_map(truth),
        "h0": {"rule": h0_rule},
        "personalized": {"rule": pers_rule},
    }
    for prefix, ds in (("train", train), ("true", truth)):
        h0_errors = errors_by_cell(ds, evaluate_rule(h0_rule, ds))
        pers_errors = errors_by_cell(ds, evaluate_rule(pers_rule, ds))
        out[f"{prefix}_gains"] = {g: h0_errors[g] - pers_errors[g]
                                  for g in h0_errors}
        out[f"{prefix}_total_gain"] = (sum(h0_errors.values())
                                       - sum(pers_errors.values()))
    return (train, truth), out


def observed_tables():
    """Re-derive every reference table; returns (datasets, tables)."""
    datasets = {}
    tables = {}
    datasets["misspecification"], tables["misspecification"] = \
        _misspecification_observed()
    datasets["group_specific_effects"], tables["group_specific_effects"] \
        = _group_effects_observed()
    datasets["feature_selection"], tables["feature_selection"] = \
        _feature_selection_observed()
    datasets["surrogate_outlier"], tables["surrogate_outlier"] = \
        _surrogate_observed()
    datasets["sampling_error"], tables["sampling_error"] = \
        _counting_observed("sampling_error", gen_sampling_error)
    datasets["label_shift"], tables["label_shift"] = _counting_observed(
        "label_shift", gen_label_shift)
    return datasets, tables


def diff_tables(expected, observed, path=""):
    """Recursively compare tables; returns the list of differing cells."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        out = []
        for key in sorted(set(expected) | set(observed), key=str):
            sub = f"{path}/{key}" if path else str(key)
            if key not in observed:
                out.append(f"{sub}: missing from observed")
            elif key not in expected:
                out.append(f"{sub}: unexpected key")
            else:
                out += diff_tables(expected[key], observed[key], sub)
        return out
    if isinstance(expected, (list, tuple)) \
            and isinstance(observed, (list, tuple)):
        if list(expected) == list(observed):
            return []
        return [f"{path}: expected {list(expected)!r}, "
                f"got {list(observed)!r}"]
    if expected != observed:
        return [f"{path}: expected {expected!r}, got {observed!r}"]
    return []


def replicate(out_dir=None):
    """Recompute all reference tables and diff against the frozen ones.

    When out_dir is given, writes per-table CSVs plus expected.json,
    observed.json, and diffs.txt into it (byte-identical across runs).

    Returns:
        (observed, diffs): the recomputed tables and the list of
        mismatched cell paths (empty on full agreement).
    """
    datasets, observed = observed_tables()
    diffs = diff_tables(EXPECTED_TABLES, observed)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for kind, value in datasets.items():
            if isinstance(value, tuple):
                train, truth = value
                save_csv(train, os.path.join(out_dir, f"{kind}.csv"))
                save_csv(truth, os.path.join(out_dir,
                                             f"{kind}_truth.csv"))
            else:
                save_csv(value, os.path.join(out_dir, f"{kind}.csv"))
        for name, payload in (("expected", EXPECTED_TABLES),
                              ("observed", observed)):
            with open(os.path.join(out_dir, f"{name}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        with open(os.path.join(out_dir, "diffs.txt"), "w",
                  encoding="utf-8") as fh:
            for line in diffs:
                fh.write(line + "\n")
    return observed, diffs
