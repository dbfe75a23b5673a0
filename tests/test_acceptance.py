"""Acceptance suite: one test per numbered release criterion.

Each test name carries its criterion number and the conftest terminal
hook turns the outcomes into CRITERION n PASS/FAIL lines. Statistical
criteria follow frozen protocols: fixed seed ranges, fixed sizes, and
the pre-registered detection-rate target in assets/power_target.json.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from fairuse.audit import (BOOTSTRAP, ENVY, MCNEMAR, RATIONALITY,
                           SIGNIFICANT_VIOLATION, AuditConfig, MarginTable,
                           audit, mcnemar_test)
from fairuse.dataset import Dataset
from fairuse.groups import WITHHELD, GroupSpace
from fairuse.interventions import assign_generic_on_violation
from fairuse.metrics import ERROR_RATE
from fairuse.models import (Strategy, TrainConfig, train_personalized,
                            train_zero_one_exhaustive)
from fairuse.replicate import replicate
from fairuse.synth import (EXPECTED_TABLES, errors_by_cell, evaluate_rule,
                           gen_exchangeable_null, gen_feature_selection,
                           gen_group_specific_effects, gen_label_shift,
                           gen_misspecification, gen_planted_violation,
                           gen_sampling_error, gen_surrogate_outlier)
from fairuse.theory import (BoundInputs, check_prop2_premise, envy_bound,
                            rationality_bound, trained_loss)

from oracles import binom_tail, bound_required_n

AB = GroupSpace((("g", ("a", "b")),))

PROP2_CONFIG = TrainConfig(loss="logistic", l2_penalty=0.0)
PERSONALIZED_STRATEGIES = (Strategy.ONEHOT, Strategy.INTERSECTIONAL,
                           Strategy.DECOUPLED)

_TARGET_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                            "assets", "power_target.json")


def test_criterion_01_misspecification_reference_table():
    start = time.monotonic()
    observed, diffs = replicate()
    elapsed = time.monotonic() - start
    mis = observed["misspecification"]
    assert mis["generic_total"] == 50
    assert mis["onehot_total"] == 24
    assert mis["onehot_gains"] == {"f,o": 25, "f,y": -24, "m,o": 0,
                                   "m,y": 25}
    assert sorted(mis["onehot_gains"].values()) == [-24, 0, 25, 25]
    assert diffs == []
    assert elapsed <= 5.0


def test_criterion_02_feature_selection_counts():
    start = time.monotonic()
    ds, constraint = gen_feature_selection()
    assert "at most one of the features" in constraint
    rules = EXPECTED_TABLES["feature_selection"]
    h0 = errors_by_cell(ds, evaluate_rule(rules["h0"]["rule"], ds))
    gains = {}
    for key in ("h1", "h2"):
        errs = errors_by_cell(ds, evaluate_rule(rules[key]["rule"], ds))
        gains[key] = {"overall": sum(h0.values()) - sum(errs.values()),
                      "A": h0["A"] - errs["A"],
                      "B": h0["B"] - errs["B"]}
    assert gains["h1"] == {"overall": 5, "A": -20, "B": 25}
    assert gains["h2"] == {"overall": -10, "A": -50, "B": 40}
    assert time.monotonic() - start <= 1.0


def test_criterion_03_sampling_and_label_shift_tables():
    start = time.monotonic()
    for kind, gen in (("sampling_error", gen_sampling_error),
                      ("label_shift", gen_label_shift)):
        train, truth = gen()
        expected = EXPECTED_TABLES[kind]
        h0_rule = expected["h0"]["rule"]
        pers_rule = expected["personalized"]["rule"]
        for prefix, ds in (("train", train), ("true", truth)):
            h0 = errors_by_cell(ds, evaluate_rule(h0_rule, ds))
            pers = errors_by_cell(ds, evaluate_rule(pers_rule, ds))
            gains = {g: h0[g] - pers[g] for g in h0}
            assert gains == dict(expected[f"{prefix}_gains"])
            assert sum(gains.values()) == expected[f"{prefix}_total_gain"]
    shift = EXPECTED_TABLES["label_shift"]
    assert shift["train_total_gain"] == 40
    assert shift["true_total_gain"] == 10
    assert time.monotonic() - start <= 1.0


@pytest.fixture(scope="module")
def prop2_suite():
    """100 seeded datasets with every strategy trained at zero ridge."""
    start = time.monotonic()
    suite = []
    for seed in range(100):
        if seed < 50:
            ds = gen_exchangeable_null(m=4, n_per_group=60, seed=seed)
        else:
            ds = gen_planted_violation(m=4, n_per_group=60, gap=-0.2,
                                       seed=seed)
        generic = train_personalized(ds, Strategy.GENERIC, PROP2_CONFIG)
        models = {s: train_personalized(ds, s, PROP2_CONFIG)
                  for s in PERSONALIZED_STRATEGIES}
        suite.append((ds, generic, models))
    return suite, time.monotonic() - start


def test_criterion_04_premise_implies_fair_training_matrix(prop2_suite):
    suite, build_seconds = prop2_suite
    start = time.monotonic()
    premise_held = 0
    for ds, _, models in suite:
        decoupled = models[Strategy.DECOUPLED]
        for strategy in PERSONALIZED_STRATEGIES:
            check = check_prop2_premise(models[strategy], decoupled, ds)
            assert check.implication_holds
            if check.all_hold:
                assert check.matrix_ok
                premise_held += 1
    # The decoupled model is its own per-group minimizer, so at least one
    # strategy per dataset must exercise the implication non-vacuously.
    assert premise_held >= len(suite)
    assert build_seconds + (time.monotonic() - start) <= 120.0


def test_criterion_05_decoupled_nests_generic(prop2_suite):
    suite, _ = prop2_suite
    tol = 10.0 * PROP2_CONFIG.gradient_tolerance
    checked = 0
    for ds, generic, models in suite:
        decoupled = models[Strategy.DECOUPLED]
        for g in ds.space.cells():
            rows = ds.rows_for(g)
            if rows.size == 0:
                continue
            x, y = ds.features[rows], ds.labels[rows]
            dec = trained_loss("logistic", decoupled.margins(x, g), y)
            gen = trained_loss("logistic",
                               generic.margins(x, WITHHELD), y)
            assert dec <= gen + tol
            checked += 1
    assert checked == 400


def test_criterion_06_null_calibration():
    start = time.monotonic()
    seeds = 200
    bound = 0.10 + 0.02
    families = {(BOOTSTRAP, RATIONALITY): 0, (BOOTSTRAP, ENVY): 0,
                (MCNEMAR, RATIONALITY): 0, (MCNEMAR, ENVY): 0}
    for seed in range(seeds):
        ds = gen_exchangeable_null(m=4, n_per_group=250, seed=seed)
        report = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,),
                       AuditConfig(seed=seed))
        for test_name, kind in families:
            hit = any(r.test == test_name and r.kind == kind
                      and r.verdict == SIGNIFICANT_VIOLATION
                      for r in report.results)
            families[(test_name, kind)] += int(hit)
    rates = {k: count / seeds for k, count in families.items()}
    assert all(rate <= bound for rate in rates.values()), rates
    assert time.monotonic() - start <= 600.0


def test_criterion_07_planted_violation_power():
    with open(_TARGET_PATH, encoding="utf-8") as fh:
        frozen = json.load(fh)
    target = frozen["target_detection_rate"]
    assert target > 0.5
    seeds = 100
    hits = {BOOTSTRAP: 0, MCNEMAR: 0}
    for seed in range(seeds):
        ds = gen_planted_violation(m=4,
                                   n_per_group=frozen["n_per_group"],
                                   gap=frozen["gap"], seed=seed)
        designated = ds.space.cells()[-1]
        report = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,),
                       AuditConfig(seed=seed, alpha=frozen["alpha"],
                                   bootstrap_reps=frozen[
                                       "bootstrap_reps"]))
        for test_name in hits:
            found = [r for r in report.results
                     if r.test == test_name and r.kind == RATIONALITY
                     and r.group == designated]
            assert len(found) == 1
            hits[test_name] += int(
                found[0].verdict == SIGNIFICANT_VIOLATION)
    assert hits[BOOTSTRAP] / seeds >= target, hits
    assert hits[MCNEMAR] / seeds >= target, hits


class _FixedMargins:
    """Fixed margins per reported group; enough for mcnemar_test."""

    def __init__(self, space, margins_by_reported):
        self.space = space
        self._margins = {k: np.asarray(v, dtype=float)
                         for k, v in margins_by_reported.items()}

    def margins(self, x, reported):
        return self._margins[reported][:x.shape[0]]


def _mcnemar_case(b, c, n=31):
    """Stub rows where self is wrong on b of them, comparator on c."""
    y = np.ones(n, dtype=int)
    self_margins = np.ones(n)
    comp_margins = np.ones(n)
    self_margins[:b] = -1.0
    comp_margins[b:b + c] = -1.0
    a = AB.group("a")
    ds = Dataset(np.zeros((n, 1)), y, (a,) * n, AB)
    model = _FixedMargins(AB, {a: self_margins, WITHHELD: comp_margins})
    return model, a, ds


def test_criterion_08_mcnemar_matches_binomial_tail():
    a = AB.group("a")
    elapsed = 0.0
    for total in range(31):
        for b in range(total + 1):
            c = total - b
            model, a, ds = _mcnemar_case(b, c)
            t0 = time.monotonic()
            res = mcnemar_test(MarginTable(model, ds), a, WITHHELD)
            elapsed += time.monotonic() - t0
            assert res.detail == {"b": b, "c": c}
            if total == 0:
                assert res.p_violation == res.p_gain == 1.0
            else:
                assert res.p_violation == float(binom_tail(total, b))
                assert res.p_gain == float(binom_tail(total, c))
    assert elapsed <= 1.0


def test_criterion_09_sample_size_bound_arithmetic():
    verdict = rationality_bound(BoundInputs(n_g=100, vc=3, delta=0.1,
                                            gain=0.5))
    oracle = bound_required_n(3, 0.1, 0.5)
    assert abs(verdict.required_n - oracle) <= 1
    assert verdict.required_n == 267

    gain_needs = [rationality_bound(
        BoundInputs(100, 3, 0.1, gain)).required_n
        for gain in (0.8, 0.5, 0.3, 0.2, 0.1)]
    assert gain_needs == sorted(gain_needs)
    assert len(set(gain_needs)) == len(gain_needs)

    delta_needs = [rationality_bound(
        BoundInputs(100, 3, delta, 0.5)).required_n
        for delta in (0.2, 0.1, 0.05, 0.01)]
    assert delta_needs == sorted(delta_needs)

    previous = verdict.required_n
    for m in (2, 4, 8, 16):
        need = envy_bound(BoundInputs(100, 3, 0.1, 0.5, m=m)).required_n
        assert need >= previous
        assert abs(need - bound_required_n(3, 0.1, 0.5, m=m)) <= 1
        previous = need


def test_criterion_10_surrogate_loss_failure_mode():
    start = time.monotonic()
    ds = gen_surrogate_outlier()
    hinge_config = TrainConfig(loss="hinge")
    gains = {}
    for name, trainer in (
            ("zero_one", lambda s: train_zero_one_exhaustive(ds, s)),
            ("hinge", lambda s: train_personalized(ds, s,
                                                   hinge_config))):
        generic = trainer(Strategy.GENERIC)
        decoupled = trainer(Strategy.DECOUPLED)
        generic_pred = np.where(
            generic.margins(ds.features, WITHHELD) >= 0.0, 1, -1)
        decoupled_pred = np.where(decoupled.margins_truthful(
            ds.features, ds.cell_indices) >= 0.0, 1, -1)
        generic_errors = errors_by_cell(ds, generic_pred)
        decoupled_errors = errors_by_cell(ds, decoupled_pred)
        gains[name] = {g: generic_errors[g] - decoupled_errors[g]
                       for g in generic_errors}
    assert gains["hinge"]["B"] == -2
    assert gains["hinge"]["B"] < 0
    assert gains["zero_one"]["B"] == 0
    assert gains["zero_one"]["B"] >= 0
    assert time.monotonic() - start <= 5.0


def test_criterion_11_reassignment_never_hurts():
    datasets = [gen_misspecification(), gen_group_specific_effects(),
                gen_feature_selection()[0], gen_surrogate_outlier(),
                gen_sampling_error()[0], gen_label_shift()[0]]
    datasets += [gen_planted_violation(m=4, n_per_group=60, gap=-0.2,
                                       seed=seed) for seed in range(3)]
    datasets += [gen_exchangeable_null(m=4, n_per_group=60, seed=seed)
                 for seed in range(3)]
    reassigned_total = 0
    for ds in datasets:
        report = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,),
                       AuditConfig(seed=0, bootstrap_reps=200))
        for strictness in ("point", "significant"):
            plan = assign_generic_on_violation(report,
                                               strictness=strictness)
            for g, baseline in plan.baseline_group_risks.items():
                projected = plan.projected_group_risks[g]
                if math.isnan(baseline) or math.isnan(projected):
                    continue
                assert projected <= baseline
            for g in plan.reassigned:
                assert plan.projected_group_risks[g] \
                    < plan.baseline_group_risks[g]
            reassigned_total += len(plan.reassigned)
    assert reassigned_total > 0
