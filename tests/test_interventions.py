"""Reassignment planners and data-minimization advice."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fairuse.audit import (AuditConfig, MisreportMatrix, audit,
                           check_fair_use_point, misreport_matrix)
from fairuse.dataset import Dataset, split
from fairuse.groups import WITHHELD, GroupSpace
from fairuse.interventions import (DECOUPLED_SOURCE, GENERIC, PERSONALIZED,
                                   assign_best_of_three,
                                   assign_generic_on_violation,
                                   data_minimization)
from fairuse.metrics import AUC, ERROR_RATE, group_risk
from fairuse.models import Strategy, train_personalized
from fairuse.synth import gen_misspecification, gen_planted_violation

AB = GroupSpace((("g", ("a", "b")),))
TWO_BY_TWO = GroupSpace((("sex", ("f", "m")), ("age", ("o", "y"))))

CFG = AuditConfig(seed=0, bootstrap_reps=200)


@pytest.fixture(scope="module")
def mis_report():
    ds = gen_misspecification()
    return ds, audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,), CFG)


def test_generic_plan_reassigns_the_harmed_group(mis_report):
    ds, report = mis_report
    fy = ds.space.group("f", "y")
    plan = assign_generic_on_violation(report)
    assert plan.strictness == "point"
    assert plan.basis == "audit test sample"
    assert plan.reassigned == (fy,)
    assert plan.assignments[fy] == GENERIC
    assert all(plan.assignments[g] == PERSONALIZED
               for g in ds.space.cells() if g != fy)
    assert plan.baseline_group_risks[fy] == 1.0
    assert plan.projected_group_risks[fy] == 0.0
    for g in ds.space.cells():
        assert plan.projected_group_risks[g] <= \
            plan.baseline_group_risks[g]
    assert plan.baseline_population_risk == pytest.approx(74 / 101)
    assert plan.projected_population_risk == pytest.approx(50 / 101)
    resolved = set(plan.resolved_violations)
    assert ("rationality", "f,y", "generic") in resolved
    assert all(entry[1] == "f,y" for entry in resolved)
    assert len(resolved) == 4
    remaining = set(plan.remaining_violations)
    assert len(remaining) == 3
    assert all(entry[0] == "envy" and entry[1] != "f,y"
               for entry in remaining)
    out = plan.to_jsonable()
    assert out["assignments"]["f,y"] == GENERIC
    assert plan.to_json_str() == \
        assign_generic_on_violation(report).to_json_str()


def test_significant_strictness_matches_here(mis_report):
    ds, report = mis_report
    fy = ds.space.group("f", "y")
    plan = assign_generic_on_violation(report, strictness="significant")
    assert plan.reassigned == (fy,)
    assert plan.projected_group_risks[fy] < \
        plan.baseline_group_risks[fy]


def test_auc_plan_reassigns_violators_and_raises_their_auc():
    # A higher AUC is better: comparing raw AUCs as lower-is-better
    # called every such reassignment a worsening and raised.
    ds = gen_planted_violation(m=4, n_per_group=300, seed=0)
    report = audit(ds, ds, Strategy.ONEHOT, (AUC,),
                   AuditConfig(seed=0, bootstrap_reps=100))
    violators = report.points["auc"].rationality_violations
    assert violators
    plan = assign_generic_on_violation(report, metric="auc")
    assert set(plan.reassigned) == set(violators)
    for g in ds.space.cells():
        if g in violators:
            assert plan.projected_group_risks[g] > \
                plan.baseline_group_risks[g]
        else:
            assert plan.projected_group_risks[g] == \
                plan.baseline_group_risks[g]


def test_fair_audit_yields_an_identity_plan():
    ds = gen_misspecification()
    report = audit(ds, ds, Strategy.GENERIC, (ERROR_RATE,), CFG)
    assert not report.has_point_violation
    plan = assign_generic_on_violation(report)
    assert plan.reassigned == ()
    assert plan.resolved_violations == ()
    assert plan.remaining_violations == ()
    for g in ds.space.cells():
        assert plan.projected_group_risks[g] == \
            plan.baseline_group_risks[g]


def test_plan_input_validation(mis_report):
    _, report = mis_report
    with pytest.raises(ValueError, match="strictness"):
        assign_generic_on_violation(report, strictness="bonkers")
    with pytest.raises(ValueError, match="auc"):
        assign_generic_on_violation(report, metric="auc")


def _fabricated_report(space, own, generic):
    """Stand-in report whose matrix has the given diagonal and generic
    column; every misreport entry is a harmless 0.9."""
    cells = space.cells()
    values = np.full((len(cells), len(cells) + 1), 0.9)
    for gi, g in enumerate(cells):
        values[gi, 0] = generic[str(g)]
        values[gi, gi + 1] = own[str(g)]
    n = np.full(len(cells), 10)
    matrix = MisreportMatrix(ERROR_RATE, space, values, n,
                             np.rint(values * 10).astype(int))
    return SimpleNamespace(
        space=space, matrices={"error_rate": matrix},
        points={"error_rate": check_fair_use_point(matrix)}, results=())


def test_attribute_value_advice_when_every_young_cell_fails():
    own = {"f,o": 0.2, "f,y": 0.6, "m,o": 0.2, "m,y": 0.6}
    generic = {"f,o": 0.4, "f,y": 0.4, "m,o": 0.4, "m,y": 0.4}
    report = _fabricated_report(TWO_BY_TWO, own, generic)
    plan = assign_generic_on_violation(report)
    assert {str(g) for g in plan.reassigned} == {"f,y", "m,y"}
    assert [a.subject for a in plan.advice] == ["age=y"]
    assert plan.advice[0].kind == "attribute-value"
    # Rule (b): the plan's advice flows through data minimization.
    shell = SimpleNamespace(results=(), identical_pairs=(),
                            space=TWO_BY_TWO)
    advice = data_minimization(shell, plan)
    assert [a.kind for a in advice] == ["attribute-value"]
    assert advice[0].subject == "age=y"


def test_no_signal_rule_matches_the_results(mis_report):
    ds, report = mis_report
    from fairuse.audit import SIGNIFICANT_GAIN, SIGNIFICANT_VIOLATION
    significant = {r.group for r in report.results
                   if r.verdict in (SIGNIFICANT_GAIN,
                                    SIGNIFICANT_VIOLATION)}
    advice = data_minimization(report)
    no_signal = [a.subject for a in advice if a.kind == "no-signal"]
    want = [str(g) for g in ds.space.cells() if g not in significant]
    assert no_signal == want
    # The audit attaches the same advice to its report.
    assert tuple(a.to_jsonable() for a in report.suggestions) == \
        tuple(a.to_jsonable() for a in advice)


def test_identical_pairs_rule():
    a, b = AB.cells()
    shell = SimpleNamespace(results=(), identical_pairs=((a, b),),
                            space=AB)
    advice = data_minimization(shell)
    assert len(advice) == 1
    assert advice[0].kind == "identical-predictions"
    assert advice[0].subject == "a | b"


def _replicated(rows, k, space, names=("x1", "x2")):
    expanded = [r for r in rows for _ in range(k)]
    x = np.array([r[0] for r in expanded])
    y = np.array([r[2] for r in expanded])
    groups = tuple(space.group(r[1]) for r in expanded)
    return Dataset(x, y, groups, space, feature_names=names)


def _expected_best(report, decoupled, validation, g):
    """First source in preference order reaching the minimum risk."""
    candidates = [
        (GENERIC, group_risk(report.model, validation, g, WITHHELD,
                             ERROR_RATE).value),
        (PERSONALIZED, group_risk(report.model, validation, g, g,
                                  ERROR_RATE).value),
    ]
    if g not in decoupled.empty_cells:
        candidates.append(
            (DECOUPLED_SOURCE, group_risk(decoupled, validation, g, g,
                                          ERROR_RATE).value))
    best = min(v for _, v in candidates)
    return next(src for src, v in candidates if v == best), best


def test_best_of_three_selection_and_tie_preference():
    # Group b's extreme points dominate the shared fit, so the shared and
    # generic models serve b perfectly and sacrifice a; only a's decoupled
    # model wins a back. b itself is a three-way tie at zero, which the
    # preference order resolves to generic.
    rows = [((0.0, 4.0), "a", 1), ((0.0, -2.0), "a", -1),
            ((0.0, -10.0), "b", 1), ((0.0, 10.0), "b", -1)]
    ds = _replicated(rows, 8, AB)
    train, val = split(ds, 0.5, seed=0)
    report = audit(train, train, Strategy.ONEHOT, (ERROR_RATE,), CFG)
    dec = train_personalized(train, Strategy.DECOUPLED, CFG.train_config)
    plan = assign_best_of_three(report, dec, val)
    assert plan.basis == "held-out validation sample"
    a, b = AB.cells()
    assert plan.assignments[a] == DECOUPLED_SOURCE
    assert plan.projected_group_risks[a] == 0.0
    assert plan.baseline_group_risks[a] == 1.0
    assert plan.assignments[b] == GENERIC
    for g in AB.cells():
        want_src, want_risk = _expected_best(report, dec, val, g)
        assert plan.assignments[g] == want_src
        assert plan.projected_group_risks[g] == want_risk
        assert plan.projected_group_risks[g] <= \
            plan.baseline_group_risks[g]


def test_best_of_three_full_tie_prefers_generic_everywhere():
    rows = [((0.0, 1.0), "a", 1), ((0.0, -1.0), "a", -1),
            ((0.0, 1.0), "b", 1), ((0.0, -1.0), "b", -1)]
    ds = _replicated(rows, 8, AB)
    train, val = split(ds, 0.5, seed=0)
    report = audit(train, train, Strategy.ONEHOT, (ERROR_RATE,), CFG)
    dec = train_personalized(train, Strategy.DECOUPLED, CFG.train_config)
    plan = assign_best_of_three(report, dec, val)
    assert all(s == GENERIC for s in plan.assignments.values())
    assert [a.subject for a in plan.advice] == ["g=a", "g=b"]


def test_best_of_three_skips_empty_decoupled_cells():
    space = GroupSpace((("g", ("a", "b", "c")),))
    train_rows = [((0.0, 1.0), "a", 1), ((0.0, -1.0), "a", -1),
                  ((0.0, 1.0), "b", 1), ((0.0, -1.0), "b", -1)]
    train = _replicated(train_rows, 6, space)
    report = audit(train, train, Strategy.ONEHOT, (ERROR_RATE,), CFG)
    dec = train_personalized(train, Strategy.DECOUPLED, CFG.train_config)
    assert dec.empty_cells == (space.group("c"),)
    assert any("no training rows" in f for f in dec.flags)
    val_rows = [((0.0, 1.0), "c", 1), ((0.0, -1.0), "c", -1),
                ((0.0, 1.0), "a", 1), ((0.0, -1.0), "a", -1)]
    val = _replicated(val_rows, 3, space)
    plan = assign_best_of_three(report, dec, val)
    c = space.group("c")
    b = space.group("b")
    # The untrained cell still gets served, just not by a phantom
    # decoupled model; with a zero indicator the choice ties to generic.
    assert plan.assignments[c] == GENERIC
    # Groups absent from the validation split keep their model.
    assert plan.assignments[b] == PERSONALIZED
    assert math.isnan(plan.baseline_group_risks[b])
    assert plan.to_jsonable()["baseline_group_risks"]["b"] is None


def test_best_of_three_input_validation(mis_report):
    ds, report = mis_report
    onehot = report.model
    with pytest.raises(ValueError, match="decoupled"):
        assign_best_of_three(report, onehot, ds)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dec = train_personalized(ds, Strategy.DECOUPLED, CFG.train_config)
    with pytest.raises(ValueError, match="error rate"):
        assign_best_of_three(report, dec, ds, metric="auc")
