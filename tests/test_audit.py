"""Misreport matrices, point checks, significance tests, and full audits."""

import dataclasses
import importlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import expit

from fairuse.audit import (_IDENTICAL_PREFIX_ROWS, BOOTSTRAP, ENVY,
                           INCONCLUSIVE, MCNEMAR, NOT_TESTABLE,
                           RATIONALITY, SIGNIFICANT_GAIN,
                           SIGNIFICANT_VIOLATION, AuditConfig,
                           FairUseReport, HypothesisResult, MarginTable,
                           MisreportMatrix, audit, bonferroni,
                           bootstrap_replicates, bootstrap_test,
                           check_fair_use_point,
                           identical_prediction_pairs, mcnemar_test,
                           misreport_matrix)
from fairuse._jsontext import dumps
from fairuse.dataset import Dataset, loads_csv, split
from fairuse.groups import ALL, WITHHELD, GroupId, GroupSpace
from fairuse.metrics import (AUC, ECE, ERROR_RATE, metric_from_name,
                             metric_value)
from fairuse.models import (LinearModel, PersonalizedModel, Strategy,
                            TrainConfig, build_feature_map,
                            train_personalized, train_zero_one_exhaustive)
from fairuse.synth import (gen_exchangeable_null, gen_group_specific_effects,
                           gen_misspecification, gen_planted_violation)

from oracles import (binom_tail, bonferroni_by_replace, mcnemar_counts,
                     point_gains_by_loops)

AB = GroupSpace((("g", ("a", "b")),))
# The JSON writer module, whose float writer one test counts.
jsontext_module = importlib.import_module("fairuse._jsontext")


def grouped_dataset(n=60, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = np.where(rng.random(n) < expit(x[:, 0]), 1, -1)
    groups = tuple(AB.cells()[i % 2] for i in range(n))
    return Dataset(x, y, groups, AB)


class _StubModel:
    """Fixed margins per reported group; enough for the test routines."""

    def __init__(self, space, margins_by_reported):
        self.space = space
        self._margins = {k: np.asarray(v, dtype=float)
                         for k, v in margins_by_reported.items()}

    def margins(self, x, reported):
        return self._margins[reported][:x.shape[0]]


def _bootstrap_one(model, g, comparator, data, metric, *, reps, seed):
    """One bootstrap test in two steps: draw the replicates, then test."""
    table = MarginTable(model, data)
    observed, gains = bootstrap_replicates(table, g, (comparator,), metric,
                                           reps=reps, seed=seed)
    return bootstrap_test(table, g, comparator, metric, observed[0],
                          gains[:, 0])


def test_misreport_matrix_matches_manual_loop():
    ds = grouped_dataset()
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    for metric in (ERROR_RATE, AUC, ECE):
        matrix = misreport_matrix(MarginTable(model, ds), metric)
        assert matrix.values.shape == (2, 3)
        assert (matrix.counts is None) == (metric is not ERROR_RATE)
        for gi, g in enumerate(AB.cells()):
            rows = ds.rows_for(g)
            x = ds.features[rows]
            y = ds.labels[rows]
            assert matrix.n[gi] == rows.size
            # Column 0 is the generic model, column j + 1 cell j.
            for col, reported in enumerate((WITHHELD,) + AB.cells()):
                margins = model.margins(x, reported)
                want = metric_value(metric, expit(margins), margins, y)
                assert matrix.values[gi, col] == pytest.approx(want,
                                                               abs=1e-12)
                if matrix.counts is not None:
                    assert matrix.counts[gi, col] == np.count_nonzero(
                        np.where(margins >= 0, 1, -1) != y)


def test_generic_model_matrix_rows_are_constant():
    ds = grouped_dataset()
    model = train_personalized(ds, Strategy.GENERIC,
                               TrainConfig(l2_penalty=1e-3))
    matrix = misreport_matrix(MarginTable(model, ds), ERROR_RATE)
    for row in matrix.values:
        assert len(set(row.tolist())) == 1


def _matrix(metric, space, table):
    """Build a MisreportMatrix from {(g, reported): (value, n, defined)};
    an error-rate matrix also gets its misclassified-row counts."""
    cells = space.cells()
    values = np.full((len(cells), len(cells) + 1), np.nan)
    n = np.zeros(len(cells), dtype=int)
    for (g, reported), (value, size, defined) in table.items():
        gi = cells.index(g)
        col = 0 if reported is WITHHELD else cells.index(reported) + 1
        n[gi] = size
        if defined:
            values[gi, col] = value
    if metric is not ERROR_RATE:
        return MisreportMatrix(metric, space, values, n)
    counts = np.rint(np.nan_to_num(values) * n[:, None]).astype(int)
    return MisreportMatrix(metric, space, values, n, counts)


def test_point_check_on_handcrafted_error_matrix():
    a, b = AB.cells()
    matrix = _matrix(ERROR_RATE, AB, {
        (a, WITHHELD): (0.1, 10, True), (a, a): (0.2, 10, True),
        (a, b): (0.4, 10, True),
        (b, WITHHELD): (0.5, 12, True), (b, b): (0.3, 12, True),
        (b, a): (0.1, 12, True),
    })
    point = check_fair_use_point(matrix)
    assert point.gains[a].rationality_gain == pytest.approx(-0.1)
    assert point.gains[a].envy_gains[b] == pytest.approx(0.2)
    assert point.gains[b].rationality_gain == pytest.approx(0.2)
    assert point.gains[b].envy_gains[a] == pytest.approx(-0.2)
    assert point.gains[b].envy_argmin == a
    assert point.rationality_violations == (a,)
    assert point.envy_violations == ((b, a),)
    assert not point.fair
    # Error-rate gains in rows are exact int differences of wrong rows.
    assert point.gains[a].to_jsonable()["rationality_gain_count"] == -1
    assert point.gains[a].to_jsonable()["envy_min_gain_count"] == 2
    assert type(point.gains[a].rationality_gain_count) is int


def test_point_error_gain_counts_are_differences_of_wrong_rows():
    ds = grouped_dataset(n=90, seed=7)
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    table = MarginTable(model, ds)
    point = check_fair_use_point(misreport_matrix(table, ERROR_RATE))
    for g, pg in point.gains.items():
        wrong = {r: int(np.count_nonzero(table.wrong(g, r)))
                 for r in (WITHHELD,) + AB.cells()}
        assert pg.rationality_gain_count == wrong[WITHHELD] - wrong[g]
        assert pg.envy_min_gain_count == wrong[pg.envy_argmin] - wrong[g]
        assert type(pg.envy_min_gain_count) is int


def test_point_check_orients_auc_and_skips_undefined():
    a, b = AB.cells()
    matrix = _matrix(AUC, AB, {
        (a, WITHHELD): (0.95, 10, True), (a, a): (0.90, 10, True),
        (a, b): (0.99, 10, True),
        (b, WITHHELD): (0.6, 12, True), (b, b): (0.8, 12, True),
        (b, a): (0.0, 12, False),
    })
    point = check_fair_use_point(matrix)
    # Higher generic AUC means the personalized model hurts group a.
    assert point.gains[a].rationality_gain == pytest.approx(-0.05)
    assert point.gains[a].envy_gains[b] == pytest.approx(-0.09)
    assert point.gains[b].rationality_gain == pytest.approx(0.2)
    assert math.isnan(point.gains[b].envy_gains[a])
    assert point.gains[b].envy_argmin is None
    assert math.isnan(point.gains[b].envy_min_gain)
    assert point.envy_violations == ((a, b),)
    # AUC gains in rows stay gain * n; an undefined one is written null.
    assert point.gains[a].rationality_gain_count == \
        point.gains[a].rationality_gain * 10
    assert point.gains[b].to_jsonable()["envy_min_gain_count"] is None


def test_point_check_argmin_breaks_ties_by_name():
    space = GroupSpace((("g", ("a", "b", "c")),))
    a, b, c = space.cells()
    matrix = _matrix(ERROR_RATE, space, {
        (a, WITHHELD): (0.5, 9, True), (a, a): (0.5, 9, True),
        (a, b): (0.4, 9, True), (a, c): (0.4, 9, True),
        (b, WITHHELD): (0.5, 9, True), (b, b): (0.5, 9, True),
        (b, a): (0.5, 9, True), (b, c): (0.5, 9, True),
        (c, WITHHELD): (0.5, 9, True), (c, c): (0.5, 9, True),
        (c, a): (0.5, 9, True), (c, b): (0.5, 9, True),
    })
    point = check_fair_use_point(matrix)
    assert point.gains[a].envy_min_gain == pytest.approx(-0.1)
    assert point.gains[a].envy_argmin == b
    # Names, not cell order, break the tie: "a" is the last cell here.
    space = GroupSpace((("g", ("z", "b", "a")),))
    z, b, a = space.cells()
    matrix = _matrix(ERROR_RATE, space, {
        (z, WITHHELD): (0.5, 9, True), (z, z): (0.5, 9, True),
        (z, b): (0.4, 9, True), (z, a): (0.4, 9, True),
        (b, WITHHELD): (0.5, 9, True), (b, b): (0.5, 9, True),
        (b, z): (0.5, 9, True), (b, a): (0.5, 9, True),
        (a, WITHHELD): (0.5, 9, True), (a, a): (0.5, 9, True),
        (a, z): (0.5, 9, True), (a, b): (0.5, 9, True),
    })
    assert check_fair_use_point(matrix).gains[z].envy_argmin == a


@given(st.integers(2, 5).flatmap(lambda m: st.tuples(
    st.permutations(["a", "b", "c", "d", "e"][:m]),
    st.lists(st.lists(st.sampled_from([math.nan, 0.0, 0.25, 0.5, 1.0]),
                      min_size=m + 1, max_size=m + 1),
             min_size=m, max_size=m))), st.sampled_from([AUC, ECE]))
def test_point_check_arrays_match_the_entry_loop(case, metric):
    names, rows = case
    space = GroupSpace((("g", tuple(names)),))
    cells = space.cells()
    matrix = MisreportMatrix(metric, space, np.array(rows),
                             np.full(len(rows), 7))
    point = check_fair_use_point(matrix)
    rat, envy, argmin, rat_viol, envy_viol = point_gains_by_loops(
        rows, names, metric.lower_is_better)
    for i, g in enumerate(cells):
        pg = point.gains[g]
        assert np.array_equal([pg.rationality_gain], [rat[i]],
                              equal_nan=True)
        assert list(pg.envy_gains) == [cells[j] for j in envy[i]]
        assert np.array_equal(list(pg.envy_gains.values()),
                              list(envy[i].values()), equal_nan=True)
        if argmin[i] is None:
            assert pg.envy_argmin is None
            assert math.isnan(pg.envy_min_gain)
        else:
            assert pg.envy_argmin == cells[argmin[i]]
            assert pg.envy_min_gain == envy[i][argmin[i]]
    assert point.rationality_violations == tuple(cells[i] for i in rat_viol)
    assert point.envy_violations == tuple((cells[i], cells[j])
                                          for i, j in envy_viol)


def test_bootstrap_is_deterministic_in_the_seed():
    ds = grouped_dataset()
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    a = AB.group("a")
    r1 = _bootstrap_one(model, a, WITHHELD, ds, ERROR_RATE, reps=300,
                        seed=5)
    r2 = _bootstrap_one(model, a, WITHHELD, ds, ERROR_RATE, reps=300,
                        seed=5)
    assert (r1.estimate, r1.p_violation, r1.p_gain, r1.p_raw) == \
        (r2.estimate, r2.p_violation, r2.p_gain, r2.p_raw)
    r3 = _bootstrap_one(model, a, WITHHELD, ds, ERROR_RATE, reps=300,
                        seed=6)
    assert (r1.p_violation, r1.p_gain) != (r3.p_violation, r3.p_gain)


def _patterns(y, *margins):
    """Distinct rows of the wrong/right matrix over these margin columns,
    in lexicographic order, and how many rows share each."""
    wrong = np.stack([np.where(m >= 0.0, 1, -1) != y for m in margins],
                     axis=1)
    return np.unique(wrong, axis=0, return_counts=True)


@pytest.mark.parametrize("n, self_wrong, comp_wrong, other_wrong", [
    (20, range(4), range(9), []),
    # 3 more wrong rows for the comparator: the replicates that draw 6
    # tie with twice the observed gain and count on both sides, where a
    # gain formed from two rounded rates put them on one side only.
    (10, [0], range(6, 10), []),
    # Four row patterns over (generic, a, b), one of them from b alone.
    (40, range(4), range(30, 36), range(10, 20)),
], ids=["overlapping", "tie", "four_patterns"])
def test_bootstrap_error_rate_matches_recomputed_resamples(n, self_wrong,
                                                           comp_wrong,
                                                           other_wrong):
    y = np.ones(n, dtype=int)
    self_m = np.ones(n)
    self_m[list(self_wrong)] = -1.0
    comp_m = np.ones(n)
    comp_m[list(comp_wrong)] = -1.0
    other_m = np.ones(n)
    other_m[list(other_wrong)] = -1.0
    space = AB
    a, b = space.cells()
    ds = Dataset(np.zeros((n, 1)), y, (a,) * n, space)
    model = _StubModel(space, {a: self_m, b: other_m, WITHHELD: comp_m})
    reps = 500
    res = _bootstrap_one(model, a, WITHHELD, ds, ERROR_RATE, reps=reps,
                         seed=11)
    assert res.kind == RATIONALITY
    # Recompute, in integers and from the same generator stream, each
    # replicate's gain in wrong rows, dk_rep: Multinomial(n, n_p / n)
    # counts of the row patterns, in the lexicographic order of their
    # wrong/right vectors over (generic, a, b), times each pattern's
    # gain. A recentered draw dk_rep - dk is at most as extreme as the
    # observed dk exactly when dk_rep <= 2 dk (violation side) or >= 2 dk
    # (gain side).
    patterns, n_p = _patterns(y, comp_m, self_m, other_m)
    diffs = patterns[:, 0].astype(int) - patterns[:, 1].astype(int)
    dk = int(n_p @ diffs)
    assert dk == int((comp_m < 0).sum() - (self_m < 0).sum())
    assert res.estimate == dk / n
    counts = np.random.default_rng(11).multinomial(n, n_p / n, size=reps)
    dk_rep = counts @ diffs
    # Every case draws some exact ties at 2 dk.
    assert np.count_nonzero(dk_rep == 2 * dk) > 0
    p_v = (1 + int(np.count_nonzero(dk_rep <= 2 * dk))) / (reps + 1)
    p_g = (1 + int(np.count_nonzero(dk_rep >= 2 * dk))) / (reps + 1)
    assert res.p_violation == p_v
    assert res.p_gain == p_g
    assert res.p_raw == res.p_gain
    assert res.detail == {"reps": reps, "undefined_reps": 0}


def test_bootstrap_sign_conventions():
    n = 20
    y = np.ones(n, dtype=int)
    good = np.ones(n)
    bad = np.where(np.arange(n) < 8, -1.0, 1.0)
    a, b = AB.cells()
    ds = Dataset(np.zeros((n, 1)), y, (a,) * n, AB)
    worse_self = _StubModel(AB, {a: bad, b: good, WITHHELD: good})
    res = _bootstrap_one(worse_self, a, WITHHELD, ds, ERROR_RATE,
                         reps=200, seed=0)
    assert res.estimate < 0 and res.p_raw == res.p_violation
    better_self = _StubModel(AB, {a: good, b: good, WITHHELD: bad})
    res = _bootstrap_one(better_self, a, WITHHELD, ds, ERROR_RATE,
                         reps=200, seed=0)
    assert res.estimate > 0 and res.p_raw == res.p_gain
    tied = _StubModel(AB, {a: bad, b: good, WITHHELD: bad.copy()})
    res = _bootstrap_one(tied, a, WITHHELD, ds, ERROR_RATE,
                         reps=200, seed=0)
    assert res.estimate == 0.0 and res.p_raw == 1.0
    adjusted, = bonferroni([res])
    assert adjusted.verdict == INCONCLUSIVE


def test_bootstrap_envy_kind_and_comparator():
    ds = grouped_dataset()
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    a, b = AB.cells()
    res = _bootstrap_one(model, a, b, ds, ERROR_RATE, reps=200, seed=0)
    assert res.kind == ENVY and res.comparator == b
    assert res.comparator_label == "b"
    rat = _bootstrap_one(model, a, WITHHELD, ds, ERROR_RATE, reps=200,
                         seed=0)
    assert rat.comparator_label == "generic"


def test_bootstrap_not_testable_paths():
    a, b = AB.cells()
    # One row in the group.
    x = np.zeros((3, 1))
    y = np.array([1, -1, 1])
    ds = Dataset(x, y, (a, a, b), AB)
    model = _StubModel(AB, {a: np.ones(3), b: np.ones(3),
                            WITHHELD: np.ones(3)})
    res = _bootstrap_one(model, b, WITHHELD, ds, ERROR_RATE, reps=200,
                         seed=0)
    assert res.verdict == NOT_TESTABLE and not res.testable
    assert "fewer than 2" in res.detail["reason"]
    assert res.p_raw is None and res.estimate != res.estimate
    # AUC undefined on a single-class group.
    ds2 = Dataset(np.zeros((4, 1)), np.array([1, 1, 1, 1]), (a,) * 4, AB)
    model2 = _StubModel(AB, {a: np.ones(4), WITHHELD: -np.ones(4)})
    res2 = _bootstrap_one(model2, a, WITHHELD, ds2, AUC, reps=200, seed=0)
    assert res2.verdict == NOT_TESTABLE
    assert "undefined on the observed rows" in res2.detail["reason"]
    # Single positive row: many resamples lose the positive class.
    y3 = np.array([1, -1, -1, -1, -1, -1])
    scores = np.array([2.0, 1.0, -1.0, -2.0, 0.5, -0.5])
    ds3 = Dataset(np.zeros((6, 1)), y3, (a,) * 6, AB)
    model3 = _StubModel(AB, {a: scores, WITHHELD: scores[::-1].copy()})
    res3 = _bootstrap_one(model3, a, WITHHELD, ds3, AUC, reps=200, seed=0)
    assert res3.verdict == NOT_TESTABLE
    assert "left the metric undefined" in res3.detail["reason"]


def test_bootstrap_rejects_too_few_reps():
    ds = grouped_dataset()
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    with pytest.raises(ValueError, match="100"):
        bootstrap_replicates(MarginTable(model, ds), AB.group("a"),
                             (WITHHELD,), ERROR_RATE, reps=99, seed=0)


def _mcnemar_setup(b, c, n=30):
    """Stub data where self is wrong on b rows, comparator on c rows."""
    assert b + c <= n
    y = np.ones(n, dtype=int)
    self_m = np.ones(n)
    comp_m = np.ones(n)
    self_m[:b] = -1.0
    comp_m[b:b + c] = -1.0
    a = AB.group("a")
    ds = Dataset(np.zeros((n, 1)), y, (a,) * n, AB)
    model = _StubModel(AB, {a: self_m, WITHHELD: comp_m})
    return model, a, ds


def test_mcnemar_exact_cases():
    model, a, ds = _mcnemar_setup(10, 0)
    res = mcnemar_test(MarginTable(model, ds), a, WITHHELD)
    assert res.detail == {"b": 10, "c": 0}
    assert res.estimate == pytest.approx(-10 / 30)
    assert res.p_violation == 2.0 ** -10
    assert res.p_gain == 1.0
    assert res.p_raw == res.p_violation

    model, a, ds = _mcnemar_setup(0, 10)
    res = mcnemar_test(MarginTable(model, ds), a, WITHHELD)
    assert res.estimate == pytest.approx(10 / 30)
    assert res.p_violation == 1.0
    assert res.p_gain == 2.0 ** -10
    assert res.p_raw == res.p_gain

    model, a, ds = _mcnemar_setup(5, 5)
    res = mcnemar_test(MarginTable(model, ds), a, WITHHELD)
    assert res.estimate == 0.0
    assert res.p_raw > 0.5
    assert res.p_violation == res.p_gain == res.p_raw

    model, a, ds = _mcnemar_setup(0, 0)
    res = mcnemar_test(MarginTable(model, ds), a, WITHHELD)
    assert res.p_violation == res.p_gain == res.p_raw == 1.0
    assert res.estimate == 0.0


def test_mcnemar_matches_binomial_oracle():
    for b, c in [(3, 1), (1, 3), (7, 2), (4, 4), (12, 0), (6, 9)]:
        model, a, ds = _mcnemar_setup(b, c)
        res = mcnemar_test(MarginTable(model, ds), a, WITHHELD)
        assert res.p_violation == pytest.approx(
            float(binom_tail(b + c, b)), abs=1e-15)
        assert res.p_gain == pytest.approx(
            float(binom_tail(b + c, c)), abs=1e-15)


def test_mcnemar_not_testable_on_tiny_group():
    a, b = AB.cells()
    ds = Dataset(np.zeros((2, 1)), np.array([1, -1]), (a, b), AB)
    model = _StubModel(AB, {a: np.ones(2), b: np.ones(2),
                            WITHHELD: np.ones(2)})
    res = mcnemar_test(MarginTable(model, ds), a, WITHHELD)
    assert res.verdict == NOT_TESTABLE


# Margins with exact zeros of both signs, which predict +1.
_MARGINS = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.0, 0.25, 1.5])


@given(data=st.data(), n_a=st.integers(2, 9), n_b=st.integers(0, 9))
@example(data=None, n_a=2, n_b=2)
def test_mcnemar_counts_match_float_difference_oracle(data, n_a, n_b):
    a, b = AB.cells()
    n = n_a + n_b
    if data is None:  # 2-row groups with exact zeros on both sides
        labels = np.array([1, -1, 1, -1])
        margins = {a: [0.0, 0.0, -1.0, -1.0], b: [-1.0, 0.0, 0.0, -1.0],
                   WITHHELD: [-0.0, -1.0, 1.0, 1.0]}
    else:
        labels = np.array(data.draw(st.lists(st.sampled_from([-1, 1]),
                                             min_size=n, max_size=n)))
        margins = {r: data.draw(st.lists(_MARGINS, min_size=n, max_size=n))
                   for r in (a, b, WITHHELD)}
    groups = (a,) * n_a + (b,) * n_b
    ds = Dataset(np.zeros((n, 1)), labels, groups, AB)
    table = MarginTable(_StubModel(AB, margins), ds)
    for g, other in ((a, b), (b, a)):
        rows = ds.rows_for(g)
        for comparator in (WITHHELD, other):
            res = mcnemar_test(table, g, comparator)
            if rows.size < 2:
                assert res.verdict == NOT_TESTABLE
                continue
            own_m = np.asarray(margins[g])[rows]
            other_m = np.asarray(margins[comparator])[rows]
            b_count, c_count = mcnemar_counts(own_m, other_m, labels[rows])
            assert res.detail == {"b": b_count, "c": c_count}
            assert res.estimate == (c_count - b_count) / rows.size


def _result(metric, test, kind, estimate, p_raw, group="a",
            comparator=WITHHELD, alpha=0.10):
    g = AB.group(group)
    p = None if p_raw is None else float(p_raw)
    return HypothesisResult(
        kind=kind, test=test, metric=metric, group=g,
        comparator=comparator, n=10, estimate=estimate,
        p_violation=p, p_gain=p, p_raw=p, alpha=alpha)


def test_bonferroni_families_and_verdicts():
    rat = [_result("error_rate", BOOTSTRAP, RATIONALITY,
                   0.2 if i else -0.2, 0.01) for i in range(6)]
    envy = [_result("error_rate", BOOTSTRAP, ENVY, -0.1, 0.5,
                    comparator=AB.group("b")) for _ in range(30)]
    nt = _result("error_rate", BOOTSTRAP, RATIONALITY, float("nan"), None)
    out = bonferroni(rat + envy + [nt])
    adj_rat = out[:6]
    assert all(r.family_size == 6 for r in adj_rat)
    assert all(r.p_adjusted == pytest.approx(0.06) for r in adj_rat)
    assert adj_rat[0].verdict == SIGNIFICANT_VIOLATION
    assert all(r.verdict == SIGNIFICANT_GAIN for r in adj_rat[1:])
    adj_envy = out[6:36]
    assert all(r.family_size == 30 for r in adj_envy)
    assert all(r.p_adjusted == 1.0 for r in adj_envy)
    assert all(r.verdict == INCONCLUSIVE for r in adj_envy)
    adj_nt = out[36]
    assert adj_nt.verdict == NOT_TESTABLE
    assert adj_nt.p_adjusted is None
    assert adj_nt.family_size == 6
    for r in out:
        if r.testable:
            assert r.p_adjusted >= r.p_raw


def test_bonferroni_zero_estimate_and_alpha_override():
    zero = _result("error_rate", MCNEMAR, RATIONALITY, 0.0, 0.001)
    out, = bonferroni([zero])
    assert out.verdict == INCONCLUSIVE
    strong = _result("error_rate", BOOTSTRAP, RATIONALITY, -0.5, 0.0005)
    out, = bonferroni([strong])
    assert out.verdict == SIGNIFICANT_VIOLATION
    out, = bonferroni([strong], alpha=0.0001)
    assert out.verdict == INCONCLUSIVE and out.alpha == 0.0001


def test_result_helper_equals_the_keyword_constructor():
    # audit._result builds results without __init__: a raw one equals the
    # constructor's on the same fields, the defaults (detail, verdict,
    # p_adjusted, family_size) included, and an adjusted one equals
    # dataclasses.replace.
    audit_module = importlib.import_module("fairuse.audit")
    build, unadjusted = audit_module._result, audit_module._UNADJUSTED
    fields = dict(kind=ENVY, test=MCNEMAR, metric="error_rate",
                  group=AB.group("a"), comparator=AB.group("b"), n=10,
                  estimate=-0.2, p_violation=0.03, p_gain=0.99, p_raw=0.03,
                  alpha=0.05)
    want = HypothesisResult(**fields)
    got = build(unadjusted, detail={}, **fields)
    assert type(got) is HypothesisResult
    assert got == want and vars(got) == vars(want)
    assert (got.detail, got.verdict, got.p_adjusted, got.family_size) == \
        ({}, INCONCLUSIVE, None, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.verdict = NOT_TESTABLE
    detail = {"b": 3, "c": 1}
    assert vars(build(unadjusted, detail=detail, **fields)) == \
        vars(HypothesisResult(detail=detail, **fields))
    changes = dict(p_adjusted=0.09, family_size=3,
                   verdict=SIGNIFICANT_VIOLATION)
    assert vars(build(vars(want), **changes)) == \
        vars(dataclasses.replace(want, **changes))
    assert want.verdict == INCONCLUSIVE and unadjusted["family_size"] == 0


_RESULTS = st.builds(
    _result,
    metric=st.sampled_from(["error_rate", "auc"]),
    test=st.sampled_from([BOOTSTRAP, MCNEMAR]),
    kind=st.sampled_from([RATIONALITY, ENVY]),
    estimate=st.sampled_from([-0.3, -0.0, 0.0, 0.2, float("nan")]),
    p_raw=st.one_of(st.none(), st.sampled_from([0.0, 1e-4, 0.01, 0.04,
                                                0.3, 1.0])),
    alpha=st.sampled_from([0.05, 0.10]))
# Results that already carry adjusted fields, as after an earlier pass.
_RESULTS = st.one_of(_RESULTS, _RESULTS.map(lambda r: dataclasses.replace(
    r, p_adjusted=0.5, family_size=7, verdict=SIGNIFICANT_GAIN)))


def _same(x, y):
    return x == y or (isinstance(x, float) and math.isnan(x)
                      and isinstance(y, float) and math.isnan(y))


@given(results=st.lists(_RESULTS, max_size=12),
       alpha=st.one_of(st.none(), st.sampled_from([0.001, 0.2])))
def test_bonferroni_matches_replace_oracle_field_by_field(results, alpha):
    before = [dict(vars(r)) for r in results]
    out = bonferroni(results, alpha)
    want = bonferroni_by_replace(results, alpha)
    assert len(out) == len(want) == len(results)
    for got, expected, r in zip(out, want, results):
        assert type(got) is HypothesisResult and got is not r
        for f in dataclasses.fields(HypothesisResult):
            assert _same(getattr(got, f.name), getattr(expected, f.name)), \
                f.name
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.verdict = INCONCLUSIVE
    for r, fields in zip(results, before):
        assert vars(r).keys() == fields.keys()
        assert all(_same(vars(r)[k], v) for k, v in fields.items())


def test_audit_config_validation():
    with pytest.raises(ValueError):
        AuditConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AuditConfig(alpha=1.0)
    with pytest.raises(ValueError):
        AuditConfig(bootstrap_reps=99)
    with pytest.raises(ValueError):
        AuditConfig(delta=0.0)
    with pytest.raises(ValueError):
        AuditConfig(seed=-1)
    with pytest.raises(ValueError):
        AuditConfig(vc_override=0)


def small_cfg(seed=0, **kw):
    return AuditConfig(seed=seed, bootstrap_reps=200, **kw)


def test_audit_end_to_end_result_count_and_determinism():
    ds = gen_misspecification()
    metrics = (ERROR_RATE, AUC, ECE)
    rep1 = audit(ds, ds, Strategy.ONEHOT, metrics, small_cfg())
    # Bootstrap covers every metric (4 rationality + 12 envy tests each);
    # McNemar runs for the error rate only.
    assert len(rep1.results) == 3 * 16 + 16
    assert rep1.train_equals_test
    text1 = rep1.to_json_str()
    rep2 = audit(ds, ds, Strategy.ONEHOT, metrics, small_cfg())
    assert rep2.to_json_str() == text1
    rep3 = audit(ds, ds, Strategy.ONEHOT, metrics, small_cfg(seed=1))
    assert rep3.to_json_str() != text1


def test_audit_input_validation():
    ds = grouped_dataset()
    other_space = GroupSpace((("g", ("a", "b", "c")),))
    other = Dataset(np.zeros((2, 2)), np.array([1, -1]),
                    (other_space.group("a"), other_space.group("b")),
                    other_space)
    with pytest.raises(ValueError, match="group spaces"):
        audit(ds, other, Strategy.ONEHOT, (ERROR_RATE,), small_cfg())
    with pytest.raises(ValueError, match="metric"):
        audit(ds, ds, Strategy.ONEHOT, (), small_cfg())


@pytest.mark.parametrize("metrics,tag", [
    ((ERROR_RATE, ERROR_RATE), "error_rate"),
    ((metric_from_name("error"), AUC, metric_from_name("error_rate")),
     "error_rate"),
    # ECE at two bin counts: the report keys its matrices, point
    # summaries and population rows by tag alone.
    ((ECE, metric_from_name("ece", ece_bins=5)), "ece"),
])
def test_audit_refuses_a_repeated_metric_tag(metrics, tag):
    # A second copy of a metric would double each of its Bonferroni
    # families, and so every p_adjusted.
    ds = grouped_dataset()
    with pytest.raises(ValueError, match=f"metric '{tag}' is given 2 times"):
        audit(ds, ds, Strategy.ONEHOT, metrics, small_cfg())


def test_audit_makes_one_result_per_test(monkeypatch):
    # Each test's result is made once and adjusted in place: no second,
    # adjusted copy per test.
    audit_module = importlib.import_module("fairuse.audit")
    made = []
    build = audit_module._result

    def counted(base, **fields):
        made.append(build(base, **fields))
        return made[-1]

    monkeypatch.setattr(audit_module, "_result", counted)
    ds = gen_exchangeable_null(m=8, n_per_group=30, seed=0)
    rep = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,), small_cfg())
    # Bootstrap and McNemar: 8 rationality and 56 envy tests each.
    assert len(rep.results) == 2 * 64
    assert len(made) == len(rep.results)
    assert set(map(id, made)) == set(map(id, rep.results))
    assert all(r.family_size in (8, 56) for r in rep.results)


def test_population_counts_each_significant_pair_once():
    # Planted m=4 at 300 rows per group: some envy pairs are significant
    # on both routes, and the population row counts each pair once.
    ds = gen_planted_violation(m=4, n_per_group=300, seed=0)
    rep = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE, AUC), small_cfg())
    for tag, pop in rep.populations.items():
        def pairs(kind, verdict):
            return len({(r.group, r.comparator) for r in rep.results
                        if r.metric == tag and r.kind == kind
                        and r.verdict == verdict})

        assert (pop.significant_rationality_gains,
                pop.significant_rationality_violations,
                pop.significant_envy_gains,
                pop.significant_envy_violations) == (
            pairs(RATIONALITY, SIGNIFICANT_GAIN),
            pairs(RATIONALITY, SIGNIFICANT_VIOLATION),
            pairs(ENVY, SIGNIFICANT_GAIN),
            pairs(ENVY, SIGNIFICANT_VIOLATION))
    per_route = sum(r.metric == "error_rate" and r.kind == ENVY
                    and r.verdict == SIGNIFICANT_GAIN for r in rep.results)
    assert per_route > rep.populations["error_rate"].significant_envy_gains > 0
    assert rep.populations["error_rate"].significant_envy_violations > 0


def test_audit_out_of_sample_flag():
    ds = grouped_dataset(n=80)
    train, test = split(ds, 0.5, seed=0)
    rep = audit(train, test, Strategy.ONEHOT, (ERROR_RATE,), small_cfg())
    assert not rep.train_equals_test
    assert rep.train_tally.total + rep.test_tally.total == ds.n


def test_reference_logistic_audit_flags_one_group():
    ds = gen_misspecification()
    rep = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,), small_cfg())
    point = rep.points["error_rate"]
    fy = ds.space.group("f", "y")
    assert point.rationality_violations == (fy,)
    pop = rep.populations["error_rate"]
    assert pop.worst_gain == (fy, pytest.approx(-1.0))
    # Three groups tie at zero gain; the largest name wins the tie.
    assert pop.best_gain == (ds.space.group("m", "y"), pytest.approx(0.0))
    assert pop.point_rationality_violations == 1
    assert rep.has_point_violation
    viols = rep.significant_violations()
    assert any(r.group == fy and r.kind == RATIONALITY for r in viols)


def test_decoupled_matrix_diagonal_is_row_minimum():
    ds = gen_group_specific_effects()
    model = train_zero_one_exhaustive(ds, Strategy.DECOUPLED)
    matrix = misreport_matrix(MarginTable(model, ds), ERROR_RATE)
    for gi, row in enumerate(matrix.values):
        own = row[gi + 1]
        assert own == 0.0
        assert own <= row.min()


def test_identical_prediction_pairs():
    ds = gen_misspecification()
    space = ds.space
    fmap = build_feature_map(Strategy.ONEHOT, space, ds.feature_names)
    zero = LinearModel(np.zeros(len(fmap.encoded_features) + 1), fmap)
    model = PersonalizedModel(
        strategy=Strategy.ONEHOT, space=space, generic=zero,
        train_config=TrainConfig(), model=zero)
    pairs = identical_prediction_pairs(MarginTable(model, ds))
    assert len(pairs) == 6
    trained = train_personalized(ds, Strategy.ONEHOT,
                                 TrainConfig(l2_penalty=1e-4))
    assert identical_prediction_pairs(MarginTable(trained, ds)) == ()


def _columns_table(columns):
    """MarginTable over one attribute with a cell per margin column."""
    n = len(columns[0])
    space = GroupSpace((("g", tuple(f"c{i}" for i in range(len(columns)))),))
    cells = space.cells()
    ds = Dataset(np.zeros((n, 1)), np.ones(n, dtype=int),
                 tuple(cells[i % len(cells)] for i in range(n)), space)
    return MarginTable(_StubModel(space, dict(zip(cells, columns))), ds), \
        cells


def test_identical_pairs_compare_whole_columns_only_after_the_prefix(
        monkeypatch):
    n = 3 * _IDENTICAL_PREFIX_ROWS
    base = np.linspace(-1.0, 1.0, n)
    late = base.copy()
    late[_IDENTICAL_PREFIX_ROWS + 5] += 1.0
    near = base + 1e-12
    early = base.copy()
    early[0] += 1.0
    inf = np.r_[np.inf, base[1:]]
    # c0, c1 and c2 agree everywhere; c3 agrees with them only on the
    # prefix; c4 differs in its first row; c5 and c6 hold an equal
    # infinity, which allclose accepts.
    table, cells = _columns_table([base, near, base.copy(), late, early,
                                   inf, inf.copy()])
    calls = []
    real = np.allclose

    def counted(a, b, **kwargs):
        calls.append(1)
        return real(a, b, **kwargs)

    monkeypatch.setattr(np, "allclose", counted)
    pairs = identical_prediction_pairs(table)
    assert pairs == ((cells[0], cells[1]), (cells[0], cells[2]),
                     (cells[1], cells[2]), (cells[5], cells[6]))
    # Prefix survivors: the 6 pairs among c0-c3 and (c5, c6).
    assert len(calls) == 7


def test_generalization_rows():
    ds = gen_misspecification()
    rep = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,), small_cfg())
    rows = {str(r.group): r for r in rep.generalization}
    assert all(r.vc == 5 for r in rows.values())
    assert {g: r.n_train for g, r in rows.items()} == \
        {"f,o": 25, "f,y": 24, "m,o": 27, "m,y": 25}
    fy = rows["f,y"]
    # Negative gains make the deployment question moot; no bound applies.
    assert fy.rationality_gain == pytest.approx(-1.0)
    assert not fy.rationality.applicable
    rep2 = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,),
                 small_cfg(vc_override=7))
    assert all(r.vc == 7 for r in rep2.generalization)


def test_audit_summarises_each_metric_on_each_table_once(monkeypatch):
    audit_module = importlib.import_module("fairuse.audit")
    calls = []

    def counted(matrix):
        calls.append(matrix.metric.tag)
        return check_fair_use_point(matrix)

    monkeypatch.setattr(audit_module, "check_fair_use_point", counted)
    ds = gen_misspecification()
    cfg = small_cfg()
    rep = audit(ds, ds, Strategy.ONEHOT, (AUC, ERROR_RATE), cfg)
    # In-sample, the generalization rows read the error-rate summary.
    assert calls == ["auc", "error_rate"]
    table = MarginTable(rep.model, ds)
    assert rep.generalization == \
        audit_module._generalization_rows(table, cfg)
    calls.clear()
    audit(ds, ds, Strategy.ONEHOT, (AUC,), cfg)
    assert calls == ["auc", "error_rate"]
    # A test set that is another object gets its own training summary.
    calls.clear()
    audit(ds, ds.subset(np.arange(ds.n)), Strategy.ONEHOT, (ERROR_RATE,),
          cfg)
    assert calls == ["error_rate", "error_rate"]


def test_decoupled_audit_renders_cells_flags_ece_bins_and_bounds():
    # Groups a and b have opposite labels; c is declared but has no rows,
    # so its decoupled cell inherits the generic model and is flagged.
    abc = GroupSpace((("g", ("a", "b", "c")),))
    n = 600
    x = np.random.default_rng(0).normal(size=(n, 1))
    flip = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    y = np.where(x[:, 0] * flip >= 0, 1, -1)
    ds = Dataset(x, y, tuple(abc.cells()[i % 2] for i in range(n)), abc)
    ece = metric_from_name("ece", ece_bins=5)
    rep = audit(ds, ds, Strategy.DECOUPLED, (ERROR_RATE, ece), small_cfg())
    model = json.loads(rep.to_json_str())["model"]
    assert "model" not in model
    assert list(model["cells"]) == ["a", "b", "c"]
    assert model["cells"]["c"] == model["generic"]
    assert model["cells"]["a"]["weights"] != model["cells"]["b"]["weights"]
    assert model["empty_cells"] == ["c"]
    md = rep.to_markdown()
    assert "\n- ece_bins: 5\n" in md
    assert ("\n- training flags: cell c has no training rows; inheriting "
            "the generic model\n") in md
    row = {str(r.group): r for r in rep.generalization}["a"]
    assert row.rationality.satisfied and row.envy.satisfied
    assert (f"\n| a | 300 | 2 | {row.rationality_gain:+.4f} | "
            f"{row.rationality.required_n} | yes | "
            f"{row.envy_min_gain:+.4f} | {row.envy.required_n} | yes |\n"
            ) in md


def test_report_markdown_and_csv_shape():
    ds = gen_misspecification()
    rep = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,), small_cfg())
    md = rep.to_markdown()
    assert md.startswith("# Fair use audit")
    assert "## Metric: error_rate" in md
    assert "### Misreport matrix (error_rate)" in md
    assert "### Point gains (error_rate)" in md
    assert "## Hypothesis tests" in md
    assert "## Generalization bounds" in md
    assert "(in-sample audit)" in md
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == ("metric,test,kind,group,comparator,n,estimate,"
                        "p_raw,p_adjusted,family_size,verdict")
    assert len(lines) == 1 + len(rep.results)
    json_text = rep.to_json_str()
    assert '"has_point_violation": true' in json_text


def test_markdown_keeps_pipes_and_line_breaks_inside_their_cells():
    """Group values holding `|` or a line break, which a quoted CSV field
    keeps as written, stay inside their table cell and bullet line."""
    rng = np.random.default_rng(0)
    values = ("a|b", '"c\nd"', '"e\r\nf"', '"g\rh"')
    rows = [f"{rng.normal():.3f},{v},{rng.choice([-1, 1])}"
            for v in values for _ in range(30)]
    ds = loads_csv("x1,g:g,y\n" + "\n".join(rows) + "\n")
    md = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,),
               AuditConfig(seed=0, bootstrap_reps=100)).to_markdown()
    assert "\r" not in md
    for label in ("a\\|b", "c<br>d", "e<br>f", "g<br>h"):
        assert f"| {label} |" in md
    lines = md.split("\n")
    width = None
    for previous, line in zip([""] + lines, lines):
        if not line.startswith("|"):
            # A table ends at a blank line; other lines are headings and
            # bullets, each whole.
            assert not (previous.startswith("|") and line), line
            assert not line or line.startswith(("#", "- ")), line
            continue
        cells = len(re.split(r"(?<!\\)\|", line)) - 2
        if not previous.startswith("|"):
            width = cells
        assert line.endswith(" |") or set(line) <= set("|-"), line
        assert cells == width, line


def test_render_labels_each_cell_once(monkeypatch):
    ds = gen_exchangeable_null(m=16, n_per_group=30, seed=0)
    rep = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,),
                AuditConfig(seed=0, bootstrap_reps=100))
    m = len(ds.space.cells())
    assert len(rep.results) == 2 * m * m
    calls = []
    real = GroupId.__str__

    def counted(gid):
        calls.append(gid)
        return real(gid)

    monkeypatch.setattr(GroupId, "__str__", counted)
    for render in (rep.to_json_str, rep.to_csv, rep.to_markdown):
        calls.clear()
        render()
        assert len(calls) <= 2 * m, render.__name__
    # Each result column's floats are written once per distinct value;
    # a float zero is written each time, since -0.0 == 0.0.
    tree = rep.to_jsonable()
    results = tree.pop("results")
    columns = [[v for r in results for v in _floats(r[key])]
               for key in HypothesisResult.KEYS]
    bound = (len(_floats(tree)) + sum(len(set(c)) for c in columns)
             + sum(v == 0.0 for c in columns for v in c))
    texts = []
    real_float = jsontext_module._float

    def counted_float(value):
        texts.append(value)
        return real_float(value)

    monkeypatch.setattr(jsontext_module, "_float", counted_float)
    assert rep.to_json_str() == dumps(rep.to_jsonable())
    texts.clear()
    rep.to_json_str()
    assert len(texts) <= bound


def _floats(tree):
    """Every float in a JSON tree, in order."""
    if isinstance(tree, float):
        return [tree]
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        return [v for item in tree for v in _floats(item)]
    return []


def test_result_frame_and_dicts_write_the_same_report():
    ds = gen_misspecification()
    rep = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE, AUC), small_cfg())
    tree = rep.to_jsonable()
    assert tree["results"] == [r.to_jsonable() for r in rep.results]
    assert rep.to_json_str() == dumps(tree)
    first = tree["results"][0]
    assert list(first) == list(HypothesisResult.KEYS) == sorted(first)
    assert first["comparator"] == "generic"


def test_split_auc_audit_of_one_class_test_rows_is_not_testable():
    # Every test row is negative, so no AUC is defined on the test split:
    # the population's overall gain is NaN (written as null) and no test
    # can run.
    ds = gen_exchangeable_null(m=2, n_per_group=60, seed=0)
    test = ds.subset(np.flatnonzero(ds.labels == -1))
    report = audit(ds, test, metrics=(AUC,),
                   cfg=AuditConfig(bootstrap_reps=100))
    population = report.populations[AUC.tag]
    assert math.isnan(population.overall_gain)
    assert population.to_jsonable()["overall_gain"] is None
    assert report.results
    assert all(r.verdict == NOT_TESTABLE for r in report.results)
