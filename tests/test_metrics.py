"""Metric values, orientation, and group risks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import expit

from fairuse.audit import MarginTable, check_fair_use_point, misreport_matrix
from fairuse.dataset import Dataset
from fairuse.groups import ALL, TRUTHFUL, WITHHELD, GroupSpace
from fairuse.metrics import (AUC, ECE, ERROR_RATE, MetricKind, RiskEstimate,
                             auc_value, ece_value, error_rate_value,
                             group_risk, metric_from_name, metric_value,
                             orient)
from fairuse.models import Strategy, TrainConfig, train_personalized, \
    train_zero_one_exhaustive
from fairuse.synth import gen_misspecification

from oracles import direct_ece, pairwise_auc, rank_sum_auc

AB = GroupSpace((("g", ("a", "b")),))


def test_metric_from_name():
    assert metric_from_name("error") is ERROR_RATE
    assert metric_from_name("error_rate") is ERROR_RATE
    assert metric_from_name("AUC") is AUC
    assert metric_from_name("ece", ece_bins=20).ece_bins == 20
    with pytest.raises(ValueError):
        metric_from_name("accuracy")
    with pytest.raises(ValueError):
        MetricKind("auc", lower_is_better=True)
    with pytest.raises(ValueError):
        MetricKind("ece", lower_is_better=True, ece_bins=0)


def test_perfect_predictor_scores():
    y = np.array([1, -1, 1, -1])
    margins = 30.0 * y.astype(float)
    scores = expit(margins)
    assert error_rate_value(margins, y) == 0.0
    assert auc_value(scores, y) == 1.0
    assert ece_value(scores, margins, y) <= 1e-9


def test_constant_half_predictor_scores():
    y = np.array([1, 1, -1, -1])
    margins = np.zeros(4)
    scores = expit(margins)
    assert error_rate_value(margins, y) == 0.5
    assert auc_value(scores, y) == 0.5
    assert ece_value(scores, margins, y) == 0.0


def test_error_rate_boundary_margin_predicts_positive():
    assert error_rate_value(np.array([0.0]), np.array([1])) == 0.0
    assert error_rate_value(np.array([0.0]), np.array([-1])) == 1.0


def test_auc_single_class_is_nan():
    assert math.isnan(auc_value(np.array([0.2, 0.8]), np.array([1, 1])))


@given(st.lists(st.tuples(st.integers(0, 8), st.sampled_from([-1, 1])),
                min_size=2, max_size=25))
def test_auc_matches_pairwise_oracle(rows):
    scores = np.array([r[0] / 8.0 for r in rows])
    labels = np.array([r[1] for r in rows])
    assume(len(set(labels)) == 2)
    assert auc_value(scores, labels) == pytest.approx(
        pairwise_auc(scores, labels), abs=1e-12)


@given(st.lists(st.tuples(st.sampled_from([-2.0, 0.0, 0.5, 3.0, 40.0, 41.0]),
                          st.sampled_from([-1, 1])),
                min_size=1, max_size=300))
def test_auc_equals_rank_sum_formula_bit_for_bit(rows):
    # A handful of margins, so most scores tie (40 and 41 also tie after
    # the sigmoid); the rank-sum formula is the independent reference.
    scores = expit(np.array([r[0] for r in rows]))
    labels = np.array([r[1] for r in rows])
    want = rank_sum_auc(scores, labels)
    got = auc_value(scores, labels)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want


@given(st.lists(st.tuples(st.floats(-4.0, 4.0), st.sampled_from([-1, 1])),
                min_size=1, max_size=25))
def test_ece_matches_direct_oracle(rows):
    margins = np.array([r[0] for r in rows])
    labels = np.array([r[1] for r in rows])
    scores = expit(margins)
    assert ece_value(scores, margins, labels) == pytest.approx(
        direct_ece(scores, margins, labels), abs=1e-12)


def test_ece_boundary_confidences_land_right_closed():
    # Confidences exactly at 0.6 / 0.7 sit in bins 6 and 7; one bin of
    # perfectly calibrated rows contributes nothing.
    scores = np.array([0.6, 0.4, 0.7])
    margins = np.array([1.0, -1.0, 1.0])
    labels = np.array([1, -1, -1])
    # conf = (0.6, 0.6, 0.7); bin 6 holds two correct rows (acc 1.0,
    # conf 0.6 -> gap 0.4), bin 7 one wrong row (gap 0.7).
    want = (2 / 3) * abs(1.0 - 0.6) + (1 / 3) * abs(0.0 - 0.7)
    assert ece_value(scores, margins, labels) == pytest.approx(want)
    assert direct_ece(scores, margins, labels) == pytest.approx(want)


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(0)
    scores = rng.random(30).round(1)
    labels = np.where(rng.random(30) < 0.5, 1, -1)
    labels[0], labels[1] = 1, -1
    base = auc_value(scores, labels)
    assert auc_value(3.0 * scores - 1.0, labels) == base
    assert auc_value(np.tanh(scores), labels) == base


def test_metric_values_invariant_under_permutation():
    rng = np.random.default_rng(1)
    margins = rng.normal(size=40)
    scores = expit(margins)
    labels = np.where(rng.random(40) < 0.5, 1, -1)
    labels[:2] = [1, -1]
    perm = rng.permutation(40)
    assert error_rate_value(margins, labels) == \
        error_rate_value(margins[perm], labels[perm])
    assert auc_value(scores, labels) == pytest.approx(
        auc_value(scores[perm], labels[perm]), abs=1e-12)
    assert ece_value(scores, margins, labels) == pytest.approx(
        ece_value(scores[perm], margins[perm], labels[perm]), abs=1e-12)


def test_risk_estimate_clamps_and_validates():
    est = RiskEstimate(1.0 + 5e-10, 10, ERROR_RATE, None, None)
    assert est.value == 1.0
    est = RiskEstimate(-5e-10, 10, ERROR_RATE, None, None)
    assert est.value == 0.0
    with pytest.raises(ValueError):
        RiskEstimate(1.1, 10, ERROR_RATE, None, None)
    undefined = RiskEstimate(0.3, 0, AUC, None, None, defined=False)
    assert math.isnan(undefined.value)
    assert math.isnan(orient(AUC, undefined.value))


def test_oriented_flips_auc_only():
    assert orient(ERROR_RATE, 0.3) == 0.3
    assert orient(AUC, 0.8) == pytest.approx(0.2)
    assert orient(ECE, 0.1) == 0.1
    assert orient(AUC, np.array([0.25, 1.0])).tolist() == [0.75, 0.0]


def grouped_dataset():
    rng = np.random.default_rng(4)
    n = 60
    x = rng.normal(size=(n, 2))
    y = np.where(rng.random(n) < expit(x[:, 0]), 1, -1)
    groups = tuple(AB.cells()[i % 2] for i in range(n))
    return Dataset(x, y, groups, AB)


def test_error_rate_decomposes_but_auc_and_ece_do_not():
    ds = grouped_dataset()
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    total = group_risk(model, ds, ALL, TRUTHFUL, ERROR_RATE)
    weighted = 0.0
    for g in AB.cells():
        est = group_risk(model, ds, g, TRUTHFUL, ERROR_RATE)
        weighted += est.n_effective * est.value
    assert total.value == pytest.approx(weighted / ds.n, abs=1e-12)
    # AUC counterexample: both groups rank perfectly, the pooled sample
    # does not.
    y = np.array([1, -1, 1, -1])
    scores = np.array([0.6, 0.1, 0.9, 0.7])
    auc_a = auc_value(scores[:2], y[:2])
    auc_b = auc_value(scores[2:], y[2:])
    assert auc_a == auc_b == 1.0
    assert auc_value(scores, y) == 0.75 != 1.0
    # ECE counterexample: per-group gaps cancel in the pooled bin.
    scores2 = np.array([0.8, 0.8])
    margins2 = np.array([1.0, 1.0])
    ece_a = ece_value(scores2[:1], margins2[:1], np.array([1]))
    ece_b = ece_value(scores2[1:], margins2[1:], np.array([-1]))
    pooled = ece_value(scores2, margins2, np.array([1, -1]))
    assert ece_a == pytest.approx(0.2)
    assert ece_b == pytest.approx(0.8)
    assert pooled == pytest.approx(0.3)
    assert abs(pooled - (ece_a + ece_b) / 2) > 0.1


def test_group_risk_empty_group_is_undefined():
    ds = grouped_dataset()
    space = GroupSpace((("g", ("a", "b", "c")),))
    wider = Dataset(ds.features, ds.labels,
                    tuple(space.group(*g.values) for g in ds.groups),
                    space)
    model = train_personalized(wider, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    est = group_risk(model, wider, space.group("c"), WITHHELD, ERROR_RATE)
    assert not est.defined and est.n_effective == 0


def test_reference_model_misreport_risks():
    ds = gen_misspecification()
    model = train_zero_one_exhaustive(ds, Strategy.ONEHOT)
    my = ds.space.group("m", "y")
    fy = ds.space.group("f", "y")
    assert group_risk(model, ds, my, my, ERROR_RATE).value == 0.0
    assert group_risk(model, ds, my, WITHHELD, ERROR_RATE).value == 1.0
    point = check_fair_use_point(
        misreport_matrix(MarginTable(model, ds), ERROR_RATE))
    assert point.gains[fy].rationality_gain == pytest.approx(-1.0)


def test_metric_value_dispatch():
    y = np.array([1, -1])
    margins = np.array([2.0, -2.0])
    scores = expit(margins)
    assert metric_value(ERROR_RATE, scores, margins, y) == 0.0
    assert metric_value(AUC, scores, margins, y) == 1.0
    assert metric_value(ECE, scores, margins, y) == pytest.approx(
        ece_value(scores, margins, y))
