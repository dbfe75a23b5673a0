"""Encodings, trainers, and personalized model plumbing."""

import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

import fairuse._exhaustive as exhaustive
import fairuse._optim as optim
import fairuse.models as models
from fairuse.audit import AuditConfig
from fairuse.dataset import Dataset
from fairuse.groups import WITHHELD, GroupSpace
from fairuse.models import (ConvergenceError, ExhaustiveSizeError,
                            LinearModel, PersonalizedModel, Strategy,
                            TrainConfig, as_strategy, build_feature_map,
                            indicator_block, predict, train_generic,
                            train_personalized, train_zero_one_exhaustive)
from fairuse.synth import gen_exchangeable_null, gen_planted_violation

from oracles import threshold_errors_1d, threshold_labelings_1d

TWO_BY_TWO = GroupSpace((("sex", ("f", "m")), ("age", ("o", "y"))))
AB = GroupSpace((("g", ("a", "b")),))


def make_dataset(feats, labels, group_names, space=None):
    space = space or AB
    groups = tuple(space.group(*(name if isinstance(name, tuple)
                                 else (name,))) for name in group_names)
    return Dataset(np.asarray(feats, dtype=float), np.asarray(labels),
                   groups, space)


def test_as_strategy_coercion():
    assert as_strategy("ONEHOT") is Strategy.ONEHOT
    assert as_strategy(Strategy.DECOUPLED) is Strategy.DECOUPLED
    with pytest.raises(ValueError):
        as_strategy("one-hot")


def test_train_config_validation():
    assert TrainConfig(loss="zero-one-exhaustive").loss == "zero_one"
    assert TrainConfig(loss="zero-one").loss == "zero_one"
    with pytest.raises(ValueError):
        TrainConfig(loss="square")
    with pytest.raises(ValueError):
        TrainConfig(loss="hinge", l2_penalty=0.1)
    with pytest.raises(ValueError):
        TrainConfig(loss="zero_one", l2_penalty=0.1)
    with pytest.raises(ValueError):
        TrainConfig(l2_penalty=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(gradient_tolerance=0.0)
    with pytest.raises(ValueError):
        TrainConfig(max_iterations=0)


def test_feature_map_names_per_strategy():
    base = ("x1", "x2")
    onehot = build_feature_map(Strategy.ONEHOT, TWO_BY_TWO, base)
    assert onehot.encoded_features == ("x1", "x2", "sex=m", "age=y")
    assert onehot.n_indicators == 2
    inter = build_feature_map(Strategy.INTERSECTIONAL, TWO_BY_TWO, base)
    assert inter.encoded_features == ("x1", "x2", "cell=f,y", "cell=m,o",
                                      "cell=m,y")
    for strategy in (Strategy.GENERIC, Strategy.DECOUPLED):
        fmap = build_feature_map(strategy, TWO_BY_TWO, base)
        assert fmap.encoded_features == base


def test_indicator_blocks_reference_levels():
    cells = TWO_BY_TWO.cells()
    onehot = [list(indicator_block(TWO_BY_TWO, Strategy.ONEHOT, g))
              for g in cells]
    assert onehot == [[0, 0], [0, 1], [1, 0], [1, 1]]
    inter = [list(indicator_block(TWO_BY_TWO, Strategy.INTERSECTIONAL, g))
             for g in cells]
    assert inter == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert indicator_block(TWO_BY_TWO, Strategy.GENERIC,
                           cells[0]).size == 0


def _shared_model(strategy, weights):
    """A personalized model with fixed shared weights over x1, x2."""
    base = ("x1", "x2")
    generic = LinearModel(np.zeros(3), build_feature_map(
        Strategy.GENERIC, TWO_BY_TWO, base))
    lm = LinearModel(weights, build_feature_map(strategy, TWO_BY_TWO, base))
    return PersonalizedModel(strategy, TWO_BY_TWO, generic, TrainConfig(),
                             model=lm)


def test_encode_appends_indicators():
    # Dyadic weights and inputs: every margin below is exact.
    g = TWO_BY_TWO.group("m", "y")
    row = np.concatenate([[1.5, -2.0],
                          indicator_block(TWO_BY_TWO, Strategy.ONEHOT, g)])
    assert list(row) == [1.5, -2.0, 1.0, 1.0]
    w = np.array([0.5, -1.0, 2.0, 4.0, 0.25])
    model = _shared_model(Strategy.ONEHOT, w)
    assert model.margins(np.array([1.5, -2.0]), g) == row @ w[:-1] + w[-1]
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    block = indicator_block(TWO_BY_TWO, Strategy.INTERSECTIONAL, g)
    batch = np.hstack([x, np.tile(block, (x.shape[0], 1))])
    assert batch.shape == (2, 5)
    assert list(batch[0]) == [1.0, 2.0, 0.0, 0.0, 1.0]
    w = np.array([0.5, -1.0, 2.0, 4.0, -8.0, 0.25])
    model = _shared_model(Strategy.INTERSECTIONAL, w)
    want = batch @ w[:-1] + w[-1]
    assert np.array_equal(model.margins(x, g), want)
    codes = np.full(x.shape[0], TWO_BY_TWO.index_of(g))
    assert np.array_equal(model.margins_truthful(x, codes), want)


def test_linear_model_validation():
    fmap = build_feature_map(Strategy.GENERIC, AB, ("x1",))
    lm = LinearModel(np.array([2.0, -1.0]), fmap)
    assert list(lm.margins_encoded(np.array([[0.0], [1.0]]))) == [-1.0, 1.0]
    with pytest.raises(ValueError):
        LinearModel(np.array([1.0, 2.0, 3.0]), fmap)
    with pytest.raises(ValueError):
        LinearModel(np.array([np.nan, 0.0]), fmap)


def test_personalized_model_requires_matching_parts():
    fmap = build_feature_map(Strategy.GENERIC, AB, ("x1",))
    lm = LinearModel(np.zeros(2), fmap)
    with pytest.raises(ValueError):
        PersonalizedModel(Strategy.DECOUPLED, AB, lm, TrainConfig())
    with pytest.raises(ValueError):
        PersonalizedModel(Strategy.ONEHOT, AB, lm, TrainConfig())
    partial = {AB.group("a"): lm}
    with pytest.raises(ValueError):
        PersonalizedModel(Strategy.DECOUPLED, AB, lm, TrainConfig(),
                          cells=partial)


def logistic_objective(w, x1, y, lam, n_base):
    m = y * (x1 @ w)
    mask = np.zeros(x1.shape[1])
    mask[:n_base] = 1.0
    return float(np.mean(np.logaddexp(0.0, -m))
                 + lam * np.sum(mask * w * w))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 10.0, 100.0, 745.0])
def test_sigmoid_is_within_4_ulp_of_scipy_expit(scale):
    x = np.random.default_rng(0).uniform(-scale, scale, size=10_000)
    got, want = optim.expit(x), expit(x)
    assert got.dtype == np.float64
    # Both lie in [0, 1], where the int64 view of a float64 counts ulps.
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4


def test_sigmoid_limits_are_exact_and_silent():
    x = np.array([0.0, -np.inf, np.inf, -800.0, 800.0, -745.0, 745.0,
                  np.nan])
    lm = LinearModel(np.array([1.0, 0.0]),
                     build_feature_map(Strategy.GENERIC, AB, ("x1",)))
    model = PersonalizedModel(Strategy.GENERIC, AB, lm, TrainConfig(),
                              model=lm)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = optim.expit(x)
        scalar = optim.expit(np.float64(-2.0))
        # predict passes one numpy scalar margin, here past exp's range.
        far = [predict(model, [v], AB.group("a")) for v in (-800.0, 800.0)]
    assert got[:7].tolist() == [0.5, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert np.isnan(got[7])
    assert isinstance(scalar, np.float64)
    assert float(scalar) == pytest.approx(float(expit(-2.0)), rel=1e-15)
    assert far == [(0.0, -1), (1.0, 1)]


@pytest.mark.parametrize("scale", [1e-6, 1.0, 10.0, 100.0, 745.0])
def test_softplus_is_within_4_ulp_of_logaddexp(scale):
    z = np.random.default_rng(0).uniform(-scale, scale, size=10_000)
    got, want = optim.softplus(z), np.logaddexp(0.0, z)
    assert got.dtype == np.float64
    # Both are positive, where the int64 view of a float64 counts ulps.
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4


def test_softplus_limits_are_exact_and_silent():
    z = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan])
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = optim.softplus(z)
    assert got[:6].tolist() == [np.log(2.0), np.log(2.0), np.inf, 0.0,
                                800.0, 0.0]
    assert got[:6].tolist() == np.logaddexp(0.0, z[:6]).tolist()
    assert np.isnan(got[6])


@pytest.mark.parametrize("strategy", ["generic", "onehot", "intersectional"])
def test_logistic_gradient_contract_and_scipy_crosscheck(strategy):
    # The trainer sums the cell part per cell; the checks below use the
    # dense design [x, indicator rows, 1] that those sums stand in for.
    rng = np.random.default_rng(0)
    n = 120
    x = rng.normal(size=(n, 2))
    codes = np.arange(n) % 4
    logits = 1.2 * x[:, 0] - 0.7 * x[:, 1] + 0.3 + 0.4 * (codes - 1.5)
    y = np.where(rng.random(n) < expit(logits), 1, -1)
    groups = tuple(TWO_BY_TWO.cells()[c] for c in codes)
    ds = Dataset(x, y, groups, TWO_BY_TWO)
    cfg = TrainConfig(l2_penalty=0.05)
    model = train_personalized(ds, strategy, cfg)
    w = model.model.weights
    blocks = np.stack([indicator_block(TWO_BY_TWO, strategy, g)
                       for g in groups])
    x1 = np.hstack([x, blocks, np.ones((n, 1))])
    p = x1.shape[1]
    assert w.size == p
    eps = 1e-6
    grad = np.array([
        (logistic_objective(w + eps * np.eye(p)[j], x1, y, 0.05, 2)
         - logistic_objective(w - eps * np.eye(p)[j], x1, y, 0.05, 2))
        / (2 * eps)
        for j in range(p)])
    assert np.max(np.abs(grad)) <= cfg.gradient_tolerance + 1e-7
    res = minimize(logistic_objective, np.zeros(p),
                   args=(x1, y, 0.05, 2), method="BFGS",
                   options={"gtol": 1e-10})
    ours = logistic_objective(w, x1, y, 0.05, 2)
    assert ours <= res.fun + 1e-8


def test_uninformative_attribute_gets_zero_indicator_weight():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(40, 2))
    y_base = np.where(rng.random(40) < expit(base[:, 0]), 1, -1)
    feats = np.vstack([base, base])
    labels = np.concatenate([y_base, y_base])
    groups = tuple(AB.group("a") for _ in range(40)) + \
        tuple(AB.group("b") for _ in range(40))
    ds = Dataset(feats, labels, groups, AB)
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    indicator_weight = model.model.weights[2]
    assert abs(indicator_weight) <= 1e-5


def test_hinge_training_is_exact_on_separable_data():
    x = np.array([[-2.0, 0.0], [-1.0, 1.0], [1.0, 0.0], [2.0, -1.0]])
    y = np.array([-1, -1, 1, 1])
    ds = make_dataset(x, y, ["a", "b", "a", "b"])
    model = train_generic(ds, TrainConfig(loss="hinge"))
    margins = model.generic.margins_encoded(x)
    hinge = np.maximum(0.0, 1.0 - y * margins)
    assert float(hinge.mean()) <= 1e-8
    assert np.all(np.where(margins >= 0, 1, -1) == y)


def test_hinge_training_memory_is_linear_in_rows():
    # A dense slack identity made the LP take about 600 MB at this size.
    rng = np.random.default_rng(0)
    n = 5000
    x = rng.normal(size=(n, 3))
    y = np.where(x[:, 0] + rng.normal(size=n) > 0, 1, -1)
    ds = make_dataset(x, y, ["a", "b"] * (n // 2))
    tracemalloc.start()
    try:
        train_generic(ds, TrainConfig(loss="hinge"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_onehot_training_memory_per_row_is_flat_in_groups():
    # A dense (n, d + m) indicator design took 1645 bytes per row here.
    ds = gen_exchangeable_null(m=64, n_per_group=500, seed=0)
    tracemalloc.start()
    try:
        train_personalized(ds, Strategy.ONEHOT, AuditConfig().train_config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / ds.n < 200


@given(st.lists(st.tuples(st.integers(-10, 10),
                          st.sampled_from([-1, 1])),
                min_size=2, max_size=12))
def test_exhaustive_1d_matches_threshold_scan(points):
    xs = np.array([[p[0] / 2.0] for p in points])
    ys = np.array([p[1] for p in points])
    assume(len(set(ys)) == 2)
    groups = tuple(AB.cells()[i % 2] for i in range(len(points)))
    ds = Dataset(xs, ys, groups, AB)
    model = train_zero_one_exhaustive(ds, Strategy.GENERIC)
    margins = model.model.margins_encoded(xs)
    errors = int(np.sum(np.where(margins >= 0, 1, -1) != ys))
    assert errors == threshold_errors_1d(xs[:, 0], ys)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
    lambda c: c != (0, 0)), min_size=1, max_size=30))
def test_threshold_labelings_match_the_enumeration(counts):
    neg = np.array([c[0] for c in counts], dtype=float)
    pos = np.array([c[1] for c in counts], dtype=float)
    labelings, cost = exhaustive._threshold_labelings(neg, pos)
    want, want_cost = threshold_labelings_1d(neg, pos)
    assert cost == want_cost
    # The all-+1 and all--1 labelings are both an upset and a downset.
    assert {c.tobytes() for c in labelings} == want


def test_exhaustive_1d_fit_of_20k_points_is_fast():
    # Building and costing every threshold labeling took 1.84 s and
    # 606 MB at 16,000 points, quadratic in both.
    rng = np.random.default_rng(0)
    n = 20_000
    x = rng.normal(size=(n, 1))
    y = np.where(rng.random(n) < expit(2.0 * x[:, 0]), 1, -1)
    start = time.perf_counter()
    w, errors = exhaustive.train_zero_one(x, y)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        exhaustive.train_zero_one(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert errors == np.count_nonzero(
        np.where(x[:, 0] * w[0] + w[1] >= 0, 1, -1) != y)


def test_exhaustive_2d_beats_dense_rule_grid():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(12, 2)).round(1)
    y = np.where(x[:, 0] + 0.5 * x[:, 1] + 0.2 * rng.normal(size=12) > 0,
                 1, -1)
    if len(set(y)) < 2:
        y[0] = -y[0]
    groups = tuple(AB.cells()[i % 2] for i in range(12))
    ds = Dataset(x, y, groups, AB)
    model = train_zero_one_exhaustive(ds, Strategy.GENERIC)
    margins = model.model.margins_encoded(x)
    errors = int(np.sum(np.where(margins >= 0, 1, -1) != y))
    best_grid = y.size
    for angle in np.linspace(0.0, np.pi, 180, endpoint=False):
        w = np.array([np.cos(angle), np.sin(angle)])
        z = x @ w
        cuts = np.concatenate([[z.min() - 1.0],
                               (np.sort(z)[1:] + np.sort(z)[:-1]) / 2.0,
                               [z.max() + 1.0]])
        for t in cuts:
            for sign in (1, -1):
                pred = np.where(sign * (z - t) >= 0, 1, -1)
                best_grid = min(best_grid, int(np.sum(pred != y)))
    assert errors <= best_grid


def test_exhaustive_separable_2d_is_perfect():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                  [3.0, 3.0], [4.0, 3.0]])
    y = np.array([-1, -1, -1, -1, 1, 1])
    groups = tuple(AB.cells()[i % 2] for i in range(6))
    ds = Dataset(x, y, groups, AB)
    model = train_zero_one_exhaustive(ds, Strategy.GENERIC)
    margins = model.model.margins_encoded(x)
    assert np.all(np.where(margins >= 0, 1, -1) == y)


def test_exhaustive_size_limits():
    rng = np.random.default_rng(0)
    wide = Dataset(rng.normal(size=(10, 3)),
                   np.array([1, -1] * 5),
                   tuple(TWO_BY_TWO.cells()[i % 4] for i in range(10)),
                   TWO_BY_TWO)
    with pytest.raises(ExhaustiveSizeError):
        train_zero_one_exhaustive(wide, Strategy.ONEHOT)
    n = 501
    tall = Dataset(rng.normal(size=(n, 1)),
                   np.where(rng.random(n) < 0.5, 1, -1),
                   tuple(AB.cells()[i % 2] for i in range(n)), AB)
    with pytest.raises(ExhaustiveSizeError):
        train_zero_one_exhaustive(tall, Strategy.GENERIC)
    # Two features, 15 distinct points: within the row and dimension
    # limits, but past what exact search over labelings handles.
    x = np.column_stack([np.arange(15.0), np.arange(15.0) % 4])
    many = Dataset(x, np.array([1, -1] * 7 + [1]),
                   tuple(AB.cells()[i % 2] for i in range(15)), AB)
    with pytest.raises(ExhaustiveSizeError, match="15 distinct points"):
        train_zero_one_exhaustive(many, Strategy.GENERIC)


def test_decoupled_empty_cell_inherits_generic():
    space = GroupSpace((("g", ("a", "b", "c")),))
    feats = np.array([[-1.0], [1.0], [-2.0], [2.0]])
    labels = np.array([-1, 1, -1, 1])
    groups = (space.group("a"), space.group("a"),
              space.group("b"), space.group("b"))
    ds = Dataset(feats, labels, groups, space)
    model = train_personalized(ds, Strategy.DECOUPLED,
                               TrainConfig(l2_penalty=1e-3))
    c = space.group("c")
    assert model.empty_cells == (c,)
    assert model.cells[c] is model.generic
    assert any("no training rows" in f for f in model.all_flags())


def test_decoupled_empty_cell_shares_its_generic_flag_once():
    # Single-class data: the generic model and every fitted cell are
    # flagged constants, and the empty cell c inherits the generic one.
    space = GroupSpace((("g", ("a", "b", "c")),))
    a, b, c = space.cells()
    ds = Dataset(np.array([[-1.0], [1.0], [-2.0], [2.0]]),
                 np.array([-1, -1, -1, -1]), (a, a, b, b), space)
    with pytest.warns(UserWarning, match="single-class"):
        model = train_personalized(ds, Strategy.DECOUPLED,
                                   TrainConfig(l2_penalty=1e-3))
    assert model.cells[c] is model.generic
    assert model.all_flags() == (
        model.flags + model.generic.flags + model.cells[a].flags
        + model.cells[b].flags)
    assert len(set(model.all_flags())) == 4


def test_decoupled_single_class_cell_constant():
    feats = np.array([[-1.0], [1.0], [0.5], [2.0]])
    labels = np.array([-1, 1, 1, 1])
    groups = (AB.group("a"), AB.group("a"),
              AB.group("b"), AB.group("b"))
    ds = Dataset(feats, labels, groups, AB)
    with pytest.warns(UserWarning, match="single-class"):
        model = train_personalized(ds, Strategy.DECOUPLED,
                                   TrainConfig(l2_penalty=1e-3))
    b = AB.group("b")
    assert model.degenerate_cells == (b,)
    cell = model.cells[b]
    assert cell.weights[-1] == 30.0
    assert np.all(cell.weights[:-1] == 0.0)
    score, label = predict(model, [0.0], b)
    assert label == 1 and score > 0.99


def test_margins_routing_and_truthful_agreement():
    rng = np.random.default_rng(2)
    n = 40
    x = rng.normal(size=(n, 2))
    y = np.where(rng.random(n) < expit(x[:, 0]), 1, -1)
    groups = tuple(TWO_BY_TWO.cells()[i % 4] for i in range(n))
    ds = Dataset(x, y, groups, TWO_BY_TWO)
    for strategy in (Strategy.ONEHOT, Strategy.INTERSECTIONAL,
                     Strategy.DECOUPLED, Strategy.GENERIC):
        model = train_personalized(ds, strategy,
                                   TrainConfig(l2_penalty=1e-3))
        assert np.array_equal(model.margins(x, WITHHELD),
                              model.generic.margins_encoded(x))
        truthful = model.margins_truthful(x, ds.cell_indices)
        by_report = np.empty(n)
        for g in TWO_BY_TWO.cells():
            rows = ds.rows_for(g)
            by_report[rows] = model.margins(x[rows], g)
        assert np.allclose(truthful, by_report, rtol=0.0, atol=1e-12)
        single = model.margins(x[0], groups[0])
        assert np.isscalar(single) or single.ndim == 0


def test_generic_strategy_ignores_reported_group():
    ds = make_dataset([[-1.0], [1.0], [2.0], [-2.0]], [-1, 1, 1, -1],
                      ["a", "a", "b", "b"])
    model = train_personalized(ds, Strategy.GENERIC,
                               TrainConfig(l2_penalty=1e-3))
    a = AB.group("a")
    b = AB.group("b")
    assert np.array_equal(model.margins(ds.features, a),
                          model.margins(ds.features, b))


def test_predict_boundary_margin_is_positive():
    fmap = build_feature_map(Strategy.GENERIC, AB, ("x1",))
    lm = LinearModel(np.zeros(2), fmap)
    model = PersonalizedModel(Strategy.GENERIC, AB, lm, TrainConfig(),
                              model=lm)
    score, label = predict(model, [0.0], AB.group("a"))
    assert score == 0.5 and label == 1


def test_convergence_error_carries_gradient_norm():
    rng = np.random.default_rng(3)
    n = 60
    x = rng.normal(size=(n, 2))
    y = np.where(rng.random(n) < expit(2 * x[:, 0]), 1, -1)
    groups = tuple(AB.cells()[i % 2] for i in range(n))
    ds = Dataset(x, y, groups, AB)
    with pytest.raises(ConvergenceError) as err:
        train_generic(ds, TrainConfig(max_iterations=1,
                                      gradient_tolerance=1e-12))
    assert err.value.grad_norm > 1e-12


def test_damped_newton_step_backtracks_and_still_converges(monkeypatch):
    # Heavy-tailed features, two cells and a tiny ridge: the full Newton
    # step overshoots, so Armijo halves it before accepting a step.
    x = np.array([[-8.92, -51.56, -1.69], [3.41, 3.92, 126.4],
                  [-1.84, 0.57, -1.36], [16.7, -3.36, 3.87],
                  [-102.15, 89.55, -5.34], [0.72, -22.73, -20.11]])
    codes = np.array([0, 0, 0, 0, 1, 1])
    y = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
    cells = np.array([[0.0, 1.0], [1.0, 1.0]])
    lam, tol = 1e-6, 1e-8
    objective, grad = optim._logistic_objective, optim._logistic_grad
    calls = []
    monkeypatch.setattr(optim, "_logistic_objective",
                        lambda *a: calls.append("O") or objective(*a))
    monkeypatch.setattr(optim, "_logistic_grad",
                        lambda *a: calls.append("G") or grad(*a))
    w = optim.train_logistic(x, codes, cells, y, lam, tol, 10000)
    # After the starting objective and gradient, a damped step evaluates
    # the objective at t = 1, 1/2, ... until Armijo holds, then the
    # gradient; a pure step evaluates the gradient, then the objective.
    assert calls[:2] == ["O", "G"]
    trail = "".join(calls[2:])
    steps = re.findall("O+G|GO|G$", trail)
    assert "".join(steps) == trail
    assert sum(len(step) - 2 for step in steps if step[0] == "O") > 0
    assert np.abs(grad(w, x, codes, cells, y, lam)).max() <= tol


def _count_logistic_fits(monkeypatch):
    """Record (gradient calls, final gradient max-norm, tol) per logistic fit.

    The list is filled as fits return; the call counter also covers a fit
    that raises.
    """
    grad = optim._logistic_grad
    train = models.train_logistic
    calls = [0]
    fits = []

    def counted_grad(*args):
        calls[0] += 1
        return grad(*args)

    def recorded_train(x, codes, cells, y, lam, tol, max_iter):
        calls[0] = 0
        w = train(x, codes, cells, y, lam, tol, max_iter)
        final = float(np.max(np.abs(grad(w, x, codes, cells, y, lam))))
        fits.append((calls[0], final, tol))
        return w

    monkeypatch.setattr(optim, "_logistic_grad", counted_grad)
    monkeypatch.setattr(models, "train_logistic", recorded_train)
    return fits, calls


# Fits whose Armijo decrease drops below float64 resolution before the
# gradient max-norm reaches tol / 100: the criterion-7 and criterion-6
# audits' training (audit default ridge, onehot) and the criterion-4
# fixture's zero-ridge decoupled fits, with their generators.
_STALLED_FITS = (
    [("criterion-7", seed) for seed in (1, 87)]
    + [("criterion-6", seed) for seed in (32, 57, 121, 133, 162)]
    + [("criterion-4", seed) for seed in (18, 38, 56, 89)])


def _stalled_fit_case(name, seed):
    if name == "criterion-7":
        ds = gen_planted_violation(m=4, n_per_group=500, gap=-0.15,
                                   seed=seed)
        return ds, Strategy.ONEHOT, AuditConfig().train_config
    if name == "criterion-6":
        ds = gen_exchangeable_null(m=4, n_per_group=250, seed=seed)
        return ds, Strategy.ONEHOT, AuditConfig().train_config
    if seed < 50:
        ds = gen_exchangeable_null(m=4, n_per_group=60, seed=seed)
    else:
        ds = gen_planted_violation(m=4, n_per_group=60, gap=-0.2, seed=seed)
    return ds, Strategy.DECOUPLED, TrainConfig(l2_penalty=0.0)


@pytest.mark.parametrize("name,seed", _STALLED_FITS,
                         ids=[f"{n}-seed-{s}" for n, s in _STALLED_FITS])
def test_logistic_fit_stops_once_converged(monkeypatch, name, seed):
    ds, strategy, cfg = _stalled_fit_case(name, seed)
    fits, _ = _count_logistic_fits(monkeypatch)
    train_personalized(ds, strategy, cfg)
    assert fits
    for calls, final, tol in fits:
        assert calls <= 50
        assert final <= tol / 100.0


def test_unattainable_tolerance_fails_fast(monkeypatch):
    ds = gen_planted_violation(m=4, n_per_group=500, gap=-0.15, seed=0)
    _, calls = _count_logistic_fits(monkeypatch)
    with pytest.raises(ConvergenceError) as err:
        train_personalized(ds, Strategy.ONEHOT,
                           TrainConfig(gradient_tolerance=1e-20))
    assert err.value.grad_norm > 1e-20
    assert calls[0] <= 50


def _spy_on_newton_solves(monkeypatch):
    """Record each Newton solve of the trainer: "singular" when it raises
    LinAlgError, "non-finite" when its step is not finite, else "ok"."""
    solve = np.linalg.solve
    outcomes = []

    def spy(a, b):
        try:
            step = solve(a, b)
        except np.linalg.LinAlgError:
            outcomes.append("singular")
            raise
        outcomes.append("ok" if np.all(np.isfinite(step)) else "non-finite")
        return step

    monkeypatch.setattr(optim.np.linalg, "solve", spy)
    return outcomes


def _two_cell_dataset(x, y):
    return Dataset(x, y, tuple(AB.cells()[i % 2] for i in range(len(y))),
                   AB)


def test_singular_hessian_falls_back_to_a_gradient_step(monkeypatch):
    # Two identical columns at 1e5 scale, no ridge and separable labels:
    # the Hessian is singular past its 1e-10 diagonal, and only the
    # gradient-step fallback reaches the tolerance.
    x1 = np.random.default_rng(0).normal(size=40)
    y = np.where(x1 > 0, 1, -1)
    ds = _two_cell_dataset(np.column_stack([x1, x1]) * 1e5, y)
    outcomes = _spy_on_newton_solves(monkeypatch)
    # The trainer returns only weights that meet its gradient contract.
    model = train_generic(ds, TrainConfig(l2_penalty=0.0))
    assert "singular" in outcomes
    assert np.all(np.sign(model.margins(ds.features, WITHHELD)) == y)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_features_end_in_convergence_error(monkeypatch):
    # At 1e155 the Hessian entries overflow, so the Newton step is not
    # finite and the gradient stands in; no step length then lowers the
    # overflowing objective, and the fit stops with ConvergenceError
    # rather than running on.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2)) * 1e155
    y = np.where(rng.random(40) < 0.5, 1, -1)
    outcomes = _spy_on_newton_solves(monkeypatch)
    with pytest.raises(ConvergenceError, match="logistic trainer stopped"):
        train_generic(_two_cell_dataset(x, y))
    assert outcomes == ["non-finite"]
