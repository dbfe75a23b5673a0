"""The evaluation kernel: margin tables, count-weighted replicates, the
chunked bootstrap draw shared by a group's comparators and the exact
binomial tail."""

import importlib
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from fairuse.audit import (BOOTSTRAP, MCNEMAR, NOT_TESTABLE, AuditConfig,
                           MarginTable, _binom_tail_at_least, audit,
                           bootstrap_replicates, bootstrap_test)
from fairuse.dataset import Dataset
from fairuse.groups import TRUTHFUL, WITHHELD, GroupSpace
from fairuse.metrics import (AUC, ECE, ERROR_RATE, auc_value, ece_value,
                             metric_value, orient, resample_counts,
                             resampled_values)
from fairuse.models import Strategy, TrainConfig, train_personalized
from fairuse.synth import gen_exchangeable_null, gen_planted_violation

# The audit module itself, whose names the tests below patch.
audit_module = importlib.import_module("fairuse.audit")
AB = GroupSpace((("g", ("a", "b")),))
SPACE_2X2 = GroupSpace((("s", ("f", "m")), ("t", ("x", "y"))))

# Margins from a short list, so scores tie; 40 and 41 also tie after the
# sigmoid (both round to 1.0).
_MARGINS = st.sampled_from([-3.0, -0.5, 0.0, 0.5, 1.5, 40.0, 41.0])


@st.composite
def weighted_rows(draw):
    """(margins, labels, counts): n rows and a few count-weighted resamples
    of them, some of which may drop a class or every row."""
    n = draw(st.integers(1, 12))
    margins = np.array(draw(st.lists(_MARGINS, min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n,
                                    max_size=n)))
    reps = draw(st.integers(1, 4))
    counts = np.array(draw(st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        min_size=reps, max_size=reps)), dtype=np.int64)
    return margins, labels, counts


def _materialized(counts_row, rng):
    """Row indices of one resample, in a shuffled order."""
    take = np.repeat(np.arange(counts_row.size), counts_row)
    return rng.permutation(take)


@given(weighted_rows())
def test_count_weighted_auc_equals_materialized_auc_bit_for_bit(case):
    margins, labels, counts = case
    scores = expit(margins)
    got = resampled_values(AUC, counts, scores, margins, labels)
    rng = np.random.default_rng(0)
    for b, row in enumerate(counts):
        take = _materialized(row, rng)
        want = auc_value(scores[take], labels[take])
        if math.isnan(want):
            assert math.isnan(got[b])
        else:
            assert got[b] == want


@given(weighted_rows())
def test_count_weighted_ece_matches_materialized_ece(case):
    margins, labels, counts = case
    scores = expit(margins)
    got = resampled_values(ECE, counts, scores, margins, labels)
    rng = np.random.default_rng(0)
    for b, row in enumerate(counts):
        take = _materialized(row, rng)
        want = ece_value(scores[take], margins[take], labels[take])
        if math.isnan(want):
            assert math.isnan(got[b])
        else:
            assert got[b] == pytest.approx(want, abs=1e-12)


def test_resample_counts_tallies_each_replicate():
    idx = np.array([[0, 0, 2], [1, 2, 1], [2, 2, 2]])
    assert resample_counts(idx).tolist() == [[2, 0, 1], [0, 2, 1],
                                             [0, 0, 3]]


def _strategy_dataset(seed=3):
    rng = np.random.default_rng(seed)
    cells = SPACE_2X2.cells()
    n = 80
    x = rng.normal(size=(n, 2))
    groups = tuple(cells[i % len(cells)] for i in range(n))
    shift = np.array([SPACE_2X2.index_of(g) for g in groups]) - 1.5
    y = np.where(rng.random(n) < expit(x[:, 0] + 0.5 * shift), 1, -1)
    return Dataset(x, y, groups, SPACE_2X2)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_margin_table_slices_equal_per_group_margins(strategy):
    ds = _strategy_dataset()
    model = train_personalized(ds, strategy, TrainConfig(l2_penalty=1e-3))
    table = MarginTable(model, ds).fill()
    for g in SPACE_2X2.cells():
        rows = ds.rows_for(g)
        assert np.array_equal(table.rows(g), rows)
        x = ds.features[rows]
        for reported in (WITHHELD,) + SPACE_2X2.cells():
            assert np.array_equal(table.margins(g, reported),
                                  model.margins(x, reported))
        assert np.array_equal(
            table.margins(g, TRUTHFUL),
            model.margins_truthful(x, ds.cell_indices[rows]))
        # assign_best_of_three and check_prop2_premise read each group's
        # own report from the truthful column.
        assert np.array_equal(table.margins(g, TRUTHFUL),
                              model.margins(x, g))


def _stub_dataset(y):
    a = AB.group("a")
    return Dataset(np.zeros((y.size, 1)), y, (a,) * y.size, AB), a


class _StubModel:
    """Fixed margins per reported group over the dataset's rows."""

    def __init__(self, margins_by_reported):
        self._margins = margins_by_reported

    def margins(self, x, reported):
        return self._margins[reported][:x.shape[0]]


def _bootstrap_one(model, g, comparator, data, metric, *, reps, seed):
    """One bootstrap test in two steps: draw the replicates, then test."""
    table = MarginTable(model, data)
    observed, gains = bootstrap_replicates(table, g, (comparator,), metric,
                                           reps=reps, seed=seed)
    return bootstrap_test(table, g, comparator, metric, observed[0],
                          gains[:, 0])


def _looped_bootstrap(metric, seed, reps, self_m, comp_m, y):
    """Replicate gains by materializing every resample: the reference."""
    idx = np.random.default_rng(seed).integers(0, y.size,
                                               size=(reps, y.size))
    gains = np.empty(reps)
    for b in range(reps):
        take = idx[b]
        v_self = metric_value(metric, expit(self_m[take]), self_m[take],
                              y[take])
        v_comp = metric_value(metric, expit(comp_m[take]), comp_m[take],
                              y[take])
        gains[b] = orient(metric, v_comp) - orient(metric, v_self)
    return gains


@pytest.mark.parametrize("metric", [AUC, ECE])
def test_bootstrap_auc_and_ece_match_materialized_resamples(metric):
    rng = np.random.default_rng(7)
    n = 40
    y = np.where(rng.random(n) < 0.5, 1, -1)
    y[:2] = [1, -1]
    self_m = np.round(rng.normal(size=n) + 0.8 * y, 1)
    comp_m = np.round(rng.normal(size=n) + 0.3 * y, 1)
    ds, a = _stub_dataset(y)
    model = _StubModel({a: self_m, WITHHELD: comp_m})
    reps = 300
    res = _bootstrap_one(model, a, WITHHELD, ds, metric, reps=reps, seed=9)
    gains = _looped_bootstrap(metric, 9, reps, self_m, comp_m, y)
    est = res.estimate
    shifted = gains - est
    assert res.p_violation == (1 + np.count_nonzero(shifted <= est)) / \
        (reps + 1)
    assert res.p_gain == (1 + np.count_nonzero(shifted >= est)) / (reps + 1)
    assert res.detail == {"reps": reps, "undefined_reps": 0}


def test_bootstrap_undefined_fraction_counts_lost_classes():
    # Three positives in 14 rows: about 3.4% of resamples draw no positive,
    # under the 10% limit, so the test runs and reports how many.
    y = np.array([1, 1, 1] + [-1] * 11)
    self_m = np.linspace(2.0, -2.0, 14)
    comp_m = self_m[::-1].copy()
    ds, a = _stub_dataset(y)
    model = _StubModel({a: self_m, WITHHELD: comp_m})
    reps = 400
    res = _bootstrap_one(model, a, WITHHELD, ds, AUC, reps=reps, seed=2)
    gains = _looped_bootstrap(AUC, 2, reps, self_m, comp_m, y)
    undefined = int(np.isnan(gains).sum())
    assert 0 < undefined <= 0.10 * reps
    assert res.verdict != NOT_TESTABLE
    assert res.detail == {"reps": reps, "undefined_reps": undefined}
    # One positive: most resamples lose it, so the test is not run.
    y1 = np.array([1] + [-1] * 13)
    ds1, _ = _stub_dataset(y1)
    res1 = _bootstrap_one(model, a, WITHHELD, ds1, AUC, reps=reps, seed=2)
    gains1 = _looped_bootstrap(AUC, 2, reps, self_m, comp_m, y1)
    assert res1.verdict == NOT_TESTABLE
    assert res1.detail["reason"] == (
        f"{int(np.isnan(gains1).sum())} of {reps} replicates left the "
        "metric undefined")


@pytest.mark.parametrize("n", [7, 100, 2500, 70000])
def test_chunked_index_draws_continue_the_one_shot_stream(n):
    one_shot = np.random.default_rng(3).integers(0, n, size=(9, n))
    rng = np.random.default_rng(3)
    chunks = [rng.integers(0, n, size=(k, n)) for k in (2, 4, 3)]
    assert np.array_equal(np.vstack(chunks), one_shot)


@pytest.mark.parametrize("metric", [ERROR_RATE, AUC, ECE])
def test_chunked_bootstrap_draw_matches_one_shot(monkeypatch, metric):
    rng = np.random.default_rng(5)
    n = 30
    y = np.where(rng.random(n) < 0.5, 1, -1)
    y[:2] = [1, -1]
    # Two equally weak models: a gain near zero, so the p-values depend on
    # every replicate rather than sitting at their floor.
    self_m = rng.normal(size=n) + 0.3 * y
    comp_m = rng.normal(size=n) + 0.3 * y
    ds, a = _stub_dataset(y)
    model = _StubModel({a: self_m, WITHHELD: comp_m})
    one_shot = _bootstrap_one(model, a, WITHHELD, ds, metric, reps=250,
                              seed=4)
    # 7 replicates per chunk: 35 full chunks and a last one of 5.
    monkeypatch.setattr(audit_module, "_INDEX_CHUNK_ENTRIES", 7 * n + 3)
    chunked = _bootstrap_one(model, a, WITHHELD, ds, metric, reps=250,
                             seed=4)
    assert chunked == one_shot


def test_audit_bootstrap_results_equal_one_comparator_draws():
    ds = gen_planted_violation(m=4, n_per_group=40, seed=3)
    metrics = (ERROR_RATE, AUC, ECE)
    cfg = AuditConfig(seed=5, bootstrap_reps=200)
    report = audit(ds, ds, Strategy.ONEHOT, metrics, cfg)
    cells = ds.space.cells()
    skip = ("p_adjusted", "family_size", "verdict")
    boot = [r for r in report.results if r.test == BOOTSTRAP]
    assert len(boot) == len(metrics) * len(cells) ** 2
    for r in boot:
        mi = [mk.tag for mk in metrics].index(r.metric)
        gi = cells.index(r.group)
        seed = np.random.SeedSequence([cfg.seed, mi, gi])
        table = MarginTable(report.model, ds)
        observed, gains = bootstrap_replicates(
            table, r.group, (r.comparator,), metrics[mi], reps=200,
            seed=seed)
        alone = bootstrap_test(table, r.group, r.comparator, metrics[mi],
                               observed[0], gains[:, 0], alpha=cfg.alpha)
        want = {k: v for k, v in alone.to_jsonable().items()
                if k not in skip}
        got = {k: v for k, v in r.to_jsonable().items() if k not in skip}
        assert got == want


@pytest.mark.parametrize("metric", [ERROR_RATE, AUC, ECE])
def test_shared_draw_columns_equal_one_comparator_draws(monkeypatch,
                                                         metric):
    ds = gen_planted_violation(m=4, n_per_group=30, seed=1)
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    g = ds.space.cells()[1]
    comps = (WITHHELD,) + tuple(c for c in ds.space.cells() if c != g)
    n = ds.rows_for(g).size
    # 7 replicates per chunk: 35 full chunks and a last one of 5.
    monkeypatch.setattr(audit_module, "_INDEX_CHUNK_ENTRIES", 7 * n + 3)
    observed, shared = bootstrap_replicates(MarginTable(model, ds), g,
                                            comps, metric, reps=250, seed=8)
    assert shared.shape == (250, len(comps))
    for j, comp in enumerate(comps):
        alone_observed, alone = bootstrap_replicates(
            MarginTable(model, ds), g, (comp,), metric, reps=250, seed=8)
        assert observed[j] == alone_observed[0]
        assert np.array_equal(shared[:, j], alone[:, 0], equal_nan=True)


def test_audit_error_bootstrap_estimates_equal_mcnemar_estimates():
    ds = gen_planted_violation(m=4, n_per_group=40, seed=3)
    report = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,),
                   AuditConfig(seed=5, bootstrap_reps=100))
    exact = {(r.group, r.comparator_label): r.estimate
             for r in report.results if r.test == MCNEMAR}
    boot = [r for r in report.results if r.test == BOOTSTRAP]
    assert len(boot) == len(exact) == ds.space.m ** 2
    for r in boot:
        assert r.estimate == exact[(r.group, r.comparator_label)]


@pytest.mark.parametrize("metric", [AUC, ECE])
def test_observed_gains_are_the_count_kernel_on_one_all_ones_row(metric):
    ds = gen_planted_violation(m=4, n_per_group=30, seed=1)
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    table = MarginTable(model, ds)
    g = ds.space.cells()[1]
    comps = (WITHHELD,) + tuple(c for c in ds.space.cells() if c != g)
    observed, gains = bootstrap_replicates(table, g, comps, metric,
                                           reps=100, seed=0)
    y = ds.labels[ds.rows_for(g)]
    ones = np.ones((1, y.size), dtype=np.int64)

    def value(reported):
        m = table.margins(g, reported)
        return orient(metric, resampled_values(metric, ones, expit(m), m,
                                               y))[0]

    want = [value(c) - value(g) for c in comps]
    assert observed.tolist() == want
    for j, comp in enumerate(comps):
        res = bootstrap_test(table, g, comp, metric, observed[j],
                             gains[:, j])
        assert res.estimate == want[j]


def test_audit_draws_once_per_group_and_metric(monkeypatch):
    ds = gen_planted_violation(m=4, n_per_group=30, seed=2)
    calls = {"bootstrap_replicates": 0, "bootstrap_test": 0,
             "mcnemar_test": 0}
    for name in calls:
        real = getattr(audit_module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(audit_module, name, counted)
    m = ds.space.m
    audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE, AUC),
          AuditConfig(bootstrap_reps=100))
    assert calls == {"bootstrap_replicates": 2 * m,
                     "bootstrap_test": 2 * m * m, "mcnemar_test": m * m}


def test_audit_evaluates_each_observed_risk_once(monkeypatch):
    # The misreport matrix, the bootstrap tests, the population row and the
    # in-sample generalization rows read one memoized risk per (metric,
    # group, reported): m * (m + 1) matrix entries plus two population
    # risks per metric, and no extra self evaluation per comparator.
    ds = gen_planted_violation(m=4, n_per_group=30, seed=2)
    metrics_module = importlib.import_module("fairuse.metrics")
    calls = []
    real = metrics_module.metric_value

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics_module, "metric_value", counted)
    monkeypatch.setattr(audit_module, "metric_value", counted)
    m = ds.space.m
    metrics = (ERROR_RATE, AUC, ECE)
    audit(ds, ds, Strategy.ONEHOT, metrics, AuditConfig(bootstrap_reps=100))
    assert len(calls) == len(metrics) * (m * (m + 1) + 2)
    assert all(calls.count(k) == m * (m + 1) + 2 for k in metrics)


def test_margin_table_risk_is_memoized():
    ds = gen_planted_violation(m=4, n_per_group=30, seed=2)
    model = train_personalized(ds, Strategy.ONEHOT, TrainConfig())
    table = MarginTable(model, ds)
    g = ds.space.cells()[1]
    first = table.risk(AUC, g, WITHHELD)
    assert table.risk(AUC, g, WITHHELD) is first
    assert table.risk(ERROR_RATE, g, WITHHELD) is not first


def test_resample_counts_offsets_the_index_in_place():
    idx = np.array([[0, 0, 2], [1, 2, 1]])
    counts = resample_counts(idx)
    assert counts.tolist() == [[2, 0, 1], [0, 2, 1]]
    assert idx.tolist() == [[0, 0, 2], [4, 5, 4]]


def test_shared_draw_memory_is_bounded_in_comparators():
    # 32 comparators over 2500 rows: gathering every comparator's losses
    # for a whole index chunk at once would take about 270 MB.
    space = GroupSpace((("g", tuple(f"c{i}" for i in range(33))),))
    cells = space.cells()
    n = 2500
    rng = np.random.default_rng(0)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    ds = Dataset(np.zeros((n, 1)), y, (cells[0],) * n, space)
    model = _StubModel({c: rng.normal(size=n) for c in cells})
    tracemalloc.start()
    try:
        _, gains = bootstrap_replicates(MarginTable(model, ds), cells[0],
                                        cells[1:], ERROR_RATE, reps=2000,
                                        seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gains.shape == (2000, 32)
    assert peak < 64 * 2 ** 20


def test_margin_table_fill_peaks_near_its_stored_columns():
    # An (n, d + m - 1) design per column peaked at 2.95 times the stored
    # columns here.
    ds = gen_exchangeable_null(m=128, n_per_group=100, seed=0)
    model = train_personalized(ds, Strategy.ONEHOT,
                               AuditConfig().train_config)
    table = MarginTable(model, ds)
    tracemalloc.start()
    try:
        table.fill()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = (ds.space.m + 1) * ds.n * 8
    assert peak < 1.5 * stored


def test_binom_tail_recurrence_equals_comb_sum():
    for n in range(61):
        for k in range(-1, n + 2):
            if k <= 0:
                want = 1.0
            elif k > n:
                want = 0.0
            else:
                total = sum(math.comb(n, j) for j in range(k, n + 1))
                want = float(Fraction(total, 2 ** n))
            assert _binom_tail_at_least(n, k) == want


def test_binom_tail_is_fast_at_twenty_thousand():
    # Summing one math.comb per term took 51 s here.
    start = time.perf_counter()
    p = _binom_tail_at_least(20000, 10100)
    assert time.perf_counter() - start < 5.0
    assert 0.0 < p < 0.5


def _exact_tail(n, k):
    total = sum(math.comb(n, j) for j in range(max(k, 0), n + 1))
    return float(Fraction(total, 2 ** n))


@given(st.integers(1, 3000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(-1, n + 1)
                        | st.integers(n // 2 - 40, n // 2 + 40))))
def test_binom_tail_stops_early_without_changing_the_float(nk):
    n, k = nk
    assert _binom_tail_at_least(n, k) == _exact_tail(n, k)


def test_binom_tail_far_from_the_mode_is_fast():
    # A 1M-row audit meets tails like these (50000 discordant rows); the
    # full sum took 0.2-0.7 s each.
    start = time.perf_counter()
    assert _binom_tail_at_least(50000, 4937) == 1.0
    assert 0.0 < _binom_tail_at_least(50000, 28738) < 1e-240
    assert _binom_tail_at_least(50000, 45063) == 0.0
    assert time.perf_counter() - start < 0.5
