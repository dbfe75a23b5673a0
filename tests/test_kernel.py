"""The evaluation kernel: margin tables, count-weighted replicates, the
chunked bootstrap draw and the exact binomial tail."""

import importlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from fairuse.audit import (NOT_TESTABLE, MarginTable, _binom_tail_at_least,
                           bootstrap_test)
from fairuse.dataset import Dataset
from fairuse.groups import TRUTHFUL, WITHHELD, GroupSpace
from fairuse.metrics import (AUC, ECE, ERROR_RATE, auc_value, ece_value,
                             metric_value, orient, resample_counts,
                             resampled_values)
from fairuse.models import Strategy, TrainConfig, train_personalized

# The package re-exports the audit() function under the module's name.
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
    res = bootstrap_test(model, a, WITHHELD, ds, metric, reps=reps, seed=9)
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
    res = bootstrap_test(model, a, WITHHELD, ds, AUC, reps=reps, seed=2)
    gains = _looped_bootstrap(AUC, 2, reps, self_m, comp_m, y)
    undefined = int(np.isnan(gains).sum())
    assert 0 < undefined <= 0.10 * reps
    assert res.verdict != NOT_TESTABLE
    assert res.detail == {"reps": reps, "undefined_reps": undefined}
    # One positive: most resamples lose it, so the test is not run.
    y1 = np.array([1] + [-1] * 13)
    ds1, _ = _stub_dataset(y1)
    res1 = bootstrap_test(model, a, WITHHELD, ds1, AUC, reps=reps, seed=2)
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
    one_shot = bootstrap_test(model, a, WITHHELD, ds, metric, reps=250,
                              seed=4)
    # 7 replicates per chunk: 35 full chunks and a last one of 5.
    monkeypatch.setattr(audit_module, "_INDEX_CHUNK_ENTRIES", 7 * n + 3)
    chunked = bootstrap_test(model, a, WITHHELD, ds, metric, reps=250,
                             seed=4)
    assert chunked == one_shot


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
