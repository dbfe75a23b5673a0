"""The evaluation kernel: margin tables, count-weighted replicates, the
chunked bootstrap draw shared by a group's comparators and the exact
binomial tail."""

import importlib
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fairuse._optim import expit
from fairuse.audit import (BOOTSTRAP, MCNEMAR, NOT_TESTABLE, AuditConfig,
                           MarginTable, _binom_tail_at_least, audit,
                           bootstrap_replicates, bootstrap_test)
from fairuse.dataset import Dataset
from fairuse.groups import ALL, TRUTHFUL, WITHHELD, GroupSpace
from fairuse.metrics import (AUC, ECE, ERROR_RATE, auc_value, ece_value,
                             metric_value, orient, resample_counts,
                             resampled_block, resampled_values)
from fairuse.models import Strategy, TrainConfig, train_personalized
from fairuse.synth import gen_exchangeable_null, gen_planted_violation
from oracles import (auc_counts_reference, ece_counts_reference,
                     pairwise_auc, rank_sum_auc)

# The audit and metrics modules themselves, whose names the tests below
# patch.
audit_module = importlib.import_module("fairuse.audit")
metrics_module = importlib.import_module("fairuse.metrics")
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


# Scores 1.0 (margins 40 and 41) and 0.5 tie across classes, so positives
# sit on both tie bounds; the second row drops the positives, the third
# every row.
@example((np.array([40.0, 41.0, 41.0, 0.0, 0.0, -3.0]),
          np.array([1, -1, 1, -1, 1, -1]),
          np.array([[1, 2, 1, 1, 3, 0], [0, 1, 0, 1, 0, 2],
                    [0, 0, 0, 0, 0, 0]], dtype=np.int64)))
@given(weighted_rows())
def test_count_weighted_auc_equals_materialized_auc_bit_for_bit(case):
    margins, labels, counts = case
    scores = expit(margins)
    got = resampled_values(AUC, counts, scores, margins, labels)
    rng = np.random.default_rng(0)
    for b, row in enumerate(counts):
        take = _materialized(row, rng)
        want = auc_value(scores[take], labels[take])
        # auc_value is the same kernel; the oracles share no code with it,
        # and each sums halves exactly and ends in one division.
        ranked = rank_sum_auc(scores[take], labels[take])
        paired = pairwise_auc(scores[take], labels[take])
        if math.isnan(ranked):
            assert math.isnan(paired) and math.isnan(want)
            assert math.isnan(got[b])
        else:
            assert got[b] == want == ranked == paired


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
            assert got[b] == want


@st.composite
def score_blocks(draw):
    """(margins, labels, counts, layout): a (k, n) block of margin rows
    over n labelled rows and a few count rows. Margins come from a short
    list, so scores tie, or from an interval, so they rarely do; a block
    may be one class, no rows, or an all-ones count row."""
    n = draw(st.integers(0, 12))
    k = draw(st.integers(1, 5))
    values = st.one_of(_MARGINS, st.floats(-4.0, 4.0)) \
        if draw(st.booleans()) else _MARGINS
    margins = np.array(draw(st.lists(
        st.lists(values, min_size=n, max_size=n), min_size=k,
        max_size=k)), dtype=float).reshape(k, n)
    labels = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n,
                                    max_size=n)), dtype=int)
    reps = draw(st.integers(1, 6))
    counts = np.array(draw(st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        min_size=reps, max_size=reps)), dtype=np.int64).reshape(reps, n)
    if draw(st.booleans()):
        counts[0] = 1
    return margins, labels, counts, draw(st.sampled_from(
        ["C", "F", "strided"]))


def _laid_out(block, layout):
    """`block`'s values in C order, Fortran order, or as a strided view."""
    if layout == "F":
        return np.asfortranarray(block)
    if layout == "strided":
        return np.repeat(block, 2, axis=1)[:, ::2]
    return block


# Untied scores (lo == hi for every positive), ties across classes, one
# class, and no rows; the first example's ECE score rows go in two
# slices.
@example((np.array([[-1.0, 0.5, 2.0, -3.0], [40.0, 41.0, 0.0, 0.0]]),
          np.array([1, -1, 1, -1]),
          np.array([[1, 1, 1, 1], [2, 0, 1, 3]], dtype=np.int64), "F"), 1)
@example((np.array([[0.5, 1.5, -3.0]]), np.array([1, 1, 1]),
          np.array([[1, 1, 1]], dtype=np.int64), "C"), 1 << 18)
@example((np.zeros((2, 0)), np.zeros(0, dtype=int),
          np.zeros((2, 0), dtype=np.int64), "strided"), 1)
@given(score_blocks(), st.sampled_from([1, 1000, 1 << 18]))
def test_block_kernels_equal_one_row_calls_and_the_reference(case,
                                                             entries):
    margins, labels, counts, layout = case
    scores = _laid_out(expit(margins), layout)
    margins = _laid_out(margins, layout)
    counts = _laid_out(counts, layout)
    # The whole draw, and the draw in two chunks of replicates; a small
    # bound on the ECE kernel's slice makes it take the score rows one
    # or a few at a time.
    cut = counts.shape[0] // 2
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics_module, "_BIN_SLICE_ENTRIES", entries)
        for part in (counts, counts[:cut], counts[cut:]):
            if not part.shape[0]:
                continue
            auc = resampled_block(AUC, part, scores, margins, labels)
            ece = resampled_block(ECE, part, scores, margins, labels)
            assert auc.shape == ece.shape == (part.shape[0], len(scores))
            for j in range(len(scores)):
                for got, one, reference in (
                        (auc[:, j], resampled_values(AUC, part, scores[j],
                                                     margins[j], labels),
                         auc_counts_reference(part, scores[j], labels)),
                        (ece[:, j], resampled_values(ECE, part, scores[j],
                                                     margins[j], labels),
                         ece_counts_reference(part, scores[j], margins[j],
                                              labels, 10))):
                    assert np.array_equal(got, one, equal_nan=True)
                    assert np.array_equal(got, reference, equal_nan=True)


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
    other_m = rng.normal(size=n) + 0.3 * y
    ds, a = _stub_dataset(y)
    model = _StubModel({a: self_m, AB.group("b"): other_m,
                        WITHHELD: comp_m})
    one_shot = _bootstrap_one(model, a, WITHHELD, ds, metric, reps=250,
                              seed=4)
    # 7 replicates per chunk: 35 full chunks and a last one of 5. A chunk
    # spans n rows, or for the error rate one entry per row pattern.
    width = n
    if metric is ERROR_RATE:
        width = len(np.unique(_wrong_rows(MarginTable(model, ds), a),
                              axis=0))
        assert 1 < width < n
    monkeypatch.setattr(audit_module, "_INDEX_CHUNK_ENTRIES",
                        7 * width + 3)
    chunks = []

    class Recording(np.random.Generator):
        """Records how many replicates each draw makes."""

        def integers(self, low, high, size):
            chunks.append(size[0])
            return super().integers(low, high, size=size)

        def multinomial(self, draws, pvals, size):
            chunks.append(size)
            return super().multinomial(draws, pvals, size=size)

    chunked = _bootstrap_one(model, a, WITHHELD, ds, metric, reps=250,
                             seed=Recording(np.random.PCG64(4)))
    assert chunked == one_shot
    assert chunks == [7] * 35 + [5]


@pytest.mark.parametrize("n, n_patterns", [(7, 3), (100, 20),
                                           (2500, 2500), (12500, 2)])
def test_chunked_multinomial_draws_continue_the_one_shot_stream(
        n, n_patterns):
    pvals = np.random.default_rng(1).random(n_patterns)
    pvals /= pvals.sum()
    one_shot = np.random.default_rng(3).multinomial(n, pvals, size=9)
    rng = np.random.default_rng(3)
    chunks = [rng.multinomial(n, pvals, size=k) for k in (2, 4, 3)]
    assert np.array_equal(np.vstack(chunks), one_shot)


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


SPACE_4 = GroupSpace((("g", ("c0", "c1", "c2", "c3")),))


def _wrong_rows(table, g):
    """(n, m + 1) bool matrix of group g's rows: misclassified under
    WITHHELD and then under each cell."""
    y = table.data.labels[table.rows(g)]
    reported = (WITHHELD,) + table.data.space.cells()
    return np.stack([np.where(table.margins(g, r) >= 0.0, 1, -1) != y
                     for r in reported], axis=1)


def _pattern_gain_oracle(wrong, self_col, cols, n, *, reps, seed):
    """Replicate error gains in integers, from Multinomial(n, n_p / n)
    counts of the distinct rows of `wrong` in lexicographic order."""
    patterns, n_p = np.unique(wrong, axis=0, return_counts=True)
    p_diffs = patterns[:, cols].astype(int) - patterns[:, [self_col]]
    rng = np.random.default_rng(seed)
    return rng.multinomial(n, n_p / n, size=reps) @ p_diffs / n


@pytest.mark.parametrize("n_patterns", [8, 32])
def test_error_draw_counts_patterns_however_many(n_patterns):
    # Row i of 64 takes pattern i % P, the bits of i % P over (generic,
    # c0, .., c3). Half as many patterns as rows still draws pattern
    # counts.
    n = 64
    bits = (np.arange(n)[:, None] % n_patterns >> np.arange(5)) & 1
    y = np.ones(n, dtype=int)
    cells = SPACE_4.cells()
    model = _StubModel({r: np.where(bits[:, j] == 1, -1.0, 1.0)
                        for j, r in enumerate((WITHHELD,) + cells)})
    ds = Dataset(np.zeros((n, 1)), y, (cells[0],) * n, SPACE_4)
    table = MarginTable(model, ds)
    wrong = _wrong_rows(table, cells[0])
    assert len(np.unique(wrong, axis=0)) == n_patterns
    comps = (WITHHELD,) + cells[1:]
    observed, gains = bootstrap_replicates(table, cells[0], comps,
                                           ERROR_RATE, reps=200, seed=3)
    want = _pattern_gain_oracle(wrong, 1, [0, 2, 3, 4], n, reps=200,
                                seed=3)
    assert np.array_equal(gains, want)
    assert np.array_equal(observed,
                          (wrong[:, [0, 2, 3, 4]].astype(int)
                           - wrong[:, [1]]).sum(axis=0) / n)


def test_index_draw_through_pattern_classes_gives_the_row_gains(
        monkeypatch):
    # 17 reported values: patterns span three bytes of packed bits, so
    # their order is fixed across bytes too.
    ds = gen_exchangeable_null(m=16, n_per_group=200, seed=0)
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    table = MarginTable(model, ds)
    cells = ds.space.cells()
    g = cells[1]
    comps = (WITHHELD,) + tuple(c for c in cells if c != g)
    n = table.rows(g).size
    reps = 250
    wrong = _wrong_rows(table, g)
    patterns, inv, n_p = np.unique(wrong, axis=0, return_inverse=True,
                                   return_counts=True)
    inv = inv.ravel()
    assert 1 < n_p.size < n
    idx = np.random.default_rng(8).integers(0, n, size=(reps, n))
    drawn = []

    class IndexThroughPatterns(np.random.Generator):
        """Draws the pattern counts of the index draw `idx`, a chunk of
        its replicates at a time."""

        def multinomial(self, draws, pvals, size):
            assert draws == n
            assert np.array_equal(pvals, n_p / n)
            start = sum(drawn)
            drawn.append(size)
            return np.stack([np.bincount(inv[take], minlength=n_p.size)
                             for take in idx[start:start + size]])

    # Three chunks, so the draw continues across them.
    monkeypatch.setattr(audit_module, "_INDEX_CHUNK_ENTRIES",
                        100 * n_p.size)
    observed, by_pattern = bootstrap_replicates(
        table, g, comps, ERROR_RATE, reps=reps,
        seed=IndexThroughPatterns(np.random.PCG64()))
    assert drawn == [100, 100, 50]
    # The same index draw, resampled row by row, in integers.
    cols = [0] + [1 + cells.index(c) for c in comps[1:]]
    diffs = wrong[:, cols].astype(int) - wrong[:, [1 + cells.index(g)]]
    assert np.array_equal(observed, diffs.sum(axis=0) / n)
    assert np.array_equal(by_pattern, diffs[idx].sum(axis=1) / n)


def test_error_draw_of_a_million_row_group_is_fast():
    # Resampling 1M rows by index took 1.9 s per group at 2000 reps.
    n = 1_000_000
    cells = SPACE_4.cells()
    rng = np.random.default_rng(0)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    wrong = rng.random(n) < 0.2
    model = _StubModel({r: np.where(wrong ^ (rng.random(n) < 0.01), -y, y)
                        .astype(float) for r in (WITHHELD,) + cells})
    ds = Dataset(np.zeros((n, 1)), y, (cells[0],) * n, SPACE_4)
    table = MarginTable(model, ds).fill()
    comps = (WITHHELD,) + cells[1:]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _, gains = bootstrap_replicates(table, cells[0], comps, ERROR_RATE,
                                        reps=2000, seed=0)
        times.append(time.perf_counter() - start)
    assert gains.shape == (2000, 4)
    assert min(times) < 0.3


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


def test_mcnemar_reads_the_bits_the_bootstrap_kept(monkeypatch):
    ds = gen_planted_violation(m=4, n_per_group=30, seed=1)
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    table = MarginTable(model, ds)
    g = ds.space.cells()[2]
    comps = (WITHHELD,) + tuple(c for c in ds.space.cells() if c != g)
    observed, _ = bootstrap_replicates(table, g, comps, ERROR_RATE,
                                       reps=100, seed=0)

    def no_margins(*args):
        raise AssertionError("margins read again")

    monkeypatch.setattr(table, "margins", no_margins)
    for j, comp in enumerate(comps):
        res = audit_module.mcnemar_test(table, g, comp)
        assert res.estimate == observed[j]


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


def _record_kernels(monkeypatch):
    """(kernel name, counts shape, scores shape) of every AUC and ECE
    count-kernel call, in call order."""
    calls = []
    for name in ("_auc_counts", "_ece_counts"):
        real = getattr(metrics_module, name)

        def counted(counts, scores, *args, _real=real, _name=name):
            calls.append((_name, counts.shape, scores.shape))
            return _real(counts, scores, *args)

        monkeypatch.setattr(metrics_module, name, counted)
    return calls


def test_audit_evaluates_each_observed_risk_once(monkeypatch):
    # The misreport matrix, the bootstrap tests, the population row and the
    # in-sample generalization rows read one memoized risk per (metric,
    # group, reported), each made once. AUC and ECE fill a group's matrix
    # row with one kernel call on one all-ones count row over all m + 1
    # reports, plus the two population risks through `metric_value`, with
    # no extra evaluation per comparator. A cell's error rate counts its
    # kept wrong bits, so only the two population error rates run the
    # kernel, and each (group, reported) row of wrong bits is made once:
    # its margins are sliced inside `wrong` exactly once, and every read
    # returns the same array, a row of the group's wrong-bit matrix.
    ds = gen_planted_violation(m=4, n_per_group=30, seed=2)
    calls = []
    real = metrics_module.metric_value

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    kernels = _record_kernels(monkeypatch)
    made = []
    real_estimate = metrics_module.RiskEstimate

    def estimate(value, n, metric, g, reported, **kwargs):
        made.append((metric, g, reported))
        return real_estimate(value, n, metric, g, reported, **kwargs)

    bits = {}
    made_bits = []
    filling = []
    real_wrong = MarginTable.wrong
    real_margins = MarginTable.margins

    def kept(table, g, reported):
        filling.append(True)
        try:
            out = real_wrong(table, g, reported)
        finally:
            filling.pop()
        bits.setdefault((g, reported), []).append(out)
        return out

    def sliced(table, g, reported):
        if filling:
            made_bits.append((g, reported))
        return real_margins(table, g, reported)

    monkeypatch.setattr(metrics_module, "metric_value", counted)
    monkeypatch.setattr(audit_module, "metric_value", counted)
    monkeypatch.setattr(metrics_module, "RiskEstimate", estimate)
    monkeypatch.setattr(MarginTable, "wrong", kept)
    monkeypatch.setattr(MarginTable, "margins", sliced)
    m = ds.space.m
    cells = ds.space.cells()
    n = ds.rows_for(cells[0]).size
    metrics = (ERROR_RATE, AUC, ECE)
    audit(ds, ds, Strategy.ONEHOT, metrics, AuditConfig(bootstrap_reps=100))
    assert calls == [ERROR_RATE, ERROR_RATE, AUC, AUC, ECE, ECE]
    for name in ("_auc_counts", "_ece_counts"):
        point = [shapes for kernel, *shapes in kernels
                 if kernel == name and shapes[0][0] == 1]
        assert point == [[(1, n), (m + 1, n)]] * m + [[(1, ds.n),
                                                       (1, ds.n)]] * 2
    reports = (WITHHELD,) + cells
    for metric in (AUC, ECE):
        assert Counter((g, r) for mk, g, r in made if mk == metric) == \
            Counter([(g, r) for g in cells for r in reports]
                    + [(ALL, WITHHELD), (ALL, TRUTHFUL)])
    every = {(g, r) for g in cells for r in reports}
    assert set(bits) == every
    assert sorted(made_bits, key=str) == sorted(every, key=str)
    for arrays in bits.values():
        assert all(a is arrays[0] for a in arrays)
    for g in cells:
        matrix = bits[(g, g)][0].base
        assert matrix.shape == (m + 1, matrix.shape[1])
        assert all(bits[(g, r)][0].base is matrix
                   for r in (WITHHELD,) + cells)


def test_audit_draws_auc_and_ece_in_one_kernel_call_per_chunk(monkeypatch):
    # Each group's replicates evaluate the group and all its comparators
    # in one call of each count kernel per chunk of the draw, never one
    # call per comparator.
    ds = gen_exchangeable_null(m=8, n_per_group=30, seed=0)
    m = ds.space.m
    n = ds.rows_for(ds.space.cells()[0]).size
    assert all(ds.rows_for(g).size == n for g in ds.space.cells())
    kernels = _record_kernels(monkeypatch)
    # 40 replicates per chunk: chunks of 40, 40 and 20.
    monkeypatch.setattr(audit_module, "_INDEX_CHUNK_ENTRIES", 40 * n + 3)
    audit(ds, ds, Strategy.ONEHOT, (AUC, ECE),
          AuditConfig(bootstrap_reps=100))
    draws = [call for call in kernels if call[1][0] > 1]
    per_group = [((40, n), (m + 1, n)), ((40, n), (m + 1, n)),
                 ((20, n), (m + 1, n))]
    assert draws == [("_auc_counts", *shapes) for shapes in per_group] * m \
        + [("_ece_counts", *shapes) for shapes in per_group] * m


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
    # 32 comparators over 2500 rows of 2500 distinct patterns: drawing
    # every replicate's pattern counts at once would take 80 MB (the
    # counts and their float copy), and gathering every comparator's
    # losses for a whole index chunk about 270 MB.
    space = GroupSpace((("g", tuple(f"c{i}" for i in range(33))),))
    cells = space.cells()
    n = 2500
    rng = np.random.default_rng(0)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    ds = Dataset(np.zeros((n, 1)), y, (cells[0],) * n, space)
    model = _StubModel({c: rng.normal(size=n)
                        for c in cells + (WITHHELD,)})
    table = MarginTable(model, ds)
    assert len(np.unique(_wrong_rows(table, cells[0]), axis=0)) == n
    tracemalloc.start()
    try:
        _, gains = bootstrap_replicates(table, cells[0], cells[1:],
                                        ERROR_RATE, reps=2000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gains.shape == (2000, 32)
    assert peak < 64 * 2 ** 20


def test_ece_of_one_score_row_over_many_rows_is_bounded_in_rows():
    # One score row over 100,000 rows, one all-ones count row: the rows'
    # (1, hit, high, low) operand over the filled bins alone would hold
    # 16 MB, so it is multiplied in chunks of rows. The sums are exact
    # integers, so the chunks give the unsliced product's value.
    rng = np.random.default_rng(0)
    rows = 100_000
    margins = rng.normal(scale=3.0, size=(1, rows))
    scores = expit(margins)
    labels = np.where(rng.random(rows) < 0.5, 1, -1)
    counts = np.ones((1, rows), dtype=np.int64)
    tracemalloc.start()
    try:
        sliced = resampled_block(ECE, counts, scores, margins, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics_module, "_BIN_SLICE_ENTRIES", 1 << 40)
        whole = resampled_block(ECE, counts, scores, margins, labels)
    assert peak <= 12 * 2 ** 20
    assert np.array_equal(sliced, whole)
    assert sliced[0, 0] == ece_value(scores[0], margins[0], labels)


def test_ece_draw_memory_is_bounded_in_comparators():
    # 33 comparators at 2000 replicates over a 30-row group: spreading
    # every comparator's per-bin sums at once would hold 16 MB.
    space = GroupSpace((("g", tuple(f"c{i}" for i in range(33))),))
    cells = space.cells()
    n = 30
    rng = np.random.default_rng(0)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    ds = Dataset(np.zeros((n, 1)), y, (cells[0],) * n, space)
    model = _StubModel({c: rng.normal(size=n)
                        for c in cells + (WITHHELD,)})
    table = MarginTable(model, ds)
    comps = (WITHHELD,) + cells[1:]
    tracemalloc.start()
    try:
        _, gains = bootstrap_replicates(table, cells[0], comps, ECE,
                                        reps=2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gains.shape == (2000, 33)
    assert peak < 8 * 2 ** 20


def test_auc_draw_of_a_2500_row_group_is_fast_and_small():
    # Summing tied-score blocks with np.add.reduceat took 0.29 s and
    # peaked at 20.2 MB here (5 comparators, two index chunks).
    space = GroupSpace((("g", tuple(f"c{i}" for i in range(5))),))
    cells = space.cells()
    n = 2500
    rng = np.random.default_rng(0)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    ds = Dataset(np.zeros((n, 1)), y, (cells[0],) * n, space)
    model = _StubModel({c: rng.normal(size=n)
                        for c in cells + (WITHHELD,)})
    table = MarginTable(model, ds)
    comps = (WITHHELD,) + cells[1:]
    reps = 2 * (audit_module._INDEX_CHUNK_ENTRIES // n)
    tracemalloc.start()
    try:
        _, gains = bootstrap_replicates(table, cells[0], comps, AUC,
                                        reps=reps, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gains.shape == (reps, 5)
    assert peak < 15 * 2 ** 20
    times = []
    for _ in range(3):
        start = time.perf_counter()
        bootstrap_replicates(table, cells[0], comps, AUC, reps=reps, seed=0)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.15


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


@given(st.integers(1, 5000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n),
                        st.integers(0, 2 ** 32 - 1))))
def test_wrong_bit_count_over_n_is_the_mean_of_mismatches(case):
    # A cell's error rate is its count of wrong bits over n; the mean of
    # +-1 prediction mismatches it replaces is k / n correctly rounded too.
    # Margins of exactly 0 predict +1.
    n, k, seed = case
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    wrong = np.zeros(n, dtype=bool)
    wrong[rng.permutation(n)[:k]] = True
    size = rng.choice([0.0, 0.5, 3.0], size=n)
    m = np.where(wrong, -y, y) * size
    m[(m == 0.0) & (wrong == (y == 1))] = -1.0
    bits = (m >= 0.0) != (y == 1)
    assert np.count_nonzero(bits) == k
    want = float(np.mean(np.where(m >= 0, 1, -1) != y))
    assert np.count_nonzero(bits) / n == want
    assert metric_value(ERROR_RATE, None, m, y) == want


def test_audit_sums_each_mcnemar_tail_once_per_call(monkeypatch):
    # The m^2 McNemar tests of an audit meet far fewer distinct (b + c, k)
    # splits; each is summed once, and a second audit sums them again, as
    # the memo lives in the audit's MarginTable.
    ds = gen_exchangeable_null(m=8, n_per_group=30, seed=0)
    sums = []
    real = audit_module._binom_tail_at_least

    def counted(n, k):
        sums.append((n, k))
        return real(n, k)

    monkeypatch.setattr(audit_module, "_binom_tail_at_least", counted)
    cfg = AuditConfig(bootstrap_reps=100)
    report = audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,), cfg)
    first = list(sums)
    splits = [r.detail for r in report.results if r.test == MCNEMAR]
    assert len(splits) == 64
    want = {(d["b"] + d["c"], k) for d in splits if d["b"] + d["c"]
            for k in (d["b"], d["c"])}
    assert len(first) == len(set(first)) == len(want) < 2 * len(splits)
    assert set(first) == want
    sums.clear()
    audit(ds, ds, Strategy.ONEHOT, (ERROR_RATE,), cfg)
    assert sums == first
