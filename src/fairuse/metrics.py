"""Group-conditional performance metrics and the margin table they read.

All risks are reported in their natural units (error rate, AUC, expected
calibration error). Gains always use a lower-is-better orientation: AUC is
internally flipped to 1 - AUC when differencing (see `orient`), so a
positive gain always means the group prefers truthful personalized use.

`MarginTable` holds one model's margins over every row of one dataset,
one column per reported value, and each group's misclassification bits
under every report as one bool matrix. It lives here, below `audit`,
`theory` and `interventions`, so that each of them reads group margins
from one table instead of recomputing them group by group; `audit`
re-exports it. `gain_matrix` turns an (m, m+1) risk matrix, generic
column first, into every group's gains over its own truthful risk; the
audit's point checks and the training-loss premise check both use it.

`resampled_block` is the count-weighted form of `metric_value` and the
one replicate entry: for a (replicates, rows) count matrix and a
(k, rows) block of score and margin rows over the same rows, say one
group under k reported values, it returns (replicates, k) values with no
resample ever materialized. AUC and ECE have one kernel each, and it
takes a block: `auc_value` and `ece_value` are its k = 1 calls on one
all-ones count row, so a point value is the replicate form exactly.
The audit makes one kernel call per group for a row of point values
(`MarginTable.risks`) and one per group and chunk of replicates. The
AUC kernel reads running sums of negative counts, in score order, at
each positive row's tie bounds; the ECE kernel makes one matrix product
of the counts with the per-bin indicators of a slice of score rows,
whose sums are exact integers, so its values do not depend on the
product's shape.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._optim import expit
from .groups import TRUTHFUL, WITHHELD

ERROR_RATE_TAG = "error_rate"
AUC_TAG = "auc"
ECE_TAG = "ece"
_LOWER_IS_BETTER = {ERROR_RATE_TAG: True, AUC_TAG: False, ECE_TAG: True}
# Most entries of the operand the ECE kernel multiplies the counts with
# for one slice of score rows, and of that product: four columns per bin
# and score row, over rows or replicates, whichever are more. A slice
# holds at least one score row; when that row's operand is larger, it is
# multiplied in chunks of rows.
_BIN_SLICE_ENTRIES = 1 << 18


@dataclass(frozen=True)
class MetricKind:
    """A metric tag plus its orientation and (for ECE) its bin count."""

    tag: str
    lower_is_better: bool
    ece_bins: int = 10

    def __post_init__(self):
        if self.tag not in _LOWER_IS_BETTER:
            raise ValueError(f"unknown metric tag {self.tag!r}")
        if self.lower_is_better != _LOWER_IS_BETTER[self.tag]:
            raise ValueError(
                f"metric {self.tag!r} must have lower_is_better="
                f"{_LOWER_IS_BETTER[self.tag]}")
        if self.ece_bins < 1:
            raise ValueError("ece_bins must be >= 1")


ERROR_RATE = MetricKind(ERROR_RATE_TAG, True)
AUC = MetricKind(AUC_TAG, False)
ECE = MetricKind(ECE_TAG, True)

_NAMES = {
    "error": ERROR_RATE, "error_rate": ERROR_RATE,
    "auc": AUC,
    "ece": ECE,
}


def metric_from_name(name, ece_bins=10):
    """Resolve a CLI-style metric name ("error", "auc", "ece")."""
    key = str(name).lower()
    if key not in _NAMES:
        raise ValueError(f"unknown metric {name!r}; expected one of "
                         f"{sorted(set(_NAMES))}")
    base = _NAMES[key]
    if base.tag == ECE_TAG and ece_bins != base.ece_bins:
        return MetricKind(ECE_TAG, True, ece_bins)
    return base


@dataclass(frozen=True)
class RiskEstimate:
    """A group-conditional risk value for one (group, reported) pairing.

    value is NaN and defined is False when the metric is undefined on the
    rows (AUC on a single-class group, or an empty group); undefined risks
    propagate to "not testable" downstream, never to a silent number.
    """

    value: float
    n_effective: int
    metric: MetricKind
    group: object
    reported: object
    defined: bool = True

    def __post_init__(self):
        if self.defined:
            if not (-1e-9 <= self.value <= 1 + 1e-9):
                raise ValueError(
                    f"{self.metric.tag} value {self.value} outside [0,1]")
            object.__setattr__(self, "value",
                               min(1.0, max(0.0, float(self.value))))
        else:
            object.__setattr__(self, "value", float("nan"))


def orient(metric, value):
    """Raw metric value (a float or an array) in lower-is-better
    orientation: AUC becomes 1 - AUC."""
    if metric.lower_is_better:
        return value
    return 1.0 - value


def gain_matrix(values):
    """Gains of an (m, m+1) lower-is-better risk matrix whose column 0 is
    the generic model and column j+1 reports cell j: each entry minus its
    row's own truthful entry, values[i, i+1]. NaN stays NaN, and integer
    counts give integer gains."""
    m = values.shape[0]
    return values - values[np.arange(m), np.arange(1, m + 1)][:, None]


def error_rate_value(margins, labels):
    """Fraction of rows whose margin sign misses the label: a count of
    misclassified rows over n, so k / n correctly rounded."""
    return np.count_nonzero((margins >= 0.0) != (labels == 1)) / labels.size


def _ones(labels):
    """One all-ones count row over `labels`: the whole sample, once."""
    return np.ones((1, labels.size), dtype=np.int64)


def auc_value(scores, labels):
    """Mann-Whitney AUC with ties counted one half; NaN if single-class."""
    return float(_auc_counts(_ones(labels), scores[None], labels)[0, 0])


def ece_value(scores, margins, labels, bins=10):
    """Expected calibration error over equal-width right-closed bins.

    Confidence is max(score, 1-score); accuracy is the fraction of rows in
    the bin whose hard label matches. Bin k covers ((k-1)/B, k/B], with the
    first bin closed at 0. Empty bins contribute nothing; no rows give NaN.
    """
    return float(_ece_counts(_ones(labels), scores[None], margins[None],
                             labels, bins)[0, 0])


def metric_value(metric, scores, margins, labels):
    """Dispatch a metric over aligned scores, margins, and labels; the
    error rate reads no scores, so they may be None for it."""
    if metric.tag == ERROR_RATE_TAG:
        return error_rate_value(margins, labels)
    if metric.tag == AUC_TAG:
        return auc_value(scores, labels)
    return ece_value(scores, margins, labels, metric.ece_bins)


def resample_counts(idx):
    """(replicates, n) count matrix of a bootstrap index of the same shape:
    entry [b, i] is how often row i appears in replicate b.

    Consumes idx: its rows are offset in place, so pass a fresh draw."""
    reps, n = idx.shape
    idx += (n * np.arange(reps))[:, None]
    return np.bincount(idx.ravel(), minlength=reps * n).reshape(reps, n)


def resampled_block(metric, counts, scores, margins, labels):
    """AUC or ECE (`metric_value`) on each resample that a (replicates, n)
    count matrix weights, for each row of a (k, n) block of scores and
    margins over the same labels: a (replicates, k) array, NaN where the
    metric is undefined (no rows; AUC with one class absent). AUC, and
    ECE while a replicate has fewer than 2^26 rows, equal `metric_value`
    on the materialized resample bit for bit."""
    if metric.tag == AUC_TAG:
        return _auc_counts(counts, scores, labels)
    return _ece_counts(counts, scores, margins, labels, metric.ece_bins)


def _auc_counts(counts, scores, labels):
    """Count-weighted Mann-Whitney AUC of each row of a (k, n) score block,
    one column per row.

    The positive rows' counts and both class totals are gathered once per
    block. Per score row, the negative rows are sorted by score, and each
    replicate's negative counts are summed along that order, with a
    leading zero. A positive row's tie bounds among the sorted negative
    scores, lo and hi, then read how many negatives it beats (cum[lo]) and
    how many it beats or ties (cum[hi]), so twice U, the sum of
    pos * (cum[lo] + cum[hi]), is an exact integer; when no positive ties
    a negative, lo equals hi and one read, doubled, gives it. Twice U
    reads the scores only through that order and those bounds, so score
    rows that share them share it, and it is summed once for them: a
    one-hot model's cells shift every margin alike, so they keep each
    row's rank. The rank-sum formula's half-integer sums are exact too:
    both end in one division.
    """
    pos = labels == 1
    pos_rows = np.flatnonzero(pos)
    neg_rows = np.flatnonzero(~pos)
    # Counts by row, each row's replicates contiguous, so the running
    # sums and later gathers move whole rows.
    c_pos = counts.T[pos_rows]
    c_neg = counts.T[neg_rows]
    n_pos = c_pos.sum(axis=0)
    n_neg = c_neg.sum(axis=0)
    twice_u = np.empty((counts.shape[0], len(scores)), dtype=np.int64)
    cum = np.zeros((neg_rows.size + 1, counts.shape[0]), dtype=np.int64)
    summed = {}
    for j, row in enumerate(scores):
        neg_scores, pos_scores = row[neg_rows], row[pos_rows]
        order = np.argsort(neg_scores, kind="stable")
        ranked = neg_scores[order]
        lo = np.searchsorted(ranked, pos_scores, "left")
        hi = np.searchsorted(ranked, pos_scores, "right")
        key = (order.tobytes(), lo.tobytes(), hi.tobytes())
        if key not in summed:
            np.cumsum(c_neg[order], axis=0, out=cum[1:])
            low = np.einsum("ij,ij->j", c_pos, cum[lo])
            if np.array_equal(lo, hi):
                summed[key] = 2 * low
            else:
                summed[key] = low + np.einsum("ij,ij->j", c_pos, cum[hi])
        twice_u[:, j] = summed[key]
    with np.errstate(invalid="ignore"):
        out = (0.5 * twice_u) / (n_pos * n_neg)[:, None]
    out[(n_pos == 0) | (n_neg == 0)] = np.nan
    return out


def _ece_counts(counts, scores, margins, labels, bins):
    """Count-weighted ECE of each row of a (k, n) block of scores and
    margins, one column per row.

    A confidence max(s, 1 - s) lies in [0.5, 1], so it is an integer
    multiple of 2^-53: conf * 2^53 = high * 2^26 + low, with high =
    floor(conf * 2^27) and low below 2^26, both exact. While a replicate
    has fewer than 2^26 rows, its per-bin counts, hits and sums of high
    and of low are integers below 2^53, which a product sums exactly in
    any order, and (high sum * 2^26 + low sum) / 2^53 is the bin's
    confidence sum correctly rounded. So a slice of score rows' sums over
    every replicate are one matrix product, whatever its shape or memory
    order, of the counts with the (1, hit, high, low) factors times the
    indicator of each (bin, score row) that some row fills, and over a
    slice of rows the sums of its products over consecutive row chunks.
    Each score row's terms are added in bin order.
    """
    reps, rows = counts.shape
    counts_f = counts.astype(float)
    n = counts.sum(axis=1)[:, None]
    conf = np.maximum(scores, 1.0 - scores)
    high = np.floor(conf * 2.0 ** 27)
    correct = np.where(margins >= 0.0, 1, -1) == labels
    # Each entry's bin, from 0: ((b - 1)/bins, b/bins] is bin b - 1, and
    # bins marks none (NaN or above 1). A confidence is at least 0.5, so
    # the first bin's closed end at 0 never matters.
    which = np.searchsorted(np.arange(1, bins + 1) / bins, conf)
    total = np.zeros((reps, len(scores)))
    step = max(1, _BIN_SLICE_ENTRIES // (4 * bins * max(rows, reps)))
    for start in range(0, len(scores), step):
        width = min(step, len(scores) - start)
        # Score row start + j's bin b is key b * width + j, so each bin's
        # filled columns are contiguous; an entry in no bin keys past them.
        key = which[start:start + width] * width + np.arange(width)[:, None]
        filled = np.flatnonzero(np.bincount(
            key.ravel(), minlength=(bins + 1) * width)[:bins * width])
        sums = np.zeros((reps, 4 * filled.size))
        chunk = max(1, _BIN_SLICE_ENTRIES // (4 * bins * width))
        for lo in range(0, rows, chunk):
            hi = min(lo + chunk, rows)
            j, i = np.nonzero(key[:, lo:hi] < bins * width)
            s, r = start + j, lo + i
            rhs = np.zeros((hi - lo, 4, filled.size))
            rhs[i, :, np.searchsorted(filled, key[j, r])] = np.stack(
                [np.ones(j.size), correct[s, r], high[s, r],
                 conf[s, r] * 2.0 ** 53 - high[s, r] * 2.0 ** 26], axis=1)
            sums += counts_f[:, lo:hi] @ rhs.reshape(hi - lo,
                                                     4 * filled.size)
        cnt, hits, high_sum, low_sum = np.split(sums, 4, axis=1)
        conf_sum = (high_sum * 2.0 ** 26 + low_sum) / 2.0 ** 53
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(cnt > 0, (cnt / n) * np.abs(hits / cnt
                                                         - conf_sum / cnt),
                             0.0)
        edges = np.searchsorted(filled, width * np.arange(bins + 1))
        for b in range(bins):
            cols = slice(edges[b], edges[b + 1])
            total[:, start + filled[cols] - b * width] += terms[:, cols]
    total[n[:, 0] == 0] = np.nan
    return total


class MarginTable:
    """Margins of one model on every row of one dataset.

    One column per reported value (WITHHELD or a cell), computed over all
    rows on first use by `model.margins` and then kept, plus the row
    indices of each true group. The TRUTHFUL column is gathered group by
    group from each group's own report column. Everything below is made
    on first use of its key and then kept:

    - `wrong_matrix(g)`, group g's misclassification bits, one (m+1, n_g)
      bool matrix: row 0 under WITHHELD, row j+1 under cell j, made in
      one comparison of the group's stacked margin rows with its labels.
      `wrong(g, reported)` reads its row once it is made; before that it
      computes the one row and keeps nothing;
    - `risks(metric, g, reported)`, a RiskEstimate per reported value,
      those not yet kept made at once (one kernel call for AUC and ECE,
      on the sigmoid of the group's stacked margin rows from `block`);
      `risk(metric, g, reported)` is its one-report call;
    - `tails`, a dict in which `audit.mcnemar_test` keeps each binomial
      tail it sums, so a table sums each (n, k) once.

    Columns are kept whole, so a table holds one float per row and
    reported value, and one bool per row and reported value for the
    error rate; no score is kept. `audit` makes its tables per call, so
    no memo outlives an audit. The audit's tests take a table as their
    first argument and read `model` and `data` from it.
    """

    def __init__(self, model, data):
        self.model = model
        self.data = data
        self.tails = {}
        self._columns = {}
        self._rows = {}
        self._risks = {}
        self._bits = {}
        cells = data.space.cells()
        self._reported = (WITHHELD,) + cells
        self._slots = {r: i for i, r in enumerate(self._reported)}

    def column(self, reported):
        """Margins of every row when each reports `reported`."""
        col = self._columns.get(reported)
        if col is None:
            if reported is TRUTHFUL:
                col = np.empty(self.data.n)
                for g in self.data.space.cells():
                    col[self.rows(g)] = self.margins(g, g)
            else:
                col = self.model.margins(self.data.features, reported)
            self._columns[reported] = col
        return col

    def rows(self, g):
        """Row indices of true group g."""
        rows = self._rows.get(g)
        if rows is None:
            rows = self._rows[g] = self.data.rows_for(g)
        return rows

    def margins(self, g, reported):
        """Margins of group g's rows when they report `reported`."""
        return self.column(reported)[self.rows(g)]

    def slot(self, reported):
        """Row of `reported` (WITHHELD or a cell) in `wrong_matrix(g)`."""
        return self._slots[reported]

    def block(self, g, reported):
        """(margins, scores) of group g's rows under each of `reported`,
        two (len(reported), n_g) arrays; the scores are the margins'
        sigmoid."""
        margins = np.stack([self.margins(g, r) for r in reported])
        return margins, expit(margins)

    def risk(self, metric, g, reported):
        """RiskEstimate of `metric` on group g's rows under `reported`."""
        return self.risks(metric, g, (reported,))[0]

    def risks(self, metric, g, reported):
        """RiskEstimates of `metric` on group g's rows under each of
        `reported`, kept per (metric, g, reported). Those not yet kept are
        made at once: the error rate by `error_rate_value` on each margin
        row, AUC and ECE by one kernel call, on one all-ones count row,
        over the block of their score rows. An empty group's are NaN."""
        keys = [(metric, g, r) for r in reported]
        missing = [key[2] for key in keys if key not in self._risks]
        if missing:
            rows = self.rows(g)
            labels = self.data.labels[rows]
            if not rows.size:
                values = [float("nan")] * len(missing)
            elif metric.tag == ERROR_RATE_TAG:
                values = [error_rate_value(self.margins(g, r), labels)
                          for r in missing]
            else:
                margins, scores = self.block(g, missing)
                values = resampled_block(metric, _ones(labels), scores,
                                         margins, labels)[0].tolist()
            for r, value in zip(missing, values):
                self._risks[(metric, g, r)] = RiskEstimate(
                    value, int(rows.size), metric, g, r,
                    defined=not math.isnan(value))
        return [self._risks[key] for key in keys]

    def wrong(self, g, reported):
        """Whether each of group g's rows is misclassified under
        `reported` (WITHHELD or a cell): its row of `wrong_matrix(g)` once
        that is made, else computed from its margins and not kept."""
        matrix = self._bits.get(g)
        if matrix is not None:
            return matrix[self._slots[reported]]
        return ((self.margins(g, reported) >= 0.0)
                != (self.data.labels[self.rows(g)] == 1))

    def wrong_matrix(self, g):
        """Group g's (m+1, n_g) misclassification bits, made in one step
        from its stacked margin rows and kept: row 0 under WITHHELD, row
        j+1 under cell j."""
        matrix = self._bits.get(g)
        if matrix is None:
            margins = np.stack([self.margins(g, r) for r in self._reported])
            positive = self.data.labels[self.rows(g)] == 1
            matrix = self._bits[g] = (margins >= 0.0) != positive
        return matrix


def group_risk(model, data, g, reported, metric):
    """Empirical risk of `model` on group g's rows under a reported group.

    reported may be a GroupId (possibly a misreport), WITHHELD (paired
    generic model), or TRUTHFUL (each row reports its own group). g may be
    the ALL sentinel for a population-level estimate. A one-off slice of
    a MarginTable; callers with many groups should keep the table.
    """
    return MarginTable(model, data).risk(metric, g, reported)
