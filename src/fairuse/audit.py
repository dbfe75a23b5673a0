"""Fair-use auditing of a personalized classifier at the group level.

The audit trains a paired (generic, personalized) model, evaluates every
(true group, reported group) risk into a misreport matrix, checks the two
fair-use conditions on point estimates, and attaches one-sided significance
tests with a per-family Bonferroni correction:

- rationality: each group's truthful personalized risk should not exceed
  its generic risk (gain = generic risk - truthful risk, oriented so that
  positive always favors the personalized model);
- envy-freeness: no group should fare better by misreporting as another
  group (gain = misreported risk - truthful risk, per ordered pair).

Two test routes are provided: a recentered percentile bootstrap (any
metric) and an exact McNemar-style sign test on disagreeing predictions
(error rate only). Every randomized step derives from one master seed via
counter-based seed splitting, so reports are byte-identical across runs.

Margins are evaluated once per (model, dataset) into a `MarginTable`
(defined in `metrics`, importable from here as well): one column per
reported value (WITHHELD and every cell) over all rows, the truthful
column, and the row indices of each group. `misreport_matrix`,
`bootstrap_replicates`, `bootstrap_test`, `mcnemar_test` and
`identical_prediction_pairs` take that table as their first argument
and read the model and dataset from it; so do the population and
generalization rows. A slice equals the margins computed on the group's
rows alone.

Bootstrap replicates are never materialized. Each (metric, group) draws
its resamples once from its own seed, and all its comparators share
them, so one group's tests are dependent; each keeps its null
distribution and Bonferroni needs no independence. An error-rate gain
depends on a resample only through how many of its rows fall in each
*pattern*, a row's wrong/right vector under every reported value. Summed
within patterns, bootstrap row counts are Multinomial(n, n_p / n), so
every group draws those counts, and its gains are their product with
per-pattern loss differences over n, gathered from the group's wrong-bit
matrix with one index. AUC and ECE draw a (reps, n) resample index
instead, and each chunk of it becomes a count matrix (how often each row
appears in each replicate): one `metrics.resampled_block` call per chunk
gives AUC (a count-weighted Mann-Whitney U read from running negative
counts at each positive's tie bounds) or ECE (per-bin sums from one
matrix product per score row) for all its replicates, under the group's
own report and every comparator at once. Both draws come in chunks of
whole replicates, at most `_INDEX_CHUNK_ENTRIES` entries each, which
continue the generator's stream and so reproduce the one-shot draw. A
test's observed gain has the same form: the error rate's is the sum of
those differences over n, (c - b) / n in McNemar's terms; AUC's and
ECE's are the point values, the same kernel on one all-ones row, which
the misreport matrix makes for a group's whole row in one call
(`MarginTable.risks`). A replicate at twice the observed gain is then an
exact tie and counts on both sides. `mcnemar_test` counts b and c on the
table's kept `wrong` rows, the bits the bootstrap's patterns were made
from: b rows wrong under g's truthful model and right under the
comparator, c the converse.

A `MisreportMatrix` is one (m, m+1) array of risks, NaN where
undefined. Its error rates count each group's (m+1, n_g) bit matrix in
the table along the rows, over n; the pattern draw reads that matrix
whole and McNemar two of its rows. The point check computes gains from
the array in one expression (`metrics.gain_matrix`) and keeps them in
its `PointSummary` for the population row and the planner. An audit's m^2 McNemar
tests meet far fewer distinct (b + c, k) splits, and each tail is summed
once per table, in its `tails` memo, which lives as long as the audit.
Raw and adjusted results are built by `_result` in one dict update each.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

import numpy as np

from . import theory
from ._jsontext import Records, dumps, number, numbers
from .dataset import tally
from .groups import ALL, TRUTHFUL, WITHHELD, GroupId, GroupSpace
# group_risk, metric_value and MarginTable stay importable from this
# module for callers that look them up here.
from .metrics import (ERROR_RATE, ERROR_RATE_TAG, MarginTable,  # noqa: F401
                      MetricKind, RiskEstimate, gain_matrix, group_risk,
                      metric_value, orient, resample_counts,
                      resampled_block)
from .models import Strategy, TrainConfig, as_strategy, build_feature_map, \
    train_personalized

__all__ = [
    "RATIONALITY", "ENVY", "BOOTSTRAP", "MCNEMAR",
    "SIGNIFICANT_GAIN", "SIGNIFICANT_VIOLATION", "INCONCLUSIVE",
    "NOT_TESTABLE",
    "MisreportMatrix", "misreport_matrix", "PointGains", "PointSummary",
    "check_fair_use_point", "HypothesisResult", "bootstrap_replicates",
    "bootstrap_test", "mcnemar_test", "bonferroni", "AuditConfig",
    "PopulationRow", "GeneralizationRow", "FairUseReport", "audit",
    "identical_prediction_pairs", "MarginTable",
]

RATIONALITY = "rationality"
ENVY = "envy"
BOOTSTRAP = "bootstrap"
MCNEMAR = "mcnemar"

SIGNIFICANT_GAIN = "SignificantGain"
SIGNIFICANT_VIOLATION = "SignificantViolation"
INCONCLUSIVE = "Inconclusive"
NOT_TESTABLE = "NotTestable"

_MIN_BOOTSTRAP_REPS = 100
_MAX_UNDEFINED_FRACTION = 0.10
_IDENTICAL_ATOL = 1e-9
# Rows read per margin column before a pair of columns is compared whole.
_IDENTICAL_PREFIX_ROWS = 64
# Most bootstrap draw entries (replicates x group rows for AUC and ECE,
# replicates x patterns for the error rate) made at once. A chunk holds
# two 8-byte arrays of this size at once: the index, offset in place by
# resample_counts, and the counts; or the pattern counts and their float
# copy in the product with the loss differences.
_INDEX_CHUNK_ENTRIES = 1 << 19


def _label(group):
    """Report label of a group or comparator: "generic" for WITHHELD."""
    return "generic" if group is WITHHELD else str(group)


class _Labels(dict):
    """`_label` of each group and comparator, made on first use, so
    `str(GroupId)` runs once per cell in one render."""

    def __missing__(self, group):
        text = self[group] = _label(group)
        return text


@dataclass(frozen=True)
class MisreportMatrix:
    """All (true group, reported group) risks for one model and metric.

    values[i] holds cell i's risk under the paired generic model
    (WITHHELD) and then under a report of each cell; NaN (an empty group
    or an undefined metric) never silently compares. n holds each
    group's rows; the error rate keeps its misclassified-row counts.
    """

    metric: MetricKind
    space: GroupSpace
    values: np.ndarray
    n: np.ndarray
    counts: Optional[np.ndarray] = None

    def to_jsonable(self, labels=None):
        labels = _Labels() if labels is None else labels
        cells = [labels[c] for c in self.space.cells()]
        return {"metric": self.metric.tag, "rows": [
            {"group": g, "n": n, "generic": number(row[0]),
             "reported": dict(zip(cells, numbers(row[1:])))}
            for g, n, row in zip(cells, self.n.tolist(),
                                 self.values.tolist())]}


def misreport_matrix(table, metric):
    """Every (true group, reported) risk read from a MarginTable: error
    rates count each group's `wrong_matrix` rows, AUC and ECE read each
    group's row of risks from `table.risks`, one kernel call per group."""
    space = table.data.space
    cells = space.cells()
    counts = None
    if metric.tag == ERROR_RATE_TAG:
        counts = np.array([np.count_nonzero(table.wrong_matrix(g), axis=1)
                           for g in cells])
    else:
        values = np.array([[est.value for est in
                            table.risks(metric, g, (WITHHELD,) + cells)]
                           for g in cells])
    # n is read after the risks: on an unfilled table the first group's
    # risks compute every column, and other groups' row indices read
    # before them would add to that peak.
    n = np.array([table.rows(g).size for g in cells])
    if counts is not None:
        with np.errstate(invalid="ignore"):
            values = counts / n[:, None]  # k / n correctly rounded
    return MisreportMatrix(metric, space, values, n, counts)


@dataclass(frozen=True)
class PointGains:
    """Point-estimate gains for one true group.

    rationality_gain > 0 means the group prefers its personalized model to
    the generic one; envy gains > 0 mean truthful reporting beats
    misreporting as the keyed group. NaN marks a non-evaluable comparison.
    The two *_count fields are those gains in rows: an int difference of
    misclassified rows for the error rate, gain * n for AUC and ECE.
    """

    group: GroupId
    n: int
    rationality_gain: float
    envy_gains: dict
    envy_min_gain: float
    envy_argmin: Optional[GroupId]
    rationality_gain_count: float
    envy_min_gain_count: float

    def to_jsonable(self, labels=None):
        def count(value):
            return value if isinstance(value, int) else number(value)

        labels = _Labels() if labels is None else labels
        return {
            "group": labels[self.group],
            "n": self.n,
            "rationality_gain": number(self.rationality_gain),
            "rationality_gain_count": count(self.rationality_gain_count),
            "envy_gains": dict(zip(map(labels.__getitem__, self.envy_gains),
                                   numbers(list(self.envy_gains.values())))),
            "envy_min_gain": number(self.envy_min_gain),
            "envy_min_gain_count": count(self.envy_min_gain_count),
            "envy_argmin": (None if self.envy_argmin is None
                            else labels[self.envy_argmin]),
        }


@dataclass(frozen=True)
class PointSummary:
    """Point-estimate fair-use verdicts derived from one misreport matrix.

    gain_array is the matrix's (m, m+1) oriented gains (`gain_matrix`):
    column 0 the rationality gains, column j+1 the envy gains toward cell
    j. It is not written to the report."""

    metric: MetricKind
    gains: dict
    rationality_violations: tuple
    envy_violations: tuple
    gain_array: np.ndarray = field(compare=False, repr=False)

    @property
    def fair(self):
        """True when no point-estimate condition is violated."""
        return not self.rationality_violations and not self.envy_violations

    def to_jsonable(self, labels=None):
        labels = _Labels() if labels is None else labels
        return {
            "metric": self.metric.tag,
            "gains": [self.gains[g].to_jsonable(labels) for g in sorted(
                self.gains, key=labels.__getitem__)],
            "rationality_violations": [labels[g] for g in
                                       self.rationality_violations],
            "envy_violations": [[labels[g], labels[r]] for g, r in
                                self.envy_violations],
            "fair": self.fair,
        }


def check_fair_use_point(matrix):
    """Evaluate rationality and envy-freeness on matrix point estimates.

    A violation is a strictly negative gain; comparisons involving an
    undefined risk are skipped (they surface later as NotTestable). A
    group's least envy gain breaks ties by the smaller group name.
    """
    cells = matrix.space.cells()
    m = len(cells)
    gains = gain_matrix(orient(matrix.metric, matrix.values))
    # Gains in rows: exact int differences of misclassified rows for the
    # error rate, gain * n for AUC and ECE.
    in_rows = (gains * matrix.n[:, None] if matrix.counts is None
               else gain_matrix(matrix.counts)).tolist()
    envy = gains[:, 1:].copy()
    envy[np.arange(m), np.arange(m)] = np.nan
    least = np.fmin.reduce(envy, axis=1)
    # Of the cells tied at the least gain, take the one whose name ranks
    # first.
    name_rank = np.argsort(np.argsort([str(c) for c in cells]))
    argmin = np.argmin(np.where(envy == least[:, None], name_rank, m), axis=1)
    out = {}
    for gi, (g, n, row) in enumerate(zip(cells, matrix.n.tolist(),
                                         gains.tolist())):
        others = cells[:gi] + cells[gi + 1:]
        rat = row[0]
        j = None if math.isnan(least[gi]) else int(argmin[gi])
        min_gain = float("nan") if j is None else row[j + 1]
        out[g] = PointGains(
            g, n, rat, dict(zip(others, row[1:gi + 1] + row[gi + 2:])),
            min_gain, None if j is None else cells[j],
            rat if math.isnan(rat) else in_rows[gi][0],
            min_gain if j is None else in_rows[gi][j + 1])
    return PointSummary(
        matrix.metric, out,
        tuple(cells[i] for i in np.flatnonzero(gains[:, 0] < 0)),
        tuple((cells[i], cells[j]) for i, j in np.argwhere(envy < 0)),
        gains)


@dataclass(frozen=True)
class HypothesisResult:
    """One one-sided fair-use test for a (group, comparator) pair.

    estimate is the observed gain (positive favors truthful personalized
    use). p_violation and p_gain are the two one-sided p-values; p_raw is
    the one matching the observed sign and is what Bonferroni adjusts.
    Verdicts depend only on the estimate's sign and p_adjusted vs alpha.
    """

    kind: str
    test: str
    metric: str
    group: GroupId
    comparator: object
    n: int
    estimate: float
    p_violation: Optional[float]
    p_gain: Optional[float]
    p_raw: Optional[float]
    alpha: float = 0.10
    p_adjusted: Optional[float] = None
    family_size: int = 0
    verdict: str = INCONCLUSIVE
    detail: dict = field(default_factory=dict)

    @property
    def testable(self):
        return self.p_raw is not None

    @property
    def comparator_label(self):
        return _label(self.comparator)

    # The report's keys of a result, sorted, each the name of the field
    # it writes: group and comparator as labels, the estimate and the
    # p-values by the `number` rule, the rest as they are.
    KEYS = ("alpha", "comparator", "detail", "estimate", "family_size",
            "group", "kind", "metric", "n", "p_adjusted", "p_gain", "p_raw",
            "p_violation", "test", "verdict")
    _LABEL_KEYS = ("comparator", "group")
    _NUMBER_KEYS = ("estimate", "p_adjusted", "p_gain", "p_raw",
                    "p_violation")

    @classmethod
    def columns(cls, results, labels):
        """One list of report values per KEYS entry, one value per result,
        group and comparator read from `labels`."""
        columns = []
        for key in cls.KEYS:
            column = list(map(attrgetter(key), results))
            if key in cls._LABEL_KEYS:
                column = list(map(labels.__getitem__, column))
            elif key in cls._NUMBER_KEYS:
                column = numbers(column)
            columns.append(column)
        return columns

    def to_jsonable(self, labels=None):
        labels = _Labels() if labels is None else labels
        out = dict(zip(self.KEYS, attrgetter(*self.KEYS)(self)))
        for key in self._LABEL_KEYS:
            out[key] = labels[out[key]]
        for key in self._NUMBER_KEYS:
            out[key] = number(out[key])
        return out


# The fields a raw result leaves at HypothesisResult's defaults.
_UNADJUSTED = {"p_adjusted": None, "family_size": 0, "verdict": INCONCLUSIVE}


def _result(base, **fields):
    """HypothesisResult with `base`'s fields updated by `fields`.

    It is made in one step, without __init__: the frozen dataclass's
    keyword constructor sets its 15 fields one object.__setattr__ at a
    time, several times the cost of one dict update, and an audit makes
    m^2 raw and m^2 adjusted results per route. HypothesisResult has no
    __post_init__ to skip. A raw result starts from `_UNADJUSTED` and
    names every other field, `detail` included.
    """
    res = object.__new__(HypothesisResult)
    res.__dict__.update(base, **fields)
    return res


def _not_testable(kind, test, metric_tag, g, comparator, n, alpha, reason):
    return _result(
        _UNADJUSTED, kind=kind, test=test, metric=metric_tag, group=g,
        comparator=comparator, n=n, estimate=float("nan"),
        p_violation=None, p_gain=None, p_raw=None, alpha=alpha,
        verdict=NOT_TESTABLE, detail={"reason": reason})


def _patterns(wrong):
    """Distinct columns of a (k, n) bool matrix, in lexicographic order:
    the index of each one's first occurrence and how many columns share
    it. Columns are packed into bytes and radix-sorted byte by byte."""
    keys = np.packbits(wrong, axis=0)
    order = np.lexsort(keys[::-1])
    ranked = keys[:, order]
    starts = np.flatnonzero(np.r_[True, (ranked[:, 1:] != ranked[:, :-1])
                                  .any(axis=0)])
    return order[starts], np.diff(np.r_[starts, order.size])


def bootstrap_replicates(table, g, comparators, metric, *, reps=2000,
                         seed=0):
    """Observed and replicate gains of group g over each comparator.

    g's rows are resampled once from `seed` (an int or SeedSequence), and
    every comparator (WITHHELD or a GroupId) is evaluated on the same
    resamples, with margins read from `table`. The error rate draws
    pattern counts: a row's pattern is whether it is misclassified under
    each reported value, WITHHELD and every cell, and a resample's gains
    depend only on how many of its rows have each pattern. Those counts
    are Multinomial(n, n_p / n). AUC and ECE draw a (reps, n) index
    instead, each chunk made into a count matrix. Both draws come in
    chunks of whole replicates, which continue the generator's stream and
    so reproduce the one-shot draw. reps must be at least 100.

    Returns:
        (observed, gains): comparators[j]'s gain on g's rows, observed[j],
        and on each replicate, column j of the (reps, k) gains, NaN where
        undefined, each equal bit for bit to a call with comparators[j]
        alone and the same seed. Both share one form: the error rate sums
        per-pattern differences over n (observed is McNemar's
        (c - b) / n), AUC and ECE difference the count kernel, one call
        per chunk over g's own report and every comparator (observed
        reads the table's point values, that kernel on one all-ones row).
        A group with fewer than 2 rows draws nothing: NaN observed, no
        rows.
    """
    if reps < _MIN_BOOTSTRAP_REPS:
        raise ValueError(f"bootstrap needs >= {_MIN_BOOTSTRAP_REPS} "
                         f"replicates, got {reps}")
    rows = table.rows(g)
    n = int(rows.size)
    if n < 2:
        return np.full(len(comparators), np.nan), \
            np.empty((0, len(comparators)))
    rng = np.random.default_rng(seed)
    parts = []
    if metric.tag == ERROR_RATE_TAG:
        # Patterns span every reported value, whatever the comparators,
        # so a one-comparator call makes the same draw.
        wrong = table.wrong_matrix(g)
        first, n_p = _patterns(wrong)
        # (patterns, k) error differences: 1.0 where comparators[j] is
        # wrong and g's truthful model right, -1.0 for the converse.
        own = wrong[table.slot(g), first][:, None].astype(float)
        slots = [table.slot(c) for c in comparators]
        diffs = wrong[np.ix_(slots, first)].T - own
        step = max(1, _INDEX_CHUNK_ENTRIES // n_p.size)
        for start in range(0, reps, step):
            counts = rng.multinomial(n, n_p / n,
                                     size=min(step, reps - start))
            parts.append(counts @ diffs / n)  # exact integer sums over n
        return n_p @ diffs / n, np.concatenate(parts)
    # Row 0 of the block is g's truthful model, row j + 1 comparators[j].
    block = (g,) + tuple(comparators)
    point = orient(metric, np.array([est.value for est in
                                     table.risks(metric, g, block)]))
    y = table.data.labels[rows]
    margins, scores = table.block(g, block)
    step = max(1, _INDEX_CHUNK_ENTRIES // n)
    for start in range(0, reps, step):
        counts = resample_counts(
            rng.integers(0, n, size=(min(step, reps - start), n)))
        values = orient(metric, resampled_block(metric, counts, scores,
                                                margins, y))
        parts.append(values[:, 1:] - values[:, :1])
        del counts  # free this chunk's counts before the next draw
    return point[1:] - point[0], np.concatenate(parts)


def bootstrap_test(table, g, comparator, metric, observed, gains, *,
                   alpha=0.10):
    """Recentered percentile bootstrap of group g's gain over a comparator.

    comparator WITHHELD tests rationality against the paired generic
    model; a GroupId tests envy against misreporting as that group. The
    replicate gains are shifted by the observed gain to simulate the
    zero-gain null, and each one-sided p is (1 + #{null draws at least as
    extreme as the observed gain}) / (#valid draws + 1).

    Args:
        table: MarginTable of the model on the evaluation dataset.
        g: true group under test.
        comparator: WITHHELD or a GroupId to misreport as.
        metric: MetricKind to difference.
        observed, gains: the comparator's entry and column of
            `bootstrap_replicates`; NaN observed means undefined.
        alpha: significance level echoed into the result.

    Returns:
        HypothesisResult with p_adjusted unset (see bonferroni).
    """
    kind = RATIONALITY if comparator is WITHHELD else ENVY
    n = int(table.rows(g).size)
    if n < 2:
        return _not_testable(kind, BOOTSTRAP, metric.tag, g, comparator, n,
                             alpha, "fewer than 2 rows in the group")
    if math.isnan(observed):
        return _not_testable(kind, BOOTSTRAP, metric.tag, g, comparator, n,
                             alpha, "metric undefined on the observed rows")
    est = float(observed)
    reps = gains.size
    undefined = np.isnan(gains)
    n_undefined = int(np.count_nonzero(undefined))
    if n_undefined > _MAX_UNDEFINED_FRACTION * reps:
        return _not_testable(
            kind, BOOTSTRAP, metric.tag, g, comparator, n, alpha,
            f"{n_undefined} of {reps} replicates left the metric undefined")
    # Error-rate replicates are never NaN: copy out the valid ones only
    # when there are others.
    valid = gains[~undefined] if n_undefined else gains
    shifted = valid - est
    denom = valid.size + 1
    p_violation = (1 + int(np.count_nonzero(shifted <= est))) / denom
    p_gain = (1 + int(np.count_nonzero(shifted >= est))) / denom
    if est < 0:
        p_raw = p_violation
    elif est > 0:
        p_raw = p_gain
    else:
        p_raw = 1.0
    return _result(
        _UNADJUSTED, kind=kind, test=BOOTSTRAP, metric=metric.tag, group=g,
        comparator=comparator, n=n, estimate=est, p_violation=p_violation,
        p_gain=p_gain, p_raw=p_raw, alpha=alpha,
        detail={"reps": int(reps), "undefined_reps": n_undefined})


def _binom_tail_at_least(n, k):
    """Exact Pr[Binomial(n, 1/2) >= k], correctly rounded to a float.

    Sums the integer terms C(n, j) away from the mode, where they shrink:
    from j = k upward when k > n/2, else from j = k - 1 downward over the
    complement. Each term comes from its neighbour by the exact recurrence
    C(n, j+1) * (j + 1) = C(n, j) * (n - j). The term ratio keeps falling
    away from the mode, so the terms not yet added sum to at most the
    next term over (1 - its ratio). The sum stops once both ends of that
    interval round to the same float, which the exact tail, lying between
    them, then rounds to as well.
    """
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    whole = 1 << n
    up = 2 * k > n
    j = k if up else k - 1
    term = math.comb(n, j)
    total = 0
    while True:
        total += term
        if up:
            if j == n:
                break
            term = term * (n - j) // (j + 1)
            j += 1
            rest = -(-term * (j + 1) // (2 * j + 1 - n))
        else:
            if j == 0:
                break
            term = term * j // (n - j + 1)
            j -= 1
            rest = -(-term * (n - j + 1) // (n - 2 * j + 1))
        low = total if up else whole - total - rest
        if low > 0 and rest.bit_length() < low.bit_length() - 53:
            high = low + rest
            if low / whole == high / whole:  # int division rounds exactly
                break
    return (total if up else whole - total) / whole


def _tail(memo, n, k):
    """`_binom_tail_at_least(n, k)`, summed once per key of `memo`."""
    p = memo.get((n, k))
    if p is None:
        p = memo[(n, k)] = _binom_tail_at_least(n, k)
    return p


def mcnemar_test(table, g, comparator, *, alpha=0.10):
    """Exact sign test on rows where the two predictions disagree.

    Counts b = rows group g's truthful model gets wrong while the
    comparator gets right, c = the converse; under the null of equal error
    rates the b-vs-c split is Binomial(b + c, 1/2). Applies to the error
    rate only; the estimate is (c - b) / n, matching the bootstrap's gain
    orientation. b + c = 0 gives p = 1 (no evidence either way). b and c
    are counted on the table's kept `wrong` bits, which the group's
    bootstrap has already made, and each tail is looked up in the
    table's `tails` memo before it is summed: the audit's m^2 tests per
    route meet far fewer distinct (b + c, k) splits.
    """
    kind = RATIONALITY if comparator is WITHHELD else ENVY
    n = int(table.rows(g).size)
    if n < 2:
        return _not_testable(kind, MCNEMAR, ERROR_RATE_TAG, g, comparator,
                             n, alpha, "fewer than 2 rows in the group")
    own = table.wrong(g, g)
    other = table.wrong(g, comparator)
    # b + c rows disagree, and c - b is the difference of the error counts.
    disagree = int(np.count_nonzero(own ^ other))
    gap = int(np.count_nonzero(other)) - int(np.count_nonzero(own))
    b, c = (disagree - gap) // 2, (disagree + gap) // 2
    est = (c - b) / n
    if b + c == 0:
        p_violation = p_gain = p_raw = 1.0
    else:
        p_violation = _tail(table.tails, b + c, b)
        p_gain = _tail(table.tails, b + c, c)
        p_raw = p_violation if b >= c else p_gain
    return _result(
        _UNADJUSTED, kind=kind, test=MCNEMAR, metric=ERROR_RATE_TAG, group=g,
        comparator=comparator, n=n, estimate=est, p_violation=p_violation,
        p_gain=p_gain, p_raw=p_raw, alpha=alpha,
        detail={"b": b, "c": c})


def bonferroni(results, alpha=None):
    """Fill p_adjusted, family sizes, and verdicts on a batch of results.

    Results are grouped into families by (metric, test, kind), so each
    metric and test route corrects its rationality tests (nominally m) and
    envy tests (nominally m(m-1)) separately. family_size counts the
    testable results actually in the family; NotTestable entries keep
    p_adjusted = None and do not inflate the correction.
    """
    sizes = Counter((r.metric, r.test, r.kind)
                    for r in results if r.testable)
    out = []
    for r in results:
        a = r.alpha if alpha is None else alpha
        fs = sizes.get((r.metric, r.test, r.kind), 0)
        if not r.testable:
            out.append(_result(r.__dict__, alpha=a, family_size=fs,
                               verdict=NOT_TESTABLE))
            continue
        p_adj = min(1.0, fs * r.p_raw)
        if r.estimate == 0 or p_adj > a:
            verdict = INCONCLUSIVE
        elif r.estimate < 0:
            verdict = SIGNIFICANT_VIOLATION
        else:
            verdict = SIGNIFICANT_GAIN
        out.append(_result(r.__dict__, alpha=a, family_size=fs,
                           p_adjusted=p_adj, verdict=verdict))
    return out


def _default_train_config():
    return TrainConfig(l2_penalty=1e-4)


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for a full audit; every field is echoed into the report.

    The default training config carries a small ridge penalty so the
    logistic fit is strictly convex and the audited model is unique.
    """

    alpha: float = 0.10
    bootstrap_reps: int = 2000
    seed: int = 0
    delta: float = 0.10
    vc_override: Optional[int] = None
    train_config: TrainConfig = field(default_factory=_default_train_config)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.bootstrap_reps < _MIN_BOOTSTRAP_REPS:
            raise ValueError(f"bootstrap_reps must be >= "
                             f"{_MIN_BOOTSTRAP_REPS}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.vc_override is not None and self.vc_override < 1:
            raise ValueError("vc_override must be >= 1")

    def to_jsonable(self):
        return {
            "alpha": self.alpha,
            "bootstrap_reps": self.bootstrap_reps,
            "seed": self.seed,
            "delta": self.delta,
            "vc_override": self.vc_override,
            "train_config": self.train_config.to_jsonable(),
        }


@dataclass(frozen=True)
class PopulationRow:
    """Population-level summary line for one metric.

    Mirrors the summary-table anatomy: personalized risk, overall gain,
    best and worst per-group gains, then gain/violation counts at the
    point estimates and at significance.
    """

    metric: MetricKind
    generic_risk: RiskEstimate
    personalized_risk: RiskEstimate
    overall_gain: float
    best_gain: Optional[tuple]
    worst_gain: Optional[tuple]
    point_rationality_gains: int
    point_rationality_violations: int
    point_envy_gains: int
    point_envy_violations: int
    significant_rationality_gains: int
    significant_rationality_violations: int
    significant_envy_gains: int
    significant_envy_violations: int

    def to_jsonable(self, labels=None):
        def pair(p):
            return None if p is None else [labels[p[0]], number(p[1])]

        labels = _Labels() if labels is None else labels
        return {
            "metric": self.metric.tag,
            "generic_risk": number(self.generic_risk.value),
            "personalized_risk": number(self.personalized_risk.value),
            "overall_gain": number(self.overall_gain),
            "best_gain": pair(self.best_gain),
            "worst_gain": pair(self.worst_gain),
            "point_rationality_gains": self.point_rationality_gains,
            "point_rationality_violations":
                self.point_rationality_violations,
            "point_envy_gains": self.point_envy_gains,
            "point_envy_violations": self.point_envy_violations,
            "significant_rationality_gains":
                self.significant_rationality_gains,
            "significant_rationality_violations":
                self.significant_rationality_violations,
            "significant_envy_gains": self.significant_envy_gains,
            "significant_envy_violations":
                self.significant_envy_violations,
        }


@dataclass(frozen=True)
class GeneralizationRow:
    """Sample-size bound verdicts for one group's training-split gains."""

    group: GroupId
    n_train: int
    vc: int
    delta: float
    rationality_gain: float
    rationality: Optional[object]
    envy_min_gain: float
    envy: Optional[object]

    def to_jsonable(self, labels=None):
        def verdict(v):
            return None if v is None else v.to_jsonable()

        labels = _Labels() if labels is None else labels
        return {
            "group": labels[self.group],
            "n_train": self.n_train,
            "vc": self.vc,
            "delta": self.delta,
            "rationality_gain": number(self.rationality_gain),
            "rationality": verdict(self.rationality),
            "envy_min_gain": number(self.envy_min_gain),
            "envy": verdict(self.envy),
        }


def identical_prediction_pairs(table):
    """Ordered pairs of cells whose reported predictions always agree.

    Compares the table's margin columns over all rows for every pair of
    reportable groups; agreeing pairs signal that personalization
    distinguishes the two groups in name only. Each column's first
    `_IDENTICAL_PREFIX_ROWS` margins are compared with every later
    column's at once, by the same `isclose` test `allclose` applies, and
    only pairs that agree there are compared over all rows.
    """
    cells = table.data.space.cells()
    margins = [table.column(r) for r in cells]
    head = np.stack([m[:_IDENTICAL_PREFIX_ROWS] for m in margins])
    pairs = []
    for i in range(len(cells)):
        agree = np.isclose(head[i + 1:], head[i], rtol=0.0,
                           atol=_IDENTICAL_ATOL).all(axis=1)
        for j in i + 1 + np.flatnonzero(agree):
            if np.allclose(margins[i], margins[j], rtol=0.0,
                           atol=_IDENTICAL_ATOL):
                pairs.append((cells[i], cells[j]))
    return tuple(pairs)


@dataclass
class FairUseReport:
    """Everything an audit produced, serializable to JSON and markdown."""

    strategy: Strategy
    space: GroupSpace
    config: AuditConfig
    metrics: tuple
    model: object
    train_tally: object
    test_tally: object
    train_equals_test: bool
    matrices: dict
    points: dict
    populations: dict
    results: tuple
    generalization: tuple
    identical_pairs: tuple
    suggestions: tuple = ()

    @property
    def has_significant_violation(self):
        return any(r.verdict == SIGNIFICANT_VIOLATION for r in self.results)

    @property
    def has_point_violation(self):
        return any(not p.fair for p in self.points.values())

    def significant_violations(self):
        return tuple(r for r in self.results
                     if r.verdict == SIGNIFICANT_VIOLATION)

    def to_jsonable(self):
        labels = _Labels()
        return self._tree(labels, [r.to_jsonable(labels)
                                   for r in self.results])

    def to_json_str(self):
        """Canonical JSON text; identical inputs give identical bytes.

        The bytes are those of `json.dumps(self.to_jsonable(),
        sort_keys=True, indent=2)`, written by `_jsontext.dumps`, which
        skips json's pure-Python encoder. The results go to it as one
        `Records` leaf of value columns, not as a dict each.
        """
        labels = _Labels()
        return dumps(self._tree(labels, Records(
            HypothesisResult.KEYS,
            HypothesisResult.columns(self.results, labels))))

    def _tree(self, labels, results):
        """The report as a JSON tree holding `results`, its other group
        labels read from `labels`."""
        return {
            "strategy": self.strategy.value,
            "attributes": [[name, list(dom)]
                           for name, dom in self.space.attributes],
            "config": self.config.to_jsonable(),
            "metrics": [{"tag": mk.tag, "ece_bins": mk.ece_bins}
                        for mk in self.metrics],
            "model": self.model.to_jsonable(),
            "train_tally": self.train_tally.to_jsonable(),
            "test_tally": self.test_tally.to_jsonable(),
            "train_equals_test": self.train_equals_test,
            "matrices": {t: m.to_jsonable(labels)
                         for t, m in self.matrices.items()},
            "points": {t: p.to_jsonable(labels)
                       for t, p in self.points.items()},
            "populations": {t: p.to_jsonable(labels)
                            for t, p in self.populations.items()},
            "results": results,
            "generalization": [g.to_jsonable(labels)
                               for g in self.generalization],
            "identical_prediction_pairs": [[labels[a], labels[b]] for a, b
                                           in self.identical_pairs],
            "suggestions": [s.to_jsonable() for s in self.suggestions],
            "has_significant_violation": self.has_significant_violation,
            "has_point_violation": self.has_point_violation,
        }

    def to_markdown(self):
        return render_markdown(self)

    def to_csv(self):
        """Hypothesis results as CSV rows (one line per test)."""
        lines = ["metric,test,kind,group,comparator,n,estimate,p_raw,"
                 "p_adjusted,family_size,verdict"]
        labels = _Labels()
        for r in self.results:
            lines.append(",".join([
                r.metric, r.test, r.kind, _csv_quoted(labels[r.group]),
                _csv_quoted(labels[r.comparator]), str(r.n),
                _csv_num(r.estimate), _csv_num(r.p_raw),
                _csv_num(r.p_adjusted), str(r.family_size), r.verdict]))
        return "\n".join(lines) + "\n"


def _csv_quoted(text):
    """text as one quoted CSV field, its own quotes doubled (RFC 4180)."""
    return '"' + text.replace('"', '""') + '"'


def _csv_num(v):
    if number(v) is None:
        return ""
    return f"{v:.10g}"


def _fmt(v, signed=False):
    if number(v) is None:
        return "-"
    return f"{v:+.4f}" if signed else f"{v:.4f}"


def _md_table(header, rows):
    """Lines of a markdown table: `header`, a `|---` rule, then `rows`.
    Each row is a sequence of cells written by format(); a None cell is
    left blank."""
    def line(row):
        return "|" + "".join(" |" if cell is None else f" {cell} |"
                             for cell in row)
    return [line(header), "|---" * len(header) + "|", *map(line, rows)]


def render_markdown(report):
    """Render a FairUseReport as a deterministic markdown document."""
    cfg = report.config
    tc = cfg.train_config
    cells = report.space.cells()
    labels = _Labels()
    names = [labels[c] for c in cells]
    lines = ["# Fair use audit", ""]
    lines.append(f"- strategy: {report.strategy.value}")
    lines.append(f"- alpha: {cfg.alpha}, bootstrap_reps: "
                 f"{cfg.bootstrap_reps}, seed: {cfg.seed}, delta: "
                 f"{cfg.delta}")
    lines.append(f"- loss: {tc.loss}, l2_penalty: {tc.l2_penalty}, "
                 f"gradient_tolerance: {tc.gradient_tolerance}")
    bins = {mk.ece_bins for mk in report.metrics if mk.tag == "ece"}
    if bins:
        lines.append(f"- ece_bins: {sorted(bins)[0]}")
    lines.append(f"- train rows: {report.train_tally.total}, test rows: "
                 f"{report.test_tally.total}, groups: {len(cells)}")
    if report.train_equals_test:
        lines.append("- note: train and test are the same sample "
                     "(in-sample audit)")
    flags = report.model.all_flags()
    if flags:
        lines.append(f"- training flags: {'; '.join(flags)}")

    def pair(p):
        return "-" if p is None else f"{_fmt(p[1], True)} ({labels[p[0]]})"

    for mk in report.metrics:
        tag = mk.tag
        pop = report.populations[tag]
        point = report.points[tag]
        matrix = report.matrices[tag]
        lines += ["", f"## Metric: {tag}", ""]
        lines += _md_table(
            ["Row", "Generic", "Personalized", "Gain", "Best Gain",
             "Worst Gain", "Rat. Gains/Viols", "EF Gains/Viols"],
            [["Population", _fmt(pop.generic_risk.value),
              _fmt(pop.personalized_risk.value),
              _fmt(pop.overall_gain, True), pair(pop.best_gain),
              pair(pop.worst_gain),
              f"{pop.point_rationality_gains}/"
              f"{pop.point_rationality_violations}",
              f"{pop.point_envy_gains}/{pop.point_envy_violations}"],
             ["Significant"] + [None] * 5 + [
                 f"{pop.significant_rationality_gains}/"
                 f"{pop.significant_rationality_violations}",
                 f"{pop.significant_envy_gains}/"
                 f"{pop.significant_envy_violations}"]])
        lines += ["", f"### Misreport matrix ({tag})", ""]
        lines += _md_table(
            ["true group", "n", "generic"] + names,
            [[name, n] + [_fmt(v) for v in row] for name, n, row in
             zip(names, matrix.n.tolist(), matrix.values.tolist())])
        lines += ["", f"### Point gains ({tag})", ""]
        lines += _md_table(
            ["group", "n", "rationality gain", "min envy gain",
             "envied group"],
            [[name, pg.n, _fmt(pg.rationality_gain, True),
              _fmt(pg.envy_min_gain, True),
              "-" if pg.envy_argmin is None else labels[pg.envy_argmin]]
             for name, pg in zip(names, map(point.gains.__getitem__, cells))])
    # An audit tests every group against the generic model, and bounds
    # every group, so neither table is ever empty.
    lines += ["", "## Hypothesis tests", ""]
    lines += _md_table(
        ["metric", "test", "kind", "group", "comparator", "n", "estimate",
         "p_raw", "p_adjusted", "family", "verdict"],
        [[r.metric, r.test, r.kind, labels[r.group], labels[r.comparator],
          r.n, _fmt(r.estimate, True), _fmt(r.p_raw), _fmt(r.p_adjusted),
          r.family_size, r.verdict]
         for r in report.results])

    def bound(gain, verdict):
        if verdict is None or not verdict.applicable:
            return [_fmt(gain, True), "-", "-"]
        return [_fmt(gain, True), verdict.required_n,
                "yes" if verdict.satisfied else "no"]

    lines += ["", "## Generalization bounds", ""]
    lines += _md_table(
        ["group", "n_train", "vc", "rationality gain", "required n",
         "holds", "min envy gain", "required n", "holds"],
        [[labels[row.group], row.n_train, row.vc,
          *bound(row.rationality_gain, row.rationality),
          *bound(row.envy_min_gain, row.envy)]
         for row in report.generalization])
    if report.identical_pairs:
        lines += ["", "## Identical prediction pairs", ""]
        for a, b in report.identical_pairs:
            lines.append(f"- {labels[a]} and {labels[b]} receive "
                         "identical predictions")
    if report.suggestions:
        lines += ["", "## Data-minimization advice", ""]
        for s in report.suggestions:
            lines.append(f"- [{s.kind}] {s.subject}: {s.rationale}")
    return "\n".join(lines) + "\n"


def _datasets_equal(a, b):
    if a is b:
        return True
    return (a.n == b.n
            and a.space.attributes == b.space.attributes
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.cell_indices, b.cell_indices))


def _population_row(metric, point, results, table):
    generic = table.risk(metric, ALL, WITHHELD)
    personal = table.risk(metric, ALL, TRUTHFUL)
    if generic.defined and personal.defined:
        overall = orient(metric, generic.value) - orient(metric,
                                                         personal.value)
    else:
        overall = float("nan")
    rat = {g: pg.rationality_gain for g, pg in point.gains.items()
           if not math.isnan(pg.rationality_gain)}
    if rat:
        best = max(rat, key=lambda g: (rat[g], str(g)))
        worst = min(rat, key=lambda g: (rat[g], str(g)))
        best_pair = (best, rat[best])
        worst_pair = (worst, rat[worst])
    else:
        best_pair = worst_pair = None
    # The zero gains of the diagonal count as no envy gain.
    gains = point.gain_array
    point_rat_gain = int(np.count_nonzero(gains[:, 0] > 0))
    point_envy_gain = int(np.count_nonzero(gains[:, 1:] > 0))

    def subjects(kind, verdict):
        return len({(r.group, r.comparator) for r in results
                    if r.metric == metric.tag and r.kind == kind
                    and r.verdict == verdict})

    return PopulationRow(
        metric=metric, generic_risk=generic, personalized_risk=personal,
        overall_gain=overall, best_gain=best_pair, worst_gain=worst_pair,
        point_rationality_gains=point_rat_gain,
        point_rationality_violations=len(point.rationality_violations),
        point_envy_gains=point_envy_gain,
        point_envy_violations=len(point.envy_violations),
        significant_rationality_gains=subjects(RATIONALITY,
                                               SIGNIFICANT_GAIN),
        significant_rationality_violations=subjects(RATIONALITY,
                                                    SIGNIFICANT_VIOLATION),
        significant_envy_gains=subjects(ENVY, SIGNIFICANT_GAIN),
        significant_envy_violations=subjects(ENVY, SIGNIFICANT_VIOLATION))


def _generalization_rows(table, cfg, point=None):
    """Bound verdicts from the error-rate gains of a training-split
    MarginTable; `point`, if given, is its error-rate point summary."""
    space = table.data.space
    fmap = build_feature_map(table.model.strategy, space,
                             table.data.feature_names)
    if cfg.vc_override is not None:
        vc = cfg.vc_override
    else:
        vc = theory.vc_linear(max(1, len(fmap.encoded_features)))
    if point is None:
        point = check_fair_use_point(misreport_matrix(table, ERROR_RATE))
    m = space.m
    rows = []
    for g in space.cells():
        pg = point.gains[g]
        n_g = pg.n
        rat_verdict = None
        if not math.isnan(pg.rationality_gain):
            rat_verdict = theory.rationality_bound(theory.BoundInputs(
                n_g=n_g, vc=vc, delta=cfg.delta,
                gain=pg.rationality_gain))
        envy_verdict = None
        if not math.isnan(pg.envy_min_gain):
            envy_verdict = theory.envy_bound(theory.BoundInputs(
                n_g=n_g, vc=vc, delta=cfg.delta, gain=pg.envy_min_gain,
                m=m))
        rows.append(GeneralizationRow(
            group=g, n_train=n_g, vc=vc, delta=cfg.delta,
            rationality_gain=pg.rationality_gain, rationality=rat_verdict,
            envy_min_gain=pg.envy_min_gain, envy=envy_verdict))
    return tuple(rows)


def audit(train, test, strategy=Strategy.ONEHOT, metrics=(ERROR_RATE,),
          cfg=None):
    """Train on `train`, evaluate fair use on `test`, return the report.

    Args:
        train: Dataset used to fit the paired (generic, personalized)
            models.
        test: Dataset used for risks and significance tests; pass the
            training set itself for an in-sample audit (flagged in the
            report).
        strategy: encoding strategy for the personalized model.
        metrics: tuple of MetricKind values to audit.
        cfg: AuditConfig; defaults apply when omitted.

    Returns:
        FairUseReport with point checks, adjusted hypothesis tests,
        generalization-bound rows, and data-minimization advice.
    """
    cfg = cfg if cfg is not None else AuditConfig()
    strategy = as_strategy(strategy)
    if train.space.attributes != test.space.attributes:
        raise ValueError("train and test use different group spaces")
    if not metrics:
        raise ValueError("audit needs at least one metric")
    model = train_personalized(train, strategy, cfg.train_config)
    cells = train.space.cells()
    table = MarginTable(model, test).fill()
    matrices = {}
    points = {}
    raw_results = []
    for mi, metric in enumerate(metrics):
        matrix = misreport_matrix(table, metric)
        matrices[metric.tag] = matrix
        points[metric.tag] = check_fair_use_point(matrix)
        boot, exact = [], []
        for gi, g in enumerate(cells):
            comps = (WITHHELD,) + tuple(c for c in cells if c != g)
            observed, gains = bootstrap_replicates(
                table, g, comps, metric, reps=cfg.bootstrap_reps,
                seed=np.random.SeedSequence([cfg.seed, mi, gi]))
            # One contiguous row of replicates per comparator.
            columns = gains.T.copy()
            boot += [bootstrap_test(table, g, comp, metric, observed[j],
                                    columns[j], alpha=cfg.alpha)
                     for j, comp in enumerate(comps)]
            if metric.tag == ERROR_RATE_TAG:
                exact += [mcnemar_test(table, g, comp, alpha=cfg.alpha)
                          for comp in comps]
        # Each route lists every rationality test, then every envy test.
        for route in (boot, exact):
            raw_results += sorted(route, key=lambda r: r.kind == ENVY)
    results = tuple(bonferroni(raw_results, cfg.alpha))
    # An in-sample audit has already summarised the training table's
    # error rates if it audits them. A split audit reads its training
    # table only here, so its columns and bits are freed before the
    # report is built.
    if train is test:
        generalization = _generalization_rows(
            table, cfg, points.get(ERROR_RATE_TAG))
    else:
        generalization = _generalization_rows(MarginTable(model, train), cfg)
    populations = {}
    for metric in metrics:
        populations[metric.tag] = _population_row(
            metric, points[metric.tag], results, table)
    report = FairUseReport(
        strategy=strategy, space=train.space, config=cfg,
        metrics=tuple(metrics), model=model, train_tally=tally(train),
        test_tally=tally(test),
        train_equals_test=_datasets_equal(train, test),
        matrices=matrices, points=points, populations=populations,
        results=results,
        generalization=generalization,
        identical_pairs=identical_prediction_pairs(table))
    from .interventions import data_minimization
    report.suggestions = tuple(data_minimization(report))
    return report
