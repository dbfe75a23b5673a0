"""Brute-force reference implementations used to cross-check the library.

Each function recomputes a quantity by the most direct route available and
shares no code with the package, so a test can compare two independent
paths to the same number.
"""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.stats import rankdata


def threshold_errors_1d(x, y):
    """Minimum 0-1 error count of any 1-D linear rule sign(w*x + b).

    Scans a threshold between every pair of consecutive distinct values
    plus both tails, in both orientations; the tails cover the constant
    rules. Thresholds sit strictly between data values, so the boundary
    convention of the trained model cannot matter.

    Args:
        x: 1-D array of feature values.
        y: matching labels in {-1, +1}.

    Returns:
        The minimum number of misclassified rows.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    cuts = np.unique(x)
    thresholds = [cuts[0] - 1.0]
    thresholds += [(a + b) / 2.0 for a, b in zip(cuts[:-1], cuts[1:])]
    thresholds += [cuts[-1] + 1.0]
    best = len(y)
    for t in thresholds:
        for sign in (1.0, -1.0):
            pred = np.where(sign * (x - t) >= 0.0, 1, -1)
            best = min(best, int(np.sum(pred != y)))
    return best


def pairwise_auc(scores, labels):
    """AUC by enumerating every (positive, negative) pair; ties count 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    if pos.size == 0 or neg.size == 0:
        return float("nan")
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


def rank_sum_auc(scores, labels):
    """AUC by the Wilcoxon rank-sum formula with average ranks for ties;
    NaN if single-class."""
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = rankdata(scores, method="average")
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def direct_ece(scores, margins, labels, bins=10):
    """Expected calibration error by per-row bin assignment.

    Mirrors the convention of equal-width right-closed bins over
    confidence max(score, 1 - score), with the first bin closed at 0, but
    assigns rows one at a time (smallest k with conf <= k/bins) and
    accumulates per-bin sums in a dict instead of masking per bin.
    """
    labels = np.asarray(labels)
    n = labels.size
    if n == 0:
        return float("nan")
    sums = {}
    for s, m, y in zip(scores, margins, labels):
        conf = max(float(s), 1.0 - float(s))
        k = 1
        while k < bins and conf > k / bins:
            k += 1
        correct = 1.0 if (1 if m >= 0.0 else -1) == y else 0.0
        cnt, acc, avg = sums.get(k, (0, 0.0, 0.0))
        sums[k] = (cnt + 1, acc + correct, avg + conf)
    total = 0.0
    for cnt, acc, avg in sums.values():
        total += (cnt / n) * abs(acc / cnt - avg / cnt)
    return total


def auc_counts_reference(counts, scores, labels):
    """Count-weighted AUC of one score row, one value per (replicates, n)
    count row: the package's one-comparator kernel before it took a block
    of score rows, kept as the reference its block form must equal
    exactly."""
    pos = labels == 1
    neg_rows = np.flatnonzero(~pos)
    neg_rows = neg_rows[np.argsort(scores[neg_rows], kind="stable")]
    pos_rows = np.flatnonzero(pos)
    ranked = scores[neg_rows]
    lo = np.searchsorted(ranked, scores[pos_rows], "left")
    hi = np.searchsorted(ranked, scores[pos_rows], "right")
    cum = np.zeros((counts.shape[0], neg_rows.size + 1), dtype=np.int64)
    np.cumsum(np.take(counts, neg_rows, axis=1), axis=1, out=cum[:, 1:])
    c_pos = np.take(counts, pos_rows, axis=1)
    twice_u = (np.einsum("ij,ij->i", c_pos, np.take(cum, lo, axis=1))
               + np.einsum("ij,ij->i", c_pos, np.take(cum, hi, axis=1)))
    n_pos = c_pos.sum(axis=1)
    n_neg = cum[:, -1]
    out = np.full(counts.shape[0], np.nan)
    ok = (n_pos > 0) & (n_neg > 0)
    out[ok] = (0.5 * twice_u[ok]) / (n_pos[ok] * n_neg[ok])
    return out


def ece_counts_reference(counts, scores, margins, labels, bins):
    """Count-weighted ECE of one score row, one value per (replicates, n)
    count row, from exact per-bin sums.

    Each row goes in the smallest bin k with conf <= k/bins, as in
    `direct_ece`. Per replicate, each bin's count, hits and confidence
    sum are summed as Fractions and rounded once to the nearest float;
    then (cnt / n) * |hits / cnt - conf_sum / cnt| of each bin with rows
    is added to 0.0 in bin order.
    """
    which = []
    for s, m, y in zip(scores, margins, labels):
        conf = max(float(s), 1.0 - float(s))
        k = 1
        while k < bins and conf > k / bins:
            k += 1
        correct = (1 if m >= 0.0 else -1) == y
        which.append((k, int(correct), Fraction(conf)))
    out = []
    for row in counts:
        n = int(sum(int(c) for c in row))
        if n == 0:
            out.append(math.nan)
            continue
        sums = {}
        for c, (k, correct, conf) in zip(row, which):
            cnt, hits, conf_sum = sums.get(k, (0, 0, Fraction(0)))
            sums[k] = (cnt + int(c), hits + int(c) * correct,
                       conf_sum + int(c) * conf)
        total = 0.0
        for k in sorted(sums):
            cnt, hits, conf_sum = sums[k]
            if cnt:
                cnt, hits, conf_sum = float(cnt), float(hits), \
                    float(conf_sum)
                total += (cnt / n) * abs(hits / cnt - conf_sum / cnt)
        out.append(total)
    return np.array(out)


def binom_tail(n, k):
    """Exact Pr[Binomial(n, 1/2) >= k] from a Pascal-triangle row."""
    if k <= 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    row = [Fraction(1)]
    for _ in range(n):
        shifted = [Fraction(0)] + row
        padded = row + [Fraction(0)]
        row = [a + b for a, b in zip(shifted, padded)]
    return sum(row[k:], Fraction(0)) / Fraction(2) ** n


def bound_required_n(vc, delta, gain, m=None):
    """Smallest n with n >= (4 vc ln(2n/vc + 1) + ln(tail/delta)) / gain^2.

    tail is 8 for the rationality display and 8m for envy-freeness.
    Evaluated at 50 decimal digits with doubling plus bisection.
    """
    mpmath.mp.dps = 50
    vc_ = mpmath.mpf(vc)
    delta_ = mpmath.mpf(delta)
    gain_ = mpmath.mpf(gain)
    tail = mpmath.mpf(8 if m is None else 8 * m)

    def rhs(n):
        return (4 * vc_ * mpmath.log(2 * mpmath.mpf(n) / vc_ + 1)
                + mpmath.log(tail / delta_)) / gain_ ** 2

    hi = 1
    while mpmath.mpf(hi) < rhs(hi):
        hi *= 2
        if hi > 10 ** 18:
            raise OverflowError("bound exceeds the search range")
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mpmath.mpf(mid) >= rhs(mid):
            hi = mid
        else:
            lo = mid
    return hi


def logistic_loss(margins, labels):
    """Mean softplus(-y * margin), written without numpy idioms."""
    total = 0.0
    for m, y in zip(margins, labels):
        z = -float(y) * float(m)
        total += z + math.log1p(math.exp(-z)) if z > 0 else \
            math.log1p(math.exp(z))
    return total / len(labels)


def mcnemar_counts(own_margins, other_margins, labels):
    """McNemar's b and c from per-row float loss differences.

    A row's 0-1 loss under a margin is 1.0 when the sign prediction (+1
    at a margin >= 0, exact zeros included) differs from its +-1 label.
    The other model's loss minus the own model's is -1.0 on a row only
    the own model gets wrong (counted in b) and +1.0 on a row only the
    other model gets wrong (counted in c).
    """
    def losses(margins):
        return np.array([0.0 if (1 if m >= 0.0 else -1) == y else 1.0
                         for m, y in zip(margins, labels)])

    diffs = losses(other_margins) - losses(own_margins)
    return int(np.count_nonzero(diffs < 0)), int(np.count_nonzero(diffs > 0))


def bonferroni_by_replace(results, alpha=None):
    """Bonferroni-adjusted copies of frozen test results, each made by
    dataclasses.replace.

    A family is every result with the same (metric, test, kind); its size
    counts the results with a p_raw. A result without one keeps its
    p_adjusted and becomes NotTestable. Otherwise p_adjusted is
    min(1, size * p_raw), and the verdict is Inconclusive at a zero
    estimate or p_adjusted above alpha, else follows the estimate's sign.
    alpha, when given, replaces every result's own.
    """
    sizes = {}
    for r in results:
        if r.p_raw is not None:
            key = (r.metric, r.test, r.kind)
            sizes[key] = sizes.get(key, 0) + 1
    out = []
    for r in results:
        a = r.alpha if alpha is None else alpha
        size = sizes.get((r.metric, r.test, r.kind), 0)
        if r.p_raw is None:
            out.append(dataclasses.replace(r, alpha=a, family_size=size,
                                           verdict="NotTestable"))
            continue
        p_adjusted = min(1.0, size * r.p_raw)
        if r.estimate == 0 or p_adjusted > a:
            verdict = "Inconclusive"
        elif r.estimate < 0:
            verdict = "SignificantViolation"
        else:
            verdict = "SignificantGain"
        out.append(dataclasses.replace(r, alpha=a, p_adjusted=p_adjusted,
                                       family_size=size, verdict=verdict))
    return out


def threshold_labelings_1d(neg, pos):
    """Least-cost threshold labelings of d sorted 1-D points, by building
    every one: the upsets and downsets, +1 on the last or first j points
    for j = 0..d, each costed as its misclassified negatives plus
    positives.

    Returns:
        (labelings, cost): the set of least-cost labelings as bool-array
        bytes, and that cost.
    """
    neg = np.asarray(neg, dtype=float)
    pos = np.asarray(pos, dtype=float)
    d = neg.size
    candidates = []
    for j in range(d + 1):
        up = np.zeros(d, dtype=bool)
        up[d - j:] = True
        down = np.zeros(d, dtype=bool)
        down[:j] = True
        candidates += [up, down]
    costs = [float(np.where(c, neg, pos).sum()) for c in candidates]
    best = min(costs)
    return {c.tobytes() for c, cost in zip(candidates, costs)
            if cost == best}, best


def point_gains_by_loops(rows, names, lower_is_better):
    """Point gains of a misreport matrix, entry by entry.

    rows[i] is group i's risk under the generic model, then under a
    report of each group, as floats with NaN for undefined. Returns
    (rationality, envy, argmin, rationality_violations, envy_violations):
    per group its generic gain, its {j: gain} over every other group j,
    and the j of its least finite envy gain with ties to the smaller name
    (None if none is finite); then the violating i and (i, j), in order.
    """
    def oriented(v):
        return v if lower_is_better else 1.0 - v

    rationality, envy, argmin, rat_viol, envy_viol = [], [], [], [], []
    for i, row in enumerate(rows):
        own = oriented(row[i + 1])
        rationality.append(oriented(row[0]) - own)
        if rationality[-1] < 0:
            rat_viol.append(i)
        gains = {j: oriented(row[j + 1]) - own
                 for j in range(len(rows)) if j != i}
        envy.append(gains)
        envy_viol += [(i, j) for j, v in gains.items() if v < 0]
        finite = [j for j, v in gains.items() if not math.isnan(v)]
        argmin.append(min(finite, key=lambda j: (gains[j], names[j]))
                      if finite else None)
    return rationality, envy, argmin, rat_viol, envy_viol
