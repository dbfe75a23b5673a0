"""Exact minimization of training 0-1 loss for linear classifiers.

The trainer is exact or refuses. It collapses rows to distinct encoded
points, then follows one of two routes:

  * one encoded feature: cost every threshold labeling from running sums
    of the per-point counts, and tie-break those at the least cost;
  * at most 14 distinct points: enumerate all labelings in ascending cost
    order and keep the cheapest linearly realizable one.

With two or more encoded features and more than 14 distinct points it
raises ExhaustiveSizeError: exact search there is exponential in the
number of points, and no heuristic stands in for it.

Realizability uses the prediction convention margin >= 0 -> +1: a labeling
is realizable when some (w, b) gives margin >= 1 on its positive points and
margin <= -1 on its negative points. Requiring unit rather than zero margin
on positives does not change which labelings are realizable (shift the
intercept up slightly, then rescale), and it keeps the returned weights a
full unit away from the decision boundary, so evaluating them in floating
point reproduces the labeling exactly.
Ties are broken by training cost, then by the minimal L1 norm of the
canonical weights (within 1e-9), then by preferring -1 labels on
lexicographically earlier points.
"""

import numpy as np

_EXACT_POINT_LIMIT = 14
_NORM_TIE_TOL = 1e-9


class ExhaustiveSizeError(ValueError):
    """Raised when a dataset exceeds the exhaustive trainer's size limits."""


def _collapse(x_enc, y):
    """Distinct encoded points with per-point label counts.

    Returns (points, neg_counts, pos_counts) with points in ascending
    lexicographic order (first coordinate most significant).
    """
    points, inverse = np.unique(x_enc, axis=0, return_inverse=True)
    d = points.shape[0]
    neg = np.zeros(d)
    pos = np.zeros(d)
    np.add.at(neg, inverse[y == -1], 1.0)
    np.add.at(pos, inverse[y == 1], 1.0)
    return points, neg, pos


def _canonical_lp(points, labeling):
    """Minimal-L1 (w, b) realizing the labeling, or None if unrealizable."""
    from scipy.optimize import linprog
    d, p = points.shape
    n_var = 2 * p + 2
    rows = np.hstack([points, -points, np.ones((d, 1)), -np.ones((d, 1))])
    sign = np.where(labeling, -1.0, 1.0)[:, None]
    a_ub = rows * sign
    b_ub = -np.ones(d)
    c = np.ones(n_var)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(0, None)] * n_var, method="highs")
    if not res.success:
        return None
    sol = res.x
    w = sol[:p] - sol[p:2 * p]
    b = sol[2 * p] - sol[2 * p + 1]
    return np.append(w, b), float(res.fun)


def _pick(points, candidates):
    """Tie-break realizable equal-cost labelings; candidates are bool arrays.

    Iterates in ascending labeling code (-1 on earlier points first) and
    keeps the candidate whose canonical L1 norm is smaller by more than the
    tolerance, so the winner has near-minimal norm and, within tolerance,
    the lowest code.
    """
    ordered = sorted({c.tobytes(): c for c in candidates}.items())
    best = None
    for _, labeling in ordered:
        fit = _canonical_lp(points, labeling)
        if fit is None:
            continue
        if best is None or fit[1] < best[1] - _NORM_TIE_TOL:
            best = fit
    return best


def _threshold_labelings(neg, pos):
    """The least-cost labelings realizable in one dimension, and their cost.

    Those are the upsets (+1 on points k and up) and downsets (+1 below
    point k) of the sorted points, k = 0..d. Each one's cost comes from
    running sums of the per-point counts, so only the labelings at the
    least cost are built.
    """
    d = neg.size
    cum_neg = np.concatenate([[0.0], np.cumsum(neg)])
    cum_pos = np.concatenate([[0.0], np.cumsum(pos)])
    up = cum_neg[-1] - cum_neg + cum_pos
    down = cum_neg + cum_pos[-1] - cum_pos
    best = min(up.min(), down.min())
    index = np.arange(d)
    labelings = [index >= k for k in np.flatnonzero(up == best)]
    labelings += [index < k for k in np.flatnonzero(down == best)]
    return labelings, float(best)


def _threshold_route(points, neg, pos):
    """Best labeling realizable in one dimension: an upset or downset."""
    candidates, cost = _threshold_labelings(neg, pos)
    fit = _pick(points, candidates)
    if fit is None:
        raise RuntimeError("no candidate labeling was realizable")
    return fit[0], cost


def _exact_route(points, neg, pos):
    """Enumerate all 2^d labelings of the distinct points by cost."""
    d = points.shape[0]
    codes = np.arange(2 ** d, dtype=np.int64)
    shifts = (d - 1 - np.arange(d)).astype(np.int64)
    bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(float)
    costs = bits @ neg + (1.0 - bits) @ pos
    order = np.argsort(costs, kind="stable")
    i = 0
    while i < order.size:
        level = costs[order[i]]
        j = i
        while j < order.size and costs[order[j]] == level:
            j += 1
        group = [bits[order[k]].astype(bool) for k in range(i, j)]
        fit = _pick(points, group)
        if fit is not None:
            return fit[0], float(level)
        i = j
    raise RuntimeError("no labeling was realizable")


def train_zero_one(x_enc, y):
    """Minimize the count of training misclassifications over linear rules.

    Args:
        x_enc: (n, p) encoded design matrix, no intercept column.
        y: (n,) labels in {-1, +1}.

    Returns:
        (weights, errors): weights of length p + 1 with the intercept last,
        and the achieved number of misclassified training rows. Always
        exact.

    Raises:
        ExhaustiveSizeError: two or more encoded features and more than
            14 distinct encoded points.
    """
    x_enc = np.asarray(x_enc, dtype=float)
    y = np.asarray(y)
    if x_enc.ndim != 2 or x_enc.shape[0] != y.shape[0]:
        raise ValueError("design matrix and labels are misaligned")
    if x_enc.shape[0] == 0:
        raise ValueError("cannot train on an empty dataset")
    points, neg, pos = _collapse(x_enc, y)
    if x_enc.shape[1] == 1:
        w, cost = _threshold_route(points, neg, pos)
    elif points.shape[0] <= _EXACT_POINT_LIMIT:
        w, cost = _exact_route(points, neg, pos)
    else:
        raise ExhaustiveSizeError(
            f"exact 0-1 training handles at most {_EXACT_POINT_LIMIT} "
            f"distinct points with two or more features; got "
            f"{points.shape[0]} distinct points with {x_enc.shape[1]} "
            "encoded features")
    return w, int(round(cost))
