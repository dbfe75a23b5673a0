"""Deterministic generators for every worked failure-mode dataset.

The six fixed generators materialize small counting tables and frozen 2-D
geometries whose trained risk tables are known exactly; EXPECTED_TABLES
records those numbers (all error counts, not rates) for golden tests and
the replication command. The two parameterized generators produce random
instances for statistical power (a planted violation of known size) and
null calibration (fully exchangeable groups).

Conventions shared by all generators: group attribute domains are sorted,
cells are listed in canonical order (first attribute slowest), and a
tally entry [a, b] means a positive rows and b negative rows.
"""

import numpy as np

from .dataset import Dataset
from .groups import GroupId, GroupSpace

REFERENCE_RATE = 0.1
_PLANTED_FEATURE_DIM = 2


def _dataset(rows, attributes, feature_names):
    """Build a Dataset from (count, features, group_values, label) blocks."""
    space = GroupSpace(attributes)
    counts = [count for count, _, _, _ in rows]
    points = np.array([point for _, point, _, _ in rows], dtype=float)
    codes = [space.index_of(GroupId(values)) for _, _, values, _ in rows]
    labels = [label for _, _, _, label in rows]
    return Dataset._from_codes(np.repeat(points, counts, axis=0),
                               np.repeat(labels, counts),
                               np.repeat(codes, counts), space,
                               tuple(feature_names))


# Misspecification: two base points (x2 = 0 for old, 1 for young) and four
# cells. The additive indicator class cannot give (f,y) its own label, so
# the trained personalized model trades (f,y)'s 24 rows for the 50 rows it
# wins elsewhere: a rationality violation created purely by encoding.
_MISSPECIFICATION_ROWS = (
    (25, (0.0, 0.0), ("f", "o"), 1),
    (26, (0.0, 0.0), ("m", "o"), -1),
    (24, (0.0, 1.0), ("f", "y"), -1),
    (1, (0.0, 1.0), ("m", "o"), -1),
    (25, (0.0, 1.0), ("m", "y"), 1),
)


def gen_misspecification():
    """101-row dataset where additive personalization hurts cell (f,y)."""
    return _dataset(_MISSPECIFICATION_ROWS,
                    (("sex", ("f", "m")), ("age", ("o", "y"))),
                    ("x1", "x2"))


# Group-specific effects: one positive and one negative point per group on
# the x2 axis. Group B needs a negative slope while A and C need positive
# ones, so any shared-slope model must sacrifice someone: the generic fit
# errs on A and C, the per-group-intercept fit errs on B, and only fully
# decoupled models satisfy everyone.
_GROUP_EFFECTS_ROWS = (
    (1, (0.0, 4.0), ("A",), 1),
    (1, (0.0, -2.0), ("A",), -1),
    (1, (0.0, -10.0), ("B",), 1),
    (1, (0.0, 10.0), ("B",), -1),
    (1, (0.0, -2.0), ("C",), 1),
    (1, (0.0, -4.0), ("C",), -1),
)


def gen_group_specific_effects():
    """Six points where only decoupled models fit every group exactly."""
    return _dataset(_GROUP_EFFECTS_ROWS, (("group", ("A", "B", "C")),),
                    ("x1", "x2"))


FEATURE_SELECTION_CONSTRAINT = "use at most one of the features x1, x2"

_FEATURE_SELECTION_ROWS = (
    (30, (0.0, 0.0), ("A",), -1),
    (20, (1.0, 0.0), ("A",), -1),
    (25, (0.0, 0.0), ("B",), 1),
    (15, (1.0, 0.0), ("B",), 1),
)


def gen_feature_selection():
    """90-row dataset plus the one-feature constraint it is scored under.

    Returns (dataset, constraint). The fixed comparison models h0 (always
    -1), h1 (uses x1 with group-dependent orientation) and h2 (uses x2)
    are recorded in EXPECTED_TABLES and evaluated by pure counting.
    """
    ds = _dataset(_FEATURE_SELECTION_ROWS, (("group", ("A", "B")),),
                  ("x1", "x2"))
    return ds, FEATURE_SELECTION_CONSTRAINT


# Surrogate outlier: group B's lone extreme row (30, 0) is labeled -1 deep
# inside the region where B's positive rows live along x1. Minimizing the
# hinge loss on B's 11 rows alone lets that one margin term dominate, so
# the decoupled cell model retreats to an x2 rule and loses B's three
# (1,-1) positives; trained on all 74 rows, group A's fifteen (3,-1)
# positives hold the shared model in the x1-forward direction and those
# points stay correct. 0-1 minimization just accepts the outlier as one
# error in either case, so only the hinge route violates rationality.
_SURROGATE_ROWS = (
    (12, (-1.0, 1.0), ("A",), 1),
    (11, (1.0, 1.0), ("A",), 1),
    (15, (3.0, -1.0), ("A",), 1),
    (23, (-1.0, -1.0), ("A",), -1),
    (2, (1.0, -1.0), ("A",), -1),
    (2, (1.0, 1.0), ("B",), 1),
    (3, (1.0, -1.0), ("B",), 1),
    (5, (-1.0, -1.0), ("B",), -1),
    (1, (30.0, 0.0), ("B",), -1),
)


def gen_surrogate_outlier():
    """74-row two-group dataset whose outlier breaks hinge training only."""
    return _dataset(_SURROGATE_ROWS, (("group", ("A", "B")),),
                    ("x1", "x2"))


_TWO_BY_TWO = (("a", ("0", "1")), ("b", ("0", "1")))
# (n_pos, n_neg) per cell in canonical order (0,0), (0,1), (1,0), (1,1).
_SAMPLING_TRAIN = ((65, 60), (60, 65), (60, 65), (70, 55))
_SAMPLING_TRUTH = ((130, 120), (120, 130), (130, 120), (140, 110))
_LABEL_SHIFT_TRAIN = ((20, 0), (5, 25), (5, 25), (20, 0))
_LABEL_SHIFT_TRUTH = ((20, 0), (5, 25), (30, 20), (20, 0))


def _counting_dataset(tallies):
    space = GroupSpace(_TWO_BY_TWO)
    rows = []
    for cell, (n_pos, n_neg) in zip(space.cells(), tallies):
        rows.append((n_pos, (0.0,), cell.values, 1))
        rows.append((n_neg, (0.0,), cell.values, -1))
    return _dataset(rows, _TWO_BY_TWO, ("x1",))


def gen_sampling_error():
    """(train, truth) pair where a small-sample gain reverses at scale.

    Cell (1,0)'s training majority is negative by sampling accident; its
    true majority is positive, so the personalized per-cell rule that
    looks strictly better on the training tallies is strictly worse on
    the true distribution. The single feature is an uninformative
    constant; every risk cell follows from the tallies by counting.
    """
    return _counting_dataset(_SAMPLING_TRAIN), _counting_dataset(
        _SAMPLING_TRUTH)


def gen_label_shift():
    """(train, truth) pair where cell (1,0)'s label balance shifts.

    At training time cell (1,0) is mostly negative; under the true
    distribution it is mostly positive. The per-cell rule keeps its
    training-time choice of -1 there and turns a +20 training gain into
    a -10 true gain for that cell.
    """
    return _counting_dataset(_LABEL_SHIFT_TRAIN), _counting_dataset(
        _LABEL_SHIFT_TRUTH)


def space_for_m(m):
    """Canonical group space with m cells.

    m = 4 uses two binary attributes (the shape the planted construction
    is calibrated for); other sizes use a single m-valued attribute.
    """
    if m < 2:
        raise ValueError("need at least 2 groups")
    if m == 4:
        return GroupSpace(_TWO_BY_TWO)
    width = max(2, len(str(m - 1)))
    values = tuple(f"g{i:0{width}d}" for i in range(m))
    return GroupSpace((("g", values),))


def planted_rates(m, gap):
    """Per-cell positive-label rates for the planted construction."""
    adjacent = 0.7 if gap < 0 else 0.3
    rates = [adjacent] * m
    rates[0] = REFERENCE_RATE
    rates[-1] = (1.0 + gap) / 2.0
    return tuple(rates)


def _draw_cells(space, n_per_group, rates, seed):
    rng = np.random.default_rng(seed)
    codes = np.repeat(np.arange(space.m), n_per_group)
    x = rng.normal(size=(codes.size, _PLANTED_FEATURE_DIM))
    u = rng.random(codes.size)
    labels = np.where(u < np.asarray(rates, dtype=float)[codes], 1, -1)
    return Dataset._from_codes(x, labels, codes, space, ("x1", "x2"))


def gen_planted_violation(m=4, n_per_group=500, gap=-0.15, seed=0):
    """Noise features plus cell-dependent label rates with a known gain.

    The designated cell (last in canonical order) has positive rate
    (1+gap)/2; the reference cell has rate 0.1 and the remaining cells
    0.7 (for gap < 0) or 0.3 (for gap > 0). Features carry no signal, so
    at the population level the generic fit predicts -1 everywhere while
    the additive-indicator fit predicts +1 on the designated cell, making
    that cell's population rationality gain equal to gap (negative gap =
    planted violation). The pattern is verified by the Monte-Carlo oracle
    in scripts/power_oracle.py; it is calibrated for m = 4 only.

    gap = 0 delegates to gen_exchangeable_null.
    """
    if m != 4:
        raise ValueError("the planted construction is calibrated for m=4 "
                         "(two binary attributes); use "
                         "gen_exchangeable_null for other sizes")
    if not -0.5 < gap < 0.5:
        raise ValueError("gap must lie in (-0.5, 0.5)")
    if n_per_group < 1:
        raise ValueError("n_per_group must be at least 1")
    if gap == 0.0:
        return gen_exchangeable_null(m, n_per_group, seed)
    space = space_for_m(m)
    return _draw_cells(space, n_per_group, planted_rates(m, gap), seed)


def gen_exchangeable_null(m=4, n_per_group=250, seed=0):
    """All cells iid: x ~ N(0, I), P(y=+1 | x) = sigmoid(2 x1).

    Any violation an audit reports on this data is a false positive by
    construction.
    """
    if m < 2:
        raise ValueError("need at least 2 groups")
    if n_per_group < 1:
        raise ValueError("n_per_group must be at least 1")
    space = space_for_m(m)
    rng = np.random.default_rng(seed)
    codes = np.repeat(np.arange(m), n_per_group)
    x = rng.normal(size=(codes.size, _PLANTED_FEATURE_DIM))
    p = 1.0 / (1.0 + np.exp(-2.0 * x[:, 0]))
    labels = np.where(rng.random(codes.size) < p, 1, -1)
    return Dataset._from_codes(x, labels, codes, space, ("x1", "x2"))


def evaluate_rule(rule, ds):
    """Predicted labels of a frozen comparison rule on a dataset.

    Rules are plain dicts: {"kind": "constant", "label": L}, {"kind":
    "per_cell", "labels": {cell_str: L}}, {"kind": "feature_equals",
    "feature": f, "positive_value": v}, or {"kind":
    "per_group_feature_equals", "feature": f, "positive_value":
    {cell_str: v}} (+1 where the feature equals the cell's value).
    """
    n = ds.n
    kind = rule["kind"]
    if kind == "constant":
        return np.full(n, rule["label"], dtype=int)
    if kind == "per_cell":
        cell_labels = np.array([rule["labels"][str(c)]
                                for c in ds.space.cells()])
        return cell_labels[ds.cell_indices].astype(int)
    if kind not in ("feature_equals", "per_group_feature_equals"):
        raise ValueError(f"unknown rule kind {kind!r}")
    col = ds.feature_names.index(rule["feature"])
    x = ds.features[:, col]
    if kind == "feature_equals":
        return np.where(x == rule["positive_value"], 1, -1)
    target = np.array([rule["positive_value"][str(c)]
                       for c in ds.space.cells()])
    return np.where(x == target[ds.cell_indices], 1, -1)


def errors_by_cell(ds, predicted):
    """Misclassification counts per cell, keyed by cell string."""
    wrong = predicted != ds.labels
    out = {}
    for cell in ds.space.cells():
        rows = ds.rows_for(cell)
        out[str(cell)] = int(wrong[rows].sum())
    return out


_RULE_ALL_POS = {"kind": "constant", "label": 1}
_RULE_ALL_NEG = {"kind": "constant", "label": -1}
_RULE_CELL_PARITY = {"kind": "per_cell",
                     "labels": {"0,0": 1, "0,1": -1, "1,0": -1, "1,1": 1}}

EXPECTED_TABLES = {
    "misspecification": {
        "tally": {"f,o": [25, 0], "f,y": [0, 24],
                  "m,o": [0, 27], "m,y": [25, 0]},
        "generic_errors": {"f,o": 25, "f,y": 0, "m,o": 0, "m,y": 25},
        "generic_total": 50,
        "onehot_errors": {"f,o": 0, "f,y": 24, "m,o": 0, "m,y": 0},
        "onehot_total": 24,
        "onehot_gains": {"f,o": 25, "f,y": -24, "m,o": 0, "m,y": 25},
    },
    "group_specific_effects": {
        "tally": {"A": [1, 1], "B": [1, 1], "C": [1, 1]},
        "generic_errors": {"A": 1, "B": 0, "C": 1},
        "onehot_errors": {"A": 0, "B": 1, "C": 0},
        "decoupled_errors": {"A": 0, "B": 0, "C": 0},
    },
    "feature_selection": {
        "tally_totals": [40, 50],
        "constraint": FEATURE_SELECTION_CONSTRAINT,
        "h0": {"rule": _RULE_ALL_NEG,
               "errors": {"A": 0, "B": 40}, "total": 40},
        "h1": {"rule": {"kind": "per_group_feature_equals", "feature": "x1",
                        "positive_value": {"A": 1.0, "B": 0.0}},
               "errors": {"A": 20, "B": 15}, "total": 35,
               "gains": {"A": -20, "B": 25}, "overall_gain": 5},
        "h2": {"rule": {"kind": "feature_equals", "feature": "x2",
                        "positive_value": 0.0},
               "errors": {"A": 50, "B": 0}, "total": 50,
               "gains": {"A": -50, "B": 40}, "overall_gain": -10},
    },
    "surrogate_outlier": {
        "tally": {"A": [38, 25], "B": [5, 6]},
        "zero_one": {"generic_errors": {"A": 2, "B": 1},
                     "decoupled_errors": {"A": 0, "B": 1},
                     "gains": {"A": 2, "B": 0}},
        "hinge": {"generic_errors": {"A": 2, "B": 1},
                  "decoupled_errors": {"A": 0, "B": 3},
                  "gains": {"A": 2, "B": -2}},
    },
    "sampling_error": {
        "train_tally": {"0,0": [65, 60], "0,1": [60, 65],
                        "1,0": [60, 65], "1,1": [70, 55]},
        "truth_tally": {"0,0": [130, 120], "0,1": [120, 130],
                        "1,0": [130, 120], "1,1": [140, 110]},
        "h0": {"rule": _RULE_ALL_POS},
        "personalized": {"rule": _RULE_CELL_PARITY},
        "train_gains": {"0,0": 0, "0,1": 5, "1,0": 5, "1,1": 0},
        "true_gains": {"0,0": 0, "0,1": 10, "1,0": -10, "1,1": 0},
        "train_total_gain": 10,
        "true_total_gain": 0,
    },
    "label_shift": {
        "train_tally": {"0,0": [20, 0], "0,1": [5, 25],
                        "1,0": [5, 25], "1,1": [20, 0]},
        "truth_tally": {"0,0": [20, 0], "0,1": [5, 25],
                        "1,0": [30, 20], "1,1": [20, 0]},
        "h0": {"rule": _RULE_ALL_POS},
        "personalized": {"rule": _RULE_CELL_PARITY},
        "train_gains": {"0,0": 0, "0,1": 20, "1,0": 20, "1,1": 0},
        "true_gains": {"0,0": 0, "0,1": 20, "1,0": -10, "1,1": 0},
        "train_total_gain": 40,
        "true_total_gain": 10,
    },
}

GENERATORS = {
    "misspecification": gen_misspecification,
    "group-effects": gen_group_specific_effects,
    "feature-selection": gen_feature_selection,
    "surrogate-outlier": gen_surrogate_outlier,
    "sampling-error": gen_sampling_error,
    "label-shift": gen_label_shift,
    "planted": gen_planted_violation,
    "exchangeable": gen_exchangeable_null,
}
