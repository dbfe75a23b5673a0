"""Guarantee checks: sample-size bounds, opt-out compatibility, premises.

Three independent guarantees are made checkable:

- sample-size bounds: a group's positive empirical gain generalizes with
  probability 1 - delta once n_g >= (4 vc ln(2 n_g / vc + 1) + ln(8/delta))
  / gain^2 (envy-freeness replaces ln(8/delta) with ln(8 m / delta)); the
  display is implicit in n_g, so the smallest satisfying n is found by a
  doubling-plus-bisection search;
- opt-out compatibility: the personalized hypothesis class can always
  replicate a generic model exactly for every reported group (verified by
  constructing the witness and sampling predictions);
- empirical-risk premise: if the personalized model matches each group's
  decoupled loss minimizer on the training split, the trained-loss
  misreport matrix can exhibit no rationality or envy violation there.

Bounds are advisory annotations, never gates.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._jsontext import number
from ._optim import softplus
from .groups import WITHHELD
from .metrics import MarginTable, error_rate_value, gain_matrix
from .models import LinearModel, PersonalizedModel, Strategy, TrainConfig, \
    as_strategy, build_feature_map

__all__ = [
    "BoundInputs", "BoundVerdict", "rationality_bound", "envy_bound",
    "vc_linear", "OptOutResult", "check_optout", "trained_loss",
    "trained_loss_matrix", "Prop2Check", "check_prop2_premise",
]


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to a sample-size bound check.

    gain may carry any sign; the bound applies only when it is positive.
    m is the number of intersectional groups and is required only by the
    envy-freeness bound.
    """

    n_g: int
    vc: int
    delta: float
    gain: float
    m: Optional[int] = None

    def __post_init__(self):
        if self.n_g < 0:
            raise ValueError(f"n_g must be nonnegative, got {self.n_g}")
        if self.vc < 1:
            raise ValueError(f"vc must be >= 1, got {self.vc}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.m is not None and self.m < 1:
            raise ValueError(f"m must be >= 1 when given, got {self.m}")


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of a sample-size bound check.

    applicable is False when the gain was not positive; then no bound is
    claimed and required_n is None. Otherwise satisfied holds exactly when
    n_g >= required_n, the smallest sample size meeting the display.
    """

    satisfied: bool
    required_n: Optional[int]
    rhs_at_n: float
    applicable: bool = True

    def to_jsonable(self):
        return {
            "satisfied": self.satisfied,
            "required_n": self.required_n,
            "rhs_at_n": number(self.rhs_at_n),
            "applicable": self.applicable,
        }


_NOT_APPLICABLE = BoundVerdict(satisfied=False, required_n=None,
                               rhs_at_n=float("nan"), applicable=False)


def _required_n(rhs):
    """Smallest integer n with n >= rhs(n) for a log-growth rhs."""
    hi = 1
    while hi < rhs(hi):
        hi *= 2
        if hi > 10 ** 18:
            raise OverflowError("sample-size bound exceeds 1e18")
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= rhs(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _bound(b, log_term):
    if b.gain <= 0:
        return _NOT_APPLICABLE

    def rhs(n):
        return (4.0 * b.vc * math.log(2.0 * n / b.vc + 1.0)
                + log_term) / (b.gain * b.gain)

    required = _required_n(rhs)
    return BoundVerdict(satisfied=b.n_g >= required, required_n=required,
                        rhs_at_n=rhs(b.n_g))


def rationality_bound(b):
    """Sample-size check for a group's rationality gain.

    Evaluates n_g >= (4 vc ln(2 n_g / vc + 1) + ln(8/delta)) / gain^2 and
    reports the smallest n_g for which it holds.
    """
    return _bound(b, math.log(8.0 / b.delta))


def envy_bound(b):
    """Sample-size check for a group's minimum envy gain.

    Same display as rationality_bound with ln(8 m / delta) in place of
    ln(8/delta); requires m >= 2 groups.
    """
    if b.m is None or b.m < 2:
        raise ValueError("the envy-freeness bound needs m >= 2 groups")
    return _bound(b, math.log(8.0 * b.m / b.delta))


def vc_linear(encoded_dim):
    """VC dimension of linear threshold models on encoded_dim inputs."""
    if encoded_dim < 1:
        raise ValueError(f"encoded_dim must be >= 1, got {encoded_dim}")
    return int(encoded_dim) + 1


@dataclass(frozen=True)
class OptOutResult:
    """Outcome of the opt-out compatibility check for one strategy."""

    compatible: bool
    strategy: Strategy
    witness: str
    checked: int
    max_gap: float

    def to_jsonable(self):
        return {
            "compatible": self.compatible,
            "strategy": self.strategy.value,
            "witness": self.witness,
            "checked": self.checked,
            "max_gap": float(self.max_gap),
        }


def _default_generic(space, d, seed):
    rng = np.random.default_rng(seed)
    fmap = build_feature_map(Strategy.GENERIC, space,
                             tuple(f"x{i + 1}" for i in range(d)))
    return LinearModel(weights=rng.normal(size=d + 1), feature_map=fmap)


def _embed_generic(generic, strategy, space):
    """Personalized model replicating `generic` for every reported group."""
    base = tuple(generic.feature_map.base_features)
    train_config = TrainConfig()
    if strategy is Strategy.GENERIC:
        return PersonalizedModel(Strategy.GENERIC, space, generic,
                                 train_config, model=generic)
    if strategy is Strategy.DECOUPLED:
        cells = {cell: generic for cell in space.cells()}
        return PersonalizedModel(Strategy.DECOUPLED, space, generic,
                                 train_config, cells=cells)
    fmap = build_feature_map(strategy, space, base)
    w = np.concatenate([generic.weights[:-1],
                        np.zeros(fmap.n_indicators),
                        generic.weights[-1:]])
    shared = LinearModel(weights=w, feature_map=fmap)
    return PersonalizedModel(strategy, space, generic, train_config,
                             model=shared)


_WITNESS_TEXT = {
    Strategy.GENERIC: "the generic model itself",
    Strategy.ONEHOT: "shared model with all group indicator weights zero",
    Strategy.INTERSECTIONAL:
        "shared model with all cell indicator weights zero",
    Strategy.DECOUPLED: "every cell model set to the generic model",
}


def check_optout(strategy, space, generic=None, d=2, n_samples=100,
                 seed=0, witness_builder=None):
    """Verify that the strategy's class can replicate a generic model.

    Builds the structural witness (zeroed indicator weights, or the
    generic model copied into every cell), then samples n_samples random
    (features, reported group) pairs and asserts margin equality. A
    witness_builder override lets tests exercise restricted classes that
    lack a witness.

    Args:
        strategy: encoding strategy to check.
        space: group space to personalize over.
        generic: LinearModel to replicate; a seeded random one if omitted.
        d: base feature count when generic is omitted.
        n_samples: sampled (x, g) pairs used to verify the witness.
        seed: RNG seed for both the default generic and the samples.
        witness_builder: optional (generic, space) -> PersonalizedModel.

    Returns:
        OptOutResult; compatible is True only when every sampled pair
        agrees within 1e-12.
    """
    strategy = as_strategy(strategy)
    if generic is None:
        generic = _default_generic(space, d, seed)
    d = len(generic.feature_map.base_features)
    if witness_builder is not None:
        witness = witness_builder(generic, space)
        text = "caller-supplied witness"
    else:
        witness = _embed_generic(generic, strategy, space)
        text = _WITNESS_TEXT[strategy]
    if witness is None:
        return OptOutResult(False, strategy, "no witness available", 0,
                            float("inf"))
    rng = np.random.default_rng(seed + 1)
    cells = space.cells()
    x = rng.normal(size=(n_samples, d))
    picks = rng.integers(0, len(cells), size=n_samples)
    max_gap = 0.0
    for i in range(n_samples):
        g = cells[picks[i]]
        want = float(generic.margins_encoded(x[i:i + 1])[0])
        got = float(witness.margins(x[i], g))
        max_gap = max(max_gap, abs(got - want))
    return OptOutResult(max_gap <= 1e-12, strategy, text, n_samples,
                        max_gap)


def trained_loss(loss, margins, labels):
    """Mean surrogate (or 0-1) loss of margins against labels in {-1,+1}.

    loss is a canonical TrainConfig loss name: "logistic" (softplus),
    "hinge", or "zero_one" (the audit's error rate, `error_rate_value`).
    """
    margins = np.asarray(margins, dtype=float)
    labels = np.asarray(labels)
    if loss == "zero_one":
        return error_rate_value(margins, labels)
    z = labels * margins
    if loss == "logistic":
        return float(np.mean(softplus(-z)))
    if loss == "hinge":
        return float(np.mean(np.maximum(0.0, 1.0 - z)))
    raise ValueError(f"unknown loss {loss!r}")


def trained_loss_matrix(personalized, data, loss=None):
    """(m, m+1) matrix of per-group trained losses under each report.

    Rows follow the space's cell order; column 0 is the paired generic
    model (group withheld), column j+1 is every row reporting cell j.
    Empty groups yield NaN rows. Reads one MarginTable of (model, data).
    """
    if loss is None:
        loss = personalized.train_config.loss
    table = MarginTable(personalized, data)
    cells = data.space.cells()
    out = np.full((len(cells), len(cells) + 1), float("nan"))
    for gi, g in enumerate(cells):
        y = data.labels[table.rows(g)]
        if y.size:
            out[gi] = [trained_loss(loss, table.margins(g, reported), y)
                       for reported in (WITHHELD,) + cells]
    return out


@dataclass(frozen=True)
class Prop2Check:
    """Per-group premise equalities plus the implied matrix verdict.

    premise maps each group to whether the personalized model's trained
    loss matches that group's decoupled minimizer within the tolerance.
    matrix_ok reports whether the trained-loss misreport matrix is free of
    rationality and envy violations at the same tolerance; when all
    premises hold, theory guarantees matrix_ok (implication_holds checks
    exactly that).
    """

    premise: dict
    all_hold: bool
    matrix: np.ndarray
    matrix_ok: bool
    worst_violation: float
    tolerance: float

    @property
    def implication_holds(self):
        return (not self.all_hold) or self.matrix_ok

    def to_jsonable(self):
        return {
            "premise": {str(g): bool(v) for g, v in self.premise.items()},
            "all_hold": self.all_hold,
            "matrix_ok": self.matrix_ok,
            "worst_violation": float(self.worst_violation),
            "tolerance": float(self.tolerance),
            "implication_holds": self.implication_holds,
        }


def check_prop2_premise(personalized, decoupled_minimizers, train,
                        loss=None):
    """Check the equal-empirical-risk premise and its fair-use implication.

    For each group g, compares the personalized model's trained loss on
    g's training rows with g's decoupled minimizer's loss, within a
    tolerance of 10x the training gradient tolerance. Also evaluates the
    trained-loss misreport matrix: whenever every premise holds, no group
    can gain (beyond tolerance) by switching to the generic model or to
    another group's report.

    Args:
        personalized: audited PersonalizedModel.
        decoupled_minimizers: PersonalizedModel with the decoupled
            strategy, trained on the same split with the same loss.
        train: the shared training Dataset.
        loss: canonical loss name; defaults to the personalized model's.

    Returns:
        Prop2Check.
    """
    if decoupled_minimizers.strategy is not Strategy.DECOUPLED:
        raise ValueError("decoupled_minimizers must use the decoupled "
                         "strategy")
    if loss is None:
        loss = personalized.train_config.loss
    tol = 10.0 * personalized.train_config.gradient_tolerance
    matrix = trained_loss_matrix(personalized, train, loss)
    decoupled = MarginTable(decoupled_minimizers, train)
    premise = {}
    for gi, g in enumerate(train.space.cells()):
        rows = decoupled.rows(g)
        if rows.size == 0:
            premise[g] = True
            continue
        dec = trained_loss(loss, decoupled.margins(g, g),
                           train.labels[rows])
        premise[g] = bool(abs(matrix[gi, gi + 1] - dec) <= tol)
    # An empty group's row is NaN throughout and is skipped; every other
    # row is finite, and its own entry's zero gain cannot raise `worst`.
    gains = gain_matrix(matrix)
    worst = max(0.0, float(np.max(-gains, initial=0.0,
                                  where=~np.isnan(gains))))
    return Prop2Check(
        premise=premise, all_hold=all(premise.values()), matrix=matrix,
        matrix_ok=worst <= tol, worst_violation=worst, tolerance=tol)
