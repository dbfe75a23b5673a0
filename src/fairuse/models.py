"""Linear classifiers personalized by a reported group membership.

A PersonalizedModel pairs a generic model (base features only) with a
group-aware predictor under one of four strategies:

  * generic: one model, the reported group is ignored;
  * onehot: base features plus one indicator per non-reference attribute
    value (the first value of each attribute's domain is the reference);
  * intersectional: base features plus one indicator per non-reference
    cell (the first cell in canonical order is the reference);
  * decoupled: a separate model per cell, trained on that cell's rows.

Predictions depend only on (x, reported group); a WITHHELD report routes
to the paired generic model. Empty decoupled cells inherit the generic
model and are flagged; single-class training data yields a flagged
constant predictor.
"""

import enum
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from ._exhaustive import ExhaustiveSizeError, train_zero_one
from ._optim import ConvergenceError, train_hinge, train_logistic
from .groups import GroupSpace, WITHHELD

__all__ = [
    "Strategy", "TrainConfig", "FeatureMap", "LinearModel",
    "PersonalizedModel", "encode", "encode_batch", "build_feature_map",
    "train_generic", "train_personalized", "train_zero_one_exhaustive",
    "predict", "ConvergenceError", "ExhaustiveSizeError",
]

_EXHAUSTIVE_MAX_DIM = 4
_EXHAUSTIVE_MAX_ROWS = 500
_CONSTANT_INTERCEPT = 30.0


class Strategy(str, enum.Enum):
    """Encoding strategy for personalization."""

    GENERIC = "generic"
    ONEHOT = "onehot"
    INTERSECTIONAL = "intersectional"
    DECOUPLED = "decoupled"


def as_strategy(value):
    """Coerce a Strategy or its string tag to a Strategy."""
    if isinstance(value, Strategy):
        return value
    try:
        return Strategy(str(value).lower())
    except ValueError:
        raise ValueError(
            f"unknown strategy {value!r}; expected one of "
            f"{[s.value for s in Strategy]}") from None


_LOSS_ALIASES = {
    "logistic": "logistic",
    "hinge": "hinge",
    "zero_one": "zero_one",
    "zero-one": "zero_one",
    "zero-one-exhaustive": "zero_one",
}


@dataclass(frozen=True)
class TrainConfig:
    """Training settings shared by every fit in one model.

    gradient_tolerance is the contracted max-norm of the penalized
    logistic gradient at the returned weights. hinge and zero_one losses
    are exact and require l2_penalty == 0; zero_one raises
    ExhaustiveSizeError past its size limit rather than approximate.
    """

    loss: str = "logistic"
    l2_penalty: float = 0.0
    max_iterations: int = 10000
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        canonical = _LOSS_ALIASES.get(str(self.loss).lower())
        if canonical is None:
            raise ValueError(f"unknown loss {self.loss!r}; expected one of "
                             f"{sorted(set(_LOSS_ALIASES.values()))}")
        object.__setattr__(self, "loss", canonical)
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be nonnegative")
        if canonical != "logistic" and self.l2_penalty != 0:
            raise ValueError(f"{canonical} loss requires l2_penalty == 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be positive")

    def to_jsonable(self):
        return {"loss": self.loss, "l2_penalty": self.l2_penalty,
                "max_iterations": self.max_iterations,
                "gradient_tolerance": self.gradient_tolerance}


@dataclass(frozen=True)
class FeatureMap:
    """Names of the inputs a model was trained on, in column order."""

    strategy: Strategy
    space: GroupSpace
    base_features: tuple
    encoded_features: tuple

    @property
    def n_indicators(self):
        return len(self.encoded_features) - len(self.base_features)

    def to_jsonable(self):
        return {
            "strategy": self.strategy.value,
            "attributes": [[name, list(dom)]
                           for name, dom in self.space.attributes],
            "base_features": list(self.base_features),
            "encoded_features": list(self.encoded_features),
        }


def build_feature_map(strategy, space, base_names):
    """Feature map for a strategy: base names plus indicator names."""
    strategy = as_strategy(strategy)
    base = tuple(base_names)
    if strategy is Strategy.ONEHOT:
        extra = tuple(f"{name}={value}"
                      for name, domain in space.attributes
                      for value in domain[1:])
    elif strategy is Strategy.INTERSECTIONAL:
        extra = tuple(f"cell={cell}" for cell in space.cells()[1:])
    else:
        extra = ()
    return FeatureMap(strategy, space, base, base + extra)


def indicator_block(space, strategy, g):
    """Indicator entries appended for reported group g (may be empty)."""
    strategy = as_strategy(strategy)
    space.validate(g)
    if strategy is Strategy.ONEHOT:
        vals = []
        for (name, domain), val in zip(space.attributes, g.values):
            for v in domain[1:]:
                vals.append(1.0 if val == v else 0.0)
        return np.array(vals)
    if strategy is Strategy.INTERSECTIONAL:
        block = np.zeros(space.m - 1)
        idx = space.index_of(g)
        if idx > 0:
            block[idx - 1] = 1.0
        return block
    return np.zeros(0)


def encode(x, g, strategy, space):
    """Encoded feature vector for one row under a reported group."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return np.concatenate([x, indicator_block(space, strategy, g)])


def encode_batch(x, g, strategy, space):
    """Encoded design matrix for many rows sharing one reported group."""
    x = np.asarray(x, dtype=float)
    block = indicator_block(space, strategy, g)
    if block.size == 0:
        return x
    return np.hstack([x, np.tile(block, (x.shape[0], 1))])


def _indicator_matrix(space, strategy):
    """(m, n_indicators) matrix of per-cell indicator blocks."""
    return np.stack([indicator_block(space, strategy, cell)
                     for cell in space.cells()])


@dataclass(frozen=True, eq=False)
class LinearModel:
    """weights has the intercept last; margin(x) = w[:-1] . x_enc + w[-1]."""

    weights: np.ndarray
    feature_map: FeatureMap
    flags: tuple = ()

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a finite 1-D vector")
        if w.size != len(self.feature_map.encoded_features) + 1:
            raise ValueError(
                f"expected {len(self.feature_map.encoded_features) + 1} "
                f"weights (features plus intercept), got {w.size}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def margins_encoded(self, x_enc):
        x_enc = np.asarray(x_enc, dtype=float)
        return x_enc @ self.weights[:-1] + self.weights[-1]

    def to_jsonable(self):
        return {"weights": [float(v) for v in self.weights],
                "feature_map": self.feature_map.to_jsonable(),
                "flags": list(self.flags)}


@dataclass(frozen=True, eq=False)
class PersonalizedModel:
    """A paired (generic, personalized) predictor over one group space."""

    strategy: Strategy
    space: GroupSpace
    generic: LinearModel
    train_config: TrainConfig
    model: Optional[LinearModel] = None
    cells: Optional[dict] = None
    flags: tuple = ()
    degenerate_cells: tuple = ()
    empty_cells: tuple = ()

    def __post_init__(self):
        if self.strategy is Strategy.DECOUPLED:
            if self.cells is None:
                raise ValueError("decoupled models need per-cell models")
            missing = [c for c in self.space.cells() if c not in self.cells]
            if missing:
                raise ValueError(f"decoupled mapping misses cells {missing}")
        elif self.model is None:
            raise ValueError(f"{self.strategy.value} models need a shared "
                             "linear model")

    @property
    def base_dim(self):
        return len(self.generic.feature_map.base_features)

    def margins(self, x, reported):
        """Margins for rows of x when every row reports `reported`."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        x = np.atleast_2d(x)
        if reported is WITHHELD:
            out = self.generic.margins_encoded(x)
        elif self.strategy is Strategy.GENERIC:
            self.space.validate(reported)
            out = self.generic.margins_encoded(x)
        elif self.strategy is Strategy.DECOUPLED:
            self.space.validate(reported)
            out = self.cells[reported].margins_encoded(x)
        else:
            enc = encode_batch(x, reported, self.strategy, self.space)
            out = self.model.margins_encoded(enc)
        return out[0] if squeeze else out

    def margins_truthful(self, x, cell_indices):
        """Margins when each row reports its own cell (by cell index)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cell_indices = np.asarray(cell_indices)
        if self.strategy is Strategy.GENERIC:
            return self.generic.margins_encoded(x)
        if self.strategy is Strategy.DECOUPLED:
            out = np.empty(x.shape[0])
            for idx, cell in enumerate(self.space.cells()):
                mask = cell_indices == idx
                if np.any(mask):
                    out[mask] = self.cells[cell].margins_encoded(x[mask])
            return out
        blocks = _indicator_matrix(self.space, self.strategy)
        enc = np.hstack([x, blocks[cell_indices]])
        return self.model.margins_encoded(enc)

    def all_flags(self):
        seen = list(self.flags)
        for extra in ([self.generic] + list((self.cells or {}).values())
                      + ([self.model] if self.model is not None else [])):
            for f in extra.flags:
                if f not in seen:
                    seen.append(f)
        return tuple(seen)

    def to_jsonable(self):
        out = {
            "strategy": self.strategy.value,
            "attributes": [[name, list(dom)]
                           for name, dom in self.space.attributes],
            "train_config": self.train_config.to_jsonable(),
            "generic": self.generic.to_jsonable(),
            "flags": list(self.all_flags()),
            "degenerate_cells": [str(c) for c in self.degenerate_cells],
            "empty_cells": [str(c) for c in self.empty_cells],
        }
        if self.strategy is Strategy.DECOUPLED:
            out["cells"] = {str(c): self.cells[c].to_jsonable()
                            for c in self.space.cells()}
        else:
            out["model"] = self.model.to_jsonable()
        return out


def _constant_model(sign, fmap, context):
    w = np.zeros(len(fmap.encoded_features) + 1)
    w[-1] = sign * _CONSTANT_INTERCEPT
    flag = (f"single-class training data for {context}; "
            f"using constant predictor {'+1' if sign > 0 else '-1'}")
    warnings.warn(flag)
    return LinearModel(w, fmap, flags=(flag,))


def _fit(x_enc, y, fmap, cfg, n_base, context):
    """Fit one linear model on an encoded design matrix."""
    classes = np.unique(y)
    if classes.size == 1:
        return _constant_model(float(classes[0]), fmap, context)
    if cfg.loss == "zero_one":
        w, _ = train_zero_one(x_enc, y)
        return LinearModel(w, fmap)
    ones = np.ones((x_enc.shape[0], 1))
    x1 = np.hstack([x_enc, ones])
    if cfg.loss == "hinge":
        w = train_hinge(x1, y, cfg.l2_penalty)
        return LinearModel(w, fmap)
    # Ridge covers base features only: indicators and intercept stay free.
    mask = np.zeros(x1.shape[1])
    mask[:n_base] = 1.0
    w = train_logistic(x1, y, mask, cfg.l2_penalty,
                       cfg.gradient_tolerance, cfg.max_iterations)
    return LinearModel(w, fmap)


def _fit_generic_linear(train, cfg):
    fmap = build_feature_map(Strategy.GENERIC, train.space,
                             train.feature_names)
    return _fit(train.features, train.labels, fmap, cfg, train.d,
                "the generic model")


def train_generic(train, cfg=None):
    """Train the generic model h0 on base features only.

    Returns a PersonalizedModel with strategy "generic" whose predictions
    ignore the reported group.
    """
    cfg = cfg if cfg is not None else TrainConfig()
    lm = _fit_generic_linear(train, cfg)
    return PersonalizedModel(
        strategy=Strategy.GENERIC, space=train.space, generic=lm,
        train_config=cfg, model=lm, flags=lm.flags)


def train_personalized(train, strategy, cfg=None):
    """Train a personalized model plus its paired generic model.

    Decoupled cells with no training rows inherit the generic model and
    are recorded in empty_cells; single-class cells get a flagged constant
    predictor and are recorded in degenerate_cells.
    """
    strategy = as_strategy(strategy)
    cfg = cfg if cfg is not None else TrainConfig()
    if strategy is Strategy.GENERIC:
        return train_generic(train, cfg)
    generic_lm = _fit_generic_linear(train, cfg)
    space = train.space
    if strategy is Strategy.DECOUPLED:
        fmap = build_feature_map(strategy, space, train.feature_names)
        cells = {}
        degenerate = []
        empty = []
        flags = []
        for cell in space.cells():
            rows = train.rows_for(cell)
            if rows.size == 0:
                cells[cell] = generic_lm
                empty.append(cell)
                flags.append(f"cell {cell} has no training rows; "
                             "inheriting the generic model")
                continue
            lm = _fit(train.features[rows], train.labels[rows], fmap, cfg,
                      train.d, f"cell {cell}")
            cells[cell] = lm
            if lm.flags:
                degenerate.append(cell)
        return PersonalizedModel(
            strategy=strategy, space=space, generic=generic_lm,
            train_config=cfg, cells=cells, flags=tuple(flags),
            degenerate_cells=tuple(degenerate), empty_cells=tuple(empty))
    fmap = build_feature_map(strategy, space, train.feature_names)
    blocks = _indicator_matrix(space, strategy)
    x_enc = np.hstack([train.features, blocks[train.cell_indices]])
    lm = _fit(x_enc, train.labels, fmap, cfg, train.d,
              f"the {strategy.value} model")
    return PersonalizedModel(
        strategy=strategy, space=space, generic=generic_lm,
        train_config=cfg, model=lm)


def train_zero_one_exhaustive(train, strategy):
    """Exactly minimize training 0-1 error; desk-scale sizes only.

    Refuses datasets with encoded dimension above 4 or more than 500 rows,
    and (via the trainer) any fit with two or more encoded features and
    more than 14 distinct encoded points.
    """
    strategy = as_strategy(strategy)
    fmap = build_feature_map(strategy, train.space, train.feature_names)
    if len(fmap.encoded_features) > _EXHAUSTIVE_MAX_DIM:
        raise ExhaustiveSizeError(
            f"encoded dimension {len(fmap.encoded_features)} exceeds "
            f"{_EXHAUSTIVE_MAX_DIM}")
    if train.n > _EXHAUSTIVE_MAX_ROWS:
        raise ExhaustiveSizeError(
            f"{train.n} rows exceed {_EXHAUSTIVE_MAX_ROWS}")
    cfg = TrainConfig(loss="zero_one", l2_penalty=0.0)
    return train_personalized(train, strategy, cfg)


def predict(model, x, reported):
    """Score and hard label for one row under a reported group.

    Returns (score, label) with score = sigmoid(margin) and label = +1
    exactly when score >= 0.5.
    """
    margin = model.margins(np.asarray(x, dtype=float).reshape(1, -1),
                           reported)[0]
    score = float(expit(margin))
    return score, (1 if margin >= 0.0 else -1)
