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
to the paired generic model. Every other report, one group for all rows
(`margins`) or each row's own cell (`margins_truthful`), becomes one cell
code per row for one kernel: a decoupled model applies each cell's model
to the rows coded for it, and every other strategy computes
x·w_base + cells[code]·w_cell, the form its logistic fit trains, from one
design row per cell (its indicator block, then 1). Empty decoupled cells
inherit the generic model and are flagged; single-class training data
yields a flagged constant predictor.
"""

import enum
import functools
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._exhaustive import ExhaustiveSizeError, train_zero_one
from ._optim import (ConvergenceError, cell_margins, expit, train_hinge,
                     train_logistic)
from .groups import GroupSpace, WITHHELD

__all__ = [
    "Strategy", "TrainConfig", "FeatureMap", "LinearModel",
    "PersonalizedModel", "build_feature_map",
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


@functools.lru_cache(maxsize=32)
def _cell_design(space, strategy):
    """(m, n_indicators + 1) design rows: each cell's block, then 1."""
    cells = np.stack([np.append(indicator_block(space, strategy, cell), 1.0)
                      for cell in space.cells()])
    cells.setflags(write=False)
    return cells


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

    @functools.cached_property
    def _cell_models(self):
        """Decoupled per-cell models, one per cell code."""
        return tuple(self.cells[cell] for cell in self.space.cells())

    def _margins(self, x, codes):
        """Margins of 2-D x when row i reports the cell coded codes[i]."""
        if self.strategy is Strategy.DECOUPLED:
            models = self._cell_models
            if codes.size and codes.min() == codes.max():  # one cell: no masks
                return models[codes[0]].margins_encoded(x)
            out = np.empty(x.shape[0])
            for idx, lm in enumerate(models):
                mask = codes == idx
                if np.any(mask):
                    out[mask] = lm.margins_encoded(x[mask])
            return out
        return cell_margins(self.model.weights, x, codes,
                            _cell_design(self.space, self.strategy))

    def margins(self, x, reported):
        """Margins for rows of x when every row reports `reported`."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        x = np.atleast_2d(x)
        if reported is WITHHELD:
            out = self.generic.margins_encoded(x)
        else:
            out = self._margins(x, np.full(x.shape[0],
                                           self.space.index_of(reported)))
        return out[0] if squeeze else out

    def margins_truthful(self, x, cell_indices):
        """Margins when each row reports its own cell (by cell index)."""
        return self._margins(np.atleast_2d(np.asarray(x, dtype=float)),
                             np.asarray(cell_indices))

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


def _fit(x, codes, y, fmap, cfg, context):
    """Fit one linear model on base features and per-row cell codes."""
    # A single class gets the constant model; an empty y goes to the
    # trainer.
    if y.size and y.min() == y.max():
        return _constant_model(float(y[0]), fmap, context)
    cells = _cell_design(fmap.space, fmap.strategy)
    if cfg.loss == "logistic":
        # Ridge covers base features only: indicators and intercept stay free.
        w = train_logistic(x, codes, cells, y, cfg.l2_penalty,
                           cfg.gradient_tolerance, cfg.max_iterations)
        return LinearModel(w, fmap)
    # The exact trainers are desk-scale and take a dense design; the 0-1
    # trainer appends its own intercept.
    x1 = np.hstack([x, cells[codes]])
    if cfg.loss == "hinge":
        return LinearModel(train_hinge(x1, y, cfg.l2_penalty), fmap)
    w, _ = train_zero_one(x1[:, :-1], y)
    return LinearModel(w, fmap)


def _fit_generic_linear(train, cfg):
    fmap = build_feature_map(Strategy.GENERIC, train.space,
                             train.feature_names)
    return _fit(train.features, train.cell_indices, train.labels, fmap, cfg,
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
        codes = train.cell_indices
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
            lm = _fit(train.features[rows], codes[rows], train.labels[rows],
                      fmap, cfg, f"cell {cell}")
            cells[cell] = lm
            if lm.flags:
                degenerate.append(cell)
        return PersonalizedModel(
            strategy=strategy, space=space, generic=generic_lm,
            train_config=cfg, cells=cells, flags=tuple(flags),
            degenerate_cells=tuple(degenerate), empty_cells=tuple(empty))
    fmap = build_feature_map(strategy, space, train.feature_names)
    lm = _fit(train.features, train.cell_indices, train.labels, fmap, cfg,
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
