"""Tabular classification data carrying categorical group attributes.

CSV convention: UTF-8 (a leading byte-order mark is ignored),
comma-delimited, header mandatory. Group columns are identified by a
``g:`` prefix (or an explicit schema); the label column is named ``y`` by
default and holds values from {0,1} or {-1,+1}, mapped to {-1,+1}. All
remaining columns are numeric features. Attribute domains are inferred
from observed values (sorted, so the result is independent of row order)
unless declared explicitly; declared domains may leave cells empty, and
empty cells are reported rather than dropped. Missing feature cells are
rejected; this module audits data, it does not clean it.

A Dataset stores its rows as columns: the feature matrix, the labels and
one integer cell code per row, the position of the row's group in
``space.cells()`` order (``cell_indices``). ``ds.groups``, the per-row
tuple of GroupIds, is derived from the codes when asked for. The
constructor takes GroupIds and checks each distinct one once; load_csv,
subset, split and the synth generators hand codes in directly.

load_csv reads the file in one pass, in blocks of rows. Each block's
columns are converted with numpy and each group column is mapped to
codes through a dict of its values; a block that fails is re-scanned row
by row for the row-numbered error.
"""

import csv
import gc
import io
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .groups import ALL, DomainError, GroupSpace

# Rows that load_csv holds as strings at once.
_BLOCK_ROWS = 1 << 15


class SchemaError(ValueError):
    """The CSV header does not match the expected column roles."""


class ParseError(ValueError):
    """A CSV cell could not be parsed; the message carries the row index."""


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for load_csv.

    label: name of the label column.
    group_prefix: columns starting with this prefix are group attributes
        (prefix stripped for the attribute name) unless ``groups`` is given.
    groups: explicit group column names (used verbatim as attribute names).
    features: explicit feature column names; default is every remaining column.
    domains: mapping attribute name -> ordered value domain; overrides the
        sorted-observed-values inference and may include unobserved values.
    """

    label: str = "y"
    group_prefix: str = "g:"
    groups: tuple = None
    features: tuple = None
    domains: dict = None


class Dataset:
    """Immutable feature matrix, labels in {-1,+1}, and per-row groups.

    Rows are stored as cell codes (`cell_indices`); `groups` is derived
    from them on first use.
    """

    def __init__(self, features, labels, groups, space, feature_names=None):
        feats = np.array(features, dtype=float, copy=True)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        labels = np.array(labels, dtype=int, copy=True)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        groups = tuple(groups)
        n = feats.shape[0]
        if not (len(labels) == len(groups) == n):
            raise ValueError(
                f"length mismatch: {n} feature rows, {len(labels)} labels, "
                f"{len(groups)} groups")
        _check_values(feats, labels)
        self._init(feats, labels, _cell_codes(groups, space), space,
                   feature_names)

    @classmethod
    def _from_codes(cls, features, labels, codes, space, feature_names):
        """Dataset over checked arrays and cell codes of `space`, taken
        as they are (not copied, not revalidated)."""
        self = cls.__new__(cls)
        self._init(features, labels, codes, space, feature_names)
        return self

    def _init(self, feats, labels, codes, space, names):
        if names is None:
            names = tuple(f"x{j + 1}" for j in range(feats.shape[1]))
        else:
            names = tuple(str(c) for c in names)
            if len(names) != feats.shape[1]:
                raise ValueError(
                    f"{len(names)} feature names for {feats.shape[1]} columns")
        for arr in (feats, labels, codes):
            arr.setflags(write=False)
        for attr, value in (("features", feats), ("labels", labels),
                            ("_codes", codes), ("space", space),
                            ("feature_names", names)):
            object.__setattr__(self, attr, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Dataset is immutable; cannot delete {name!r}")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    @cached_property
    def cell_indices(self):
        """Per-row index of the group in space.cells() order."""
        return self._codes

    @cached_property
    def groups(self):
        """Per-row GroupIds, derived from the cell codes."""
        return tuple(map(self.space.cells().__getitem__,
                         self._codes.tolist()))

    def rows_for(self, g):
        """Row indices for group g (or every row for the ALL sentinel)."""
        if g is ALL:
            return np.arange(self.n)
        return np.flatnonzero(self._codes == self.space.index_of(g))

    def subset(self, rows):
        rows = np.asarray(rows, dtype=int)
        return Dataset._from_codes(self.features[rows], self.labels[rows],
                                   self._codes[rows], self.space,
                                   self.feature_names)


def _check_values(feats, labels):
    """Raise ValueError at the first non-finite feature or bad label."""
    if feats.shape[0] and not np.isfinite(feats).all():
        bad = int(np.argwhere(~np.isfinite(feats))[0][0])
        raise ValueError(f"non-finite feature value at row {bad}")
    if labels.size and not np.isin(labels, (-1, 1)).all():
        bad = int(np.argwhere(~np.isin(labels, (-1, 1)))[0][0])
        raise ValueError(
            f"label at row {bad} is {labels[bad]}, expected -1 or +1")


def _cell_codes(groups, space):
    """Cell code of each GroupId; each distinct one is checked once, by a
    dict lookup, and a miss is reported by space.validate."""
    code_of = {g: i for i, g in enumerate(space.cells())}
    try:
        return np.fromiter(map(code_of.__getitem__, groups), dtype=int,
                           count=len(groups))
    except (KeyError, TypeError):
        for g in groups:
            space.validate(g)
        raise


@dataclass(frozen=True)
class CellTally:
    n: int
    n_pos: int
    n_neg: int

    def __post_init__(self):
        if self.n != self.n_pos + self.n_neg:
            raise ValueError(
                f"tally {self.n} != {self.n_pos} + {self.n_neg}")


@dataclass(frozen=True)
class GroupTally:
    """Per-cell row and label counts; zero-count cells are included."""

    space: GroupSpace
    counts: dict

    @property
    def total(self):
        return sum(c.n for c in self.counts.values())

    def to_jsonable(self):
        return {
            "total": self.total,
            "cells": [
                {"group": list(g.values), "n": c.n, "n_pos": c.n_pos,
                 "n_neg": c.n_neg}
                for g, c in ((g, self.counts[g]) for g in self.space.cells())
            ],
        }


def tally(ds):
    """Exact per-cell counts (n_g, n_g+, n_g-) over the whole space."""
    cells = ds.space.cells()
    per_cell = np.bincount(2 * ds.cell_indices + (ds.labels != 1),
                           minlength=2 * len(cells)).reshape(-1, 2)
    counts = {}
    for g, (n_pos, n_neg) in zip(cells, per_cell.tolist()):
        counts[g] = CellTally(n_pos + n_neg, n_pos, n_neg)
    return GroupTally(ds.space, counts)


def _resolve_columns(header, schema):
    if schema.label not in header:
        raise SchemaError(f"label column {schema.label!r} not in header "
                          f"{header}")
    if schema.groups is not None:
        group_cols = [str(c) for c in schema.groups]
        for c in group_cols:
            if c not in header:
                raise SchemaError(f"group column {c!r} not in header")
        attr_names = group_cols
    else:
        group_cols = [c for c in header
                      if c.startswith(schema.group_prefix) and c != schema.label]
        attr_names = [c[len(schema.group_prefix):] for c in group_cols]
    if not group_cols:
        raise SchemaError(
            "no group columns found (expected names starting with "
            f"{schema.group_prefix!r} or an explicit schema)")
    if schema.features is not None:
        feat_cols = [str(c) for c in schema.features]
        for c in feat_cols:
            if c not in header:
                raise SchemaError(f"feature column {c!r} not in header")
    else:
        claimed = set(group_cols) | {schema.label}
        feat_cols = [c for c in header if c not in claimed]
    if not feat_cols:
        raise SchemaError("no feature columns found")
    return feat_cols, group_cols, attr_names


def _parse_label(raw, row_idx):
    try:
        val = float(raw)
    except ValueError:
        raise ParseError(
            f"row {row_idx}: label {raw!r} is not numeric") from None
    if val not in (-1.0, 0.0, 1.0):
        raise ParseError(
            f"row {row_idx}: label {raw!r} not in {{0,1}} or {{-1,+1}}")
    return int(val)


def load_csv(path, schema=None):
    """Read a Dataset from a CSV file. See the module docstring for roles."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return _read(csv.reader(fh), schema or CsvSchema(),
                     f"{path}: empty file, header required")


def loads_csv(text, schema=None):
    """Read a Dataset from CSV text (same format as load_csv)."""
    return _read(csv.reader(io.StringIO(text)), schema or CsvSchema(),
                 "empty CSV text, header required")


def _read(reader, schema, empty_message):
    header = next(reader, None)
    if header is None:
        raise SchemaError(empty_message)
    header = [str(c) for c in header]
    feat_cols, group_cols, attr_names = _resolve_columns(header, schema)
    with _gc_paused():
        features, raw, ids_of, row_ids = _read_blocks(
            reader, header, feat_cols, group_cols, schema.label)
    if (raw == 0).any():
        if (raw == -1).any():
            raise ParseError(
                "labels mix 0 and -1; use one convention ({0,1} or {-1,+1})")
        labels = np.where(raw == 1, 1, -1)
    else:
        labels = raw

    declared = dict(schema.domains or {})
    attrs = []
    for name, ids in zip(attr_names, ids_of):
        if name in declared:
            domain = tuple(str(v) for v in declared[name])
            extra = ids.keys() - set(domain)
            if extra:
                raise DomainError(
                    f"attribute {name!r}: observed values {sorted(extra)} "
                    f"outside declared domain {domain}")
        else:
            domain = tuple(sorted(ids))
        attrs.append((name, domain))
    space = GroupSpace(tuple(attrs))
    codes = np.zeros(labels.size, dtype=int)
    for domain, ids, per_row in zip(space.domains, ids_of, row_ids):
        position = {v: i for i, v in enumerate(domain)}
        remap = np.array([position[v] for v in ids], dtype=int)
        codes = codes * len(domain) + remap[per_row]
    return Dataset._from_codes(features, labels, codes, space,
                               tuple(feat_cols))


def _read_blocks(reader, header, feat_cols, group_cols, label):
    """Convert the data rows, _BLOCK_ROWS at a time.

    Returns the feature matrix, the labels as read, and for each group
    column a dict of its values (each mapped to a provisional id, in the
    order first seen) and every row's provisional id.
    """
    pos = {c: i for i, c in enumerate(header)}
    ids_of = [{} for _ in group_cols]
    feat_parts = [np.zeros((0, len(feat_cols)))]
    label_parts = [np.zeros(0)]
    id_parts = [[np.zeros(0, int)] for _ in group_cols]
    first = 1
    while block := list(islice(reader, _BLOCK_ROWS)):
        try:
            cols = _block_columns(block, len(header))
            rows = len(cols[0])
            feat_parts.append(np.column_stack(
                [np.fromiter(map(float, cols[pos[c]]), float, rows)
                 for c in feat_cols]))
            if not np.isfinite(feat_parts[-1]).all():
                raise ValueError("non-finite feature")
            y = np.fromiter(map(float, cols[pos[label]]), float, rows)
            if not np.isin(y, (-1.0, 0.0, 1.0)).all():
                raise ValueError("label out of range")
        except ValueError:
            _raise_row_error(block, first, header, feat_cols, label)
            raise
        label_parts.append(y)
        for c, ids, parts in zip(group_cols, ids_of, id_parts):
            col = cols[pos[c]]
            for v in set(col) - ids.keys():
                ids[v] = len(ids)
            parts.append(np.fromiter(map(ids.__getitem__, col), int, rows))
        first += len(block)
    return (np.concatenate(feat_parts),
            np.concatenate(label_parts).astype(int), ids_of,
            [np.concatenate(parts) for parts in id_parts])


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while load_csv reads.

    A block's row lists and column tuples hold only strings, so they form
    no cycles; but each block that outlives a young collection makes the
    collector rescan every live object, a quarter of the read at 1M rows.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _block_columns(block, width):
    """Columns of a block's non-blank rows; ValueError unless every one of
    them has `width` cells."""
    lengths = set(map(len, block))
    if 0 in lengths:
        block = [row for row in block if row]
        lengths.discard(0)
    if lengths - {width}:
        raise ValueError("row length")
    return list(zip(*block)) or [()] * width


def _raise_row_error(block, first, header, feat_cols, label):
    """Re-scan a block that failed bulk conversion, row by row, and raise
    the error of its first bad row (rows numbered from `first`)."""
    pos = {c: i for i, c in enumerate(header)}
    for r, row in enumerate(block, start=first):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(
                f"row {r}: {len(row)} cells for {len(header)} columns")
        for c in feat_cols:
            cell = row[pos[c]]
            try:
                if np.isfinite(float(cell)):
                    continue
                wrong = "finite"
            except ValueError:
                wrong = "numeric"
            raise ParseError(
                f"row {r}: feature {c!r} value {cell!r} is not {wrong}")
        _parse_label(row[pos[label]], r)


def save_csv(ds, path, group_prefix="g:"):
    """Write a Dataset so that load_csv restores it exactly.

    Floats are written with repr (shortest exact round-trip); group domains
    must therefore be in sorted order for the space to survive the trip,
    which holds for every built-in generator.
    """
    header = (list(ds.feature_names)
              + [group_prefix + name for name in ds.space.names]
              + ["y"])
    domains = ds.space.domains
    value_codes = np.unravel_index(ds.cell_indices,
                                   [len(d) for d in domains])
    columns = [map(repr, col) for col in ds.features.T.tolist()]
    columns += [map(domain.__getitem__, codes.tolist())
                for domain, codes in zip(domains, value_codes)]
    columns.append(map(str, ds.labels.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def split(ds, train_fraction, seed):
    """Deterministic stratified train/test split by (group, label).

    Every nonempty cell must contain both labels; a stratum with a single
    row goes to the training side with a warning. Declared-but-empty cells
    are skipped. The two parts preserve original row order and partition
    the input.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(
            f"train_fraction must be in (0,1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    # Stratum 2c holds cell c's -1 rows and 2c+1 its +1 rows, each in
    # ascending row order.
    key = 2 * ds.cell_indices + (ds.labels == 1)
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(np.bincount(key, minlength=2 * ds.space.m)).tolist()
    starts = [0] + ends[:-1]
    train_rows = []
    for ci, g in enumerate(ds.space.cells()):
        if starts[2 * ci] == ends[2 * ci + 1]:
            continue
        for s, label in ((2 * ci, -1), (2 * ci + 1, 1)):
            stratum = order[starts[s]:ends[s]]
            if stratum.size == 0:
                raise ValueError(
                    f"group {g} has no rows with label {label:+d}; every "
                    "(group, label) stratum of a nonempty cell must be "
                    "nonempty to split")
            if stratum.size == 1:
                warnings.warn(
                    f"stratum (group {g}, label {label:+d}) has one row; "
                    "placing it in the training part", stacklevel=2)
                train_rows.append(stratum)
                continue
            k = int(round(train_fraction * stratum.size))
            k = min(max(k, 1), stratum.size)
            perm = rng.permutation(stratum)
            train_rows.append(perm[:k])
    train_idx = np.sort(np.concatenate(train_rows)) if train_rows else \
        np.zeros(0, dtype=int)
    mask = np.zeros(ds.n, dtype=bool)
    mask[train_idx] = True
    test_idx = np.flatnonzero(~mask)
    return ds.subset(train_idx), ds.subset(test_idx)
