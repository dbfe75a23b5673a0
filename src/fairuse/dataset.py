"""Tabular classification data carrying categorical group attributes.

CSV convention: UTF-8 (a leading byte-order mark is ignored),
comma-delimited, ``"``-quoted with doubled quotes, header mandatory, blank
lines skipped. Group columns are identified by a ``g:`` prefix; the label
column is named ``y`` by default and holds values from {0,1} or {-1,+1},
mapped to {-1,+1}. All remaining columns are numeric features. A number
is an ASCII decimal, with any surrounding whitespace stripped; ``inf``
and ``nan`` parse but fail the finite check, while ``_`` separators and
non-ASCII digits are not numbers. Attribute domains are inferred from
observed values (sorted, so the result is independent of row order)
unless declared explicitly; declared domains may leave cells empty, and
empty cells are reported rather than dropped. Missing feature cells are
rejected; this module audits data, it does not clean it.

A Dataset stores its rows as columns: the feature matrix, the labels and
one integer cell code per row, the position of the row's group in
``space.cells()`` order (``cell_indices``). ``ds.groups``, the per-row
tuple of GroupIds, is derived from the codes when asked for. The
constructor takes GroupIds and checks each distinct one once; load_csv,
subset, split and the synth generators hand codes in directly.

load_csv reads the header with csv.reader and every data row in one
``np.loadtxt`` call, into one structured array with a float field per
feature and for the label. A file is read by path, in chunks, skipping
the header's physical lines; text (loads_csv) is read line by line from
a StringIO. Read by path, a line break inside a quoted value comes back
as ``\n``, so a file whose group values hold one is read again by lines,
which keep each break as written. Every group column is an int field of
ids, one per distinct value in order of first appearance (the values are
kept once, not once per row), and the ids are then mapped to codes. If
that call or the checks after it fail, the file is re-read row by row
with csv.reader for the row-numbered error.
"""

import csv
import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import ALL, DomainError, GroupSpace


class SchemaError(ValueError):
    """The CSV header does not match the expected column roles."""


class ParseError(ValueError):
    """A CSV cell could not be parsed; the message carries the row index."""


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for load_csv.

    label: name of the label column.
    group_prefix: columns starting with this prefix are group attributes
        (prefix stripped for the attribute name); every other column but
        the label is a feature.
    domains: mapping attribute name -> ordered value domain; overrides the
        sorted-observed-values inference and may include unobserved values.
    """

    label: str = "y"
    group_prefix: str = "g:"
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
    """Positions of the label, the feature columns and the group columns."""
    if schema.label not in header:
        raise SchemaError(f"label column {schema.label!r} not in header "
                          f"{header}")
    if header.count(schema.label) > 1:
        raise SchemaError(f"label column {schema.label!r} appears "
                          f"{header.count(schema.label)} times in {header}")
    label = header.index(schema.label)
    groups = [i for i, c in enumerate(header)
              if c.startswith(schema.group_prefix) and i != label]
    if not groups:
        raise SchemaError(
            "no group columns found (expected names starting with "
            f"{schema.group_prefix!r})")
    feats = [i for i in range(len(header)) if i != label and i not in groups]
    if not feats:
        raise SchemaError("no feature columns found")
    return label, feats, groups


def _number(cell):
    """float(cell) in np.loadtxt's grammar: surrounding whitespace is
    stripped, and the rest must be ASCII without ``_``."""
    core = cell.strip()
    if not core.isascii() or "_" in core:
        raise ValueError(f"{cell!r} is not an ASCII decimal")
    return float(core)


def _parse_label(raw, row_idx):
    try:
        val = _number(raw)
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
        return _read(fh, path, schema or CsvSchema(),
                     f"{path}: empty file, header required")


def loads_csv(text, schema=None):
    """Read a Dataset from CSV text (same format as load_csv)."""
    fh = io.StringIO(text, newline="")
    return _read(fh, fh, schema or CsvSchema(),
                 "empty CSV text, header required")


class _Ids(dict):
    """Value -> id, each new value taking the next id."""

    def __missing__(self, value):
        new = self[value] = len(self)
        return new


def _read(fh, source, schema, empty_message):
    """Dataset of the CSV open as fh; np.loadtxt reads source, the file's
    path or fh itself, from the start."""
    rows = csv.reader(fh)
    header = next(rows, None)
    if header is None:
        raise SchemaError(empty_message)
    label, feats, groups = _resolve_columns(header, schema)
    ids = {i: _Ids() for i in groups}
    dtype = [(f"c{i}", "i8" if i in groups else "f8")
             for i in range(len(header))]
    fh.seek(0)
    try:
        with warnings.catch_warnings():
            # A header-only file is read as zero rows.
            warnings.filterwarnings("ignore", "loadtxt: input contained no",
                                    UserWarning)
            table = np.loadtxt(
                source, dtype=dtype, delimiter=",", comments=None,
                quotechar='"', ndmin=1, skiprows=rows.line_num,
                encoding="utf-8-sig",
                converters={i: v.__getitem__ for i, v in ids.items()})
        raw = table[f"c{label}"]
        # Field by field: np.isin would copy the strided label field, and
        # the feature matrix is stacked last, after the codes' temporaries.
        if not (all(np.isfinite(table[f"c{i}"]).all() for i in feats)
                and ((raw == -1) | (raw == 0) | (raw == 1)).all()):
            raise ValueError("non-finite feature or label out of range")
    except ValueError:
        fh.seek(0)
        rows = csv.reader(fh)
        next(rows)
        _raise_row_error(rows, header, feats, label)
        raise
    labels = raw.astype(int)
    if (labels == 0).any():
        if (labels == -1).any():
            raise ParseError(
                "labels mix 0 and -1; use one convention ({0,1} or {-1,+1})")
        labels[labels == 0] = -1

    if source is not fh and any("\n" in v for seen in ids.values()
                                for v in seen):
        # Read by path, every quoted line break came back as \n; the
        # file's own lines keep them as written.
        fh.seek(0)
        return _read(fh, fh, schema, empty_message)
    declared = dict(schema.domains or {})
    attrs = []
    for i in groups:
        name = header[i][len(schema.group_prefix):]
        if name in declared:
            domain = tuple(str(v) for v in declared[name])
            extra = ids[i].keys() - set(domain)
            if extra:
                raise DomainError(
                    f"attribute {name!r}: observed values {sorted(extra)} "
                    f"outside declared domain {domain}")
        else:
            domain = tuple(sorted(ids[i]))
        attrs.append((name, domain))
    space = GroupSpace(tuple(attrs))
    codes = np.zeros(labels.size, dtype=int)
    for i, domain in zip(groups, space.domains):
        position = {v: k for k, v in enumerate(domain)}
        codes *= len(domain)
        found = np.fromiter(map(position.__getitem__, ids[i]), int,
                            len(ids[i]))
        codes += found.take(table[f"c{i}"])
    features = np.column_stack([table[f"c{i}"] for i in feats])
    return Dataset._from_codes(features, labels, codes, space,
                               tuple(header[i] for i in feats))


def _raise_row_error(rows, header, feats, label):
    """Re-scan the data rows with csv.reader, numbered from 1, and raise
    the error of the first bad one."""
    for r, row in enumerate(rows, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(
                f"row {r}: {len(row)} cells for {len(header)} columns")
        for i in feats:
            cell = row[i]
            try:
                if math.isfinite(_number(cell)):
                    continue
                wrong = "finite"
            except ValueError:
                wrong = "numeric"
            raise ParseError(
                f"row {r}: feature {header[i]!r} value {cell!r} is not "
                f"{wrong}")
        _parse_label(row[label], r)


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

    A cell whose rows all have one label splits as one stratum; a stratum
    with a single row goes to the training side with a warning.
    Declared-but-empty cells are skipped. The two parts preserve original
    row order and partition the input.
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
