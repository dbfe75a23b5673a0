"""Datasets: validation, tallies, CSV round-trips, stratified splits."""

import csv
import io
import string
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fairuse import dataset as dataset_module
from fairuse.dataset import (CsvSchema, Dataset, ParseError, SchemaError,
                             load_csv, loads_csv, save_csv, split, tally)
from fairuse.groups import ALL, DomainError, GroupId, GroupSpace
from fairuse.synth import gen_misspecification, gen_planted_violation

SPACE = GroupSpace((("g", ("a", "b")),))


def small_dataset():
    feats = np.array([[0.0], [1.0], [2.0], [3.0]])
    labels = np.array([1, -1, 1, -1])
    groups = (SPACE.group("a"), SPACE.group("a"),
              SPACE.group("b"), SPACE.group("b"))
    return Dataset(feats, labels, groups, SPACE)


def test_dataset_validation_errors():
    g = (SPACE.group("a"),)
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.array([1]), g, SPACE)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.array([1]), g, SPACE)
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf]]), np.array([1]), g, SPACE)
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 1)), np.array([2]), g, SPACE)
    with pytest.raises(DomainError):
        Dataset(np.zeros((1, 1)), np.array([1]),
                (GroupSpace((("g", ("x", "z")),)).group("x"),), SPACE)
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 1)), np.array([1]), g, SPACE,
                feature_names=("x1", "x2"))


def test_dataset_is_immutable_with_default_names():
    ds = small_dataset()
    assert ds.n == 4 and ds.d == 1
    assert ds.feature_names == ("x1",)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        ds.labels[0] = -1


def test_rows_for_and_cell_indices():
    ds = small_dataset()
    assert list(ds.cell_indices) == [0, 0, 1, 1]
    assert list(ds.rows_for(SPACE.group("a"))) == [0, 1]
    assert list(ds.rows_for(SPACE.group("b"))) == [2, 3]
    assert list(ds.rows_for(ALL)) == [0, 1, 2, 3]


def test_subset_keeps_selected_rows():
    ds = small_dataset()
    sub = ds.subset([2, 0])
    assert sub.n == 2
    assert list(sub.features[:, 0]) == [2.0, 0.0]
    assert [str(g) for g in sub.groups] == ["b", "a"]


def test_tally_matches_bruteforce_counts():
    rng = np.random.default_rng(3)
    space = GroupSpace((("g", ("a", "b", "c")),))
    n = 200
    picks = rng.integers(0, 2, size=n)  # cell "c" declared but unobserved
    groups = tuple(space.cells()[i] for i in picks)
    labels = np.where(rng.random(n) < 0.4, 1, -1)
    ds = Dataset(rng.normal(size=(n, 2)), labels, groups, space)
    t = tally(ds)
    for cell in space.cells():
        rows = ds.rows_for(cell)
        assert t.counts[cell].n == rows.size
        assert t.counts[cell].n_pos == int((labels[rows] == 1).sum())
        assert t.counts[cell].n_neg == int((labels[rows] == -1).sum())
    assert t.counts[space.group("c")].n == 0
    assert t.total == n
    json_cells = t.to_jsonable()["cells"]
    assert [c["group"] for c in json_cells] == \
        [list(g.values) for g in space.cells()]


def test_csv_roundtrip_on_reference_data(tmp_path):
    ds = gen_misspecification()
    path = tmp_path / "miss.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.space.attributes == ds.space.attributes
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.groups == ds.groups


@given(st.lists(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False, width=64),
              st.sampled_from(["a", "b"]),
              st.sampled_from([-1, 1])),
    min_size=1, max_size=30))
def test_csv_roundtrip_exact_floats(tmp_path, rows):
    feats = np.array([[r[0]] for r in rows])
    groups = tuple(SPACE.group(r[1]) for r in rows)
    labels = np.array([r[2] for r in rows])
    ds = Dataset(feats, labels, groups, SPACE)
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    back = load_csv(path, CsvSchema(domains={"g": ("a", "b")}))
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.groups == ds.groups
    assert back.space.attributes == ds.space.attributes


def test_loads_csv_label_conventions():
    ds = loads_csv("x1,g:g,y\n0.5,a,0\n1.5,b,1\n")
    assert list(ds.labels) == [-1, 1]
    ds = loads_csv("x1,g:g,y\n0.5,a,-1\n1.5,b,1\n")
    assert list(ds.labels) == [-1, 1]
    with pytest.raises(ParseError):
        loads_csv("x1,g:g,y\n0.5,a,0\n1.5,b,-1\n")
    with pytest.raises(ParseError):
        loads_csv("x1,g:g,y\n0.5,a,2\n1.5,b,1\n")
    with pytest.raises(ParseError):
        loads_csv("x1,g:g,y\n0.5,a,maybe\n1.5,b,1\n")


def test_loads_csv_schema_errors():
    with pytest.raises(SchemaError):
        loads_csv("")
    with pytest.raises(SchemaError):
        loads_csv("x1,g:g,label\n1,a,1\n")
    with pytest.raises(SchemaError):
        loads_csv("x1,x2,y\n1,2,1\n")
    with pytest.raises(SchemaError):
        loads_csv("g:g,y\na,1\n")
    with pytest.raises(ParseError) as err:
        loads_csv("x1,g:g,y\nzap,a,1\n1.5,b,-1\n")
    assert "row 1" in str(err.value)
    with pytest.raises(ParseError):
        loads_csv("x1,g:g,y\n1.0,a\n")


def test_declared_domains_extend_and_constrain():
    text = "x1,g:g,y\n0.5,a,1\n1.5,a,-1\n"
    ds = loads_csv(text, CsvSchema(domains={"g": ("a", "b")}))
    assert ds.space.domains == (("a", "b"),)
    assert tally(ds).counts[ds.space.group("b")].n == 0
    with pytest.raises(DomainError):
        loads_csv("x1,g:g,y\n0.5,zz,1\n", CsvSchema(domains={"g": ("a",
                                                                   "b")}))


def test_split_is_deterministic_and_partitions():
    ds = gen_planted_violation(m=4, n_per_group=50, gap=-0.2, seed=5)
    train1, test1 = split(ds, 0.8, seed=7)
    train2, test2 = split(ds, 0.8, seed=7)
    assert np.array_equal(train1.features, train2.features)
    assert np.array_equal(test1.features, test2.features)
    assert train1.n + test1.n == ds.n
    merged = np.vstack([train1.features, test1.features])
    order = np.lexsort(merged.T)
    base = np.lexsort(ds.features.T)
    assert np.array_equal(merged[order], ds.features[base])


def test_split_respects_stratum_sizes():
    ds = gen_planted_violation(m=4, n_per_group=50, gap=-0.2, seed=5)
    train, _ = split(ds, 0.8, seed=7)
    full = tally(ds)
    part = tally(train)
    for cell in ds.space.cells():
        for attr in ("n_pos", "n_neg"):
            size = getattr(full.counts[cell], attr)
            want = min(max(int(round(0.8 * size)), 1), size)
            assert getattr(part.counts[cell], attr) == want


def test_split_preserves_row_order():
    n = 40
    space = SPACE
    groups = tuple(space.cells()[i % 2] for i in range(n))
    labels = np.array([1 if i % 4 < 2 else -1 for i in range(n)])
    ds = Dataset(np.arange(n, dtype=float).reshape(-1, 1), labels, groups,
                 space)
    train, test = split(ds, 0.5, seed=0)
    assert np.all(np.diff(train.features[:, 0]) > 0)
    assert np.all(np.diff(test.features[:, 0]) > 0)


def test_split_errors_and_singleton_warning():
    ds = small_dataset()
    with pytest.raises(ValueError):
        split(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        split(ds, 1.0, seed=0)
    feats = np.zeros((4, 1))
    labels = np.array([1, 1, 1, -1])
    groups = (SPACE.group("a"),) * 4
    one_sided = Dataset(np.arange(2.0)[:, None], np.array([1, 1]),
                        (SPACE.group("a"), SPACE.group("a")), SPACE)
    # A cell with one label splits as one stratum.
    train, test = split(one_sided, 0.5, seed=0)
    assert sorted(train.features[:, 0].tolist() + test.features[:, 0]
                  .tolist()) == [0.0, 1.0]
    assert test.n == 1
    lopsided = Dataset(feats, labels, groups, SPACE)
    with pytest.warns(UserWarning):
        train, test = split(lopsided, 0.5, seed=0)
    # The lone negative row lands on the training side.
    assert (train.labels == -1).sum() == 1
    assert (test.labels == -1).sum() == 0


def test_split_of_an_empty_dataset_gives_two_empty_parts():
    empty = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), (), SPACE)
    train, test = split(empty, 0.5, seed=0)
    assert train.n == test.n == 0
    assert train.space == test.space == SPACE


def test_load_csv_ignores_a_utf8_byte_order_mark(tmp_path):
    text = "x1,g:g,y\n0.5,a,1\n1.5,b,-1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want, got = load_csv(plain), load_csv(marked)
    assert got.feature_names == want.feature_names == ("x1",)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)
    assert got.groups == want.groups
    # A label column first is still found behind the mark.
    marked.write_bytes(b"\xef\xbb\xbfy,g:g,x1\n1,a,0.5\n-1,b,1.5\n")
    assert list(load_csv(marked).labels) == [1, -1]


def test_rows_are_stored_as_cell_codes_and_groups_are_derived():
    space = GroupSpace((("s", ("f", "m")), ("t", ("o", "y"))))
    cells = space.cells()
    picks = [3, 0, 2, 2, 1, 3]
    ds = Dataset(np.zeros((6, 1)), np.ones(6, dtype=int),
                 [cells[i] for i in picks], space)
    assert ds.cell_indices.tolist() == picks
    assert ds.groups == tuple(cells[i] for i in picks)
    assert not ds.cell_indices.flags.writeable
    sub = ds.subset([5, 1])
    assert sub.cell_indices.tolist() == [3, 0]
    assert sub.groups == (cells[3], cells[0])
    with pytest.raises(AttributeError):
        ds.space = space


def test_load_csv_errors_keep_row_numbers():
    good = "1.0,a,1\n2.0,b,-1\n"
    head = "x1,g:g,y\n" + good * 3  # rows 1-6
    ds = loads_csv(head + "\n" + good)  # a blank row 7 is skipped
    assert ds.n == 8
    assert [str(g) for g in ds.groups] == ["a", "b"] * 4
    cases = [("oops,a,1\n", "row 7: feature 'x1' value 'oops'"),
             ("1.0,a\n", "row 7: 2 cells for 3 columns"),
             ("1.0,a,7\n", "row 7: label '7'"),
             ("1.0,a,yes\n", "row 7: label 'yes' is not numeric")]
    for bad, message in cases:
        with pytest.raises(ParseError) as err:
            loads_csv(head + bad + good)
        assert str(err.value).startswith(message)
    with pytest.raises(ParseError) as err:
        loads_csv(head + "\n" + "zap,b,1\n")
    assert str(err.value).startswith("row 8:")
    with pytest.raises(ParseError, match="row 7: feature 'x1' value 'inf' "
                       "is not finite"):
        loads_csv(head + "inf,a,1\n" + good)
    with pytest.raises(DomainError, match=r"\['c'\]"):
        loads_csv(head + "1.0,c,1\n", CsvSchema(domains={"g": ("a", "b")}))


@pytest.fixture(scope="module")
def tall_csv(tmp_path_factory):
    """200k planted rows (m = 4, two features)."""
    path = tmp_path_factory.mktemp("tall") / "tall.csv"
    save_csv(gen_planted_violation(m=4, n_per_group=50000, seed=0), path)
    return path


def test_load_and_split_200k_rows_is_fast(tall_csv):
    # Reading, splitting and the cell codes of both parts took 2.8 s when
    # every row's GroupId was built and validated, 0.6 s with columnar
    # ingest in blocks, and takes about 0.3 s with one np.loadtxt pass.
    # Best of three.
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        train, test = split(load_csv(tall_csv), 0.8, seed=0)
        train.cell_indices, test.cell_indices
        best = min(best, time.perf_counter() - start)
    assert train.n + test.n == 200000
    assert best < 1.6


def _loop_split(ds, train_fraction, seed):
    """Row-by-row reference for split: the same RNG calls in the same
    order (cells in order, label -1 then +1)."""
    rng = np.random.default_rng(seed)
    train_rows = []
    for g in ds.space.cells():
        rows = np.array([i for i in range(ds.n) if ds.groups[i] == g],
                        dtype=int)
        if rows.size == 0:
            continue
        for label in (-1, 1):
            stratum = rows[ds.labels[rows] == label]
            if stratum.size == 1:
                train_rows.append(stratum)
                continue
            k = min(max(int(round(train_fraction * stratum.size)), 1),
                    stratum.size)
            train_rows.append(rng.permutation(stratum)[:k])
    train = np.sort(np.concatenate(train_rows))
    return train, np.setdiff1d(np.arange(ds.n), train)


def test_split_equals_the_row_by_row_reference():
    space = GroupSpace((("s", ("f", "m")), ("t", ("o", "x", "y"))))
    cells = space.cells()
    rng = np.random.default_rng(11)
    n = 300
    picks = rng.choice([0, 1, 2, 4, 5], size=n)  # cell 3 stays empty
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    ds = Dataset(np.arange(n, dtype=float).reshape(-1, 1), labels,
                 [cells[i] for i in picks], space)
    for fraction, seed in ((0.8, 0), (0.5, 3), (0.3, 9)):
        train, test = split(ds, fraction, seed)
        want_train, want_test = _loop_split(ds, fraction, seed)
        assert train.features[:, 0].astype(int).tolist() == \
            want_train.tolist()
        assert test.features[:, 0].astype(int).tolist() == \
            want_test.tolist()
        assert train.groups == tuple(ds.groups[i] for i in want_train)


def test_load_csv_codes_equal_a_row_by_row_parse():
    rng = np.random.default_rng(5)
    # Later rows bring new values of both attributes, in unsorted order.
    ages = ["old", "mid", "young", "teen"]
    sexes = ["m", "f", "x"]
    lines = ["y,g:age,x1,g:sex,x2"]
    for i in range(40):
        age = ages[rng.integers(0, 1 + i // 10)]
        sex = sexes[rng.integers(0, 2 + i // 20)]
        lines.append(f"{rng.choice([0, 1])},{age},{rng.normal()!r},{sex},"
                     f"{rng.normal()!r}")
    text = "\n".join(lines) + "\n"
    ds = loads_csv(text)
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert ds.space.attributes == (("age", tuple(sorted(set(ages)))),
                                   ("sex", tuple(sorted(set(sexes)))))
    assert ds.feature_names == ("x1", "x2")
    want = [ds.space.index_of(GroupId((r[1], r[3]))) for r in rows]
    assert ds.cell_indices.tolist() == want
    assert ds.features.tolist() == [[float(r[2]), float(r[4])] for r in rows]
    assert ds.labels.tolist() == [1 if r[0] == "1" else -1 for r in rows]


def test_load_csv_200k_rows_traced_peak(tall_csv):
    # The csv.reader block loader peaked at 25.6 MiB here and the
    # np.loadtxt pass at 15.3 MiB; the result itself holds 6.1 MiB.
    load_csv(tall_csv)
    tracemalloc.start()
    try:
        load_csv(tall_csv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2**20


# The expected values below are what the csv.reader block loader that
# preceded the np.loadtxt pass returned on the same text.
HEAD = "x1,g:g,y\n"
AB = CsvSchema(domains={"g": ("a", "b")})


def _columns(ds):
    return (ds.features.tolist(), ds.labels.tolist(),
            [g.values for g in ds.groups])


def test_load_csv_reads_quoted_group_values():
    ds = loads_csv(HEAD + '1.0,"a,b",1\n2.0,"a""b",-1\n3.0,"a\nb",1\n'
                   '4.0,"a,b",-1\n')
    assert ds.space.domains == (("a\nb", 'a"b', "a,b"),)
    assert _columns(ds) == ([[1.0], [2.0], [3.0], [4.0]], [1, -1, 1, -1],
                            [("a,b",), ('a"b',), ("a\nb",), ("a,b",)])
    with pytest.raises(DomainError, match=r"observed values"):
        loads_csv(HEAD + '1.0,"a,b",1\n', AB)


def test_load_csv_reads_crlf_and_skips_blank_lines(tmp_path):
    want = ([[1.0], [2.0]], [1, -1], [("a",), ("b",)])
    crlf = "x1,g:g,y\r\n1.0,a,1\r\n\r\n2.0,b,-1\r\n"
    path = tmp_path / "crlf.csv"
    path.write_bytes(crlf.encode("utf-8"))
    assert _columns(load_csv(path)) == want
    assert _columns(loads_csv(crlf)) == want
    assert _columns(loads_csv(HEAD + "\n1.0,a,1\n\n\n2.0,b,-1\n\n")) == want
    # Spaces around a number are not part of it; a group value keeps them.
    ds = loads_csv(HEAD + " 1.0 , a, 1\n\xa02.0\t,b,\t-1\n")
    assert ds.features.tolist() == [[1.0], [2.0]]
    assert ds.space.domains == ((" a", "b"),)


def test_load_csv_rejects_bad_rows_by_number():
    cases = [("1.0,a,1\n \t \n2.0,b,-1\n", "row 2: 1 cells for 3 columns"),
             ("1.0,a,1\n2.0,b,-1,7\n", "row 2: 4 cells for 3 columns"),
             ("1.0,a,1\nnan,b,-1\n",
              "row 2: feature 'x1' value 'nan' is not finite"),
             ("1.0,a,1\n-inf,b,-1\n",
              "row 2: feature 'x1' value '-inf' is not finite"),
             ("1.0,a,1\n1_000,b,-1\n",
              "row 2: feature 'x1' value '1_000' is not numeric"),
             ("1.0,a,1\n\u0661\u0662,b,-1\n",
              "row 2: feature 'x1' value '\u0661\u0662' is not numeric"),
             ("1.0,a,1\n2.0,b,-1_0\n", "row 2: label '-1_0' is not numeric"),
             ("1.0,a,1\n2.0,b,\u0661\n",
              "row 2: label '\u0661' is not numeric")]
    for body, message in cases:
        for schema in (None, AB):
            with pytest.raises(ParseError) as err:
                loads_csv(HEAD + body, schema)
            assert str(err.value) == message


def test_load_csv_header_only_and_one_row_files():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="has 0 value"):
            loads_csv(HEAD)
        empty = loads_csv(HEAD, AB)
        assert empty.n == 0 and empty.features.shape == (0, 1)
        with pytest.raises(DomainError, match="has 1 value"):
            loads_csv(HEAD + "1.5,b,-1\n")
        one = loads_csv(HEAD + "1.5,b,-1\n", AB)
    assert _columns(one) == ([[1.5]], [-1], [("b",)])


def test_load_csv_reads_columns_by_position():
    # A repeated feature name still names two columns.
    ds = loads_csv("x1,x1,g:g,y\n1,2,a,1\n3,4,b,-1\n")
    assert ds.feature_names == ("x1", "x1")
    assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(SchemaError, match="appears 2 times"):
        loads_csv("y,x1,g:g,y\n0,2,a,1\n1,4,b,-1\n")


# Digits, the other characters of a float, ASCII whitespace, one
# non-ASCII space (U+00A0), one ASCII separator that str.strip() removes
# (U+001C), the letters of inf and nan, and one non-ASCII digit (U+0661).
NUMBER_CHARS = (string.digits + "._+-eE" + string.whitespace + "\xa0\x1c"
                + "naif" + "\u0661")


@given(st.text(alphabet=NUMBER_CHARS, max_size=8))
@example("1_000")
@example("\u0661\u0662")
@example("-nan")
@example("+inf")
@example(" 1e5\t")
@example("\xa02.5\x1c")
def test_number_grammar_matches_np_loadtxt(cell):
    """The re-scan accepts a cell exactly when np.loadtxt parses it, with
    the same float bits."""
    fields = [("c0", "f8"), ("c1", "O")]
    lines = ['"' + cell + '",a\n']
    if not set(cell) & set("\r\n"):
        lines.append(cell + ",a\n")
    for line in lines:
        try:
            want = np.loadtxt(io.StringIO(line, newline=""), dtype=fields,
                              delimiter=",", comments=None, quotechar='"',
                              ndmin=1)["c0"][0]
        except ValueError:
            want = None
        try:
            got = dataset_module._number(cell)
        except ValueError:
            got = None
        assert (got is None) == (want is None), repr(line)
        if got is not None:
            assert struct.pack("<d", got) == struct.pack("<d", want)
