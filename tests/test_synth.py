"""Generator tallies, frozen expected tables, and the random constructions."""

import numpy as np
import pytest

from fairuse.audit import MarginTable, check_fair_use_point, misreport_matrix
from fairuse.dataset import load_csv, save_csv, tally
from fairuse.metrics import ERROR_RATE
from fairuse.models import Strategy, TrainConfig, train_personalized
from fairuse.synth import (EXPECTED_TABLES, GENERATORS,
                           gen_exchangeable_null, gen_feature_selection,
                           gen_group_specific_effects, gen_label_shift,
                           gen_misspecification, gen_planted_violation,
                           gen_sampling_error, gen_surrogate_outlier,
                           errors_by_cell, evaluate_rule, planted_rates,
                           space_for_m)


def tally_map(ds):
    """{cell string: [n_pos, n_neg]} from a dataset's tally."""
    t = tally(ds)
    return {",".join(c["group"]): [c["n_pos"], c["n_neg"]]
            for c in t.to_jsonable()["cells"]}


def test_fixed_generator_tallies_match_expected_tables():
    assert tally_map(gen_misspecification()) == \
        EXPECTED_TABLES["misspecification"]["tally"]
    assert tally_map(gen_group_specific_effects()) == \
        EXPECTED_TABLES["group_specific_effects"]["tally"]
    ds, constraint = gen_feature_selection()
    t = tally(ds)
    totals = [sum(c["n_pos"] for c in t.to_jsonable()["cells"]),
              sum(c["n_neg"] for c in t.to_jsonable()["cells"])]
    assert totals == EXPECTED_TABLES["feature_selection"]["tally_totals"]
    assert constraint == EXPECTED_TABLES["feature_selection"]["constraint"]
    assert tally_map(gen_surrogate_outlier()) == \
        EXPECTED_TABLES["surrogate_outlier"]["tally"]
    train, truth = gen_sampling_error()
    assert tally_map(train) == \
        EXPECTED_TABLES["sampling_error"]["train_tally"]
    assert tally_map(truth) == \
        EXPECTED_TABLES["sampling_error"]["truth_tally"]
    train, truth = gen_label_shift()
    assert tally_map(train) == EXPECTED_TABLES["label_shift"]["train_tally"]
    assert tally_map(truth) == EXPECTED_TABLES["label_shift"]["truth_tally"]


def _same_dataset(a, b):
    return (a.space.attributes == b.space.attributes
            and a.feature_names == b.feature_names
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels)
            and a.groups == b.groups)


def test_csv_roundtrip_every_generator(tmp_path):
    datasets = [
        gen_misspecification(),
        gen_group_specific_effects(),
        gen_feature_selection()[0],
        gen_surrogate_outlier(),
        *gen_sampling_error(),
        *gen_label_shift(),
        gen_planted_violation(4, 50, -0.2, 3),
        gen_exchangeable_null(4, 50, 3),
    ]
    for i, ds in enumerate(datasets):
        path = tmp_path / f"gen{i}.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert _same_dataset(ds, back)


def test_planted_validation_errors():
    with pytest.raises(ValueError, match="m=4"):
        gen_planted_violation(m=5)
    with pytest.raises(ValueError, match="gap"):
        gen_planted_violation(gap=0.5)
    with pytest.raises(ValueError, match="gap"):
        gen_planted_violation(gap=-0.5)
    with pytest.raises(ValueError, match="n_per_group"):
        gen_planted_violation(n_per_group=0)


def test_planted_zero_gap_is_the_exchangeable_null():
    a = gen_planted_violation(4, 30, 0.0, 7)
    b = gen_exchangeable_null(4, 30, 7)
    assert _same_dataset(a, b)


def test_planted_rates_values():
    assert planted_rates(4, -0.2) == (0.1, 0.7, 0.7, 0.4)
    assert planted_rates(4, 0.2) == (0.1, 0.3, 0.3, 0.6)
    assert planted_rates(4, -0.3) == (0.1, 0.7, 0.7, pytest.approx(0.35))


def test_planted_realized_label_rates():
    ds = gen_planted_violation(4, 4000, -0.2, 0)
    for cell, rate in zip(ds.space.cells(), planted_rates(4, -0.2)):
        rows = ds.rows_for(cell)
        frac = float((ds.labels[rows] == 1).mean())
        assert frac == pytest.approx(rate, abs=0.03)


def test_planted_gain_shows_up_in_an_additive_fit():
    ds = gen_planted_violation(4, 2000, -0.3, 0)
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=0.0))
    point = check_fair_use_point(
        misreport_matrix(MarginTable(model, ds), ERROR_RATE))
    designated = ds.space.cells()[-1]
    gain = point.gains[designated].rationality_gain
    assert gain == pytest.approx(-0.3, abs=0.07)
    assert designated in point.rationality_violations


def test_exchangeable_null_properties():
    with pytest.raises(ValueError, match="2 groups"):
        gen_exchangeable_null(m=1)
    with pytest.raises(ValueError, match="n_per_group"):
        gen_exchangeable_null(n_per_group=0)
    ds = gen_exchangeable_null(4, 250, 0)
    assert ds.n == 1000
    marginal = float((ds.labels == 1).mean())
    assert marginal == pytest.approx(0.5, abs=0.06)
    fracs = [float((ds.labels[ds.rows_for(c)] == 1).mean())
             for c in ds.space.cells()]
    assert max(fracs) - min(fracs) <= 0.15


def test_space_for_m_shapes():
    with pytest.raises(ValueError):
        space_for_m(1)
    four = space_for_m(4)
    assert four.names == ("a", "b")
    assert [str(c) for c in four.cells()] == ["0,0", "0,1", "1,0", "1,1"]
    five = space_for_m(5)
    assert five.names == ("g",)
    assert [str(c) for c in five.cells()] == \
        ["g00", "g01", "g02", "g03", "g04"]
    twelve = space_for_m(12)
    assert twelve.m == 12
    assert str(twelve.cells()[-1]) == "g11"


def test_evaluate_rule_kinds_against_expected_counts():
    table = EXPECTED_TABLES["misspecification"]
    ds = gen_misspecification()
    pred = evaluate_rule({"kind": "constant", "label": -1}, ds)
    assert errors_by_cell(ds, pred) == table["generic_errors"]

    fs = EXPECTED_TABLES["feature_selection"]
    ds, _ = gen_feature_selection()
    for name in ("h0", "h1", "h2"):
        pred = evaluate_rule(fs[name]["rule"], ds)
        errors = errors_by_cell(ds, pred)
        assert errors == fs[name]["errors"]
        assert sum(errors.values()) == fs[name]["total"]

    se = EXPECTED_TABLES["sampling_error"]
    train, truth = gen_sampling_error()
    h0 = evaluate_rule(se["h0"]["rule"], train)
    pers = evaluate_rule(se["personalized"]["rule"], train)
    gains = {c: errors_by_cell(train, h0)[c] - errors_by_cell(train, pers)[c]
             for c in errors_by_cell(train, h0)}
    assert gains == se["train_gains"]

    with pytest.raises(ValueError, match="unknown rule kind"):
        evaluate_rule({"kind": "nearest"}, gen_misspecification())


def test_errors_by_cell_matches_manual_count():
    ds = gen_surrogate_outlier()
    rng = np.random.default_rng(0)
    pred = np.where(rng.random(ds.n) < 0.5, 1, -1)
    got = errors_by_cell(ds, pred)
    for cell in ds.space.cells():
        manual = 0
        for i in range(ds.n):
            if ds.groups[i] == cell and pred[i] != ds.labels[i]:
                manual += 1
        assert got[str(cell)] == manual


def test_expected_tables_are_internally_consistent():
    mis = EXPECTED_TABLES["misspecification"]
    for g, gain in mis["onehot_gains"].items():
        assert gain == mis["generic_errors"][g] - mis["onehot_errors"][g]
    assert sum(mis["generic_errors"].values()) == mis["generic_total"]
    assert sum(mis["onehot_errors"].values()) == mis["onehot_total"]

    fs = EXPECTED_TABLES["feature_selection"]
    for name in ("h1", "h2"):
        for g, gain in fs[name]["gains"].items():
            assert gain == fs["h0"]["errors"][g] - fs[name]["errors"][g]
        assert fs[name]["overall_gain"] == \
            fs["h0"]["total"] - fs[name]["total"]

    sur = EXPECTED_TABLES["surrogate_outlier"]
    for route in ("zero_one", "hinge"):
        for g, gain in sur[route]["gains"].items():
            assert gain == (sur[route]["generic_errors"][g]
                            - sur[route]["decoupled_errors"][g])

    for key in ("sampling_error", "label_shift"):
        table = EXPECTED_TABLES[key]
        assert sum(table["train_gains"].values()) == \
            table["train_total_gain"]
        assert sum(table["true_gains"].values()) == table["true_total_gain"]


def test_generator_registry():
    assert set(GENERATORS) == {
        "misspecification", "group-effects", "feature-selection",
        "surrogate-outlier", "sampling-error", "label-shift", "planted",
        "exchangeable"}
    assert all(callable(fn) for fn in GENERATORS.values())
