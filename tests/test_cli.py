"""End-to-end command-line tests: exit codes, files, and determinism."""

import copy
import csv
import json
import runpy

import numpy as np
import pytest

from fairuse.audit import FairUseReport
from fairuse.cli import main
from fairuse.dataset import Dataset, load_csv, save_csv, split
from fairuse.groups import GroupSpace
from fairuse.replicate import diff_tables
from fairuse.synth import EXPECTED_TABLES

# CLI kind -> key into the frozen expectation tables.
SIDECAR_KEYS = {
    "misspecification": "misspecification",
    "group-effects": "group_specific_effects",
    "feature-selection": "feature_selection",
    "surrogate-outlier": "surrogate_outlier",
    "sampling-error": "sampling_error",
    "label-shift": "label_shift",
}


@pytest.fixture(scope="module")
def mis_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "mis.csv"
    assert main(["synth", "misspecification", "--out", str(path)]) == 0
    return str(path)


def test_no_subcommand_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("audit", "synth", "intervene", "replicate-paper"):
        assert command in out


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("fairuse ")


@pytest.mark.parametrize("kind", sorted(SIDECAR_KEYS))
def test_synth_fixed_kind_writes_csv_and_expectations(kind, tmp_path,
                                                      capsys):
    out = tmp_path / "ds.csv"
    assert main(["synth", kind, "--out", str(out)]) == 0
    ds = load_csv(str(out))
    assert ds.n > 0
    printed = capsys.readouterr().out
    assert f"wrote {out}" in printed
    sidecar = json.loads((tmp_path / "ds.csv.expected.json").read_text())
    assert diff_tables(EXPECTED_TABLES[SIDECAR_KEYS[kind]], sidecar) == []
    if kind in ("sampling-error", "label-shift"):
        truth_path = tmp_path / "ds_truth.csv"
        assert str(truth_path) in printed
        truth = load_csv(str(truth_path))
        assert truth.n > 0


@pytest.mark.parametrize("kind", ("planted", "exchangeable"))
def test_synth_randomized_kind_is_seeded(kind, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        assert main(["synth", kind, "--out", str(out),
                     "--n-per-group", "30", "--seed", "7"]) == 0
    assert first.read_bytes() == second.read_bytes()
    ds = load_csv(str(first))
    assert ds.n == 120
    assert len(ds.space.cells()) == 4
    assert not (tmp_path / "a.csv.expected.json").exists()


# The generators' own defaults: 500 and 250 rows per group, four groups.
@pytest.mark.parametrize("kind, rows", (("planted", 2000),
                                        ("exchangeable", 1000)))
def test_synth_randomized_kind_default_size(kind, rows, tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["synth", kind, "--out", str(out)]) == 0
    assert f"({rows} rows)" in capsys.readouterr().out
    assert load_csv(str(out)).n == rows


def test_synth_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "exchangeable", "--n-per-group", "20"]) == 0
    assert (tmp_path / "exchangeable.csv").exists()


def test_synth_rejects_out_of_range_gap(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    assert main(["synth", "planted", "--out", str(out),
                 "--gap", "0.5"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_audit_requires_exactly_one_data_source(capsys):
    assert main(["audit"]) == 1
    assert "either --data or both" in capsys.readouterr().err
    assert main(["audit", "--data", "a.csv", "--train", "b.csv"]) == 1
    capsys.readouterr()


def test_audit_missing_file_is_reported(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert main(["audit", "--data", missing]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_audit_rejects_bad_train_fraction(mis_csv, capsys):
    assert main(["audit", "--data", mis_csv,
                 "--train-fraction", "1.5"]) == 1
    assert "(0, 1]" in capsys.readouterr().err


def test_audit_refuses_a_repeated_metric(tmp_path, capsys):
    # A repeated --metric would double each of its Bonferroni families,
    # and so every p_adjusted, and list the metric twice in the report.
    path = tmp_path / "planted.csv"
    assert main(["synth", "planted", "--m", "4", "--n-per-group", "50",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert main(["audit", "--data", str(path), "--metric", "error",
                 "--metric", "error", "--bootstrap", "100", "--format",
                 "json", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: metric 'error_rate' is given 2 times\n"
    assert not out.exists()


def test_bad_train_fraction_is_reported_before_reading_data(tmp_path,
                                                            capsys):
    missing = str(tmp_path / "nope.csv")
    assert main(["audit", "--data", missing,
                 "--train-fraction", "0"]) == 1
    assert "--train-fraction must lie in (0, 1]" in capsys.readouterr().err


def test_audit_zero_one_refuses_beyond_exact_size(tmp_path, capsys):
    path = str(tmp_path / "planted.csv")
    assert main(["synth", "planted", "--n-per-group", "20",
                 "--out", path]) == 0
    capsys.readouterr()
    code = main(["audit", "--data", path, "--train-fraction", "1.0",
                 "--loss", "zero-one", "--l2", "0", "--bootstrap", "100"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: exact 0-1 training handles at most 14")


def test_audit_reports_a_fit_that_does_not_converge(tmp_path, capsys):
    # Features at 1e20 scale: the trainer's absolute gradient tolerance
    # is out of reach, and the CLI says so in one line.
    path = tmp_path / "planted.csv"
    assert main(["synth", "planted", "--n-per-group", "50",
                 "--out", str(path)]) == 0
    ds = load_csv(str(path))
    save_csv(Dataset(ds.features * 1e20, ds.labels, ds.groups, ds.space,
                     ds.feature_names), str(path))
    capsys.readouterr()
    assert main(["audit", "--data", str(path), "--train-fraction", "1.0",
                 "--bootstrap", "100"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: logistic trainer stopped")


def test_audit_splits_a_cell_whose_rows_have_one_label(tmp_path, capsys):
    # Planted data at 50 rows per group has a cell with no positive row;
    # the default split keeps it as one stratum.
    path = tmp_path / "planted.csv"
    assert main(["synth", "planted", "--n-per-group", "50", "--seed", "0",
                 "--out", str(path)]) == 0
    ds = load_csv(str(path))
    cell = ds.space.cells()[0]
    assert set(ds.labels[ds.rows_for(cell)].tolist()) == {-1}
    capsys.readouterr()
    assert main(["audit", "--data", str(path), "--bootstrap", "100"]) == 0


def test_audit_point_mode_flags_reference_violation(mis_csv, capsys):
    code = main(["audit", "--data", mis_csv, "--train-fraction", "1.0",
                 "--mode", "point", "--bootstrap", "200"])
    assert code == 3
    assert "f,y" in capsys.readouterr().out


def test_audit_significant_mode_flags_reference_violation(mis_csv,
                                                          capsys):
    code = main(["audit", "--data", mis_csv, "--train-fraction", "1.0",
                 "--mode", "significant", "--bootstrap", "200"])
    assert code == 3
    capsys.readouterr()


def test_audit_generic_strategy_passes(mis_csv, capsys):
    code = main(["audit", "--data", mis_csv, "--train-fraction", "1.0",
                 "--strategy", "generic", "--mode", "point",
                 "--bootstrap", "200"])
    assert code == 0
    capsys.readouterr()


def test_audit_json_report(mis_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["audit", "--data", mis_csv, "--train-fraction", "1.0",
                 "--bootstrap", "200", "--format", "json",
                 "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().out == f"wrote {out}\n"
    payload = json.loads(out.read_text())
    assert payload["strategy"] == "onehot"
    assert payload["has_point_violation"] is True
    assert len(payload["results"]) == 32


def test_audit_csv_report(mis_csv, tmp_path):
    out = tmp_path / "report.csv"
    code = main(["audit", "--data", mis_csv, "--train-fraction", "1.0",
                 "--bootstrap", "200", "--format", "csv",
                 "--out", str(out)])
    assert code == 3
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "test", "kind", "group", "comparator",
                       "n", "estimate", "p_raw", "p_adjusted",
                       "family_size", "verdict"]
    assert len(rows) == 1 + 32


def test_audit_csv_report_round_trips_quotes_and_commas(tmp_path):
    space = GroupSpace((("g", ('a"b', "c,d")),))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(80, 2))
    y = np.where(x[:, 0] + rng.normal(size=80) >= 0.0, 1, -1)
    data = tmp_path / "quoted.csv"
    save_csv(Dataset(x, y, tuple(space.cells()[i % 2] for i in range(80)),
                     space), str(data))
    assert [str(g) for g in load_csv(str(data)).space.cells()] == \
        ['a"b', "c,d"]
    out = tmp_path / "report.csv"
    assert main(["audit", "--data", str(data), "--train-fraction", "1.0",
                 "--bootstrap", "100", "--format", "csv",
                 "--out", str(out)]) in (0, 3)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["group"] for r in rows} == {'a"b', "c,d"}
    assert {r["comparator"] for r in rows} == {'a"b', "c,d", "generic"}


def test_audit_refuses_commas_in_values_of_two_attributes(tmp_path, capsys):
    # Cells ("1", "2,3") and ("1,2", "3") would both be labelled "1,2,3",
    # and the JSON report's per-row `reported` dicts would drop one.
    rng = np.random.default_rng(0)
    data = tmp_path / "commas.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "g:a", "g:b", "y"])
        for a in ("1", "1,2"):
            for b in ("3", "2,3"):
                for x in rng.normal(size=(60, 2)).tolist():
                    writer.writerow(x + [a, b, 1 if x[0] >= 0 else -1])
    out = tmp_path / "report.json"
    assert main(["audit", "--data", str(data), "--train-fraction", "1.0",
                 "--bootstrap", "100", "--format", "json",
                 "--out", str(out)]) == 1
    assert "value '1,2' of attribute 'a'" in capsys.readouterr().err
    assert not out.exists()


def test_audit_csv_leaves_undefined_numbers_empty(tmp_path):
    # Group "a" holds positives only, so its AUC is undefined and every
    # test of a's rows is NotTestable, with no estimate or p-value.
    space = GroupSpace((("g", ("a", "b")),))
    rng = np.random.default_rng(2)
    x = rng.normal(size=(80, 2))
    groups = tuple(space.cells()[i % 2] for i in range(80))
    y = np.where(x[:, 0] + rng.normal(size=80) >= 0.0, 1, -1)
    y[::2] = 1
    data = tmp_path / "one-label.csv"
    save_csv(Dataset(x, y, groups, space), str(data))
    out = tmp_path / "report.csv"
    assert main(["audit", "--data", str(data), "--train-fraction", "1.0",
                 "--metric", "auc", "--bootstrap", "100", "--format", "csv",
                 "--out", str(out)]) in (0, 3)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]
    assert all(len(r) == len(header) for r in rows)
    untestable = [r for r in body if r["group"] == "a"]
    assert len(body) == 4 and len(untestable) == 2
    for r in untestable:
        assert r["verdict"] == "NotTestable"
        assert r["estimate"] == r["p_raw"] == r["p_adjusted"] == ""
    assert all(r["estimate"] != "" for r in body if r["group"] == "b")


def test_audit_json_to_stdout_equals_the_written_file(mis_csv, tmp_path,
                                                      capsys, monkeypatch):
    renders = []
    real = FairUseReport.to_json_str

    def counted(report):
        renders.append(report)
        return real(report)

    monkeypatch.setattr(FairUseReport, "to_json_str", counted)
    argv = ["audit", "--data", mis_csv, "--train-fraction", "1.0",
            "--bootstrap", "100", "--format", "json"]
    main(argv)
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    main(argv + ["--out", str(out)])
    capsys.readouterr()
    assert printed.endswith("}\n")
    assert printed.encode("utf-8") == out.read_bytes()
    assert len(renders) == 2


def test_audit_report_bytes_are_deterministic(mis_csv, tmp_path, capsys):
    paths = (tmp_path / "a.json", tmp_path / "b.json")
    for path in paths:
        code = main(["audit", "--data", mis_csv, "--train-fraction",
                     "1.0", "--bootstrap", "200", "--format", "json",
                     "--out", str(path)])
        assert code == 3
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_audit_data_split_equals_train_and_test_files(tmp_path, capsys):
    data = tmp_path / "planted.csv"
    assert main(["synth", "planted", "--n-per-group", "60", "--seed", "2",
                 "--out", str(data)]) == 0
    train, test = split(load_csv(str(data)), 0.8, 5)
    save_csv(train, str(tmp_path / "a.csv"))
    save_csv(test, str(tmp_path / "b.csv"))
    runs = []
    for source in (["--data", str(data)],
                   ["--train", str(tmp_path / "a.csv"),
                    "--test", str(tmp_path / "b.csv")]):
        out = tmp_path / f"report-{len(runs)}.json"
        code = main(["audit", *source, "--seed", "5", "--bootstrap", "200",
                     "--format", "json", "--out", str(out)])
        runs.append((code, out.read_bytes()))
    capsys.readouterr()
    assert runs[0][0] in (0, 3)
    assert runs[0] == runs[1]
    report = json.loads(runs[0][1])
    assert not report["train_equals_test"]
    assert report["test_tally"]["total"] == test.n


def test_audit_train_without_test_is_usage_error(tmp_path, capsys):
    path = str(tmp_path / "a.csv")
    assert main(["synth", "planted", "--n-per-group", "20",
                 "--out", path]) == 0
    capsys.readouterr()
    assert main(["audit", "--train", path]) == 1
    assert "--train and --test must be given together" in \
        capsys.readouterr().err


def test_intervene_generic_reassigns_harmed_group(mis_csv, tmp_path,
                                                  capsys):
    out = tmp_path / "plan.json"
    code = main(["intervene", "--data", mis_csv, "--train-fraction",
                 "1.0", "--bootstrap", "200", "--strictness", "point",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    plan = json.loads(out.read_text())
    assert plan["basis"] == "audit test sample"
    assert plan["assignments"]["f,y"] == "generic"
    kept = sorted(g for g, s in plan["assignments"].items()
                  if s == "personalized")
    assert kept == ["f,o", "m,o", "m,y"]
    assert plan["projected_group_risks"]["f,y"] == 0.0
    assert len(plan["resolved_violations"]) == 4
    assert len(plan["remaining_violations"]) == 3


def test_intervene_encoding_flag_selects_model(mis_csv, tmp_path,
                                               capsys):
    out = tmp_path / "plan.json"
    code = main(["intervene", "--data", mis_csv, "--train-fraction",
                 "1.0", "--encoding", "generic", "--bootstrap", "200",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    plan = json.loads(out.read_text())
    assert set(plan["assignments"].values()) == {"personalized"}
    assert plan["resolved_violations"] == []


def test_intervene_best_of_three_smoke(tmp_path, capsys):
    data = tmp_path / "null.csv"
    assert main(["synth", "exchangeable", "--out", str(data),
                 "--n-per-group", "60", "--seed", "1"]) == 0
    out = tmp_path / "plan.json"
    code = main(["intervene", "--data", str(data), "--train-fraction",
                 "1.0", "--strategy", "best3",
                 "--validation-fraction", "0.25", "--bootstrap", "200",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    plan = json.loads(out.read_text())
    assert plan["basis"] == "held-out validation sample"
    assert len(plan["assignments"]) == 4
    assert set(plan["assignments"].values()) <= {
        "generic", "personalized", "decoupled"}


def test_intervene_best_of_three_in_sample_never_audits_validation_rows(
        tmp_path, capsys, monkeypatch):
    data = tmp_path / "null.csv"
    assert main(["synth", "exchangeable", "--out", str(data),
                 "--n-per-group", "60", "--seed", "1"]) == 0
    import fairuse.cli as cli
    audited = []
    validated = []
    real_audit = cli.audit
    real_assign = cli.assign_best_of_three

    def capture_audit(train, test, *args, **kwargs):
        audited.append((train, test))
        return real_audit(train, test, *args, **kwargs)

    def capture_assign(report, decoupled, validation, *args, **kwargs):
        validated.append(validation)
        return real_assign(report, decoupled, validation, *args, **kwargs)

    monkeypatch.setattr(cli, "audit", capture_audit)
    monkeypatch.setattr(cli, "assign_best_of_three", capture_assign)
    code = main(["intervene", "--data", str(data), "--train-fraction",
                 "1.0", "--strategy", "best3",
                 "--validation-fraction", "0.25", "--bootstrap", "200",
                 "--out", str(tmp_path / "plan.json")])
    assert code == 0
    capsys.readouterr()
    (train, test), = audited
    validation, = validated
    assert test.n + validation.n == load_csv(str(data)).n
    assert train.n == test.n


def test_intervene_rejects_bad_validation_fraction(mis_csv, capsys):
    code = main(["intervene", "--data", mis_csv, "--strategy", "best3",
                 "--validation-fraction", "1.0"])
    assert code == 1
    assert "(0, 1)" in capsys.readouterr().err


def test_replicate_paper_bundle(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert main(["replicate-paper", "--out", str(bundle)]) == 0
    out = capsys.readouterr().out
    kinds = sorted(SIDECAR_KEYS.values())
    status_lines = [line for line in out.splitlines()
                    if line.endswith(": ok")]
    assert [line.split(":")[0] for line in status_lines] == kinds
    assert "MISMATCH" not in out
    assert f"bundle written to {bundle}" in out
    for kind in kinds:
        assert (bundle / f"{kind}.csv").exists()
    for extra in ("sampling_error_truth.csv", "label_shift_truth.csv",
                  "expected.json", "observed.json", "diffs.txt"):
        assert (bundle / extra).exists()
    assert (bundle / "diffs.txt").read_text() == ""
    observed = json.loads((bundle / "observed.json").read_text())
    assert diff_tables(EXPECTED_TABLES, observed) == []



def test_replicate_paper_mismatch_exits_4_and_lists_the_diff(
        tmp_path, capsys, monkeypatch):
    import fairuse.replicate as replicate_module
    expected = copy.deepcopy(EXPECTED_TABLES)
    expected["misspecification"]["generic_total"] += 1
    monkeypatch.setattr(replicate_module, "EXPECTED_TABLES", expected)
    assert main(["replicate-paper"]) == 4
    assert "bundle written" not in capsys.readouterr().out
    bundle = tmp_path / "bundle"
    assert main(["replicate-paper", "--out", str(bundle)]) == 4
    out = capsys.readouterr().out
    assert "misspecification: MISMATCH" in out
    diffs = (bundle / "diffs.txt").read_text().splitlines()
    assert len(diffs) == 1
    assert diffs[0].startswith("misspecification/generic_total: expected")
    assert f"  {diffs[0]}" in out.splitlines()


def test_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["fairuse", "--version"])
    with pytest.warns(RuntimeWarning, match="fairuse.cli"):
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("fairuse.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("fairuse ")

def test_diff_tables_names_the_failing_cell():
    expected = {"a": {"b": [1, 2]}, "c": 3}
    assert diff_tables(expected, {"a": {"b": (1, 2)}, "c": 3}) == []
    assert diff_tables(expected, {"a": {"b": [1, 5]}, "c": 3}) == [
        "a/b: expected [1, 2], got [1, 5]"]
    assert diff_tables(expected, {"c": 3}) == ["a: missing from observed"]
    assert diff_tables(expected, {"a": {"b": [1, 2]}, "c": 3, "d": 9}) \
        == ["d: unexpected key"]


def test_diff_tables_on_perturbed_reference_table():
    mutated = copy.deepcopy(EXPECTED_TABLES)
    mutated["misspecification"]["generic_total"] += 1
    diffs = diff_tables(EXPECTED_TABLES, mutated)
    assert len(diffs) == 1
    assert diffs[0].startswith("misspecification/generic_total")
