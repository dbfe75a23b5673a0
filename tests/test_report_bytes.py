"""Golden SHA-256s of small CLI audits and intervention plans, so report
and plan bytes cannot drift unnoticed.

A change that means to alter report bytes updates these digests and says
why. The data is small enough that BLAS takes its one-thread kernels, so
the digests hold at any OPENBLAS_NUM_THREADS. numpy's exp, like BLAS,
picks SIMD kernels by CPU, so another CPU may render the JSON
weights differently in the last bits.
"""

import hashlib
import json

import pytest

from fairuse.cli import main

PLANTED = ["planted", "--m", "4", "--n-per-group", "150"]


def _one_class_cell(path):
    """Label every row of cell 0,0 negative, so that a decoupled fit of
    that cell is single-class and flagged."""
    header, *rows = path.read_text().splitlines()
    rows = [row.rsplit(",", 1)[0] + ",-1" if row.split(",")[2:4] ==
            ["0", "0"] else row for row in rows]
    path.write_text("\n".join([header] + rows) + "\n")


# (name, synth arguments, audit arguments, report suffix, exit code,
# SHA-256); exit code 3 marks a significant violation.
AUDITS = [
    ("planted-m4-markdown",
     PLANTED,
     ["--metric", "error", "--metric", "auc", "--metric", "ece",
      "--bootstrap", "200", "--format", "markdown"],
     ".md", 3,
     "a716a0b8baca8aec64b0843e738b4dd968b363f1b48f62c379e815bc7453c72a"),
    ("exchangeable-m8-json",
     ["exchangeable", "--m", "8", "--n-per-group", "60"],
     ["--train-fraction", "1.0", "--metric", "error", "--bootstrap", "200",
      "--format", "json"],
     ".json", 0,
     "f7c90b6012e8ee1385c77b64199bdd3611dd4462748caca0ce9fffc345d955e2"),
    # AUC and ECE at full precision: the markdown above prints 4
    # decimals, which would hide a last-bit change in a kernel's sums.
    ("planted-m4-metrics-json",
     PLANTED,
     ["--metric", "error", "--metric", "auc", "--metric", "ece",
      "--bootstrap", "200", "--format", "json"],
     ".json", 3,
     "b5726d276c204462c81bd0f11ac984c979718cbc9ebc365f06c42cfd85498826"),
    # In-sample m=8: nine comparators per group in each AUC/ECE draw.
    ("exchangeable-m8-metrics-json",
     ["exchangeable", "--m", "8", "--n-per-group", "60"],
     ["--train-fraction", "1.0", "--metric", "auc", "--metric", "ece",
      "--bootstrap", "200", "--format", "json"],
     ".json", 0,
     "f0e104eab69147f4c8b976d6c65e787d72527d21113b9dd06572fba20d112a9e"),
    # Identical prediction pairs: a group-blind model predicts alike for
    # every group.
    ("planted-m4-generic-markdown", PLANTED,
     ["--strategy", "generic", "--bootstrap", "200", "--format",
      "markdown"],
     ".md", 0,
     "9c11a4cbdd3a8d209b7a515d2a703baf0b4495534dfcd134e939949325a80be6"),
]

# Markdown sections the audits above miss: training flags from a
# single-class decoupled cell, and applicable generalization bounds
# (positive in-sample rationality gains).
ONE_CLASS_AUDIT = (
    ["--train-fraction", "1.0", "--strategy", "decoupled", "--bootstrap",
     "200", "--format", "markdown"],
    "bb7737fb99616def7ebef3e1ed78d3616249dec2bd78768f25e986992ac03317")

# (plan rule, SHA-256) of `fairuse intervene --strategy <rule>` on the
# planted data: the generic plan reassigns one group, best-of-three picks
# each of its three sources and advises on an attribute value.
PLANS = [
    ("generic",
     "cb9c093ebfe678034d23595c6ac90b986ded752452d17352102a0b2d2351121c"),
    ("best3",
     "23c73c37e360afa2df19c4f1b82c03985edcd4390d7f145f55533b6c6af293a4"),
]


# The benchmark's three workloads at seed 0, with the exact synth and
# audit arguments of perfbench/worker.py: (name, synth arguments, audit
# arguments, report suffix, exit code, SHA-256). perfbench/baseline.json
# still holds the digests of the benchmark's first commit (many-groups
# seed 0 there is 94dec05d...), so `perfbench/run.py` prints "CHANGED
# from baseline" on every run and nothing there gates on report bytes;
# until that baseline is re-recorded, these digests do.
WORKLOADS = [
    ("planted-metrics",
     ["planted", "--m", "4", "--n-per-group", "500"],
     ["--metric", "error", "--metric", "auc", "--metric", "ece",
      "--bootstrap", "500", "--format", "markdown"],
     ".md", 3,
     "65c4fa26d2860be9c119528346ed5e999ccfe26bc81acec51b03a2b8c1ae9796"),
    ("many-groups",
     ["exchangeable", "--m", "32", "--n-per-group", "250"],
     ["--train-fraction", "1.0", "--metric", "error", "--bootstrap", "500",
      "--format", "json"],
     ".json", 0,
     "1b42c234e26509eb65fdec40464641e9d5f3d9c45433bd83d91d358a7684ba39"),
    ("large-n",
     ["planted", "--m", "4", "--n-per-group", "12500"],
     ["--metric", "error", "--bootstrap", "2000", "--format", "json"],
     ".json", 3,
     "49847c18dff6d68fe8f859d8d1a8b812187a4af5779635d7d5ce9896778a2f43"),
]


def _synth(tmp_path, name, synth, seed="3"):
    data = tmp_path / f"{name}.csv"
    assert main(["synth"] + synth + ["--seed", seed, "--out", str(data)]) == 0
    return data


@pytest.mark.parametrize("name,synth,audit,suffix,code,digest", AUDITS,
                         ids=[a[0] for a in AUDITS])
def test_report_bytes_match_golden_digest(name, synth, audit, suffix, code,
                                          digest, tmp_path, capsys):
    data = _synth(tmp_path, name, synth)
    out = tmp_path / f"{name}{suffix}"
    assert main(["audit", "--data", str(data), "--seed", "3",
                 "--out", str(out)] + audit) == code
    capsys.readouterr()
    text = out.read_bytes()
    if suffix == ".json":
        parsed = json.loads(text)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == \
            text.decode("ascii")
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize("name,synth,audit,suffix,code,digest", WORKLOADS,
                         ids=[w[0] for w in WORKLOADS])
def test_benchmark_workload_report_bytes(name, synth, audit, suffix, code,
                                         digest, tmp_path, capsys):
    data = _synth(tmp_path, name, synth, seed="0")
    out = tmp_path / f"{name}{suffix}"
    assert main(["audit", "--data", str(data), "--seed", "0",
                 "--out", str(out)] + audit) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_one_class_cell_report_matches_golden_digest(tmp_path, capsys):
    data = _synth(tmp_path, "one-class", PLANTED)
    _one_class_cell(data)
    out = tmp_path / "one-class.md"
    args, digest = ONE_CLASS_AUDIT
    with pytest.warns(UserWarning, match="single-class training data"):
        assert main(["audit", "--data", str(data), "--seed", "3",
                     "--out", str(out)] + args) == 0
    capsys.readouterr()
    text = out.read_bytes()
    assert b"- training flags: single-class training data" in text
    assert b"| no |" in text
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize("rule,digest", PLANS, ids=[p[0] for p in PLANS])
def test_plan_bytes_match_golden_digest(rule, digest, tmp_path, capsys):
    data = _synth(tmp_path, "planted", PLANTED)
    out = tmp_path / f"{rule}.json"
    assert main(["intervene", "--data", str(data), "--seed", "3",
                 "--bootstrap", "200", "--strategy", rule,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_bytes()
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == \
        text.decode("ascii")
    assert hashlib.sha256(text).hexdigest() == digest
