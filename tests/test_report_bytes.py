"""Golden SHA-256s of two small CLI audits, so report bytes cannot drift
unnoticed.

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

# (name, synth arguments, audit arguments, report suffix, exit code,
# SHA-256); exit code 3 marks a significant violation.
AUDITS = [
    ("planted-m4-markdown",
     ["planted", "--m", "4", "--n-per-group", "150"],
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
]


@pytest.mark.parametrize("name,synth,audit,suffix,code,digest", AUDITS,
                         ids=[a[0] for a in AUDITS])
def test_report_bytes_match_golden_digest(name, synth, audit, suffix, code,
                                          digest, tmp_path, capsys):
    data = tmp_path / f"{name}.csv"
    out = tmp_path / f"{name}{suffix}"
    assert main(["synth"] + synth + ["--seed", "3", "--out", str(data)]) == 0
    assert main(["audit", "--data", str(data), "--seed", "3",
                 "--out", str(out)] + audit) == code
    capsys.readouterr()
    text = out.read_bytes()
    if suffix == ".json":
        parsed = json.loads(text)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == \
            text.decode("ascii")
    assert hashlib.sha256(text).hexdigest() == digest
