"""What a fresh interpreter imports, and the solvers it loads on demand.

Each test runs a new interpreter. Inside pytest, other tests have
already imported most of scipy, which would hide both a module loaded
too early and one that is never imported where it is used. Neither the
CLI nor a logistic audit loads any scipy module; the hinge and zero-one
trainers load scipy.optimize on their first call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fairuse
from fairuse._exhaustive import train_zero_one
from fairuse._optim import train_hinge
from fairuse.dataset import save_csv
from fairuse.synth import gen_planted_violation

_SRC = str(Path(fairuse.__file__).resolve().parent.parent)

# Run by a fresh interpreter: `fairuse audit` with the arguments given,
# then, on the last line, the exit code and every module loaded, as JSON.
_AUDIT = """
import json, sys
from fairuse.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

# Run by a fresh interpreter: fit both LP-backed trainers on the problem
# read from stdin and print the weights, and whether scipy.optimize was
# loaded before the first fit, as JSON.
_FITS = """
import json, sys
import numpy as np
from fairuse._exhaustive import train_zero_one
from fairuse._optim import train_hinge
loaded = "scipy.optimize" in sys.modules
p = json.load(sys.stdin)
hinge = train_hinge(np.array(p["x1"]), np.array(p["y"]), 0.0)
w, errors = train_zero_one(np.array(p["x_enc"]), np.array(p["y01"]))
print(json.dumps([loaded, hinge.tolist(), w.tolist(), errors]))
"""


def _run_fresh(code, args=(), stdin=""):
    """stdout of `code` run by a new interpreter that imports this fairuse."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          capture_output=True, text=True, env=env,
                          timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _scipy_modules(modules):
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_importing_the_cli_loads_no_scipy():
    modules = json.loads(_run_fresh(
        "import json, sys\n"
        "import fairuse.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"))
    assert "fairuse.cli" in modules
    assert _scipy_modules(modules) == []


def test_logistic_audit_loads_no_scipy(tmp_path):
    data = tmp_path / "planted.csv"
    report = tmp_path / "report.md"
    save_csv(gen_planted_violation(m=4, n_per_group=60, seed=0), data)
    out = _run_fresh(_AUDIT, [
        "audit", "--data", str(data), "--metric", "error", "--metric",
        "auc", "--metric", "ece", "--bootstrap", "100", "--out",
        str(report)])
    code, modules = json.loads(out.splitlines()[-1])
    assert code == 3  # the audit flags a violation
    assert report.stat().st_size > 0
    assert _scipy_modules(modules) == []


def test_lp_trainers_fit_from_a_cold_start():
    rng = np.random.default_rng(0)
    x1 = np.column_stack([rng.normal(size=(40, 2)), np.ones(40)])
    y = np.where(x1[:, 0] + 0.5 * rng.normal(size=40) >= 0.0, 1, -1)
    # Two encoded features on a 3 x 3 grid: the exact route, one LP per
    # candidate labeling.
    x_enc = rng.integers(0, 3, size=(30, 2)).astype(float)
    y01 = np.where(x_enc.sum(axis=1) + rng.normal(size=30) >= 2.0, 1, -1)
    problem = {"x1": x1.tolist(), "y": y.tolist(), "x_enc": x_enc.tolist(),
               "y01": y01.tolist()}
    loaded, hinge, w, errors = json.loads(
        _run_fresh(_FITS, stdin=json.dumps(problem)))
    assert not loaded
    assert hinge == train_hinge(x1, y, 0.0).tolist()
    want_w, want_errors = train_zero_one(x_enc, y01)
    assert w == want_w.tolist()
    assert errors == want_errors


def test_fairuse_audit_names_the_module():
    out = _run_fresh("import fairuse.audit as m\n"
                     "from fairuse.audit import audit\n"
                     "print(m.__name__, m.audit is audit, "
                     "m.MarginTable.__name__)\n")
    assert out.split() == ["fairuse.audit", "True", "MarginTable"]
