"""The benchmark's span tracer patches fairuse names by string; each must
still name an attribute its owner defines, and a traced audit must count
its tests and write the same report as an untraced one.

perfbench/tracing.py is read as text and executed into a fresh module, so
nothing is written under perfbench/.
"""

import inspect
import types
from pathlib import Path

import fairuse.cli as cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def test_every_traced_site_is_defined_by_its_owner():
    tracing = _load_tracing()
    sites = [site for _, group in tracing.SITES for site in group]
    assert sites
    for site in sites:
        owner, attr = tracing._resolve(site)
        assert attr in owner.__dict__, site


def test_margin_sites_take_rows_as_their_first_argument():
    # The margin-row counter reads args[1]: the x after self.
    tracing = _load_tracing()
    for name, group in tracing.SITES:
        if name != "models.margins":
            continue
        for site in group:
            owner, attr = tracing._resolve(site)
            params = list(inspect.signature(owner.__dict__[attr]).parameters)
            assert params[:2] == ["self", "x"], site


def test_traced_audit_counts_every_test_and_keeps_the_report(tmp_path):
    tracing = _load_tracing()
    data = tmp_path / "planted.csv"
    assert cli.main(["synth", "planted", "--m", "4", "--n-per-group",
                     "40", "--out", str(data)]) == 0

    def audit_bytes(name):
        out = tmp_path / name
        cli.main(["audit", "--data", str(data), "--metric", "error",
                  "--bootstrap", "100", "--format", "json", "--out",
                  str(out)])
        return out.read_bytes()

    untraced = audit_bytes("untraced.json")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = audit_bytes("traced.json")
    finally:
        tracer.uninstall()
    assert traced == untraced
    summary = tracing.audit_summary(tracer.spans, tracer.counts[0])
    assert summary["audit.bootstrap_tests"] == 4 * 4
    assert summary["audit.mcnemar_tests"] == 4 * 4
    assert summary["audit.bootstrap_valid_frac"] == 1.0
