"""In-memory span tracer around the calls into each fairuse module.

A Tracer wraps the public functions of each layer at every name a caller
looks up (``fairuse.audit.metric_value`` as well as
``fairuse.metrics.metric_value``), records one span per call and restores
the originals on ``uninstall``. A span is ``(name, start, end, parent,
audit_id)``; ``parent`` is the index of the enclosing span or -1. Counts
are taken at the same boundaries and kept per audit id. Nothing is written
while tracing: ``write_spans`` dumps the spans once the run is over.

Stdlib only; the fairuse modules are imported lazily by ``install``.
"""

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

# (span name, module attribute sites to patch). A site is "module:attr" for
# a module-level name or "module:Class.attr" for a method. Every site of
# one entry receives the same wrapper around the first site's function.
SITES = (
    ("cli.main", ("fairuse.cli:main",)),
    ("audit.audit", ("fairuse.cli:audit", "fairuse.audit:audit")),
    ("dataset.load_csv", ("fairuse.cli:load_csv",
                          "fairuse.dataset:load_csv")),
    ("dataset.split", ("fairuse.cli:split", "fairuse.dataset:split")),
    ("dataset.split", ("fairuse.dataset:Dataset.cell_indices",)),
    ("models.train_personalized", ("fairuse.audit:train_personalized",
                                   "fairuse.cli:train_personalized",
                                   "fairuse.models:train_personalized")),
    ("optim.train_logistic", ("fairuse.models:train_logistic",
                              "fairuse._optim:train_logistic")),
    ("models.margins", ("fairuse.models:PersonalizedModel.margins",)),
    ("models.margins",
     ("fairuse.models:PersonalizedModel.margins_truthful",)),
    ("metrics.group_risk", ("fairuse.audit:group_risk",
                            "fairuse.metrics:group_risk",
                            "fairuse.interventions:group_risk")),
    ("metrics.metric_value", ("fairuse.audit:metric_value",
                              "fairuse.metrics:metric_value")),
    ("audit.misreport_matrix", ("fairuse.audit:misreport_matrix",)),
    ("audit.bootstrap_test", ("fairuse.audit:bootstrap_test",)),
    ("audit.mcnemar_test", ("fairuse.audit:mcnemar_test",)),
    ("audit.identical_prediction_pairs",
     ("fairuse.audit:identical_prediction_pairs",)),
    ("report.render", ("fairuse.audit:FairUseReport.to_markdown",)),
    ("report.render", ("fairuse.audit:FairUseReport.to_json_str",)),
    ("theory.bound", ("fairuse.theory:rationality_bound",)),
    ("theory.bound", ("fairuse.theory:envy_bound",)),
    ("interventions.data_minimization",
     ("fairuse.interventions:data_minimization",)),
)

# Per-layer metric name -> unit, in the order they are reported.
PER_LAYER_UNITS = {
    "dataset.load_csv_s": "s",
    "dataset.split_s": "s",
    "models.train_s": "s",
    "optim.logistic_fits": "count",
    "optim.logistic_fit_s.max": "s",
    "models.margin_calls": "count",
    "models.margin_rows": "rows",
    "models.margin_s": "s",
    "metrics.group_risk_calls": "count",
    "metrics.group_risk_s": "s",
    "metrics.metric_value_calls": "count",
    "metrics.metric_value_s": "s",
    "audit.matrix_s": "s",
    "audit.bootstrap_tests": "count",
    "audit.bootstrap_s": "s",
    "audit.bootstrap_resampled_rows": "rows",
    "audit.bootstrap_valid_frac": "ratio",
    "audit.mcnemar_tests": "count",
    "audit.mcnemar_s": "s",
    "audit.mcnemar_discordant_max": "rows",
    "audit.mcnemar_discordant_sum": "rows",
    "audit.identical_pairs_s": "s",
    "audit.self_s": "s",
    "report.render_s": "s",
    "report.bytes": "bytes",
    "theory.bound_calls": "count",
    "theory.bound_s": "s",
    "interventions.minimization_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _rows(x):
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _count_margins(tracer, args, kwargs, result):
    tracer.count("margin_rows", _rows(args[1]))


def _count_bootstrap(tracer, args, kwargs, result):
    detail = result.detail
    reps = kwargs.get("reps", 2000)
    if "reps" in detail:
        tracer.count("bootstrap_drawn", detail["reps"])
        tracer.count("bootstrap_valid", detail["reps"]
                     - detail["undefined_reps"])
        tracer.count("bootstrap_resampled_rows", reps * result.n)
    elif "replicates" in detail.get("reason", ""):
        tracer.count("bootstrap_drawn", reps)
        tracer.count("bootstrap_resampled_rows", reps * result.n)


def _count_mcnemar(tracer, args, kwargs, result):
    if "b" in result.detail:
        discordant = result.detail["b"] + result.detail["c"]
        tracer.count("mcnemar_discordant_sum", discordant)
        tracer.maximum("mcnemar_discordant_max", discordant)


def _count_render(tracer, args, kwargs, result):
    tracer.count("report_bytes", len(result.encode("utf-8")))


COUNTERS = {
    "models.margins": _count_margins,
    "audit.bootstrap_test": _count_bootstrap,
    "audit.mcnemar_test": _count_mcnemar,
    "report.render": _count_render,
}


def _resolve(site):
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counts for calls into the patched fairuse names."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.audit_id = 0
        self._stack = []
        self._saved = []

    def count(self, key, value):
        self.counts[self.audit_id][key] += value

    def maximum(self, key, value):
        per_audit = self.counts[self.audit_id]
        per_audit[key] = max(per_audit[key], value)

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.audit_id)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every site in SITES; undo with uninstall()."""
        for name, sites in SITES:
            owner, attr = _resolve(sites[0])
            original = owner.__dict__[attr]
            if isinstance(original, functools.cached_property):
                # Wrap the function the property caches on first access.
                self._saved.append((original, "func", original.func))
                original.func = self.wrap(name, original.func)
                continue
            wrapper = self.wrap(name, original)
            for site in sites:
                owner, attr = _resolve(site)
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_spans(self, path):
        """Write the spans as JSON lines: name, start, end, parent, audit."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, audit_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, audit_id])
                         + "\n")


def self_times(spans):
    """Per-span duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval and their durations add up.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outermost(spans, index):
    """True when no ancestor of span `index` has the same name."""
    name = spans[index][0]
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def audit_summary(spans, counts):
    """Per-layer metrics of the spans and counts of one audit.

    Layer times are inclusive (outermost span of a name, so a layer that
    calls itself is not counted twice); the ``self_s`` metrics and
    ``audit.bootstrap_s`` are self times.
    """
    total = defaultdict(float)
    own_total = defaultdict(float)
    calls = defaultdict(int)
    longest = defaultdict(float)
    own = self_times(spans)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        own_total[name] += own[i]
        longest[name] = max(longest[name], end - start)
        if _outermost(spans, i):
            total[name] += end - start
    drawn = counts.get("bootstrap_drawn", 0)
    return {
        "dataset.load_csv_s": total["dataset.load_csv"],
        "dataset.split_s": total["dataset.split"],
        "models.train_s": total["models.train_personalized"],
        "optim.logistic_fits": calls["optim.train_logistic"],
        "optim.logistic_fit_s.max": longest["optim.train_logistic"],
        "models.margin_calls": calls["models.margins"],
        "models.margin_rows": counts.get("margin_rows", 0),
        "models.margin_s": total["models.margins"],
        "metrics.group_risk_calls": calls["metrics.group_risk"],
        "metrics.group_risk_s": total["metrics.group_risk"],
        "metrics.metric_value_calls": calls["metrics.metric_value"],
        "metrics.metric_value_s": total["metrics.metric_value"],
        "audit.matrix_s": total["audit.misreport_matrix"],
        "audit.bootstrap_tests": calls["audit.bootstrap_test"],
        "audit.bootstrap_s": own_total["audit.bootstrap_test"],
        "audit.bootstrap_resampled_rows":
            counts.get("bootstrap_resampled_rows", 0),
        "audit.bootstrap_valid_frac":
            counts.get("bootstrap_valid", 0) / drawn if drawn else 0.0,
        "audit.mcnemar_tests": calls["audit.mcnemar_test"],
        "audit.mcnemar_s": total["audit.mcnemar_test"],
        "audit.mcnemar_discordant_max":
            counts.get("mcnemar_discordant_max", 0),
        "audit.mcnemar_discordant_sum":
            counts.get("mcnemar_discordant_sum", 0),
        "audit.identical_pairs_s": total["audit.identical_prediction_pairs"],
        "audit.self_s": own_total["audit.audit"],
        "report.render_s": total["report.render"],
        "report.bytes": counts.get("report_bytes", 0),
        "theory.bound_calls": calls["theory.bound"],
        "theory.bound_s": total["theory.bound"],
        "interventions.minimization_s":
            total["interventions.data_minimization"],
        "cli.self_s": own_total["cli.main"],
        "trace.spans": len(spans),
    }


def per_layer(tracer, traced_walls, untraced_walls):
    """Median over audits of each per-layer metric, plus tracing overhead.

    Spans are regrouped by audit id with parent indices rebased, so each
    audit's summary sees only its own tree.
    """
    by_audit = defaultdict(list)
    rebase = {}
    for i, span in enumerate(tracer.spans):
        name, start, end, parent, audit_id = span
        rebase[i] = len(by_audit[audit_id])
        by_audit[audit_id].append(
            (name, start, end, rebase[parent] if parent >= 0 else -1,
             audit_id))
    summaries = [audit_summary(spans, tracer.counts.get(audit_id, {}))
                 for audit_id, spans in sorted(by_audit.items())]
    out = {key: statistics.median(s[key] for s in summaries)
           for key in summaries[0]}
    out["trace.overhead_s"] = (statistics.median(traced_walls)
                               - statistics.median(untraced_walls))
    return out
