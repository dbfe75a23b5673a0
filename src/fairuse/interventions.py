"""Resolve flagged fair-use violations by per-group model reassignment.

Two planners and one advisory pass:

- assign_generic_on_violation: groups whose rationality check failed are
  moved onto the paired generic model; because a rationality violation
  means the generic model was strictly better for that group on the
  evaluation sample, the reassignment strictly improves every reassigned
  group and never worsens any other.
- assign_best_of_three: each group gets the best of generic,
  personalized, and decoupled predictions as ranked on a held-out
  validation split, never on the audit's test split.
- data_minimization: flags groups with no significant signal, attribute
  values whose every cell was reassigned away from personalization, and
  group pairs receiving identical predictions.

All planning is deterministic given the report and tie rules.
"""

import math
from dataclasses import dataclass

from ._jsontext import dumps
from .groups import TRUTHFUL, WITHHELD
# group_risk stays importable from this module for callers that look it
# up here.
from .metrics import ERROR_RATE, MarginTable, group_risk  # noqa: F401
from .models import Strategy

__all__ = [
    "PERSONALIZED", "GENERIC", "DECOUPLED_SOURCE", "Advice",
    "AssignmentPlan", "assign_generic_on_violation",
    "assign_best_of_three", "data_minimization",
]

PERSONALIZED = "personalized"
GENERIC = "generic"
DECOUPLED_SOURCE = "decoupled"

_STRICTNESS = ("point", "significant")


@dataclass(frozen=True)
class Advice:
    """One data-minimization suggestion."""

    kind: str
    subject: str
    rationale: str

    def to_jsonable(self):
        return {"kind": self.kind, "subject": self.subject,
                "rationale": self.rationale}


@dataclass(frozen=True)
class AssignmentPlan:
    """A per-group choice of prediction source with projected risks.

    Risks are the plan metric's values on its evaluation sample (the
    audit test split for the generic plan, the validation split for
    best-of-three, which uses the error rate);
    population risks weight groups by their sample sizes. NaN marks
    groups absent from the evaluation sample.
    """

    metric: str
    strictness: str
    basis: str
    assignments: dict
    baseline_group_risks: dict
    projected_group_risks: dict
    group_sizes: dict
    baseline_population_risk: float
    projected_population_risk: float
    resolved_violations: tuple
    remaining_violations: tuple
    advice: tuple = ()

    @property
    def reassigned(self):
        return tuple(g for g in self.assignments
                     if self.assignments[g] != PERSONALIZED)

    def to_jsonable(self):
        def risks(d):
            return {str(g): (None if math.isnan(v) else float(v))
                    for g, v in d.items()}
        return {
            "metric": self.metric,
            "strictness": self.strictness,
            "basis": self.basis,
            "assignments": {str(g): s for g, s in
                            self.assignments.items()},
            "baseline_group_risks": risks(self.baseline_group_risks),
            "projected_group_risks": risks(self.projected_group_risks),
            "group_sizes": {str(g): n for g, n in
                            self.group_sizes.items()},
            "baseline_population_risk": _num(
                self.baseline_population_risk),
            "projected_population_risk": _num(
                self.projected_population_risk),
            "resolved_violations": [list(v) for v in
                                    self.resolved_violations],
            "remaining_violations": [list(v) for v in
                                     self.remaining_violations],
            "advice": [a.to_jsonable() for a in self.advice],
        }

    def to_json_str(self):
        """The bytes of `json.dumps(self.to_jsonable(), sort_keys=True,
        indent=2)`, written by `_jsontext.dumps`."""
        return dumps(self.to_jsonable())


def _num(v):
    return None if (isinstance(v, float) and math.isnan(v)) else float(v)


def _population(risks, sizes):
    total = 0.0
    weight = 0
    for g, v in risks.items():
        n = sizes.get(g, 0)
        if n and not math.isnan(v):
            total += n * v
            weight += n
    return total / weight if weight else float("nan")


def _attribute_value_advice(space, assignments):
    """Rule: an attribute value whose cells all left personalization."""
    out = []
    for ai, (name, domain) in enumerate(space.attributes):
        for value in domain:
            cells = [c for c in space.cells() if c.values[ai] == value]
            present = [c for c in cells if c in assignments]
            if present and all(assignments[c] != PERSONALIZED
                               for c in present):
                out.append(Advice(
                    kind="attribute-value", subject=f"{name}={value}",
                    rationale=(f"every group with {name}={value} is "
                               "assigned a group-blind model; the other "
                               "group attributes need not be solicited "
                               "for them")))
    return out


def _point_violations(report, metric):
    point = report.points[metric]
    out = [("rationality", g, None) for g in
           point.rationality_violations]
    out += [("envy", g, other) for g, other in point.envy_violations]
    return out


def _violating_groups(report, metric, strictness):
    """Groups whose rationality check failed under the strictness rule."""
    if strictness == "point":
        return set(report.points[metric].rationality_violations)
    from .audit import RATIONALITY, SIGNIFICANT_VIOLATION
    return {r.group for r in report.results
            if r.metric == metric and r.kind == RATIONALITY
            and r.verdict == SIGNIFICANT_VIOLATION}


def _split_resolved(report, metric, assignments):
    resolved = []
    remaining = []
    for kind, g, other in _point_violations(report, metric):
        entry = (kind, str(g), "generic" if other is None else str(other))
        if assignments.get(g) != PERSONALIZED:
            resolved.append(entry)
        else:
            remaining.append(entry)
    return tuple(resolved), tuple(remaining)


def assign_generic_on_violation(report, strictness="point",
                                metric="error_rate"):
    """Reassign every rationality-violating group to the generic model.

    strictness "point" triggers on point-estimate violations (the
    default); "significant" only on Bonferroni-significant ones. The
    returned plan's projected risk is never worse than the baseline for
    any group, in the metric's own direction (a higher AUC is better), and
    strictly improves exactly the reassigned groups, evaluated on the
    audit's test sample.
    """
    if strictness not in _STRICTNESS:
        raise ValueError(f"strictness must be one of {_STRICTNESS}")
    if metric not in report.matrices:
        raise ValueError(f"report has no {metric!r} matrix")
    matrix = report.matrices[metric]
    space = report.space
    violators = _violating_groups(report, metric, strictness)
    # Rationality gains, oriented so that a negative one means the
    # generic model did better, whichever way the metric points.
    rationality = report.points[metric].gain_array[:, 0]
    assignments = {}
    baseline = {}
    projected = {}
    sizes = {}
    for gi, (g, n, row) in enumerate(zip(space.cells(), matrix.n.tolist(),
                                         matrix.values.tolist())):
        sizes[g] = n
        baseline[g] = projected[g] = row[gi + 1]
        assignments[g] = PERSONALIZED
        if g in violators:
            assignments[g] = GENERIC
            projected[g] = row[0]
            # NaN gains (undefined risks) pass both checks.
            assert not rationality[gi] > 0, f"reassignment worsened group {g}"
            assert not (strictness == "point" and rationality[gi] >= 0), (
                f"reassigned group {g} saw no strict improvement")
    resolved, remaining = _split_resolved(report, metric, assignments)
    plan = AssignmentPlan(
        metric=metric, strictness=strictness,
        basis="audit test sample", assignments=assignments,
        baseline_group_risks=baseline, projected_group_risks=projected,
        group_sizes=sizes,
        baseline_population_risk=_population(baseline, sizes),
        projected_population_risk=_population(projected, sizes),
        resolved_violations=resolved, remaining_violations=remaining,
        advice=tuple(_attribute_value_advice(space, assignments)))
    return plan


def assign_best_of_three(report, decoupled, validation,
                         metric="error_rate"):
    """Give each group the best of generic, personalized, or decoupled.

    Selection minimizes each group's validation error rate; ties prefer
    generic, then personalized, then decoupled (fewer solicited
    attributes, then fewer models). Decoupled cells that were empty at
    training time are skipped as candidates. Groups absent from the
    validation split keep their personalized model.
    """
    if decoupled.strategy is not Strategy.DECOUPLED:
        raise ValueError("assign_best_of_three needs a decoupled model")
    if metric != ERROR_RATE.tag:
        raise ValueError("best-of-three selection uses the error rate")
    space = report.space
    skip_cells = set(decoupled.empty_cells)
    personal = MarginTable(report.model, validation)
    separate = MarginTable(decoupled, validation)
    assignments = {}
    baseline = {}
    projected = {}
    sizes = {}
    for g in space.cells():
        own = personal.risk(ERROR_RATE, g, TRUTHFUL)
        sizes[g] = own.n_effective
        baseline[g] = own.value if own.defined else float("nan")
        if not own.defined:
            assignments[g] = PERSONALIZED
            projected[g] = float("nan")
            continue
        candidates = [
            (GENERIC, personal.risk(ERROR_RATE, g, WITHHELD)),
            (PERSONALIZED, own),
        ]
        if g not in skip_cells:
            candidates.append(
                (DECOUPLED_SOURCE, separate.risk(ERROR_RATE, g, TRUTHFUL)))
        usable = [(src, est.value) for src, est in candidates
                  if est.defined]
        best = min(v for _, v in usable)
        source = next(src for src, v in usable if v == best)
        assignments[g] = source
        projected[g] = best
    for g in space.cells():
        if math.isnan(baseline[g]) or math.isnan(projected[g]):
            continue
        assert projected[g] <= baseline[g], (
            f"best-of-three worsened group {g} on validation")
    resolved, remaining = _split_resolved(report, metric, assignments)
    return AssignmentPlan(
        metric=metric, strictness="point",
        basis="held-out validation sample", assignments=assignments,
        baseline_group_risks=baseline, projected_group_risks=projected,
        group_sizes=sizes,
        baseline_population_risk=_population(baseline, sizes),
        projected_population_risk=_population(projected, sizes),
        resolved_violations=resolved, remaining_violations=remaining,
        advice=tuple(_attribute_value_advice(space, assignments)))


def data_minimization(report, plan=None):
    """Advise against soliciting group data that the audit cannot justify.

    Flags (a) groups with no significant gain or harm in any run test,
    (b) attribute values whose every cell was reassigned away from the
    personalized model under `plan`, and (c) group pairs receiving
    identical predictions.
    """
    from .audit import SIGNIFICANT_GAIN, SIGNIFICANT_VIOLATION
    advice = []
    if report.results:
        significant = {r.group for r in report.results
                       if r.verdict in (SIGNIFICANT_GAIN,
                                        SIGNIFICANT_VIOLATION)}
        for g in report.space.cells():
            if g not in significant:
                advice.append(Advice(
                    kind="no-signal", subject=str(g),
                    rationale=("no significant gain or harm was detected "
                               "for this group; soliciting its group "
                               "data is unsupported by the audit")))
    if plan is not None:
        advice.extend(a for a in plan.advice
                      if a.kind == "attribute-value")
    for a, b in report.identical_pairs:
        advice.append(Advice(
            kind="identical-predictions", subject=f"{a} | {b}",
            rationale=("the personalized model assigns identical "
                       "predictions to both groups; one could "
                       "personalize for a single larger category "
                       "instead")))
    return advice
