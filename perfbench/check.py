"""Structural checks on one audit report, independent of its timing.

``report_problems`` takes the report's ``to_jsonable()`` dict, the number
of groups the workload generated, the CLI exit code and the bytes the CLI
wrote, and returns a list of problems (empty when the report passes).
"""

ERROR_RATE_TAG = "error_rate"
RATIONALITY = "rationality"
VIOLATION = "SignificantViolation"
GAIN = "SignificantGain"
INCONCLUSIVE = "Inconclusive"
NOT_TESTABLE = "NotTestable"
VIOLATION_EXIT = 3


def _expected_verdict(r):
    if r["p_raw"] is None:
        return NOT_TESTABLE
    if r["estimate"] == 0 or r["p_adjusted"] > r["alpha"]:
        return INCONCLUSIVE
    return VIOLATION if r["estimate"] < 0 else GAIN


def _result_problems(r):
    where = (f"{r['metric']}/{r['test']}/{r['kind']} "
             f"{r['group']} vs {r['comparator']}")
    problems = []
    for key in ("p_violation", "p_gain", "p_raw", "p_adjusted"):
        p = r[key]
        if p is not None and not 0.0 <= p <= 1.0:
            problems.append(f"{where}: {key}={p} outside [0, 1]")
    if r["p_raw"] is not None:
        want = min(1.0, r["family_size"] * r["p_raw"])
        if r["p_adjusted"] != want:
            problems.append(f"{where}: p_adjusted={r['p_adjusted']} is not "
                            f"min(1, {r['family_size']}*{r['p_raw']})")
    verdict = _expected_verdict(r)
    if r["verdict"] != verdict:
        problems.append(f"{where}: verdict {r['verdict']}, expected "
                        f"{verdict}")
    return problems


def report_problems(report, m, exit_code, written, rendered):
    """Problems found in one audit report; an empty list means it passed.

    Args:
        report: ``FairUseReport.to_jsonable()`` of the audit.
        m: number of groups in the audited data.
        exit_code: what ``fairuse.cli.main`` returned.
        written: bytes the CLI wrote to its ``--out`` file.
        rendered: the report rendered again in the requested format.
    """
    problems = []
    tags = [mk["tag"] for mk in report["metrics"]]
    results = report["results"]
    expected = 0
    for tag in tags:
        routes = ["bootstrap"]
        if tag == ERROR_RATE_TAG:
            routes.append("mcnemar")
        for route in routes:
            group = [r for r in results
                     if r["metric"] == tag and r["test"] == route]
            rational = sum(r["kind"] == RATIONALITY for r in group)
            expected += m * m
            if len(group) != m * m or rational != m:
                problems.append(f"{tag}/{route}: {len(group)} results with "
                                f"{rational} rationality tests, expected "
                                f"{m * m} with {m}")
        rows = report["matrices"][tag]["rows"]
        if len(rows) != m or any("generic" not in row
                                 or len(row["reported"]) != m
                                 for row in rows):
            problems.append(f"{tag}: misreport matrix is not {m} x {m + 1}")
    if len(results) != expected:
        problems.append(f"{len(results)} results, expected {expected}")
    for r in results:
        problems += _result_problems(r)
    violated = any(r["verdict"] == VIOLATION for r in results)
    want_exit = VIOLATION_EXIT if violated else 0
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, expected {want_exit}")
    if written != rendered:
        problems.append("written report differs from the rendered report")
    return problems
