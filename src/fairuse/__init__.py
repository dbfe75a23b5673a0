"""Audit personalized classifiers for group-level fair use.

A classifier personalized with categorical group attributes makes fair
use of them when every group is better off reporting truthfully than
opting out (rationality) and than misreporting as any other group
(envy-freeness). This package trains paired generic and personalized
models, evaluates the full misreport matrix, attaches exact and
bootstrap significance tests with per-family correction, checks
sample-size generalization bounds, and plans per-group model
reassignment when violations appear.

The name `fairuse.audit` is the module; the audit entry point is
`fairuse.audit.audit`.
"""

from .audit import (AuditConfig, FairUseReport, HypothesisResult,
                    MisreportMatrix, PointSummary, bonferroni,
                    bootstrap_replicates, bootstrap_test,
                    check_fair_use_point, identical_prediction_pairs,
                    mcnemar_test, misreport_matrix)
from .dataset import (CsvSchema, Dataset, GroupTally, load_csv,
                      loads_csv, save_csv, split, tally)
from .groups import (ALL, TRUTHFUL, WITHHELD, DomainError, GroupId,
                     GroupSpace)
from .interventions import (Advice, AssignmentPlan,
                            assign_best_of_three,
                            assign_generic_on_violation,
                            data_minimization)
from .metrics import (AUC, ECE, ERROR_RATE, MetricKind, RiskEstimate,
                      group_risk, metric_from_name)
from .models import (ConvergenceError, ExhaustiveSizeError, LinearModel,
                     PersonalizedModel, Strategy, TrainConfig,
                     as_strategy, predict, train_generic,
                     train_personalized, train_zero_one_exhaustive)
from .theory import (BoundInputs, BoundVerdict, Prop2Check,
                     check_optout, check_prop2_premise, envy_bound,
                     rationality_bound, trained_loss,
                     trained_loss_matrix, vc_linear)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ALL", "TRUTHFUL", "WITHHELD", "DomainError", "GroupId",
    "GroupSpace",
    "CsvSchema", "Dataset", "GroupTally", "load_csv", "loads_csv",
    "save_csv", "split", "tally",
    "AUC", "ECE", "ERROR_RATE", "MetricKind", "RiskEstimate",
    "group_risk", "metric_from_name",
    "ConvergenceError", "ExhaustiveSizeError", "LinearModel",
    "PersonalizedModel", "Strategy", "TrainConfig", "as_strategy",
    "predict", "train_generic", "train_personalized",
    "train_zero_one_exhaustive",
    "AuditConfig", "FairUseReport", "HypothesisResult",
    "MisreportMatrix", "PointSummary", "bonferroni",
    "bootstrap_replicates", "bootstrap_test", "check_fair_use_point",
    "identical_prediction_pairs", "mcnemar_test", "misreport_matrix",
    "BoundInputs", "BoundVerdict", "Prop2Check", "check_optout",
    "check_prop2_premise", "envy_bound", "rationality_bound",
    "trained_loss", "trained_loss_matrix", "vc_linear",
    "Advice", "AssignmentPlan", "assign_best_of_three",
    "assign_generic_on_violation", "data_minimization",
]
