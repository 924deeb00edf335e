"""crosscheck: conflict-aware verification of multi-expert reasoning traces.

Experts plan over a task DAG and report intermediates, confidences, and a
final response; this package gates their traces against constraints and a
provenance-tracked facts store, promotes quorum statements to anchors,
spends a bounded audit budget falsifying only the contested steps, and
synthesizes one auditable answer. Every run writes a replayable audit log.
"""

__version__ = "0.1.0"

from .auditlog import AuditLog, AuditLogEntry, replay
from .baselines import (
    EvalReport,
    evaluate_methods,
    majority_vote,
    pass_at_n,
    run_ablation,
    simple_verification,
)
from .engine import (
    AnchorSet,
    AuditBudget,
    ConflictSet,
    EngineConfig,
    RunResult,
    SynthesisScore,
    anchor,
    conflicts,
    rank_conflicts,
    run_pipeline,
    statements,
    synthesize,
)
from .ensemble import (
    ExpertConfig,
    ExpertOutput,
    HttpBackend,
    ScriptedBackend,
    collect,
)
from .errors import CrosscheckError
from .facts import ConsistencyReport, Fact, FactStore, Note, ToolRecord
from .plandag import PlanDag
from .scenario import Scenario, load_corpus, load_scenario, save_scenario
from .values import Value, boolean, composite, number, quantity, text, values_equal
from .verifiers import (Constraint, GateResult, OperatorRegistry, Verdict, check_response, gate, index_constraints,
                        index_gate)

__all__ = [
    "AnchorSet",
    "AuditBudget",
    "AuditLog",
    "AuditLogEntry",
    "ConflictSet",
    "ConsistencyReport",
    "Constraint",
    "CrosscheckError",
    "EngineConfig",
    "EvalReport",
    "ExpertConfig",
    "ExpertOutput",
    "Fact",
    "FactStore",
    "GateResult",
    "HttpBackend",
    "Note",
    "OperatorRegistry",
    "PlanDag",
    "RunResult",
    "Scenario",
    "ScriptedBackend",
    "SynthesisScore",
    "ToolRecord",
    "Value",
    "Verdict",
    "anchor",
    "boolean",
    "check_response",
    "collect",
    "composite",
    "conflicts",
    "evaluate_methods",
    "gate",
    "index_constraints",
    "index_gate",
    "load_corpus",
    "load_scenario",
    "majority_vote",
    "number",
    "pass_at_n",
    "quantity",
    "rank_conflicts",
    "replay",
    "run_ablation",
    "run_pipeline",
    "save_scenario",
    "simple_verification",
    "statements",
    "synthesize",
    "text",
    "values_equal",
]
