"""The names other code depends on: the package's exports and the benchmark's trace hooks.

``perfbench/tracing.py`` wraps functions by name from outside the package.
Renaming or deleting a hooked function does not fail the benchmark; it
prints a "not found, not traced" line and that layer's metrics read 0.
Installing the tracer here turns such a rename into a test failure.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import crosscheck

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves_and_is_removed(capsys):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        missing = [line for line in capsys.readouterr().err.splitlines() if "not traced" in line]
    finally:
        left = tracer.remove()
    assert missing == []
    assert left == []


# Written out so that adding or removing a public name is a visible diff.
PUBLIC_NAMES = [
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


def test_public_names_resolve_and_stay_sorted():
    for name in crosscheck.__all__:
        assert hasattr(crosscheck, name), name
    assert list(crosscheck.__all__) == sorted(crosscheck.__all__)
    assert list(crosscheck.__all__) == PUBLIC_NAMES
