"""Falsification machinery: constraints, the trace gate, verify operators.

Constraints describe what a well-formed result must look like — value
kinds, regex shapes, numeric ranges, unit tags, and consistency with the
verified facts. The gate screens each expert trace against them before
any expensive work: statements that fail are excised together with their
DAG dependents (the preceding valid segments survive), and a trace is
dropped outright when its final response is infeasible or too little of
it remains.

Verify operators are the per-statement falsifiers used during conflict
auditing. They run in registration order — cheap checks first — until one
commits to support or refute; a full pass with no commitment is
inconclusive. Operators are pure with respect to their inputs, and every
non-scripted decision must cite evidence (``tool:``/``fact:``/``anchor:``/
``constraint:`` ids) so verdicts stay auditable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence

from .errors import DuplicateIdError, ParseError, UnknownIdError
from .facts import CONFLICT, CONSISTENT, FactStore, ToolRecord
from .plandag import PlanDag, removal_set
from .values import (
    NUMBER,
    QUANTITY,
    TEXT,
    Value,
    statement_key,
    parse_statement_key,
    values_comparable,
    values_equal,
)

if TYPE_CHECKING:
    from .ensemble import ExpertOutput

SUPPORT = "support"
REFUTE = "refute"
INCONCLUSIVE = "inconclusive"
VERDICTS = (SUPPORT, REFUTE, INCONCLUSIVE)

STEP_SCOPE = "step"
RESPONSE_SCOPE = "response"

# Reserved facts key for response-scope consistency checks.
RESPONSE_KEY = "response"


@dataclass(frozen=True)
class Constraint:
    """A deterministic, side-effect-free admissibility rule.

    ``predicate`` is None only for ``consistency`` constraints, which are
    evaluated against the facts store instead of a pure function.
    """

    id: str
    kind: str  # schema | unit | invariant | consistency
    scope: str  # step | response
    description: str = ""
    step_pattern: str | None = None
    predicate: Callable[[Value], bool] | None = None
    spec: dict | None = None

    def applies_to_step(self, step: str) -> bool:
        return self.scope == STEP_SCOPE and fnmatchcase(step, self.step_pattern or "*")

    def holds(self, value: Value, facts: FactStore | None, key: str) -> bool:
        if self.kind == "consistency":
            if facts is None:
                return True
            return facts.check_consistency((key, value)).verdict != CONFLICT
        assert self.predicate is not None
        return bool(self.predicate(value))


def constraint_from_spec(obj: dict) -> Constraint:
    """Build a constraint from its serialized form.

    Checks: ``range`` (numeric bounds, also applies to quantity
    magnitudes), ``regex`` (full-match on text), ``kind`` (value kind
    equality), ``unit`` (quantity unit tag equality), ``facts``
    (consistency with verified facts).
    """
    if not isinstance(obj, dict):
        raise ParseError(f"constraint spec must be an object, got {type(obj).__name__}")
    check = obj.get("check")
    scope = obj.get("scope", STEP_SCOPE)
    if scope not in (STEP_SCOPE, RESPONSE_SCOPE):
        raise ParseError(f"constraint scope must be step or response, got {scope!r}")
    common = dict(
        id=_spec_text(obj, "id"),
        scope=scope,
        description=obj.get("description", ""),
        step_pattern=_spec_text(obj, "step_pattern") if obj.get("step_pattern") is not None else None,
        spec=obj,
    )
    if check == "range":
        lo = _spec_bound(obj, "min", float("-inf"))
        hi = _spec_bound(obj, "max", float("inf"))

        def in_range(v: Value, lo=lo, hi=hi) -> bool:
            if v.kind == NUMBER:
                return lo <= v.payload <= hi  # type: ignore[operator]
            if v.kind == QUANTITY:
                return lo <= v.payload[0] <= hi  # type: ignore[index]
            return False

        return Constraint(kind="invariant", predicate=in_range, **common)
    if check == "regex":
        try:
            pattern = re.compile(_spec_text(obj, "pattern"))
        except re.error as exc:
            raise ParseError(f"constraint 'pattern' does not compile: {exc}") from exc
        return Constraint(
            kind="schema",
            predicate=lambda v, rx=pattern: v.kind == TEXT and rx.fullmatch(v.payload) is not None,  # type: ignore[arg-type]
            **common,
        )
    if check == "kind":
        expected = _spec_text(obj, "expect")
        return Constraint(kind="schema", predicate=lambda v, k=expected: v.kind == k, **common)
    if check == "unit":
        unit = _spec_text(obj, "unit")
        return Constraint(
            kind="unit",
            predicate=lambda v, u=unit: v.kind == QUANTITY and v.payload[1] == u,  # type: ignore[index]
            **common,
        )
    if check == "facts":
        return Constraint(kind="consistency", predicate=None, **common)
    raise ParseError(f"unknown constraint check {check!r}")


def _spec_text(obj: dict, name: str) -> str:
    value = obj.get(name)
    if not isinstance(value, str):
        raise ParseError(f"constraint {name!r} must be a string, got {value!r}")
    return value


def _spec_bound(obj: dict, name: str, default: float) -> int | float:
    if name not in obj:
        return default
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not -math.inf < value < math.inf:
        raise ParseError(f"range bound {name!r} must be a finite number, got {value!r}")
    return value


def check_response(response: Value, constraints: Sequence[Constraint], facts: FactStore | None = None) -> bool:
    """Admissibility of a candidate response: all response-scope constraints hold."""
    return all(
        c.holds(response, facts, RESPONSE_KEY)
        for c in constraints
        if c.scope == RESPONSE_SCOPE
    )


@dataclass(frozen=True)
class GateResult:
    """Outcome of screening one trace.

    ``trace`` is None exactly when the trace was rejected. ``score`` is the
    fraction of the trace's statements that survive excision (1.0 for a
    statement-free trace). ``failing`` lists the statements that violated a
    check themselves; ``removed`` additionally includes their dependents.
    """

    trace: "ExpertOutput | None"
    score: float
    failing: tuple[str, ...]
    removed: tuple[str, ...]
    response_ok: bool

    @property
    def rejected(self) -> bool:
        return self.trace is None


def gate(
    trace: "ExpertOutput",
    query: str,
    facts: FactStore | None,
    constraints: Sequence[Constraint],
    dag: PlanDag,
    threshold: float = 0.5,
) -> GateResult:
    """Screen a trace against constraints and verified facts.

    A statement fails when any applicable step-scope constraint rejects its
    value or the facts store reports a conflict at its step key. Failing
    statements and their DAG dependents are excised; everything upstream
    stays. The trace as a whole is rejected iff its response is infeasible
    or the surviving fraction falls below ``threshold``.
    """
    del query  # present for interface symmetry; the default gate is query-free
    failing = [
        step
        for step, result in trace.steps.items()
        if not _statement_admissible(step, result.value, facts, constraints)
    ]
    removed_all = removal_set(dag, failing)
    removed = tuple(sorted(s for s in trace.steps if s in removed_all))
    keep = {s for s in trace.steps if s not in removed_all}
    total = len(trace.steps)
    score = len(keep) / total if total else 1.0
    response_ok = check_response(trace.response, constraints, facts)
    if not response_ok or score < threshold:
        return GateResult(None, score, tuple(sorted(failing)), removed, response_ok)
    return GateResult(trace.restricted_to(keep), score, tuple(sorted(failing)), removed, response_ok)


def _statement_admissible(
    step: str, value: Value, facts: FactStore | None, constraints: Sequence[Constraint]
) -> bool:
    """Every applicable step constraint holds and the facts report no conflict.

    Constraints run in order and stop at the first failure. Every
    consistency constraint makes the same ``check_consistency((step, value))``
    call as the final facts check, so the store is asked at most once.
    """
    facts_checked = False
    for c in constraints:
        if not c.applies_to_step(step) or (facts_checked and c.kind == "consistency"):
            continue
        if not c.holds(value, facts, step):
            return False
        facts_checked = facts_checked or c.kind == "consistency"
    if facts is None or facts_checked:
        return True
    return facts.check_consistency((step, value)).verdict != CONFLICT


# --- verify operators ---------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    value: str
    evidence: tuple[str, ...] = ()
    cost: int = 1


@dataclass
class VerifyContext:
    """Everything an operator may consult, engine-agnostic.

    ``anchors`` maps step -> already-trusted value; ``provenance`` carries
    the tool record ids backing the statement under test; ``tool_runner``
    re-executes a tool by (name, params) and raises UnknownIdError when the
    invocation is not scripted.
    """

    anchors: Mapping[str, Value] = field(default_factory=dict)
    facts: FactStore | None = None
    records: Mapping[str, ToolRecord] = field(default_factory=dict)
    tool_runner: Callable[[str, dict], Value] | None = None
    constraints: Sequence[Constraint] = ()
    provenance: tuple[str, ...] = ()


class VerifyOperator(Protocol):
    op_id: str
    scripted: bool

    def examine(self, step: str, value: Value, ctx: VerifyContext) -> Verdict: ...


class OperatorRegistry:
    """Ordered collection of falsification operators.

    Registration order is the invocation order and is part of the
    reproducibility contract: register cheap checks before expensive ones.
    """

    def __init__(self) -> None:
        self._ops: list[VerifyOperator] = []

    def register(self, operator: VerifyOperator) -> "OperatorRegistry":
        if any(op.op_id == operator.op_id for op in self._ops):
            raise DuplicateIdError(f"operator {operator.op_id!r} already registered")
        self._ops.append(operator)
        return self

    @property
    def order(self) -> tuple[str, ...]:
        return tuple(op.op_id for op in self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def verify(
        self,
        statement: tuple[str, Value],
        ctx: VerifyContext,
        on_error: Callable[[str, str], None] | None = None,
    ) -> Verdict:
        """Apply operators in order until one commits; cost counts invocations.

        A crashing operator is reported through ``on_error`` and treated as
        inconclusive, as is any non-scripted commitment that arrives without
        evidence (verdicts must be auditable).
        """
        step, value = statement
        invoked = 0
        for op in self._ops:
            invoked += 1
            try:
                verdict = op.examine(step, value, ctx)
            except Exception as exc:  # operator crash is data, not fatal
                if on_error is not None:
                    on_error(op.op_id, f"{type(exc).__name__}: {exc}")
                continue
            if verdict.value == INCONCLUSIVE:
                continue
            if not verdict.evidence and not getattr(op, "scripted", False):
                if on_error is not None:
                    on_error(op.op_id, "discarded evidence-free verdict")
                continue
            return replace(verdict, cost=invoked)
        return Verdict(INCONCLUSIVE, (), invoked)


class ConstraintCheckOperator:
    """Refutes statements that violate an applicable step constraint."""

    op_id = "constraints"
    scripted = False

    def __init__(self, constraints: Sequence[Constraint]) -> None:
        self._constraints = tuple(constraints)

    def examine(self, step: str, value: Value, ctx: VerifyContext) -> Verdict:
        for c in self._constraints:
            if c.applies_to_step(step) and not c.holds(value, ctx.facts, step):
                return Verdict(REFUTE, (f"constraint:{c.id}",))
        return Verdict(INCONCLUSIVE, ())


class AnchorConsistencyOperator:
    """Supports a statement that matches an existing anchor; never vetoes."""

    op_id = "anchors"
    scripted = False

    def examine(self, step: str, value: Value, ctx: VerifyContext) -> Verdict:
        anchored = ctx.anchors.get(step)
        if anchored is not None and values_equal(anchored, value):
            return Verdict(SUPPORT, (f"anchor:{statement_key(step, anchored)}",))
        return Verdict(INCONCLUSIVE, ())


class FactsConsistencyOperator:
    """Decides from the verified facts: agreement supports, conflict refutes."""

    op_id = "facts"
    scripted = False

    def examine(self, step: str, value: Value, ctx: VerifyContext) -> Verdict:
        if ctx.facts is None:
            return Verdict(INCONCLUSIVE, ())
        report = ctx.facts.check_consistency((step, value))
        if report.verdict == CONFLICT:
            return Verdict(REFUTE, tuple(f"fact:{i}" for i in report.conflicting_fact_ids))
        if report.verdict == CONSISTENT:
            agreeing = tuple(
                f"fact:{f.id}"
                for f in ctx.facts.verified_facts()
                if f.key == step and values_equal(f.value, value)
            )
            return Verdict(SUPPORT, agreeing)
        return Verdict(INCONCLUSIVE, ())


class CrossExecutionOperator:
    """Re-runs the statement's provenance tools and compares outcomes."""

    op_id = "cross-exec"
    scripted = False

    def examine(self, step: str, value: Value, ctx: VerifyContext) -> Verdict:
        if ctx.tool_runner is None:
            return Verdict(INCONCLUSIVE, ())
        for record_id in ctx.provenance:
            record = ctx.records.get(record_id)
            if record is None:
                continue
            try:
                outcome = ctx.tool_runner(record.tool_name, record.params)
            except UnknownIdError:
                continue
            if values_equal(outcome, value):
                return Verdict(SUPPORT, (f"tool:{record_id}",))
            if values_comparable(outcome, value):
                return Verdict(REFUTE, (f"tool:{record_id}",))
        return Verdict(INCONCLUSIVE, ())


class ScriptedTableOperator:
    """Verdicts looked up from a scenario-supplied table; desk-scale oracle."""

    op_id = "scripted"
    scripted = True

    def __init__(self, table: Mapping[str, str]) -> None:
        self._entries: list[tuple[str, Value, str]] = []
        for key in sorted(table):
            verdict = table[key]
            if verdict not in VERDICTS:
                raise ParseError(f"verdict table maps {key!r} to unknown verdict {verdict!r}")
            step, value = parse_statement_key(key)
            self._entries.append((step, value, verdict))

    def examine(self, step: str, value: Value, ctx: VerifyContext) -> Verdict:
        for entry_step, entry_value, verdict in self._entries:
            if entry_step == step and values_equal(entry_value, value):
                return Verdict(verdict, ())
        return Verdict(INCONCLUSIVE, ())


def default_registry(
    constraints: Sequence[Constraint] = (),
    verdict_table: Mapping[str, str] | None = None,
) -> OperatorRegistry:
    """The standard operator stack, cheapest first."""
    registry = OperatorRegistry()
    registry.register(ConstraintCheckOperator(constraints))
    registry.register(AnchorConsistencyOperator())
    registry.register(FactsConsistencyOperator())
    registry.register(CrossExecutionOperator())
    if verdict_table is not None:
        registry.register(ScriptedTableOperator(verdict_table))
    return registry
