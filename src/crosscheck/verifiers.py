"""Falsification machinery: constraints, the trace gate, verify operators.

Constraints describe what a well-formed result must look like — value
kinds, regex shapes, numeric ranges, unit tags, and consistency with the
verified facts. The gate screens each expert trace against them before
any expensive work: statements that fail are excised together with their
DAG dependents (the preceding valid segments survive), and a trace is
dropped outright when its final response is infeasible or too little of
it remains. The checks are decided once per run for each value class of
the run's statement index, not for each statement.

The gate is the only place that decides admissibility, and the only one
that reads the verified facts: every value the audit sees already passed
it. Verify operators are the per-statement falsifiers used during
conflict auditing. They run in registration order — cheap checks first
— until one commits to support or refute; a full pass with no commitment
is inconclusive. Each operator is built once per run with the evidence
it decides from. Operators are pure with respect to their inputs, and
every non-scripted decision must cite evidence (``tool:`` ids) so
verdicts stay auditable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Protocol, Sequence

from .errors import DuplicateIdError, ParseError, UnknownIdError, UnknownStepError
from .facts import Fact, FactStore, conflicting_fact_ids
from .plandag import PlanDag, removal_set
from .values import (
    NUMBER,
    QUANTITY,
    TEXT,
    Value,
    shared_text,
    values_comparable,
    values_equal,
)

if TYPE_CHECKING:
    from .ensemble import ExpertOutput, StatementIndex

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

    ``predicate`` is None exactly for a consistency (``facts``)
    constraint, which is evaluated against the verified facts at the
    value's key instead of a pure function.
    """

    id: str
    scope: str  # step | response
    step_pattern: str | None = None
    predicate: Callable[[Value], bool] | None = None

    def applies_to_step(self, step: str) -> bool:
        return self.scope == STEP_SCOPE and fnmatchcase(step, self.step_pattern or "*")

    def holds(self, value: Value, verified: Sequence[Fact] = ()) -> bool:
        """``verified`` holds the verified facts at the value's key; only a consistency constraint reads them."""
        if self.predicate is None:
            return not conflicting_fact_ids(verified, value)
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
        scope=STEP_SCOPE if scope == STEP_SCOPE else RESPONSE_SCOPE,
        step_pattern=shared_text(_spec_text(obj, "step_pattern")) if obj.get("step_pattern") is not None else None,
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

        return Constraint(predicate=in_range, **common)
    if check == "regex":
        try:
            pattern = re.compile(_spec_text(obj, "pattern"))
        except re.error as exc:
            raise ParseError(f"constraint 'pattern' does not compile: {exc}") from exc
        return Constraint(
            predicate=lambda v, rx=pattern: v.kind == TEXT and rx.fullmatch(v.payload) is not None,  # type: ignore[arg-type]
            **common,
        )
    if check == "kind":
        expected = _spec_text(obj, "expect")
        return Constraint(predicate=lambda v, k=expected: v.kind == k, **common)
    if check == "unit":
        unit = _spec_text(obj, "unit")
        return Constraint(
            predicate=lambda v, u=unit: v.kind == QUANTITY and v.payload[1] == u,  # type: ignore[index]
            **common,
        )
    if check == "facts":
        return Constraint(**common)
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


def check_response(response: Value, constraints: Sequence[Constraint], verified: Sequence[Fact] = ()) -> bool:
    """Admissibility of a candidate response: all response-scope constraints hold.

    ``verified`` holds the verified facts at :data:`RESPONSE_KEY`.
    """
    return all(
        c.holds(response, verified)
        for c in constraints
        if c.scope == RESPONSE_SCOPE
    )


@dataclass(frozen=True)
class ConstraintIndex:
    """A scenario's constraints and verified facts, resolved against its DAG once per run.

    ``steps`` maps every DAG step to the step-scope predicate constraints
    that apply to it, in their given order. A step-scope ``facts``
    constraint is not listed there: the gate checks every statement
    against the verified facts at its step anyway. ``response`` holds the
    response-scope constraints. ``facts`` maps each DAG step that has
    verified facts, and :data:`RESPONSE_KEY` if it has any, to those
    facts, ids ascending; a key without verified facts is absent. Only the
    gate reads them: a value the audit sees agrees with every verified fact
    at its step, so no verify operator asks them again. ``checked`` is
    derived from the two: the DAG steps that have a predicate or verified
    facts, the only steps where the gate can fail a statement. Build it
    with :func:`index_constraints`; :func:`index_gate` decides it over a
    run's statement classes.
    """

    steps: Mapping[str, tuple[Constraint, ...]]
    response: tuple[Constraint, ...]
    facts: Mapping[str, tuple[Fact, ...]]
    checked: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        checked = frozenset(step for step, applicable in self.steps.items() if applicable or step in self.facts)
        object.__setattr__(self, "checked", checked)


def index_constraints(constraints: Sequence[Constraint], dag: PlanDag, facts: FactStore) -> ConstraintIndex:
    """Resolve which constraints apply where, and which verified facts speak to each step.

    One pattern match per (DAG step, predicate constraint), and one listing
    of ``facts``. The store must not change while the index is in use.
    """
    predicates = [c for c in constraints if c.predicate is not None]
    by_key = facts.verified_by_key()
    return ConstraintIndex(
        steps={step: tuple(c for c in predicates if c.applies_to_step(step)) for step in dag.steps},
        response=tuple(c for c in constraints if c.scope == RESPONSE_SCOPE),
        facts={key: by_key[key] for key in (*dag.steps, RESPONSE_KEY) if key in by_key},
    )


class GateIndex(NamedTuple):
    """A run's gate decisions over the outputs of a statement index, made per value class.

    ``failing`` maps each step where some statement fails, in sorted
    order, to the mask of its failing holders: bit ``p`` stands for
    ``outputs[p]``. ``response_ok[p]`` says whether ``outputs[p]``'s
    response passes the response-scope constraints. ``closures`` is the
    run's memo of ``dag``'s dependents closures (:func:`plandag.removal_set`).
    Build it with :func:`index_gate`; it lives for one run.
    """

    outputs: tuple["ExpertOutput", ...]
    failing: dict[str, int]
    response_ok: list[bool]
    dag: PlanDag
    closures: dict[str, frozenset[str]]


def index_gate(constraints: ConstraintIndex, dag: PlanDag, index: "StatementIndex") -> GateIndex:
    """Decide the gate for every output of ``index`` at once, per (step, value class).

    ``constraints`` is :func:`index_constraints` over ``dag``. Each class
    at a step in ``constraints.checked`` is checked once against the
    step's predicates and verified facts, and a failing class fails all its
    holders; each distinct response object is checked once. A step of
    ``index`` outside the DAG raises UnknownStepError, naming the first
    output in ``index`` order that asserts such a step and its first such
    step in trace order.
    """
    applicable, known = constraints.steps, constraints.facts
    unknown = {step for step in index.steps if step not in applicable}
    if unknown:
        output = next(o for o in index.outputs if not unknown.isdisjoint(o.step_ids))
        raise UnknownStepError(f"unknown step {next(s for s in output.step_ids if s in unknown)!r}")
    width, reps = len(index.outputs), index.reps
    full = (1 << width) - 1
    failing: dict[str, int] = {}
    first = 0
    for step, packed in zip(index.steps, index.holders):
        count = (packed.bit_length() - 1) // width + 1  # every class has a holder, so the last one's sets the length
        if step in constraints.checked:
            predicates, verified = applicable[step], known.get(step, ())
            mask = 0
            for c in range(count):
                if not _statement_admissible(reps[first + c], predicates, verified):
                    mask |= packed >> c * width & full
            if mask:
                failing[step] = mask
        first += count
    verified = known.get(RESPONSE_KEY, ())
    decided: dict[int, bool] = {}  # id() of a response -> its check; the outputs keep each response alive
    response_ok = []
    for output in index.outputs:
        ok = decided.get(id(output.response))
        if ok is None:
            ok = decided[id(output.response)] = check_response(output.response, constraints.response, verified)
        response_ok.append(ok)
    return GateIndex(index.outputs, failing, response_ok, dag, {})


class GateResult(NamedTuple):
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


def gate(gated: GateIndex, position: int, threshold: float) -> GateResult:
    """Screen ``gated.outputs[position]`` against constraints and verified facts.

    A statement fails when any applicable step predicate rejects its
    value or a verified fact at its step holds an unequal value (the
    conflict rule of :func:`facts.conflicting_fact_ids`). Failing
    statements and their DAG dependents are excised; everything upstream
    stays. The trace as a whole is rejected iff its response is infeasible
    or the surviving fraction falls below ``threshold``.

    The trace's failing steps are read, in sorted order, from the masks
    :func:`index_gate` decided for its run; a trace with none keeps every
    statement and scores 1.0.
    """
    trace = gated.outputs[position]
    failing = tuple([step for step, mask in gated.failing.items() if mask >> position & 1])
    response_ok = gated.response_ok[position]
    if not failing:
        # Outputs are never mutated, so an untouched trace is retained as it is.
        return GateResult(trace if response_ok else None, 1.0, (), (), response_ok)
    steps = trace.step_ids
    removed_all = removal_set(gated.dag, failing, gated.closures)
    removed = tuple(sorted(removed_all & steps))
    score = (len(steps) - len(removed)) / len(steps)
    if not response_ok or score < threshold:
        return GateResult(None, score, failing, removed, response_ok)
    return GateResult(trace.restricted_to(steps - removed_all), score, failing, removed, response_ok)


def _statement_admissible(
    value: Value, applicable: Sequence[Constraint], verified: Sequence[Fact]
) -> bool:
    """Every applicable step predicate holds and no verified fact at the step conflicts."""
    for c in applicable:
        if not c.holds(value):
            return False
    return not verified or not conflicting_fact_ids(verified, value)


# --- verify operators ---------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """An operator's decision. :meth:`OperatorRegistry.verify` sets ``cost``
    to the number of operators it invoked and ``operator`` to the id of the
    one that committed (None when none did)."""

    value: str
    evidence: tuple[str, ...] = ()
    cost: int = 1
    operator: str | None = None


class VerifyOperator(Protocol):
    op_id: str
    scripted: bool

    def examine(self, step: str, value: Value, provenance: tuple[str, ...]) -> Verdict: ...


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

    def verify(
        self,
        statement: tuple[str, Value],
        provenance: tuple[str, ...],
        on_error: Callable[[str, str], None] | None = None,
    ) -> Verdict:
        """Apply operators in order until one commits; cost counts invocations.

        ``provenance`` holds the tool record ids backing the statement. A
        crashing operator is reported through ``on_error`` and treated as
        inconclusive, as is any non-scripted commitment that arrives without
        evidence (verdicts must be auditable).
        """
        step, value = statement
        invoked = 0
        for op in self._ops:
            invoked += 1
            try:
                verdict = op.examine(step, value, provenance)
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
            return replace(verdict, cost=invoked, operator=op.op_id)
        return Verdict(INCONCLUSIVE, (), invoked)


class CrossExecutionOperator:
    """Re-runs the statement's provenance tools and compares outcomes.

    ``facts`` holds the tool records; ``tool_runner`` re-executes a tool by
    (name, params) and raises UnknownIdError when the invocation is not
    scripted.
    """

    op_id = "cross-exec"
    scripted = False

    def __init__(self, facts: FactStore, tool_runner: Callable[[str, dict], Value]) -> None:
        self._facts = facts
        self._tool_runner = tool_runner

    def examine(self, step: str, value: Value, provenance: tuple[str, ...]) -> Verdict:
        for record_id in provenance:
            try:
                record = self._facts.get_tool(record_id)
                outcome = self._tool_runner(record.tool_name, record.params)
            except UnknownIdError:
                continue
            if values_equal(outcome, value):
                return Verdict(SUPPORT, (f"tool:{record_id}",))
            if values_comparable(outcome, value):
                return Verdict(REFUTE, (f"tool:{record_id}",))
        return Verdict(INCONCLUSIVE, ())


class ScriptedTableOperator:
    """Verdicts looked up from a scenario-supplied table; desk-scale oracle.

    ``entries`` are the table's ``(step, value, verdict)`` by sorted key; the first match decides.
    """

    op_id = "scripted"
    scripted = True

    def __init__(self, entries: Sequence[tuple[str, Value, str]]) -> None:
        self._entries = entries

    def examine(self, step: str, value: Value, provenance: tuple[str, ...]) -> Verdict:
        for entry_step, entry_value, verdict in self._entries:
            if entry_step == step and values_equal(entry_value, value):
                return Verdict(verdict, ())
        return Verdict(INCONCLUSIVE, ())


def default_registry(
    facts: FactStore,
    tool_runner: Callable[[str, dict], Value],
    verdicts: Sequence[tuple[str, Value, str]] | None = None,
) -> OperatorRegistry:
    """The standard operator stack, cheapest first: cross-exec, then scripted.

    Cross-execution is built with the run's store, for its tool records,
    and the scenario's ``tool_runner``; the scripted operator is registered
    only when ``verdicts`` is not None. No operator re-checks the step
    constraints or the verified facts, since the gate has already applied
    both to every value the audit sees, and none consults the anchors,
    since the audit only examines steps that no anchor settles.
    """
    registry = OperatorRegistry()
    registry.register(CrossExecutionOperator(facts, tool_runner))
    if verdicts is not None:
        registry.register(ScriptedTableOperator(verdicts))
    return registry
