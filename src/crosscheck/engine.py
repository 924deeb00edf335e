"""The conflict-aware verification pipeline.

Four stages turn a bundle of expert traces into one audited answer:

1. **Pruning** — every trace passes the gate; infeasible responses are
   rejected outright, violating statements are excised together with
   their DAG dependents. If nothing survives, backtracking salvages the
   valid fragments of feasibly-answered traces before giving up.
2. **Anchoring** — statements asserted by at least ``theta`` distinct
   experts are promoted to trusted premises. A step where two distinct
   values both reach quorum is sent to the conflict set instead: a
   premise set must be single-valued to be usable.
3. **Conflict auditing** — only steps where experts actually disagree are
   examined, highest expected impact first, candidate values in
   descending supporter count, stopping hard at the audit budget. Each
   verify call costs one budget unit, so total verification work scales
   with the disagreement set, never with chain length.
4. **Synthesis** — surviving candidate responses are scored on anchor
   agreement, audited-conflict agreement, and the expert's own
   confidence; the argmax wins. If every candidate leans on a refuted
   statement, candidates are re-scored over their non-refuted statements
   only, which recovers the best recombination of valid micro-inferences.

Anchoring, conflict detection, ranking and synthesis read one table that
:func:`statements` builds per run, which sorts every statement into a
class by its value object, so values are compared per class, not per
statement. The scenario loader shares one object per distinct value
across a scenario's traces, so on a loaded scenario a class is one
distinct value.
Every decision lands in the audit log; identical inputs reproduce the log
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .auditlog import AuditLog
from .ensemble import CollectResult, ExpertOutput, collect
from .errors import InvalidConfigError, InvalidThetaError, NoFeasibleCandidateError
from .facts import Fact, FactStore, Note, ToolRecord
from .plandag import PlanDag
from .values import Value, _exact_key, format_literal, group_values, values_equal
from .verifiers import (
    INCONCLUSIVE,
    REFUTE,
    SUPPORT,
    GateResult,
    OperatorRegistry,
    gate,
    index_constraints,
)

if TYPE_CHECKING:
    from .scenario import Scenario

DEFAULT_WEIGHTS = (0.5, 0.3, 0.2)
DEFAULT_THETA = 2
DEFAULT_GATE_THRESHOLD = 0.5
BUDGET_CAP = 16

OPEN = "open"
SUPPORTED = "supported"
REFUTED = "refuted"


@dataclass(frozen=True)
class EngineConfig:
    """Pipeline knobs. ``budget=None`` means min(|conflicts|, 16), decided per run."""

    theta: int = DEFAULT_THETA
    budget: int | None = None
    gate_threshold: float = DEFAULT_GATE_THRESHOLD
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS
    facts_enabled: bool = True

    def __post_init__(self) -> None:
        # Exact type checks: bool is an int subclass, but True is no quorum and no budget.
        if type(self.theta) is not int or self.theta < 2:
            raise InvalidThetaError(f"anchor quorum must be an int >= 2, got {self.theta!r}")
        if self.budget is not None and (type(self.budget) is not int or self.budget < 0):
            raise InvalidConfigError(f"budget must be None or an int >= 0, got {self.budget!r}")
        if not _is_real(self.gate_threshold) or not 0.0 <= self.gate_threshold <= 1.0:
            raise InvalidConfigError(f"gate_threshold must be a real in [0,1], got {self.gate_threshold!r}")
        # A tuple, so that the frozen config stays hashable.
        if (type(self.weights) is not tuple or len(self.weights) != 3
                or not all(_is_real(w) and 0 <= w < math.inf for w in self.weights)):
            raise InvalidConfigError(f"weights must be a tuple of three finite nonnegative reals, got {self.weights!r}")
        if not 0 < sum(self.weights) < math.inf:
            raise InvalidConfigError("weights must not all be zero, and their sum must be finite")
        if type(self.facts_enabled) is not bool:
            raise InvalidConfigError(f"facts_enabled must be a bool, got {self.facts_enabled!r}")

    @property
    def normalized_weights(self) -> tuple[float, float, float]:
        # Scaling all weights by a positive constant must not move the
        # argmax; normalizing here makes that exact rather than approximate.
        total = sum(self.weights)
        return (self.weights[0] / total, self.weights[1] / total, self.weights[2] / total)


def _is_real(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class StepClasses:
    """One step's asserted statements, sorted into classes by value object.

    Per class id: ``reps`` holds the value object that every member
    asserted; ``holders`` the positions, in the table's ``retained``,
    of the traces that asserted it; ``supporters`` its retained experts,
    or None when it has none. ``confidences`` holds the retained
    statements' confidences in trace order. ``groups`` holds the value
    groups over the retained classes, each as its representative and its
    sorted distinct supporters.
    """

    __slots__ = ("reps", "holders", "supporters", "confidences", "groups", "ids", "order")

    def __init__(self) -> None:
        self.reps: list[Value] = []
        self.holders: list[list[int]] = []
        self.supporters: list[set[str] | None] = []
        self.confidences: list[float] = []
        self.groups: list[tuple[Value, tuple[str, ...]]] = []
        self.ids: dict[int, int] = {}  # id() of a value with an exact key -> class id
        self.order: list[int] = []  # retained class ids in order of first retained occurrence


@dataclass(frozen=True)
class StatementTable:
    """A run's statements, classified once for every statement stage.

    ``steps`` maps each asserted step, in sorted order, to its
    :class:`StepClasses`. ``len()`` counts the retained statements only.
    """

    retained: tuple[GatedTrace, ...]
    steps: dict[str, StepClasses]

    def __len__(self) -> int:
        return sum(len(sc.confidences) for sc in self.steps.values())


def statements(retained: Sequence[GatedTrace]) -> StatementTable:
    """Classify every asserted statement of the retained traces in one pass.

    At each step, the statements that assert one value object form a
    class, found by ``id()``; the object is checked for an exact key
    (``values._exact_key``) once, when its class opens. A value without a
    key (a NaN, an ill-typed payload) is a class of its own at every
    statement, so a NaN that two experts share never counts as agreement.
    One object has one key, so a stage can decide a class once and the
    answer holds for each member, even though tolerance equality is not
    transitive. The scenario loader interns values, so a class is one
    distinct printed value; outputs that were not interned (a live
    backend's, or built by hand) are classed per object, which is finer
    and just as exact. Each step's retained classes are grouped once, in
    order of first retained occurrence, which gives the groups, and the
    representatives, that grouping the retained statements one by one in
    trace order would give: a statement that shares a key with an earlier
    one joins the group that one joined.
    """
    steps: dict[str, StepClasses] = {}
    for i, gt in enumerate(retained):
        kept = gt.trace.steps
        expert_id = gt.trace.expert_id
        for step, result in gt.asserted.steps.items():
            sc = steps.get(step)
            if sc is None:
                sc = steps[step] = StepClasses()
            value = result.value
            c = sc.ids.get(id(value))
            if c is None:
                c = len(sc.reps)
                sc.reps.append(value)
                sc.holders.append([])
                sc.supporters.append(None)
                if _exact_key(value) is not None:
                    sc.ids[id(value)] = c
            sc.holders[c].append(i)
            if step in kept:
                supporters = sc.supporters[c]
                if supporters is None:
                    supporters = sc.supporters[c] = set()
                    sc.order.append(c)
                supporters.add(expert_id)
                sc.confidences.append(result.confidence)
    for sc in steps.values():
        if sc.order:
            sc.groups = [
                (rep, tuple(sorted(set().union(*(sc.supporters[c] for c in members)))))
                for rep, members in group_values((sc.reps[c], c) for c in sc.order)
            ]
    return StatementTable(tuple(retained), {step: steps[step] for step in sorted(steps)})


@dataclass(frozen=True)
class Anchor:
    step: str
    value: Value
    supporters: tuple[str, ...]


class AnchorSet:
    """At most one trusted value per step; grows only."""

    def __init__(self) -> None:
        self._anchors: dict[str, Anchor] = {}

    def add(self, anchor: Anchor) -> None:
        if anchor.step in self._anchors:
            raise InvalidConfigError(f"step {anchor.step!r} already anchored")
        self._anchors[anchor.step] = anchor

    def items(self) -> tuple[Anchor, ...]:
        return tuple(self._anchors[s] for s in sorted(self._anchors))

    def __len__(self) -> int:
        return len(self._anchors)

    def __contains__(self, step: str) -> bool:
        return step in self._anchors


def anchor(table: StatementTable, theta: int) -> tuple[AnchorSet, list[str]]:
    """Promote statements with quorum support; report quorum ties as collisions.

    A (step, value) is promoted when at least ``theta`` distinct experts
    asserted an equal value there. If several values at one step reach
    quorum, the better-supported one wins; an exact tie anchors nothing
    and leaves the step for the conflict set. The values and their
    supporters are the step's groups in ``table``, as :func:`statements`
    built it.
    """
    if theta < 2:
        raise InvalidThetaError(f"anchor quorum must be >= 2, got {theta}")
    anchors = AnchorSet()
    collisions: list[str] = []
    for step, sc in table.steps.items():
        eligible = [Anchor(step, value, supporters) for value, supporters in sc.groups if len(supporters) >= theta]
        if not eligible:
            continue
        eligible.sort(key=lambda a: (-len(a.supporters), format_literal(a.value)))
        if len(eligible) > 1 and len(eligible[0].supporters) == len(eligible[1].supporters):
            collisions.append(step)
            continue
        anchors.add(eligible[0])
    return anchors, collisions


@dataclass(frozen=True)
class Candidate:
    value: Value
    supporters: tuple[str, ...]


@dataclass
class ConflictItem:
    step: str
    candidates: tuple[Candidate, ...]
    state: str = OPEN
    supported_value: Value | None = None
    refuted_values: list[Value] = field(default_factory=list)
    verdicts: list[tuple[str, str]] = field(default_factory=list)  # (value literal, verdict)


class ConflictSet:
    def __init__(self) -> None:
        self._items: dict[str, ConflictItem] = {}

    def add(self, item: ConflictItem) -> None:
        self._items[item.step] = item

    def get(self, step: str) -> ConflictItem:
        return self._items[step]

    def items(self) -> tuple[ConflictItem, ...]:
        return tuple(self._items[s] for s in sorted(self._items))

    def steps(self) -> tuple[str, ...]:
        return tuple(sorted(self._items))

    def refuted_statements(self) -> list[tuple[str, Value]]:
        out = []
        for item in self.items():
            for value in item.refuted_values:
                out.append((item.step, value))
        return out

    def supported_statements(self) -> list[tuple[str, Value]]:
        return [
            (item.step, item.supported_value)
            for item in self.items()
            if item.state == SUPPORTED and item.supported_value is not None
        ]

    def __len__(self) -> int:
        return len(self._items)


def conflicts(table: StatementTable, anchors: AnchorSet) -> ConflictSet:
    """Steps where two distinct experts assert unequal values, minus anchored steps.

    Anchored steps are excluded even when a minority dissents — quorum
    already settled them. Candidate values are ordered by supporter count
    so the audit tries the strongest claim first. The candidates are the
    step's groups in ``table``, as :func:`statements` built it.
    """
    out = ConflictSet()
    for step, sc in table.steps.items():
        groups = sc.groups
        if step in anchors or len(groups) < 2:
            continue
        # A conflict needs experts i != j on unequal values; one expert
        # disagreeing with itself does not count. Once there are two value
        # groups, any two distinct experts at the step make such a pair.
        if len({e for _, supporters in groups for e in supporters}) < 2:
            continue
        candidates = [Candidate(value, supporters) for value, supporters in groups]
        candidates.sort(key=lambda c: (-len(c.supporters), c.supporters[0], format_literal(c.value)))
        out.add(ConflictItem(step=step, candidates=tuple(candidates)))
    return out


def rank_conflicts(conflict_set: ConflictSet, dag: PlanDag, table: StatementTable) -> list[str]:
    """Audit order: impact = (1 + |dependents|) * confidence spread, descending.

    A contested step that feeds many downstream steps and splits expert
    confidence wide is worth a verify call more than a contested leaf
    everyone is equally unsure about. Ties fall back to step id. The
    spread is over the step's retained statements in ``table``.
    """
    spreads: dict[str, float] = {}
    for step in conflict_set.steps():
        sc = table.steps.get(step)
        confs = sc.confidences if sc is not None else ()
        spreads[step] = (max(confs) - min(confs)) if confs else 0.0

    def impact(step: str) -> float:
        return (1 + len(dag.dependents_closure(step))) * spreads[step]

    return sorted(conflict_set.steps(), key=lambda s: (-impact(s), s))


@dataclass
class AuditBudget:
    b_max: int
    consumed: int = 0

    @property
    def exhausted(self) -> bool:
        return self.consumed >= self.b_max

    def spend(self) -> int:
        if self.exhausted:
            raise InvalidConfigError("budget overspent; guard with .exhausted first")
        self.consumed += 1
        return self.consumed


@dataclass(frozen=True)
class GatedTrace:
    """A retained trace; its gate score is logged with its ``gate/accept`` or ``prune/backtrack`` event."""

    trace: ExpertOutput
    trace_index: int  # position in the collected output stream
    source: ExpertOutput | None = None  # pre-excision trace, when different; ``trace`` keeps some of its steps

    @property
    def expert_id(self) -> str:
        return self.trace.expert_id

    @property
    def asserted(self) -> ExpertOutput:
        """What the expert originally claimed, excisions notwithstanding.

        Anchor and conflict agreement judge the candidate on everything it
        asserted; a statement the gate had to cut out still counts against
        it. Only the confidence term is scoped to the surviving steps.
        """
        return self.source or self.trace


@dataclass(frozen=True)
class SynthesisScore:
    anchor_support: float
    conflict_agreement: float
    mean_confidence: float
    total: float


@dataclass
class RunResult:
    """Everything a run produced; enough to re-audit it from scratch.

    An abstention is a result too: ``answer``, ``winner_expert`` and
    ``score`` are None, and the log ends in ``synthesize/abstain``. The
    config and every rejected trace are in the log only (``ensemble/config``,
    ``gate/reject``).
    """

    answer: Value | None
    winner_expert: str | None
    score: SynthesisScore | None
    anchors: AnchorSet
    conflicts: ConflictSet
    retained: tuple[GatedTrace, ...]
    audit_log: AuditLog
    verify_calls: int
    facts: FactStore
    fallback_used: bool = False

    @property
    def abstained(self) -> bool:
        return self.answer is None


def run_audit(
    ranked: Sequence[str],
    conflict_set: ConflictSet,
    anchors: AnchorSet,
    budget: AuditBudget,
    registry: OperatorRegistry,
    table: StatementTable,
    log: AuditLog,
) -> None:
    """Stage 3: spend the budget on ranked conflicts, strongest candidates first.

    The budget is checked before every verify call, so the cap binds even
    mid-item; a partially examined item stays open. A supported value is
    promoted to the anchors, where synthesis scores candidates against it.
    ``registry`` was built for this run (:meth:`Scenario.registry`), so a
    verify call passes only the statement and its provenance ids.
    """
    for step in ranked:
        item = conflict_set.get(step)
        ran_out = False
        for candidate in item.candidates:
            if budget.exhausted:
                ran_out = True
                break
            verdict = registry.verify(
                (step, candidate.value),
                _candidate_provenance(table, step, candidate.value),
                on_error=lambda op_id, msg: log.append(
                    "audit", "operator_error", {"operator": op_id, "error": msg}, (step,)
                ),
            )
            used = budget.spend()
            literal = format_literal(candidate.value)
            item.verdicts.append((literal, verdict.value))
            log.append(
                "audit",
                "verify",
                {
                    "step": step,
                    "value": literal,
                    "verdict": verdict.value,
                    "cost": verdict.cost,
                    "operator": verdict.operator,
                    "evidence": list(verdict.evidence),
                    "budget_used": used,
                },
                (step,),
            )
            if verdict.value == SUPPORT:
                anchors.add(Anchor(step, candidate.value, candidate.supporters))
                item.state = SUPPORTED
                item.supported_value = candidate.value
                log.append("audit", "promote", {"step": step, "value": literal}, (step,))
                break
            if verdict.value == REFUTE:
                item.refuted_values.append(candidate.value)
        if item.state == OPEN and not ran_out:
            all_refuted = bool(item.verdicts) and all(v == REFUTE for _, v in item.verdicts)
            item.state = REFUTED if all_refuted else INCONCLUSIVE
            log.append("audit", "resolve", {"step": step, "state": item.state}, (step,))
        if ran_out:
            break


def _candidate_provenance(table: StatementTable, step: str, value: Value) -> tuple[str, ...]:
    """The tool records behind every retained statement at ``step`` that equals ``value``."""
    sc = table.steps.get(step)
    if sc is None:
        return ()
    ids: list[str] = []
    for rep, holders, supporters in zip(sc.reps, sc.holders, sc.supporters):
        if supporters is None or not values_equal(rep, value):
            continue
        for i in holders:
            result = table.retained[i].trace.steps.get(step)
            if result is not None:
                ids.extend(result.provenance)
    return tuple(sorted(set(ids)))


def synthesize(
    table: StatementTable,
    anchors: AnchorSet,
    conflict_set: ConflictSet,
    weights: tuple[float, float, float],
    log: AuditLog | None = None,
) -> tuple[GatedTrace, SynthesisScore, bool]:
    """Stage 4: argmax over candidate responses of the three-term score.

    anchor_support — the share of anchors the candidate does not
    contradict (vacuously 1.0 with no anchors). conflict_agreement — the
    share of supported resolutions the candidate asserts minus the share
    of refuted values it still leans on, mapped to [0,1]; neutral 0.5 when
    nothing was resolved. Both are judged against everything the candidate
    originally asserted — a claim the gate excised still counts against
    it. mean_confidence — the candidate's own average over its retained
    steps. Exact ties go to the lowest expert id.

    The candidates are ``table.retained``. Each value class at a step with
    an anchor or a resolution is compared with them once, and its answer
    is credited to every candidate that asserted it, so the work follows
    the classes that disagree rather than the statements.
    """
    retained = table.retained
    if not retained:
        raise NoFeasibleCandidateError("no candidate response survived the gate")
    supported = conflict_set.supported_statements()
    refuted = conflict_set.refuted_statements()
    n_anchors = len(anchors)

    # Per step: the anchor value, the supported values and the refuted values.
    targets: dict[str, tuple[Value | None, list[Value], list[Value]]] = {}
    for a in anchors.items():
        targets[a.step] = (a.value, [], [])
    for step, value in supported:
        targets.setdefault(step, (None, [], []))[1].append(value)
    for step, value in refuted:
        targets.setdefault(step, (None, [], []))[2].append(value)
    # Per candidate, each asserted statement that contradicts an anchor,
    # asserts a supported value or leans on refuted values:
    # (step, contradicts, supported hits, refuted hits).
    marks: list[list[tuple[str, bool, int, int]]] = [[] for _ in retained]
    for step, (anchor_value, agree_with, refuted_at) in targets.items():
        sc = table.steps.get(step)
        if sc is None:
            continue
        for rep, holders in zip(sc.reps, sc.holders):
            contra = anchor_value is not None and not values_equal(rep, anchor_value)
            agree = sum(values_equal(rep, v) for v in agree_with) if agree_with else 0
            lean = sum(values_equal(rep, v) for v in refuted_at) if refuted_at else 0
            if contra or agree or lean:
                for i in holders:
                    marks[i].append((step, contra, agree, lean))

    order = sorted(range(len(retained)), key=lambda i: (retained[i].expert_id, retained[i].trace_index))
    fallback = bool(refuted) and all(any(m[3] for m in marks[i]) for i in order)
    if fallback and log is not None:
        log.append("synthesize", "fallback", {"reason": "every candidate asserts a refuted statement"})
    w_a, w_c, w_g = weights
    best: tuple[GatedTrace, SynthesisScore] | None = None
    for i in order:
        gt = retained[i]
        # The fallback re-scores each candidate without the statements that lean on a refuted value.
        dropped = {m[0] for m in marks[i] if m[3]} if fallback else set()
        counted = [m for m in marks[i] if m[0] not in dropped]
        anchor_support = (n_anchors - sum(m[1] for m in counted)) / n_anchors if n_anchors else 1.0
        if not supported and not refuted:
            conflict_agreement = 0.5
        else:
            agree_frac = sum(m[2] for m in counted) / len(supported) if supported else 0.0
            refute_frac = sum(m[3] for m in counted) / len(refuted) if refuted else 0.0
            conflict_agreement = min(1.0, max(0.0, (agree_frac - refute_frac + 1.0) / 2.0))
        confidences = [r.confidence for s, r in gt.trace.steps.items() if s not in dropped]
        mean_confidence = sum(confidences) / len(confidences) if confidences else 0.0
        total = w_a * anchor_support + w_c * conflict_agreement + w_g * mean_confidence
        score = SynthesisScore(anchor_support, conflict_agreement, mean_confidence, total)
        if log is not None:
            log.append(
                "synthesize",
                "score",
                {
                    "expert": gt.expert_id,
                    "trace": gt.trace_index,
                    "anchor_support": score.anchor_support,
                    "conflict_agreement": score.conflict_agreement,
                    "mean_confidence": score.mean_confidence,
                    "total": score.total,
                },
                (gt.expert_id,),
            )
        if best is None or score.total > best[1].total:
            best = (gt, score)
    assert best is not None
    return best[0], best[1], fallback


def run_pipeline(scenario: "Scenario", config: EngineConfig | None = None) -> RunResult:
    """Execute all four stages over a scenario and return the full bundle.

    When nothing survives pruning the run abstains: the log ends in
    ``synthesize/abstain`` and the result has no answer, winner or score.
    Raises AllExpertsFailedError if nobody answers.
    """
    cfg = config or EngineConfig()
    log = AuditLog()
    log.append(
        "ensemble",
        "config",
        {
            "theta": cfg.theta,
            "budget": "auto" if cfg.budget is None else cfg.budget,
            "gate_threshold": cfg.gate_threshold,
            "weights": list(cfg.normalized_weights),
            "facts_enabled": cfg.facts_enabled,
            "query": scenario.query,
        },
    )

    facts = FactStore()
    if cfg.facts_enabled and scenario.facts_seed:
        for entry in scenario.facts_seed:
            facts.insert(entry)
        # The store held nothing before, so it holds each seed entry once.
        kinds = [type(entry) for entry in scenario.facts_seed]
        log.append(
            "facts",
            "seeded",
            {"tools": kinds.count(ToolRecord), "notes": kinds.count(Note), "facts": kinds.count(Fact)},
        )

    collected: CollectResult = collect(scenario.query, scenario.expert_configs(), scenario.backend())
    for failure in collected.failures:
        log.append("ensemble", "expert_failure", {"expert": failure.expert_id, "error": failure.error})
    for idx, output in enumerate(collected.outputs):
        log.append(
            "ensemble",
            "expert_output",
            {"expert": output.expert_id, "trace": idx, "steps": len(output.steps),
             "response": format_literal(output.response)},
            (output.expert_id,),
        )

    # After seeding, a run never writes to its store: the gate and the audit read its verified facts once, here.
    constraints = index_constraints(scenario.constraints, scenario.dag, facts if cfg.facts_enabled else None)
    retained: list[GatedTrace] = []
    salvageable: list[tuple[int, ExpertOutput, GateResult]] = []
    for idx, output in enumerate(collected.outputs):
        result = gate(output, constraints, scenario.dag, cfg.gate_threshold)
        if result.removed:
            log.append(
                "prune",
                "excise",
                {"expert": output.expert_id, "trace": idx,
                 "failing": list(result.failing), "removed": list(result.removed)},
                (output.expert_id,),
            )
        if result.rejected:
            reason = "infeasible-response" if not result.response_ok else "low-gate-score"
            log.append(
                "gate",
                "reject",
                {"expert": output.expert_id, "trace": idx, "score": result.score, "reason": reason},
                (output.expert_id,),
            )
            if result.response_ok:
                salvageable.append((idx, output, result))
        else:
            assert result.trace is not None
            source = output if result.removed else None
            retained.append(GatedTrace(result.trace, idx, source))
            log.append(
                "gate",
                "accept",
                {"expert": output.expert_id, "trace": idx, "score": result.score,
                 "retained_steps": len(result.trace.steps)},
                (output.expert_id,),
            )

    if not retained and salvageable:
        # Nothing passed the gate threshold; fall back to backtracking and
        # keep the valid fragments of every feasibly-answered trace.
        for idx, output, result in salvageable:
            keep = {s for s in output.steps if s not in result.removed}
            fragment = output.restricted_to(keep)
            retained.append(GatedTrace(fragment, idx, output))
            log.append(
                "prune",
                "backtrack",
                {"expert": output.expert_id, "trace": idx,
                 "retained_steps": sorted(keep), "score": result.score},
                (output.expert_id,),
            )

    retained.sort(key=lambda gt: (gt.expert_id, gt.trace_index))
    table = statements(retained)
    log.append("anchor", "statements", {"count": len(table)})

    anchors, collisions = anchor(table, cfg.theta)
    for a in anchors.items():
        log.append(
            "anchor",
            "promote",
            {"step": a.step, "value": format_literal(a.value), "supporters": len(a.supporters)},
            (a.step,),
        )
    for step in collisions:
        log.append("anchor", "collision", {"step": step}, (step,))

    conflict_set = conflicts(table, anchors)
    for item in conflict_set.items():
        log.append(
            "audit",
            "conflict",
            {"step": item.step,
             "candidates": [format_literal(c.value) for c in item.candidates]},
            (item.step,),
        )

    ranked = rank_conflicts(conflict_set, scenario.dag, table)
    b_max = cfg.budget if cfg.budget is not None else min(len(conflict_set), BUDGET_CAP)
    budget = AuditBudget(b_max=b_max)
    if ranked:
        log.append("audit", "plan", {"order": list(ranked), "budget": b_max})
        registry = scenario.registry(constraints.facts, facts)
        run_audit(ranked, conflict_set, anchors, budget, registry, table, log)

    answer = winner_expert = score = None
    fallback = False
    if retained:
        winner, score, fallback = synthesize(table, anchors, conflict_set, cfg.normalized_weights, log)
        answer, winner_expert = winner.trace.response, winner.expert_id
        log.append(
            "synthesize",
            "answer",
            {"expert": winner_expert, "response": format_literal(answer), "total": score.total},
            (winner_expert,),
        )
    else:
        log.append("synthesize", "abstain", {"reason": "no feasible candidate"})
    return RunResult(
        answer=answer,
        winner_expert=winner_expert,
        score=score,
        anchors=anchors,
        conflicts=conflict_set,
        retained=tuple(retained),
        audit_log=log,
        verify_calls=budget.consumed,
        facts=facts,
        fallback_used=fallback,
    )
