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

Every decision lands in the audit log; identical inputs reproduce the log
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .auditlog import AuditLog
from .ensemble import CollectResult, ExpertOutput, collect
from .errors import InvalidConfigError, InvalidThetaError, NoFeasibleCandidateError
from .facts import FactStore
from .plandag import PlanDag, StepResult
from .values import Value, format_literal, group_values, values_equal
from .verifiers import (
    INCONCLUSIVE,
    REFUTE,
    SUPPORT,
    GateResult,
    OperatorRegistry,
    VerifyContext,
    gate,
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
        if self.theta < 2:
            raise InvalidThetaError(f"anchor quorum must be >= 2, got {self.theta}")
        if self.budget is not None and self.budget < 0:
            raise InvalidConfigError("budget must be >= 0")
        if not 0.0 <= self.gate_threshold <= 1.0:
            raise InvalidConfigError("gate_threshold must be in [0,1]")
        if len(self.weights) != 3 or not all(0 <= w < math.inf for w in self.weights):
            raise InvalidConfigError("weights must be three finite nonnegative reals")
        if not 0 < sum(self.weights) < math.inf:
            raise InvalidConfigError("weights must not all be zero, and their sum must be finite")

    @property
    def normalized_weights(self) -> tuple[float, float, float]:
        # Scaling all weights by a positive constant must not move the
        # argmax; normalizing here makes that exact rather than approximate.
        total = sum(self.weights)
        return (self.weights[0] / total, self.weights[1] / total, self.weights[2] / total)


@dataclass(frozen=True)
class Statement:
    step: str
    value: Value
    expert_id: str
    confidence: float


def statements(traces: Sequence[ExpertOutput]) -> list[Statement]:
    """Flatten retained traces into the statement pool, one entry per intermediate."""
    pool: list[Statement] = []
    for trace in traces:
        for step in sorted(trace.steps):
            result = trace.steps[step]
            pool.append(Statement(step, result.value, trace.expert_id, result.confidence))
    return pool


def group_by_step(pool: Sequence[Statement]) -> dict[str, list[Statement]]:
    """Bucket the pool by step in one pass: steps in sorted order, pool order within a step."""
    buckets: dict[str, list[Statement]] = {}
    for s in pool:
        buckets.setdefault(s.step, []).append(s)
    return {step: buckets[step] for step in sorted(buckets)}


StepBuckets = Mapping[str, Sequence[Statement]]


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

    def get(self, step: str) -> Anchor | None:
        return self._anchors.get(step)

    def steps(self) -> tuple[str, ...]:
        return tuple(sorted(self._anchors))

    def items(self) -> tuple[Anchor, ...]:
        return tuple(self._anchors[s] for s in sorted(self._anchors))

    def value_map(self) -> dict[str, Value]:
        return {s: a.value for s, a in sorted(self._anchors.items())}

    def __len__(self) -> int:
        return len(self._anchors)

    def __contains__(self, step: str) -> bool:
        return step in self._anchors


def anchor(buckets: StepBuckets, theta: int) -> tuple[AnchorSet, list[str]]:
    """Promote statements with quorum support; report quorum ties as collisions.

    A (step, value) is promoted when at least ``theta`` distinct experts
    asserted an equal value there. If several values at one step reach
    quorum, the better-supported one wins; an exact tie anchors nothing
    and leaves the step for the conflict set. ``buckets`` is the
    statement pool as :func:`group_by_step` returns it.
    """
    if theta < 2:
        raise InvalidThetaError(f"anchor quorum must be >= 2, got {theta}")
    anchors = AnchorSet()
    collisions: list[str] = []
    for step, bucket in buckets.items():
        groups = group_values((s.value, s.expert_id) for s in bucket)
        eligible = []
        for value, expert_ids in groups:
            supporters = tuple(sorted(set(expert_ids)))
            if len(supporters) >= theta:
                eligible.append(Anchor(step, value, supporters))
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

    def open_steps(self) -> tuple[str, ...]:
        return tuple(s for s in sorted(self._items) if self._items[s].state == OPEN)

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

    def __contains__(self, step: str) -> bool:
        return step in self._items


def conflicts(buckets: StepBuckets, anchors: AnchorSet) -> ConflictSet:
    """Steps where two distinct experts assert unequal values, minus anchored steps.

    Anchored steps are excluded even when a minority dissents — quorum
    already settled them. Candidate values are ordered by supporter count
    so the audit tries the strongest claim first. ``buckets`` is the
    statement pool as :func:`group_by_step` returns it.
    """
    out = ConflictSet()
    for step, bucket in buckets.items():
        if step in anchors:
            continue
        groups = group_values((s.value, s.expert_id) for s in bucket)
        # A conflict needs experts i != j on unequal values; one expert
        # disagreeing with itself does not count. Once there are two value
        # groups, any two distinct experts at the step make such a pair.
        if len(groups) < 2 or len({s.expert_id for s in bucket}) < 2:
            continue
        candidates = [
            Candidate(value, tuple(sorted(set(ids)))) for value, ids in groups
        ]
        candidates.sort(key=lambda c: (-len(c.supporters), c.supporters[0], format_literal(c.value)))
        out.add(ConflictItem(step=step, candidates=tuple(candidates)))
    return out


def rank_conflicts(conflict_set: ConflictSet, dag: PlanDag, buckets: StepBuckets) -> list[str]:
    """Audit order: impact = (1 + |dependents|) * confidence spread, descending.

    A contested step that feeds many downstream steps and splits expert
    confidence wide is worth a verify call more than a contested leaf
    everyone is equally unsure about. Ties fall back to step id.
    ``buckets`` is the statement pool as :func:`group_by_step` returns it.
    """
    spreads: dict[str, float] = {}
    for step in conflict_set.steps():
        confs = [s.confidence for s in buckets.get(step, ())]
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
    trace: ExpertOutput
    score: float
    trace_index: int  # position in the collected output stream
    source: ExpertOutput | None = None  # pre-excision trace, when different

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
class ScreeningRecord:
    expert_id: str
    trace_index: int
    reason: str  # infeasible-response | low-gate-score
    score: float


@dataclass(frozen=True)
class SynthesisScore:
    anchor_support: float
    conflict_agreement: float
    mean_confidence: float
    total: float


@dataclass
class RunResult:
    """Everything a run produced; enough to re-audit it from scratch."""

    answer: Value | None
    winner_expert: str | None
    score: SynthesisScore | None
    anchors: AnchorSet
    conflicts: ConflictSet
    retained: tuple[GatedTrace, ...]
    screening: tuple[ScreeningRecord, ...]
    audit_log: AuditLog
    verify_calls: int
    facts: FactStore
    config: EngineConfig
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
    retained: Sequence[GatedTrace],
    facts: FactStore,
    records: dict,
    tool_runner,
    constraints,
    log: AuditLog,
) -> None:
    """Stage 3: spend the budget on ranked conflicts, strongest candidates first.

    The budget is checked before every verify call, so the cap binds even
    mid-item; a partially examined item stays open. A supported value is
    promoted to the anchors immediately and later statements can lean on it.
    """
    for step in ranked:
        item = conflict_set.get(step)
        ran_out = False
        for candidate in item.candidates:
            if budget.exhausted:
                ran_out = True
                break
            ctx = VerifyContext(
                anchors=anchors.value_map(),
                facts=facts,
                records=records,
                tool_runner=tool_runner,
                constraints=constraints,
                provenance=_candidate_provenance(retained, step, candidate.value),
            )
            verdict = registry.verify(
                (step, candidate.value),
                ctx,
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


def _candidate_provenance(retained: Sequence[GatedTrace], step: str, value: Value) -> tuple[str, ...]:
    ids: list[str] = []
    for gt in retained:
        result = gt.trace.steps.get(step)
        if result is not None and values_equal(result.value, value):
            ids.extend(result.provenance)
    return tuple(sorted(set(ids)))


def synthesize(
    retained: Sequence[GatedTrace],
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
    """
    if not retained:
        raise NoFeasibleCandidateError("no candidate response survived the gate")
    supported = conflict_set.supported_statements()
    refuted = conflict_set.refuted_statements()
    anchor_items = anchors.items()

    def _without_refuted(steps: dict) -> dict:
        return {
            s: r
            for s, r in steps.items()
            if not any(s == rs and values_equal(r.value, rv) for rs, rv in refuted)
        }

    def score_one(gt: GatedTrace, exclude_refuted: bool) -> SynthesisScore:
        asserted = dict(gt.asserted.steps)
        surviving = dict(gt.trace.steps)
        if exclude_refuted:
            asserted = _without_refuted(asserted)
            surviving = _without_refuted(surviving)
        if not anchor_items:
            anchor_support = 1.0
        else:
            consistent = sum(
                1
                for a in anchor_items
                if a.step not in asserted or values_equal(asserted[a.step].value, a.value)
            )
            anchor_support = consistent / len(anchor_items)
        if not supported and not refuted:
            conflict_agreement = 0.5
        else:
            agree_frac = _asserted_share(asserted, supported)
            refute_frac = _asserted_share(asserted, refuted)
            conflict_agreement = min(1.0, max(0.0, (agree_frac - refute_frac + 1.0) / 2.0))
        confidences = [r.confidence for r in surviving.values()]
        mean_confidence = sum(confidences) / len(confidences) if confidences else 0.0
        w_a, w_c, w_g = weights
        total = w_a * anchor_support + w_c * conflict_agreement + w_g * mean_confidence
        return SynthesisScore(anchor_support, conflict_agreement, mean_confidence, total)

    candidates = sorted(retained, key=lambda gt: (gt.expert_id, gt.trace_index))
    fallback = bool(refuted) and all(_asserted_share(gt.asserted.steps, refuted) > 0 for gt in candidates)
    if fallback and log is not None:
        log.append("synthesize", "fallback", {"reason": "every candidate asserts a refuted statement"})
    best: tuple[GatedTrace, SynthesisScore] | None = None
    for gt in candidates:
        score = score_one(gt, exclude_refuted=fallback)
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


def _asserted_share(steps: Mapping[str, StepResult], statements: Sequence[tuple[str, Value]]) -> float:
    """The share of ``statements`` that ``steps`` asserts with an equal value; 0.0 when there are none."""
    if not statements:
        return 0.0
    hits = sum(1 for s, v in statements if s in steps and values_equal(steps[s].value, v))
    return hits / len(statements)


def run_pipeline(scenario: "Scenario", config: EngineConfig | None = None) -> RunResult:
    """Execute all four stages over a scenario and return the full bundle.

    Raises AllExpertsFailedError if nobody answers, NoFeasibleCandidateError
    (with the partial result attached) when nothing survives pruning.
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
        for record in scenario.facts_seed:
            facts.load_record(record)
        log.append(
            "facts",
            "seeded",
            {
                "tools": len(facts.tools()),
                "notes": len(facts.notes()),
                "facts": len(facts.facts()),
            },
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

    # A store without verified facts answers every consistency check
    # "unknown", which is exactly what the gate assumes with no store at all.
    gate_facts = facts if cfg.facts_enabled and facts.verified_facts() else None
    retained: list[GatedTrace] = []
    screening: list[ScreeningRecord] = []
    salvageable: list[tuple[int, ExpertOutput, GateResult]] = []
    for idx, output in enumerate(collected.outputs):
        result = gate(output, gate_facts, scenario.constraints, scenario.dag, cfg.gate_threshold)
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
            screening.append(ScreeningRecord(output.expert_id, idx, reason, result.score))
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
            retained.append(GatedTrace(result.trace, result.score, idx, source))
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
            retained.append(GatedTrace(fragment, result.score, idx, output))
            log.append(
                "prune",
                "backtrack",
                {"expert": output.expert_id, "trace": idx,
                 "retained_steps": sorted(keep), "score": result.score},
                (output.expert_id,),
            )

    retained.sort(key=lambda gt: (gt.expert_id, gt.trace_index))
    pool = statements([gt.trace for gt in retained])
    log.append("anchor", "statements", {"count": len(pool)})

    buckets = group_by_step(pool)
    anchors, collisions = anchor(buckets, cfg.theta)
    for a in anchors.items():
        log.append(
            "anchor",
            "promote",
            {"step": a.step, "value": format_literal(a.value), "supporters": len(a.supporters)},
            (a.step,),
        )
    for step in collisions:
        log.append("anchor", "collision", {"step": step}, (step,))

    conflict_set = conflicts(buckets, anchors)
    for item in conflict_set.items():
        log.append(
            "audit",
            "conflict",
            {"step": item.step,
             "candidates": [format_literal(c.value) for c in item.candidates]},
            (item.step,),
        )

    ranked = rank_conflicts(conflict_set, scenario.dag, buckets)
    b_max = cfg.budget if cfg.budget is not None else min(len(conflict_set), BUDGET_CAP)
    budget = AuditBudget(b_max=b_max)
    if ranked:
        log.append("audit", "plan", {"order": list(ranked), "budget": b_max})
        registry = scenario.registry()
        run_audit(
            ranked, conflict_set, anchors, budget, registry, retained,
            facts, {r.id: r for r in facts.tools()}, scenario.tool_runner(),
            scenario.constraints, log,
        )

    partial = RunResult(
        answer=None,
        winner_expert=None,
        score=None,
        anchors=anchors,
        conflicts=conflict_set,
        retained=tuple(retained),
        screening=tuple(screening),
        audit_log=log,
        verify_calls=budget.consumed,
        facts=facts,
        config=cfg,
    )
    if not retained:
        log.append("synthesize", "abstain", {"reason": "no feasible candidate"})
        raise NoFeasibleCandidateError("no feasible candidate response", result=partial)

    winner, score, fallback = synthesize(retained, anchors, conflict_set, cfg.normalized_weights, log)
    log.append(
        "synthesize",
        "answer",
        {"expert": winner.expert_id, "response": format_literal(winner.trace.response),
         "total": score.total},
        (winner.expert_id,),
    )
    partial.answer = winner.trace.response
    partial.winner_expert = winner.expert_id
    partial.score = score
    partial.fallback_used = fallback
    return partial
