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

Every stage reads the statement index of the run's collected outputs:
the scenario's, built once at load, or, for outputs it does not hold (a
live backend's), one built at the gate. It holds each step's value
classes (one per distinct value, as the loader shares one object per
printed value), a holder mask per class and the equality between the
classes. The gate checks each class at each checked step once per run
(:func:`verifiers.index_gate`) and each trace reads its failing steps
from the resulting masks. Anchoring, conflict detection, ranking and
synthesis read one table that :func:`statements` decides per run from
the same index, and the anchor of a step is its best-supported group,
found by count. A run decides each class with mask operations; it
neither walks the statements nor compares a value. Every decision lands
in the audit log; identical inputs reproduce the log byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, or_
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .auditlog import AuditLog
from .ensemble import CollectResult, ExpertOutput, StatementIndex, collect, index_statements, mask_bytes
from .errors import InvalidConfigError, InvalidThetaError, NoFeasibleCandidateError
from .facts import Fact, FactStore, Note, ToolRecord
from .plandag import PlanDag, removal_set
# Not called here: the benchmark's tracer wraps ``group_values`` under this name, and tests require it to resolve.
from .values import Value, format_literal, group_values, sum_in_order, values_equal  # noqa: F401
from .verifiers import (
    INCONCLUSIVE,
    REFUTE,
    SUPPORT,
    GateResult,
    OperatorRegistry,
    gate,
    index_constraints,
    index_gate,
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
        if not 0 < sum_in_order(self.weights) < math.inf:
            raise InvalidConfigError("weights must not all be zero, and their sum must be finite")
        if type(self.facts_enabled) is not bool:
            raise InvalidConfigError(f"facts_enabled must be a bool, got {self.facts_enabled!r}")

    @property
    def normalized_weights(self) -> tuple[float, float, float]:
        # Scaling all weights by a positive constant must not move the
        # argmax; normalizing here makes that exact rather than approximate.
        total = sum_in_order(self.weights)
        return (self.weights[0] / total, self.weights[1] / total, self.weights[2] / total)


def _is_real(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class StepClasses(NamedTuple):
    """One step's value classes in a run: class ``c`` is class ``first + c`` of the index.

    ``asserted[c]`` masks its retained holders, excised ones included;
    ``keep`` masks the traces whose statement here survived the gate.
    ``groups`` holds the value groups of the kept classes, in order of
    first kept holder: representative, kept holders, distinct experts.
    """

    first: int
    asserted: list[int]
    keep: int
    groups: list[tuple[Value, int, int]]


@dataclass(frozen=True)
class StatementTable:
    """A run's statements, decided per value class for every statement stage.

    ``retained[i]`` is bit ``positions[i]`` of ``index``'s masks. ``steps``
    maps each step that a retained trace asserts, in sorted order, to its
    :class:`StepClasses`. ``len()`` counts the retained statements.
    """

    retained: tuple[GatedTrace, ...]
    positions: tuple[int, ...]
    index: StatementIndex
    steps: dict[str, StepClasses]

    def __len__(self) -> int:
        return sum([len(gt.trace.step_ids) for gt in self.retained])

    def confidences(self, step: str) -> list[float]:
        """The confidences of the retained statements at ``step``, in trace order."""
        return [gt.trace.confidence_at(step) for gt in self.retained if step in gt.trace.step_ids]

    def holding(self, sc: StepClasses, value: Value) -> int:
        """The retained traces whose statement at ``sc``'s step equals ``value``, excised ones included.

        A class's value reads its equality row; another value, such as an
        anchor that a caller of :func:`synthesize` built, is compared with each class.
        """
        reps, first, count = self.index.reps, sc.first, len(sc.asserted)
        for c in range(first, first + count):
            if reps[c] is value:
                row = self.index.equal[c]
                break
        else:
            row = sum(values_equal(reps[first + c], value) << c for c in range(count))
        mask = 0
        for held in sc.asserted:
            if row & 1:
                mask |= held
            row >>= 1
        return mask


def statements(retained: Sequence[GatedTrace], index: StatementIndex | None = None) -> StatementTable:
    """Decide the run's statements per value class, from the index of the outputs they come from.

    ``index`` is the scenario's, built at load over the collected outputs,
    where a retained trace sits at its ``trace_index``; without one, or where
    it does not hold the retained traces there (a live backend's outputs,
    traces built by hand), one is built on the spot. A class's kept holders
    are its mask AND the retained traces' bits, minus those excised at the
    step. A step's kept classes join groups in order of first kept holder,
    each the first group whose representative its equality row holds, as a
    scan of the statements in trace order would. No value is compared.
    """
    retained = tuple(retained)
    positions = tuple([gt.trace_index for gt in retained])
    outputs = [gt.asserted for gt in retained]
    if (index is None or positions != tuple(sorted(set(positions)))
            or (positions and not 0 <= positions[0] <= positions[-1] < len(index.outputs))
            or [index.outputs[p] for p in positions] != outputs):  # outputs compare by identity
        index, positions = index_statements(outputs), tuple(range(len(retained)))
    in_run = sum([1 << p for p in positions])
    cut: dict[str, int] = {}  # step -> the traces whose statement there was excised
    for gt, p in zip(retained, positions):
        if gt.source is not None:
            for step in gt.source.step_ids - gt.trace.step_ids:
                cut[step] = cut.get(step, 0) | 1 << p
    width, equal, reps, distinct = len(index.outputs), index.equal, index.reps, index.distinct
    steps: dict[str, StepClasses] = {}
    first = 0
    for step, packed in zip(index.steps, index.holders):
        keep = in_run & ~cut.get(step, 0)
        asserted: list[int] = []
        order = []  # (lowest kept bit, class, kept holders) of each class with a kept holder
        while packed:
            held = packed & in_run
            kept = held & keep
            if kept:
                order.append((kept & -kept, len(asserted), kept))
            asserted.append(held)
            packed >>= width
        groups: dict[int, int] = {}  # the class of each group's representative -> the group's kept holders
        opened = 0  # the representatives' classes
        for _, c, kept in sorted(order):
            row = equal[first + c]
            c = next(r for r in groups if row >> r & 1) if row & opened else c
            groups[c] = groups.get(c, 0) | kept
            opened |= 1 << c
        if any(asserted):
            steps[step] = StepClasses(first, asserted, keep, [
                (reps[first + c], m, m.bit_count() if distinct else len(index.supporters(m)))
                for c, m in groups.items()])
        first += len(asserted)
    return StatementTable(retained, positions, index, steps)


class Anchor(NamedTuple):
    """A trusted value at ``step``, asserted by ``support`` distinct experts.

    ``holders`` masks the outputs of ``source`` behind it, as a group of
    :class:`StepClasses` does; :attr:`supporters` names their experts and
    is built only where it is read.
    """

    step: str
    value: Value
    support: int
    holders: int
    source: StatementIndex

    @property
    def supporters(self) -> tuple[str, ...]:
        """The distinct experts behind the anchor, sorted."""
        return self.source.supporters(self.holders)


class AnchorSet:
    """At most one trusted value per step; grows only."""

    def __init__(self) -> None:
        self._anchors: dict[str, Anchor] = {}

    def add(self, anchor: Anchor) -> None:
        if anchor.step in self._anchors:
            raise InvalidConfigError(f"step {anchor.step!r} already anchored")
        self._anchors[anchor.step] = anchor

    def items(self) -> tuple[Anchor, ...]:
        # A list first: ``tuple()`` of a generator resizes its tuple, which cost a ``wide`` run 0.5 MB of peak RSS.
        return tuple([self._anchors[s] for s in sorted(self._anchors)])

    def __len__(self) -> int:
        return len(self._anchors)

    def __contains__(self, step: str) -> bool:
        return step in self._anchors


def anchor(table: StatementTable, theta: int) -> tuple[AnchorSet, list[str]]:
    """Promote statements with quorum support; report quorum ties as collisions.

    A (step, value) is promoted when at least ``theta`` distinct experts
    asserted an equal value there. If several values at one step reach
    quorum, the better-supported one wins; an exact tie at the top anchors
    nothing and leaves the step for the conflict set. The values and their
    distinct-expert counts are the step's groups in ``table``, as
    :func:`statements` built it; one pass over them finds the top.
    """
    if theta < 2:
        raise InvalidThetaError(f"anchor quorum must be >= 2, got {theta}")
    anchors = AnchorSet()
    collisions: list[str] = []
    for step, sc in table.steps.items():
        top, best, tied = theta - 1, None, False
        for group in sc.groups:
            if group[2] > top:
                top, best, tied = group[2], group, False
            elif group[2] == top and best is not None:
                tied = True
        if tied:
            collisions.append(step)
        elif best is not None:
            anchors.add(Anchor(step, best[0], top, best[1], table.index))
    return anchors, collisions


@dataclass(frozen=True)
class Candidate:
    """A contested value, its distinct experts (sorted) and its group's holder mask (see :class:`Anchor`)."""

    value: Value
    supporters: tuple[str, ...]
    holders: int = field(repr=False)


@dataclass
class ConflictItem:
    step: str
    candidates: tuple[Candidate, ...]
    state: str = OPEN
    supported_value: Value | None = None
    refuted_values: list[Value] = field(default_factory=list)


class ConflictSet:
    def __init__(self) -> None:
        self._items: dict[str, ConflictItem] = {}

    def add(self, item: ConflictItem) -> None:
        self._items[item.step] = item

    def get(self, step: str) -> ConflictItem:
        return self._items[step]

    def items(self) -> tuple[ConflictItem, ...]:
        return tuple([self._items[s] for s in sorted(self._items)])  # a list first, as in AnchorSet.items

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
        if len(table.index.supporters(sum(kept for _, kept, _ in groups))) < 2:
            continue
        candidates = [Candidate(value, table.index.supporters(kept), kept) for value, kept, _ in groups]
        candidates.sort(key=lambda c: (-len(c.supporters), c.supporters[0], format_literal(c.value)))
        out.add(ConflictItem(step=step, candidates=tuple(candidates)))
    return out


def rank_conflicts(conflict_set: ConflictSet, dag: PlanDag, table: StatementTable,
                   closures: dict[str, frozenset[str]] | None = None) -> list[str]:
    """Audit order: impact = (1 + |dependents|) * confidence spread, descending.

    A contested step that feeds many downstream steps and splits expert
    confidence wide is worth a verify call more than a contested leaf
    everyone is equally unsure about. Ties fall back to step id. The
    spread is over the step's retained statements in ``table``. The step
    and its dependents are its :func:`removal_set`, over ``closures``, the
    run's memo of dependents closures that the gate filled.
    """
    spreads: dict[str, float] = {}
    for step in conflict_set.steps():
        confs = table.confidences(step)
        spreads[step] = (max(confs) - min(confs)) if confs else 0.0

    def impact(step: str) -> float:
        return len(removal_set(dag, (step,), closures)) * spreads[step]

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
                anchors.add(Anchor(step, candidate.value, len(candidate.supporters), candidate.holders, table.index))
                item.state = SUPPORTED
                item.supported_value = candidate.value
                log.append("audit", "promote", {"step": step, "value": literal}, (step,))
                break
            if verdict.value == REFUTE:
                item.refuted_values.append(candidate.value)
        if item.state == OPEN and not ran_out:
            item.state = REFUTED if len(item.refuted_values) == len(item.candidates) else INCONCLUSIVE
            log.append("audit", "resolve", {"step": step, "state": item.state}, (step,))
        if ran_out:
            break


def _candidate_provenance(table: StatementTable, step: str, value: Value) -> tuple[str, ...]:
    """The tool records behind every retained statement at ``step`` that equals ``value``."""
    sc = table.steps[step]
    kept = sc.keep & table.holding(sc, value)
    ids: set[str] = set()
    for gt, p in zip(table.retained, table.positions):
        if kept >> p & 1:
            ids.update(gt.trace.provenance(step))
    return tuple(sorted(ids))


def synthesize(
    table: StatementTable,
    anchors: AnchorSet,
    conflict_set: ConflictSet,
    weights: tuple[float, float, float],
    log: AuditLog,
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

    The candidates are ``table.retained``. The candidates that contradict
    an anchor, assert a supported value or lean on a refuted one are read
    as masks from the equality rows, and counted per candidate at once: no
    value is compared, and the work follows the steps, not the statements.
    """
    retained, positions = table.retained, table.positions
    if not retained:
        raise NoFeasibleCandidateError("no candidate response survived the gate")
    supported = conflict_set.supported_statements()
    refuted = conflict_set.refuted_statements()
    n_anchors = len(anchors)

    steps = table.steps
    # As masks over the candidates: those that lean on each refuted value,
    # and those that contradict each anchor or assert each supported value;
    # the fallback drops each candidate's statements that lean on a refuted value.
    leaned = [(step, table.holding(steps[step], value)) for step, value in refuted if step in steps]
    leans: dict[str, int] = {}
    for step, mask in leaned:
        leans[step] = leans.get(step, 0) | mask
    fallback = bool(refuted) and not sum([1 << p for p in positions]) & ~reduce(or_, leans.values(), 0)
    if fallback:
        log.append("synthesize", "fallback", {"reason": "every candidate asserts a refuted statement"})
    dropped_at = leans if fallback else {}
    contradicted = [(a.step, sum(steps[a.step].asserted) & ~table.holding(steps[a.step], a.value))
                    for a in anchors.items() if a.step in steps]
    agreed = [(step, table.holding(steps[step], value)) for step, value in supported if step in steps]
    n_contra, n_agree, n_lean = [_per_position([mask & ~dropped_at.get(step, 0) for step, mask in masks], positions)
                                 for masks in (contradicted, agreed, leaned)]
    order = sorted(range(len(retained)), key=lambda i: (retained[i].expert_id, retained[i].trace_index))
    w_a, w_c, w_g = weights
    best: tuple[int, float, float, float, float] | None = None
    for i in order:
        gt, p = retained[i], positions[i]
        dropped = {step for step, mask in leans.items() if mask >> p & 1} if fallback else frozenset()
        anchor_support = (n_anchors - n_contra[i]) / n_anchors if n_anchors else 1.0
        if not supported and not refuted:
            conflict_agreement = 0.5
        else:
            agree_frac = n_agree[i] / len(supported) if supported else 0.0
            refute_frac = n_lean[i] / len(refuted) if refuted else 0.0
            conflict_agreement = min(1.0, max(0.0, (agree_frac - refute_frac + 1.0) / 2.0))
        mean_confidence = gt.trace.mean_confidence(dropped)
        total = w_a * anchor_support + w_c * conflict_agreement + w_g * mean_confidence
        log.synthesize_score(gt.expert_id, gt.trace_index, anchor_support, conflict_agreement, mean_confidence, total)
        if best is None or total > best[4]:
            best = (i, anchor_support, conflict_agreement, mean_confidence, total)
    assert best is not None
    return retained[best[0]], SynthesisScore(*best[1:]), fallback


def _per_position(masks: list[int], positions: tuple[int, ...]) -> list[int]:
    """How many of ``masks`` hold each of ``positions``, which ascend.

    Each mask's bits, as bytes, are an integer's base-256 digits, so the
    integers' sum counts per digit; 255 masks at a time, so that no digit
    carries.
    """
    width = positions[-1] + 1
    counts = [0] * width
    for start in range(0, len(masks), 255):
        total = sum([int.from_bytes(mask_bytes(mask), "little") for mask in masks[start:start + 255]])
        counts = [*map(add, counts, total.to_bytes(max(width, (total.bit_length() + 7) // 8), "little"))]
    return [counts[p] for p in positions]


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
        log.expert_output(output.expert_id, idx, len(output.step_ids), format_literal(output.response))

    # The scenario's index holds the outputs its backend replays; others (a live backend's) are indexed here.
    index = scenario.statement_index
    if index.outputs != tuple(collected.outputs):  # outputs compare by identity
        index = index_statements(collected.outputs)
    # After seeding, a run never writes to its store: the gate reads its verified facts once, here.
    # With facts off the store stays empty, so the gate sees no verified fact.
    gated = index_gate(index_constraints(scenario.constraints, scenario.dag, facts), scenario.dag, index)
    retained: list[GatedTrace] = []
    salvageable: list[tuple[int, ExpertOutput, GateResult]] = []
    for idx, output in enumerate(collected.outputs):
        result = gate(gated, idx, cfg.gate_threshold)
        if result.removed:
            log.prune_excise(output.expert_id, idx, result.failing, result.removed)
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
            log.gate_accept(output.expert_id, idx, result.score, len(result.trace.step_ids))

    if not retained and salvageable:
        # Nothing passed the gate threshold; fall back to backtracking and
        # keep the valid fragments of every feasibly-answered trace.
        for idx, output, result in salvageable:
            keep = {s for s in output.step_ids if s not in result.removed}
            fragment = output.restricted_to(keep)
            retained.append(GatedTrace(fragment, idx, output))
            log.append(
                "prune",
                "backtrack",
                {"expert": output.expert_id, "trace": idx,
                 "retained_steps": sorted(keep), "score": result.score},
                (output.expert_id,),
            )

    table = statements(retained, index)
    log.append("anchor", "statements", {"count": len(table)})

    anchors, collisions = anchor(table, cfg.theta)
    for a in anchors.items():
        log.anchor_promote(a.step, format_literal(a.value), a.support)
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

    ranked = rank_conflicts(conflict_set, scenario.dag, table, gated.closures)
    b_max = cfg.budget if cfg.budget is not None else min(len(conflict_set), BUDGET_CAP)
    budget = AuditBudget(b_max=b_max)
    if ranked:
        log.append("audit", "plan", {"order": list(ranked), "budget": b_max})
        registry = scenario.registry(facts)
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
