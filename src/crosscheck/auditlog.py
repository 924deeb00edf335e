"""Append-only audit log: every pipeline event, replayable byte-for-byte.

Each entry is one JSON object per line with fields in fixed order
(``seq``, ``stage``, ``event``, ``payload``, ``parent_refs``); payload keys
are emitted sorted at every level and numbers use shortest round-trip
formatting, so two runs over identical inputs serialize to identical
bytes. The log contains no wall-clock timestamps by design — time would
be the only source of nondeterminism in an otherwise pure pipeline.

The log is its lines. Each event is encoded once, as it arrives, by
``AuditLog.append`` or one of the writers below, and only its line is
kept; a NaN or an infinity in the payload raises ``ValueError`` there
and the log stays as it was, so a non-finite number never reaches the
text. ``to_text`` joins the kept lines, and
iterating a log parses them back (``AuditLogEntry.from_line``), so
``replay`` of a live log checks exactly the bytes that ``audit.log``
holds. An entry read back holds what the line holds: a tuple in a
payload comes back as a list, and a non-string key as a string.

Two ways write a line, with the same bytes. ``append`` serves every event
kind: its payload dict goes through one encoder, chosen once, at import
(the C encoder from ``json``'s accelerator when the interpreter has it,
else ``json.JSONEncoder.encode`` with the same settings), inside the
fixed frame that ``AuditLogEntry.to_line`` and ``from_lines`` share. The
five kinds a run logs once per trace, anchor or candidate
(``ensemble/expert_output``, ``prune/excise``, ``gate/accept``,
``anchor/promote``, ``synthesize/score``; about 94% of a large run's
events) each have a writer method that formats its line from its fields
in one f-string, as the encoder would: payload keys in sorted order,
strings through ``encode_basestring``, integers as decimal digits, floats
through ``float.__repr__``. A writer checks its floats first and raises
the encoder's own ``ValueError`` for a non-finite one, appending nothing.
The generic path is the reference the writers are tested against.

``replay`` walks a recorded log and independently reconstructs the
anchor/conflict evolution, flagging any entry the state machine cannot
explain. It is how a reader audits a run without trusting the engine that
produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring
from math import isfinite
from typing import Callable, Iterable, Iterator

from .errors import ParseError

STAGES = ("gate", "prune", "anchor", "audit", "synthesize", "ensemble", "facts")

# allow_nan=False raises ValueError instead of writing a bare NaN or
# Infinity token, which is not JSON.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False, sort_keys=True)


def _payload_encoder() -> Callable[[dict], str]:
    """``_ENCODER.encode`` without the encoder it builds on every call.

    ``JSONEncoder.encode`` makes a new C encoder per object. This one is
    made once; ``markers=None`` skips the circular-reference check, which
    no payload needs: the engine builds each one fresh and ``from_line``
    gets its payloads from ``json.loads``.
    """
    if c_make_encoder is None:
        return _ENCODER.encode
    encode = c_make_encoder(None, _ENCODER.default, encode_basestring, None, ":", ",", True, False, False)
    return lambda payload: "".join(encode(payload, 0))


_encode_payload = _payload_encoder()
_repr_float = float.__repr__  # how both encoders write a float, even a subclass with its own repr


def _line(seq: int, stage: str, event: str, payload: dict, parent_refs: Iterable[str]) -> str:
    """One event's line: the fixed frame around the encoded payload."""
    return (
        f'{{"seq":{seq:d},"stage":{encode_basestring(stage)},'
        f'"event":{encode_basestring(event)},"payload":{_encode_payload(payload)},'
        f'"parent_refs":[{",".join(map(encode_basestring, parent_refs))}]}}'
    )


@dataclass(frozen=True)
class AuditLogEntry:
    seq: int
    stage: str
    event: str
    payload: dict
    parent_refs: tuple[str, ...] = ()

    def to_line(self) -> str:
        return _line(self.seq, self.stage, self.event, self.payload, self.parent_refs)

    @classmethod
    def from_line(cls, line: str, lineno: int = 0) -> "AuditLogEntry":
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, an overlong integer literal, deep nesting
            raise ParseError(f"audit log line {lineno}: {exc}") from exc
        try:
            seq, stage, event, payload = obj["seq"], obj["stage"], obj["event"], obj["payload"]
            parent_refs = obj.get("parent_refs", [])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"audit log line {lineno} missing field: {exc}") from exc
        if isinstance(seq, bool) or not isinstance(seq, int):
            raise ParseError(f"audit log line {lineno}: seq must be an integer, got {seq!r}")
        if not isinstance(stage, str) or not isinstance(event, str):
            raise ParseError(f"audit log line {lineno}: stage and event must be strings")
        if not isinstance(payload, dict):
            raise ParseError(f"audit log line {lineno}: payload must be an object, got {payload!r}")
        if not isinstance(parent_refs, list) or not all(isinstance(r, str) for r in parent_refs):
            raise ParseError(f"audit log line {lineno}: parent_refs must be a list of strings, got {parent_refs!r}")
        return cls(seq, stage, event, payload, tuple(parent_refs))


class AuditLog:
    """Strictly ordered event journal; append is the only mutation.

    It keeps each event as its encoded line, and iterating it parses the
    lines back into entries, on every pass.
    """

    def __init__(self) -> None:
        self._lines: list[str] = []

    def append(self, stage: str, event: str, payload: dict, parent_refs: Iterable[str] = ()) -> None:
        """Encode one event as the next line; ValueError, and no line, for an unknown stage or a non-finite number."""
        if stage not in STAGES:
            raise ValueError(f"unknown audit stage {stage!r}")
        self._lines.append(_line(len(self._lines) + 1, stage, event, payload, parent_refs))

    # The per-trace kinds (see the module docstring): each writer appends the
    # line ``append`` would write for the payload its fields make.

    def expert_output(self, expert: str, trace: int, steps: int, response: str) -> None:
        """``ensemble/expert_output``: one collected trace, its step count and its response literal."""
        ref = encode_basestring(expert)
        self._lines.append(
            f'{{"seq":{len(self._lines) + 1:d},"stage":"ensemble","event":"expert_output","payload":'
            f'{{"expert":{ref},"response":{encode_basestring(response)},"steps":{steps:d},"trace":{trace:d}}},'
            f'"parent_refs":[{ref}]}}'
        )

    def prune_excise(self, expert: str, trace: int, failing: Iterable[str], removed: Iterable[str]) -> None:
        """``prune/excise``: the steps of a trace that failed a check, and all the steps cut with them."""
        ref = encode_basestring(expert)
        self._lines.append(
            f'{{"seq":{len(self._lines) + 1:d},"stage":"prune","event":"excise","payload":'
            f'{{"expert":{ref},"failing":[{",".join(map(encode_basestring, failing))}],'
            f'"removed":[{",".join(map(encode_basestring, removed))}],"trace":{trace:d}}},'
            f'"parent_refs":[{ref}]}}'
        )

    def gate_accept(self, expert: str, trace: int, score: float, retained_steps: int) -> None:
        """``gate/accept``: a trace that passed the gate, its score and how many steps it kept."""
        if not isfinite(score):
            _encode_payload(score)  # raises the encoder's ValueError
        ref = encode_basestring(expert)
        self._lines.append(
            f'{{"seq":{len(self._lines) + 1:d},"stage":"gate","event":"accept","payload":'
            f'{{"expert":{ref},"retained_steps":{retained_steps:d},"score":{_repr_float(score)},"trace":{trace:d}}},'
            f'"parent_refs":[{ref}]}}'
        )

    def anchor_promote(self, step: str, value: str, supporters: int) -> None:
        """``anchor/promote``: a quorum anchor, its value literal and its count of distinct experts."""
        ref = encode_basestring(step)
        self._lines.append(
            f'{{"seq":{len(self._lines) + 1:d},"stage":"anchor","event":"promote","payload":'
            f'{{"step":{ref},"supporters":{supporters:d},"value":{encode_basestring(value)}}},'
            f'"parent_refs":[{ref}]}}'
        )

    def synthesize_score(self, expert: str, trace: int, anchor_support: float, conflict_agreement: float,
                         mean_confidence: float, total: float) -> None:
        """``synthesize/score``: one candidate's three score terms and their weighted total."""
        if not (isfinite(anchor_support) and isfinite(conflict_agreement)
                and isfinite(mean_confidence) and isfinite(total)):
            _encode_payload([anchor_support, conflict_agreement, mean_confidence, total])  # raises, as above
        ref = encode_basestring(expert)
        self._lines.append(
            f'{{"seq":{len(self._lines) + 1:d},"stage":"synthesize","event":"score","payload":'
            f'{{"anchor_support":{_repr_float(anchor_support)},'
            f'"conflict_agreement":{_repr_float(conflict_agreement)},"expert":{ref},'
            f'"mean_confidence":{_repr_float(mean_confidence)},"total":{_repr_float(total)},"trace":{trace:d}}},'
            f'"parent_refs":[{ref}]}}'
        )

    def __iter__(self) -> Iterator[AuditLogEntry]:
        return (AuditLogEntry.from_line(line, lineno) for lineno, line in enumerate(self._lines, start=1))

    def to_lines(self) -> list[str]:
        return list(self._lines)

    def to_text(self) -> str:
        lines = self.to_lines()
        lines.append("")
        return "\n".join(lines)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "AuditLog":
        """Parse recorded lines, skipping blank ones; ParseError for a line that does not parse or re-encode."""
        log = cls()
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                log._lines.append(AuditLogEntry.from_line(line, lineno).to_line())
            except ValueError as exc:  # a NaN or Infinity token parses, but is not JSON
                raise ParseError(f"audit log line {lineno}: {exc}") from exc
        return log


@dataclass
class ReplayState:
    """Anchor/conflict evolution reconstructed from a recorded log."""

    anchors: dict[str, str] = field(default_factory=dict)  # step -> value literal
    conflict_states: dict[str, str] = field(default_factory=dict)  # step -> open|supported|refuted|inconclusive
    verify_calls: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def replay(entries: Iterable[AuditLogEntry]) -> ReplayState:
    """Re-derive the anchor/conflict state machine from an audit log.

    Checks the structural invariants a trustworthy log must satisfy:
    ``seq`` running 1, 2, 3… with no gap, known stages, string step names,
    anchors only ever added, verify events confined to open conflicts, an
    integer budget counter moving one step per verify call, and anchored
    steps leaving the open set. Verify events also follow the one audit
    plan: each comes after it, at a step of its order, never back to an
    earlier step than the verify before, and no more of them than its
    budget. Each decision follows from its verdicts: a verify examines
    its conflict's next untried candidate, a promote follows a
    ``support`` verdict for its value, and a resolve follows the verdict
    on its conflict's last candidate and is ``refuted`` exactly when
    every verdict at its step refuted. Nothing follows the final
    ``synthesize/answer`` or ``synthesize/abstain``. Violations are
    collected, not raised — a replay is a report.
    """
    state = ReplayState()
    last_seq = 0
    plan_rank: dict[str, int] | None = None  # step -> position in the plan's order, once planned
    plan_budget = 0
    last_rank = -1
    candidates: dict[str, list[str]] = {}  # step -> its conflict's candidate literals
    verdicts: dict[str, list[tuple[object, object]]] = {}  # step -> (value, verdict) per verify, in order
    final: AuditLogEntry | None = None
    for entry in entries:
        if entry.seq != last_seq + 1:
            state.violations.append(f"seq {entry.seq} not increasing by one after {last_seq}")
        last_seq = entry.seq
        if final is not None:
            state.violations.append(f"seq {entry.seq}: event after the final {final.stage}/{final.event}")
        if entry.stage == "synthesize" and entry.event in ("answer", "abstain"):
            final = entry
        if entry.stage not in STAGES:
            state.violations.append(f"seq {entry.seq}: unknown stage {entry.stage!r}")
            continue
        payload = entry.payload
        step = payload.get("step", "")
        if not isinstance(step, str):
            state.violations.append(f"seq {entry.seq}: step {step!r} is not a string")
            continue
        if entry.stage == "anchor" and entry.event == "promote":
            if step in state.anchors:
                state.violations.append(f"seq {entry.seq}: step {step!r} anchored twice")
            state.anchors[step] = payload.get("value", "")
        elif entry.stage == "audit" and entry.event == "conflict":
            if step in state.anchors:
                state.violations.append(f"seq {entry.seq}: conflict registered at anchored step {step!r}")
            listed = payload.get("candidates")
            if not isinstance(listed, list) or not all(isinstance(c, str) for c in listed):
                state.violations.append(f"seq {entry.seq}: malformed candidates {listed!r} at {step!r}")
                listed = []
            candidates[step] = listed
            verdicts[step] = []
            state.conflict_states[step] = "open"
        elif entry.stage == "audit" and entry.event == "plan":
            order, budget = payload.get("order"), payload.get("budget")
            if plan_rank is not None:
                state.violations.append(f"seq {entry.seq}: audit planned twice")
            if not isinstance(order, list) or not all(isinstance(s, str) for s in order) or type(budget) is not int:
                state.violations.append(f"seq {entry.seq}: malformed plan order {order!r} or budget {budget!r}")
                order, budget = [], 0
            plan_rank = {s: i for i, s in enumerate(order)}
            plan_budget = budget
        elif entry.stage == "audit" and entry.event == "verify":
            state.verify_calls += 1
            if step not in state.conflict_states:
                state.violations.append(f"seq {entry.seq}: verify at unregistered step {step!r}")
            elif state.conflict_states[step] != "open":
                state.violations.append(f"seq {entry.seq}: verify at non-open conflict {step!r}")
            value = payload.get("value")
            tried = verdicts.setdefault(step, [])
            untried = candidates.get(step, [])[len(tried):]
            if not untried or value != untried[0]:
                state.violations.append(f"seq {entry.seq}: verify of {value!r} at {step!r} is not its next candidate")
            tried.append((value, payload.get("verdict")))
            used = payload.get("budget_used")
            if type(used) is not int or used != state.verify_calls:
                state.violations.append(f"seq {entry.seq}: budget counter {used!r} is not {state.verify_calls}")
            if plan_rank is None:
                state.violations.append(f"seq {entry.seq}: verify before the audit plan")
                continue
            if step not in plan_rank:
                state.violations.append(f"seq {entry.seq}: verify at step {step!r} outside the plan order")
            elif plan_rank[step] < last_rank:
                state.violations.append(f"seq {entry.seq}: verify goes back to step {step!r} in the plan order")
            else:
                last_rank = plan_rank[step]
            if state.verify_calls > plan_budget:
                state.violations.append(
                    f"seq {entry.seq}: verify call {state.verify_calls} over the planned budget {plan_budget}"
                )
        elif entry.stage == "audit" and entry.event == "promote":
            if state.conflict_states.get(step) != "open":
                state.violations.append(f"seq {entry.seq}: promoted non-open conflict {step!r}")
            if verdicts.get(step, [])[-1:] != [(payload.get("value"), "support")]:
                state.violations.append(f"seq {entry.seq}: promote at {step!r} without a support verdict for its value")
            state.anchors[step] = payload.get("value", "")
            state.conflict_states[step] = "supported"
        elif entry.stage == "audit" and entry.event == "resolve":
            outcome = payload.get("state", "")
            if state.conflict_states.get(step) != "open":
                state.violations.append(f"seq {entry.seq}: resolved non-open conflict {step!r}")
            if outcome not in ("refuted", "inconclusive"):
                state.violations.append(f"seq {entry.seq}: bad resolve state {outcome!r}")
            else:
                seen = [verdict for _, verdict in verdicts.get(step, [])]
                if len(seen) != len(candidates.get(step, [])):
                    state.violations.append(f"seq {entry.seq}: resolve at {step!r} before its last candidate")
                expected = "refuted" if seen and all(v == "refute" for v in seen) else "inconclusive"
                if outcome != expected:
                    state.violations.append(f"seq {entry.seq}: resolve {outcome!r} at {step!r} after verdicts {seen!r}")
            state.conflict_states[step] = outcome
    overlap = set(state.anchors) & {s for s, st in state.conflict_states.items() if st == "open"}
    for step in sorted(overlap):
        state.violations.append(f"step {step!r} is both anchored and an open conflict")
    return state
