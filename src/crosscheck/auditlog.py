"""Append-only audit log: every pipeline event, replayable byte-for-byte.

Each entry is one JSON object per line with fields in fixed order
(``seq``, ``stage``, ``event``, ``payload``, ``parent_refs``); payload keys
are emitted sorted and numbers use shortest round-trip formatting, so two
runs over identical inputs serialize to identical bytes. The log contains
no wall-clock timestamps by design — time would be the only source of
nondeterminism in an otherwise pure pipeline.

``replay`` walks a recorded log and independently reconstructs the
anchor/conflict evolution, flagging any entry the state machine cannot
explain. It is how a reader audits a run without trusting the engine that
produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ParseError

STAGES = ("gate", "prune", "anchor", "audit", "synthesize", "ensemble", "facts")

# One shared encoder; allow_nan=False raises ValueError instead of writing
# a bare NaN or Infinity token, which is not JSON.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False)


@dataclass(frozen=True)
class AuditLogEntry:
    seq: int
    stage: str
    event: str
    payload: dict
    parent_refs: tuple[str, ...] = ()

    def to_line(self) -> str:
        obj = {
            "seq": self.seq,
            "stage": self.stage,
            "event": self.event,
            "payload": {k: self.payload[k] for k in sorted(self.payload)},
            "parent_refs": list(self.parent_refs),
        }
        return _ENCODER.encode(obj)

    @classmethod
    def from_line(cls, line: str, lineno: int = 0) -> "AuditLogEntry":
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
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
    """Strictly ordered event journal; append is the only mutation."""

    def __init__(self) -> None:
        self._entries: list[AuditLogEntry] = []

    def append(self, stage: str, event: str, payload: dict, parent_refs: Iterable[str] = ()) -> AuditLogEntry:
        if stage not in STAGES:
            raise ValueError(f"unknown audit stage {stage!r}")
        entry = AuditLogEntry(
            seq=len(self._entries) + 1,
            stage=stage,
            event=event,
            payload=payload,
            parent_refs=tuple(parent_refs),
        )
        self._entries.append(entry)
        return entry

    @property
    def entries(self) -> tuple[AuditLogEntry, ...]:
        return tuple(self._entries)

    def __iter__(self) -> Iterator[AuditLogEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def stage_entries(self, stage: str) -> tuple[AuditLogEntry, ...]:
        return tuple(e for e in self._entries if e.stage == stage)

    def to_lines(self) -> list[str]:
        return [e.to_line() for e in self._entries]

    def to_text(self) -> str:
        return "".join(line + "\n" for line in self.to_lines())

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "AuditLog":
        log = cls()
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            log._entries.append(AuditLogEntry.from_line(line, lineno))
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
    strictly increasing seq, known stages, string step names, anchors only
    ever added, verify events confined to open conflicts, budget counter
    moving one step per verify call, and anchored steps leaving the open
    set. Violations are collected, not raised — a replay is a report.
    """
    state = ReplayState()
    last_seq = 0
    for entry in entries:
        if entry.seq <= last_seq:
            state.violations.append(f"seq {entry.seq} not increasing after {last_seq}")
        last_seq = entry.seq
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
            state.conflict_states[step] = "open"
        elif entry.stage == "audit" and entry.event == "verify":
            state.verify_calls += 1
            if step not in state.conflict_states:
                state.violations.append(f"seq {entry.seq}: verify at unregistered step {step!r}")
            elif state.conflict_states[step] != "open":
                state.violations.append(f"seq {entry.seq}: verify at non-open conflict {step!r}")
            if payload.get("budget_used") != state.verify_calls:
                state.violations.append(
                    f"seq {entry.seq}: budget counter {payload.get('budget_used')} != {state.verify_calls}"
                )
        elif entry.stage == "audit" and entry.event == "promote":
            if state.conflict_states.get(step) != "open":
                state.violations.append(f"seq {entry.seq}: promoted non-open conflict {step!r}")
            state.anchors[step] = payload.get("value", "")
            state.conflict_states[step] = "supported"
        elif entry.stage == "audit" and entry.event == "resolve":
            outcome = payload.get("state", "")
            if state.conflict_states.get(step) != "open":
                state.violations.append(f"seq {entry.seq}: resolved non-open conflict {step!r}")
            if outcome not in ("refuted", "inconclusive"):
                state.violations.append(f"seq {entry.seq}: bad resolve state {outcome!r}")
            state.conflict_states[step] = outcome
    overlap = set(state.anchors) & {s for s, st in state.conflict_states.items() if st == "open"}
    for step in sorted(overlap):
        state.violations.append(f"step {step!r} is both anchored and an open conflict")
    return state
