"""Provenance-tracked facts: tool records, credibility notes, reusable facts.

Knowledge moves through three tiers. Raw tool invocations land as
:class:`ToolRecord` (tool identity, parameters, outcome, source metadata).
Records are summarized into :class:`Note` annotations carrying a
credibility judgment. Only facts promoted through a consistency check may
reach ``verified`` status, and only verified facts take part in
consistency checks against new candidates — that promotion gate is what
keeps downstream reasoning grounded.

Facts fall into four categories: ``given`` (task premises, born verified),
``retrieved`` and ``derived`` (must trace back to tool records through
notes), and ``assumption`` (born unverified). The store is append-only:
versions strictly increase, nothing is ever deleted or changed, and every
mutation is journaled so promotion soundness can be re-checked after the
fact.

Concurrency contract: single writer, any number of readers.
"""

from __future__ import annotations

import json
import marshal
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BrokenChainError, DuplicateIdError, ParseError, SchemaError, UnknownIdError
from .values import Value, format_literal, shared_text, value_from_json, value_to_json, values_comparable, values_equal

GIVEN = "given"
RETRIEVED = "retrieved"
DERIVED = "derived"
ASSUMPTION = "assumption"
CATEGORIES = (GIVEN, RETRIEVED, DERIVED, ASSUMPTION)

UNVERIFIED = "unverified"
VERIFIED = "verified"
REFUTED = "refuted"
STATUSES = (UNVERIFIED, VERIFIED, REFUTED)

HIGH = "high"
MEDIUM = "medium"
LOW = "low"
CREDIBILITIES = (HIGH, MEDIUM, LOW)

CONSISTENT = "consistent"
CONFLICT = "conflict"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ToolRecord:
    id: str
    tool_name: str
    params: dict[str, object]
    outcome: Value
    source_url: str | None = None
    retrieved_at: str | None = None


def params_key(tool_name: str, params: dict[str, object]) -> str:
    """Deterministic lookup key for a tool invocation: name + canonical params JSON.

    ``params`` must be a JSON object whose numbers are all finite; anything
    else raises TypeError or ValueError.
    """
    if not isinstance(params, dict):
        raise TypeError(f"params must be an object, got {type(params).__name__}")
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
    return f"{tool_name}|{canonical}"


@dataclass(frozen=True)
class Note:
    id: str
    summary: str
    credibility: str
    derived_from: tuple[str, ...]


@dataclass(frozen=True)
class Fact:
    id: str
    category: str
    key: str
    value: Value
    status: str
    version: int = 1
    derived_from: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConsistencyReport:
    verdict: str
    conflicting_fact_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if (self.verdict == CONFLICT) != bool(self.conflicting_fact_ids):
            raise ValueError("verdict=conflict iff conflicting_fact_ids nonempty")


def conflicting_fact_ids(same_key: Iterable[Fact], value: Value) -> tuple[str, ...]:
    """The conflict rule: the ids of the same-key verified facts whose value is unequal to ``value``.

    A candidate conflicts with the verified facts iff this is nonempty.
    """
    return tuple(f.id for f in same_key if not values_equal(f.value, value))


def default_summarizer(records: Sequence[ToolRecord]) -> tuple[str, str]:
    """Summarize outcomes and judge credibility from their mutual agreement.

    high: all outcomes pairwise equal under canonical equality.
    low: some pair is comparable yet unequal (a genuine conflict).
    medium: otherwise (incommensurate kinds or units).
    """
    outcomes = [r.outcome for r in records]
    credibility = HIGH
    for i in range(len(outcomes)):
        for j in range(i + 1, len(outcomes)):
            if values_equal(outcomes[i], outcomes[j]):
                continue
            if values_comparable(outcomes[i], outcomes[j]):
                return _render_summary(outcomes), LOW
            credibility = MEDIUM
    return _render_summary(outcomes), credibility


def _render_summary(outcomes: Sequence[Value]) -> str:
    return "; ".join(format_literal(v) for v in outcomes)


class FactStore:
    """Single-writer, append-only store over the three tiers."""

    def __init__(self) -> None:
        self._tools: dict[str, ToolRecord] = {}
        self._notes: dict[str, Note] = {}
        self._facts: dict[str, Fact] = {}
        self.oplog: list[tuple[str, ...]] = []

    # -- tool tier ----------------------------------------------------------

    def record_tool(self, record: ToolRecord) -> str:
        if record.id in self._tools:
            raise DuplicateIdError(f"tool record {record.id!r} already present")
        self._tools[record.id] = record
        self.oplog.append(("tool", record.id))
        return record.id

    def get_tool(self, tool_id: str) -> ToolRecord:
        try:
            return self._tools[tool_id]
        except KeyError:
            raise UnknownIdError(f"unknown tool record {tool_id!r}") from None

    def tools(self) -> tuple[ToolRecord, ...]:
        return tuple(self._tools[i] for i in sorted(self._tools))

    # -- notes tier ----------------------------------------------------------

    def summarize_to_note(self, tool_ids: Sequence[str], note_id: str | None = None) -> Note:
        if not tool_ids:
            raise UnknownIdError("a note needs at least one tool record (empty provenance forbidden)")
        summary, credibility = default_summarizer([self.get_tool(i) for i in tool_ids])
        note = Note(
            id=self._fresh_id("note", note_id, self._notes),
            summary=summary,
            credibility=credibility,
            derived_from=tuple(tool_ids),
        )
        self._notes[note.id] = note
        self.oplog.append(("note", note.id))
        return note

    def get_note(self, note_id: str) -> Note:
        try:
            return self._notes[note_id]
        except KeyError:
            raise UnknownIdError(f"unknown note {note_id!r}") from None

    def notes(self) -> tuple[Note, ...]:
        return tuple(self._notes[i] for i in sorted(self._notes))

    # -- facts tier ----------------------------------------------------------

    def promote_fact(
        self,
        note_id: str,
        category: str,
        validation: ConsistencyReport,
        key: str,
        value: Value,
        fact_id: str | None = None,
    ) -> Fact:
        """Promote a note into a fact; verified only on a clean consistency check.

        The fact is retained even when it fails the gate (status stays
        ``unverified``) so a later audit can inspect it.
        """
        if category not in (RETRIEVED, DERIVED):
            raise SchemaError(f"promotion handles retrieved/derived facts, got {category!r}")
        note = self.get_note(note_id)
        verified = validation.verdict == CONSISTENT and note.credibility != LOW
        fact = Fact(
            id=self._fresh_id("fact", fact_id, self._facts),
            category=category,
            key=key,
            value=value,
            status=VERIFIED if verified else UNVERIFIED,
            derived_from=(note_id,),
        )
        self._facts[fact.id] = fact
        self.oplog.append(("promote", fact.id, validation.verdict, note.credibility, fact.status))
        return fact

    def add_given(self, key: str, value: Value, fact_id: str | None = None) -> Fact:
        """Task premises arrive verified; they are the ground the run stands on."""
        return self._add_base(GIVEN, VERIFIED, key, value, fact_id)

    def add_assumption(self, key: str, value: Value, fact_id: str | None = None) -> Fact:
        return self._add_base(ASSUMPTION, UNVERIFIED, key, value, fact_id)

    def _add_base(self, category: str, status: str, key: str, value: Value, fact_id: str | None) -> Fact:
        fact = Fact(
            id=self._fresh_id("fact", fact_id, self._facts),
            category=category,
            key=key,
            value=value,
            status=status,
        )
        self._facts[fact.id] = fact
        self.oplog.append((category, fact.id, status))
        return fact

    def get_fact(self, fact_id: str) -> Fact:
        try:
            return self._facts[fact_id]
        except KeyError:
            raise UnknownIdError(f"unknown fact {fact_id!r}") from None

    def facts(self) -> tuple[Fact, ...]:
        return tuple(self._facts[i] for i in sorted(self._facts))

    def verified_facts(self) -> tuple[Fact, ...]:
        return tuple(f for f in self.facts() if f.status == VERIFIED)

    def verified_by_key(self) -> dict[str, tuple[Fact, ...]]:
        """The verified facts grouped by key, ids ascending within each key; one listing of the store."""
        grouped: dict[str, list[Fact]] = {}
        for f in self.verified_facts():
            grouped.setdefault(f.key, []).append(f)
        return {key: tuple(same_key) for key, same_key in grouped.items()}

    # -- consistency & provenance --------------------------------------------

    def check_consistency(self, candidate: tuple[str, Value]) -> ConsistencyReport:
        """Compare a (key, value) candidate against the verified facts.

        conflict: some verified fact shares the key with an unequal value.
        consistent: verified facts share the key and all agree.
        unknown: no verified fact speaks to the key.
        """
        key, value = candidate
        same_key = [f for f in self.verified_facts() if f.key == key]
        clashing = conflicting_fact_ids(same_key, value)
        if clashing:
            return ConsistencyReport(CONFLICT, clashing)
        if same_key:
            return ConsistencyReport(CONSISTENT)
        return ConsistencyReport(UNKNOWN)

    def provenance_chain(self, fact_id: str) -> list[object]:
        """Fact, then its notes, then the tool records behind them, in reference order."""
        fact = self.get_fact(fact_id)
        chain: list[object] = [fact]
        seen_tools: set[str] = set()
        for note_id in fact.derived_from:
            if note_id not in self._notes:
                raise BrokenChainError(f"fact {fact_id!r} references missing note {note_id!r}")
            note = self._notes[note_id]
            chain.append(note)
            for tool_id in note.derived_from:
                if tool_id not in self._tools:
                    raise BrokenChainError(f"note {note_id!r} references missing tool {tool_id!r}")
                if tool_id not in seen_tools:
                    seen_tools.add(tool_id)
                    chain.append(self._tools[tool_id])
        return chain

    def verify_promotion_soundness(self) -> list[str]:
        """Replay the journal; report any fact whose status the rules cannot explain.

        Seeded facts (loaded from a dump or a scenario) are axiomatic and
        exempt; everything else must have earned ``verified`` through a
        consistent report and non-low credibility.
        """
        expected: dict[str, str] = {}
        violations = []
        for op in self.oplog:
            kind = op[0]
            if kind == "promote":
                _, fact_id, verdict, credibility, status = op
                should = VERIFIED if (verdict == CONSISTENT and credibility != LOW) else UNVERIFIED
                if status != should:
                    violations.append(f"promotion of {fact_id} recorded status {status}, rules say {should}")
                expected[fact_id] = status
            elif kind in (GIVEN, ASSUMPTION, "seed_fact"):
                expected[op[1]] = op[2]
        for fact_id, status in expected.items():
            actual = self._facts.get(fact_id)
            if actual is None:
                violations.append(f"journaled fact {fact_id} missing from store (deletion is forbidden)")
            elif actual.status != status:
                violations.append(f"fact {fact_id} has status {actual.status}, journal implies {status}")
        for fact_id in self._facts:
            if fact_id not in expected:
                violations.append(f"fact {fact_id} present without any journal entry")
        return violations

    # -- serialization ---------------------------------------------------------

    def to_lines(self) -> list[str]:
        """Line-delimited dump: tools, then notes, then facts, each sorted by id."""
        return [_dump_record(_record(entry)) for entry in (*self.tools(), *self.notes(), *self.facts())]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "FactStore":
        store = cls()
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # JSONDecodeError, an overlong integer literal, deep nesting
                raise SchemaError(f"bad store record on line {lineno}: {exc}") from exc
            store.load_record(obj)
        return store

    def load_record(self, obj: dict) -> None:
        """Insert one dump record as given; dumps and scenario seeds load this way."""
        self.insert(decode_record(obj))

    def insert(self, entry: ToolRecord | Note | Fact) -> None:
        """Add a decoded entry as given, once everything it derives from is present."""
        if isinstance(entry, ToolRecord):
            self.record_tool(entry)
        elif isinstance(entry, Note):
            for tool_id in entry.derived_from:
                self.get_tool(tool_id)
            self._notes[self._fresh_id("note", entry.id, self._notes)] = entry
            self.oplog.append(("note", entry.id))
        else:
            for note_id in entry.derived_from:
                self.get_note(note_id)
            self._facts[self._fresh_id("fact", entry.id, self._facts)] = entry
            self.oplog.append(("seed_fact", entry.id, entry.status))

    def _fresh_id(self, prefix: str, requested: str | None, table: dict) -> str:
        if requested is not None:
            if requested in table:
                raise DuplicateIdError(f"{prefix} id {requested!r} already present")
            return requested
        n = len(table) + 1
        while f"{prefix}{n:04d}" in table:
            n += 1
        return f"{prefix}{n:04d}"


def _string_field(obj: dict, name: str) -> str:
    """A field that must be text: ids and keys get sorted, and a number among strings breaks that."""
    value = obj[name]
    if not isinstance(value, str):
        raise SchemaError(f"{obj['kind']} record field {name!r} must be a string, got {type(value).__name__}")
    return value


def decode_record(obj: dict) -> ToolRecord | Note | Fact:
    """One dump record as a frozen entry for :meth:`FactStore.insert`.

    A missing or malformed field raises SchemaError naming it. ``at``
    marks the field being converted by plain assignment, so a valid
    record pays nothing for the boundary.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"store record must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    at = "id"
    try:
        if kind == "tool":
            tool_id, tool_name = _string_field(obj, "id"), _string_field(obj, "tool_name")
            if "|" in tool_name:  # no tool_scripts key could name the invocation
                raise SchemaError(f"tool record field 'tool_name' must not contain '|', got {tool_name!r}")
            at = "params"
            params = marshal.loads(marshal.dumps(obj.get("params", {})))  # a copy that shares nothing
            params_key(tool_name, params)
            at = "outcome"
            outcome = value_from_json(obj["outcome"])
            return ToolRecord(
                id=tool_id,
                tool_name=tool_name,
                params=params,
                outcome=outcome,
                source_url=_optional_string_field(obj, "source_url"),
                retrieved_at=_optional_string_field(obj, "retrieved_at"),
            )
        if kind == "note":
            at = "derived_from"
            derived = _ids_field(obj)
            if not derived:
                raise SchemaError(f"note {obj.get('id')!r} has empty provenance")
            credibility = obj["credibility"]
            if credibility not in CREDIBILITIES:
                raise SchemaError(f"unknown credibility {credibility!r}")
            return Note(id=_string_field(obj, "id"), summary=_string_field(obj, "summary"),
                        credibility=credibility, derived_from=derived)
        if kind == "fact":
            category = obj["category"]
            status = obj.get("status", UNVERIFIED)
            if category not in CATEGORIES:
                raise SchemaError(f"unknown fact category {category!r}")
            if status not in STATUSES:
                raise SchemaError(f"unknown fact status {status!r}")
            at = "derived_from"
            derived = _ids_field(obj) if "derived_from" in obj else ()
            if category in (RETRIEVED, DERIVED) and not derived:
                raise SchemaError(f"{category} fact {obj.get('id')!r} needs note provenance")
            at = "value"
            value = value_from_json(obj["value"])
            at = "version"
            version = obj.get("version", 1)
            if type(version) is not int or version < 1:
                raise TypeError(f"must be an int >= 1, got {version!r}")
            # Many records, few categories, statuses and keys: hold the constants and one string per key.
            return Fact(id=_string_field(obj, "id"), category=CATEGORIES[CATEGORIES.index(category)],
                        key=shared_text(_string_field(obj, "key")), value=value,
                        status=STATUSES[STATUSES.index(status)], version=version, derived_from=derived)
    except KeyError as exc:
        raise SchemaError(f"{kind} record missing field {exc}") from exc
    except (TypeError, ValueError, ParseError) as exc:
        raise SchemaError(f"{kind} record field {at!r}: {exc}") from exc
    raise SchemaError(f"unknown record kind {kind!r}")


def _optional_string_field(obj: dict, name: str) -> str | None:
    value = obj.get(name)
    if value is not None and not isinstance(value, str):
        raise SchemaError(f"{obj['kind']} record field {name!r} must be a string or null, got {type(value).__name__}")
    return value


def _ids_field(obj: dict) -> tuple[str, ...]:
    ids = obj["derived_from"]
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise TypeError(f"must be a list of ids, got {ids!r}")
    return tuple(ids)


def _record(entry: ToolRecord | Note | Fact) -> dict:
    """The dump record of one store entry; ``FactStore.load_record`` reads it back."""
    if isinstance(entry, ToolRecord):
        return {
            "kind": "tool",
            "id": entry.id,
            "tool_name": entry.tool_name,
            "params": {k: entry.params[k] for k in sorted(entry.params)},
            "outcome": value_to_json(entry.outcome),
            "source_url": entry.source_url,
            "retrieved_at": entry.retrieved_at,
        }
    if isinstance(entry, Note):
        return {
            "kind": "note",
            "id": entry.id,
            "summary": entry.summary,
            "credibility": entry.credibility,
            "derived_from": list(entry.derived_from),
        }
    return {
        "kind": "fact",
        "id": entry.id,
        "category": entry.category,
        "key": entry.key,
        "value": value_to_json(entry.value),
        "status": entry.status,
        "version": entry.version,
        "derived_from": list(entry.derived_from),
    }


def _dump_record(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
