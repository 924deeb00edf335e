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
versions strictly increase, nothing is ever deleted, and every mutation is
journaled so promotion soundness can be re-checked after the fact.

Concurrency contract: single writer, any number of readers. ``synchronize``
treats its inputs as immutable snapshots and builds a fresh merged store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from .errors import BrokenChainError, DuplicateIdError, ParseError, SchemaError, UnknownIdError
from .values import Value, format_literal, group_values, value_from_json, value_to_json, values_comparable, values_equal

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

    def params_key(self) -> str:
        return params_key(self.tool_name, self.params)


def params_key(tool_name: str, params: dict[str, object]) -> str:
    """Deterministic lookup key for a tool invocation: name + canonical params JSON."""
    return f"{tool_name}|{json.dumps(params, sort_keys=True, separators=(',', ':'), ensure_ascii=False)}"


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


Summarizer = Callable[[Sequence[ToolRecord]], tuple[str, str]]


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
        self._version = 0
        self.oplog: list[tuple[str, ...]] = []

    @property
    def version(self) -> int:
        return self._version

    def _bump(self, *op: str) -> None:
        self._version += 1
        self.oplog.append(op)

    # -- tool tier ----------------------------------------------------------

    def record_tool(self, record: ToolRecord) -> str:
        if record.id in self._tools:
            raise DuplicateIdError(f"tool record {record.id!r} already present")
        self._tools[record.id] = record
        self._bump("tool", record.id)
        return record.id

    def get_tool(self, tool_id: str) -> ToolRecord:
        try:
            return self._tools[tool_id]
        except KeyError:
            raise UnknownIdError(f"unknown tool record {tool_id!r}") from None

    def tools(self) -> tuple[ToolRecord, ...]:
        return tuple(self._tools[i] for i in sorted(self._tools))

    # -- notes tier ----------------------------------------------------------

    def summarize_to_note(
        self,
        tool_ids: Sequence[str],
        summarizer: Summarizer = default_summarizer,
        note_id: str | None = None,
    ) -> Note:
        if not tool_ids:
            raise UnknownIdError("a note needs at least one tool record (empty provenance forbidden)")
        records = [self.get_tool(i) for i in tool_ids]
        summary, credibility = summarizer(records)
        if credibility not in CREDIBILITIES:
            raise SchemaError(f"summarizer returned unknown credibility {credibility!r}")
        note = Note(
            id=self._fresh_id("note", note_id, self._notes),
            summary=summary,
            credibility=credibility,
            derived_from=tuple(tool_ids),
        )
        self._notes[note.id] = note
        self._bump("note", note.id)
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
        self._bump("promote", fact.id, validation.verdict, note.credibility, fact.status)
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
        self._bump(category, fact.id, status)
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

    def downgrade(self, fact_id: str, reason: str) -> Fact:
        """Flip a fact to unverified (merge divergence, refuting audit)."""
        fact = self.get_fact(fact_id)
        updated = replace(fact, status=UNVERIFIED, version=fact.version + 1)
        self._facts[fact_id] = updated
        self._bump("downgrade", fact_id, reason)
        return updated

    # -- consistency & provenance --------------------------------------------

    def check_consistency(self, candidate: tuple[str, Value]) -> ConsistencyReport:
        """Compare a (key, value) candidate against the verified facts.

        conflict: some verified fact shares the key with an unequal value.
        consistent: verified facts share the key and all agree.
        unknown: no verified fact speaks to the key.
        """
        key, value = candidate
        same_key = [f for f in self.verified_facts() if f.key == key]
        clashing = tuple(f.id for f in same_key if not values_equal(f.value, value))
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
        consistent report and non-low credibility, minus later downgrades.
        """
        expected: dict[str, str] = {}
        for op in self.oplog:
            kind = op[0]
            if kind == "promote":
                _, fact_id, verdict, credibility, status = op
                should = VERIFIED if (verdict == CONSISTENT and credibility != LOW) else UNVERIFIED
                if status != should:
                    return [f"promotion of {fact_id} recorded status {status}, rules say {should}"]
                expected[fact_id] = status
            elif kind in (GIVEN, ASSUMPTION, "seed_fact"):
                expected[op[1]] = op[2]
            elif kind == "downgrade":
                expected[op[1]] = UNVERIFIED
        violations = []
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
            except json.JSONDecodeError as exc:
                raise SchemaError(f"bad store record on line {lineno}: {exc}") from exc
            store.load_record(obj)
        return store

    def load_record(self, obj: dict) -> None:
        """Insert one dump record as given; dumps, scenario seeds and merges all load this way.

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
                tool_id, tool_name = obj["id"], obj["tool_name"]
                at = "params"
                params = dict(obj.get("params", {}))
                at = "outcome"
                outcome = value_from_json(obj["outcome"])
                at = "id"
                self.record_tool(ToolRecord(
                    id=tool_id,
                    tool_name=tool_name,
                    params=params,
                    outcome=outcome,
                    source_url=obj.get("source_url"),
                    retrieved_at=obj.get("retrieved_at"),
                ))
                return
            if kind == "note":
                at = "derived_from"
                derived = tuple(obj["derived_from"])
                if not derived:
                    raise SchemaError(f"note {obj.get('id')!r} has empty provenance")
                for tool_id in derived:
                    self.get_tool(tool_id)
                credibility = obj["credibility"]
                if credibility not in CREDIBILITIES:
                    raise SchemaError(f"unknown credibility {credibility!r}")
                at = "id"
                note = Note(id=obj["id"], summary=obj["summary"], credibility=credibility, derived_from=derived)
                if note.id in self._notes:
                    raise DuplicateIdError(f"note {note.id!r} already present")
                self._notes[note.id] = note
                self._bump("note", note.id)
                return
            if kind == "fact":
                category = obj["category"]
                status = obj.get("status", UNVERIFIED)
                if category not in CATEGORIES:
                    raise SchemaError(f"unknown fact category {category!r}")
                if status not in STATUSES:
                    raise SchemaError(f"unknown fact status {status!r}")
                at = "derived_from"
                derived = tuple(obj.get("derived_from", ()))
                if category in (RETRIEVED, DERIVED) and not derived:
                    raise SchemaError(f"{category} fact {obj.get('id')!r} needs note provenance")
                for note_id in derived:
                    self.get_note(note_id)
                at = "value"
                value = value_from_json(obj["value"])
                at = "version"
                version = int(obj.get("version", 1))
                at = "id"
                fact = Fact(id=obj["id"], category=category, key=obj["key"], value=value,
                            status=status, version=version, derived_from=derived)
                if fact.id in self._facts:
                    raise DuplicateIdError(f"fact {fact.id!r} already present")
                self._facts[fact.id] = fact
                self._bump("seed_fact", fact.id, fact.status)
                return
        except KeyError as exc:
            raise SchemaError(f"{kind} record missing field {exc}") from exc
        except (TypeError, ValueError, ParseError) as exc:
            raise SchemaError(f"{kind} record field {at!r}: {exc}") from exc
        raise SchemaError(f"unknown record kind {kind!r}")

    def _fresh_id(self, prefix: str, requested: str | None, table: dict) -> str:
        if requested is not None:
            if requested in table:
                raise DuplicateIdError(f"{prefix} id {requested!r} already present")
            return requested
        n = len(table) + 1
        while f"{prefix}{n:04d}" in table:
            n += 1
        return f"{prefix}{n:04d}"


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
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


# Not part of an entry's content: the id is what collides, and a fact at a
# later version (a downgrade) is the same fact.
_NOT_CONTENT = ("id", "status", "version")


def _rename_tier(tier: list[tuple[int, dict]], below: dict[tuple[int, str], str]) -> dict[tuple[int, str], str]:
    """Give one tier's ``(store index, dump record)`` pairs their merged ids, in place.

    References are first rewritten with ``below``, the renames of the tier
    underneath. Then an id whose content differs between stores becomes
    ``id@digest`` wherever it occurs; identical content keeps its id.
    Returns the renames, keyed by store index and old id.
    """
    contents: dict[str, set[str]] = {}
    blobs = []
    for store_index, record in tier:
        if "derived_from" in record:
            record["derived_from"] = [below[store_index, ref] for ref in record["derived_from"]]
        content = [value for field, value in record.items() if field not in _NOT_CONTENT]
        blob = json.dumps(content, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        contents.setdefault(record["id"], set()).add(blob)
        blobs.append(blob)
    renames = {}
    for (store_index, record), blob in zip(tier, blobs):
        new_id = record["id"]
        if len(contents[new_id]) > 1:
            new_id = f"{new_id}@{hashlib.sha256(blob.encode('utf-8')).hexdigest()[:8]}"
        renames[store_index, record["id"]] = new_id
        record["id"] = new_id
    return renames


def _supersedes(record: dict, kept: dict) -> bool:
    """Of two records with one merged id, and so one content, the higher
    version wins, then the lower status. Tools and notes have neither."""
    if record.get("version") != kept.get("version"):
        return record["version"] > kept["version"]
    return record.get("status", "") < kept.get("status", "")


def synchronize(stores: Sequence[FactStore]) -> tuple[FactStore, list[tuple[str, tuple[str, ...]]]]:
    """Merge store snapshots; report verified-fact divergence instead of resolving it.

    Ids are only unique within one store, so colliding ids with different
    content are renamed with a content digest (``id@a1b2c3d4``) and their
    in-store references rewritten — both sides survive the merge, which is
    what lets divergence be reported at all. Identical content dedupes;
    for facts, identity ignores status/version so the highest version (a
    later downgrade) wins. Same-key verified facts holding unequal values
    are all downgraded to unverified in the merged store and surfaced as
    ``(key, literals)`` conflicts — arbitration is the auditor's job, not
    the merge's. Everything is content-driven, so input order never
    changes the resulting verified-fact set.
    """
    tiers = [
        [(index, _record(tool)) for index, store in enumerate(stores) for tool in store.tools()],
        [(index, _record(note)) for index, store in enumerate(stores) for note in store.notes()],
        [(index, _record(fact)) for index, store in enumerate(stores) for fact in store.facts()],
    ]
    # Bottom-up: notes refer to renamed tools, facts to renamed notes.
    renames: dict[tuple[int, str], str] = {}
    for tier in tiers:
        renames = _rename_tier(tier, renames)

    merged = FactStore()
    for tier in tiers:
        chosen: dict[str, dict] = {}
        for _, record in tier:
            kept = chosen.get(record["id"])
            if kept is None or _supersedes(record, kept):
                chosen[record["id"]] = record
        for record_id in sorted(chosen):
            merged.load_record(chosen[record_id])

    conflicts: list[tuple[str, tuple[str, ...]]] = []
    by_key: dict[str, list[Fact]] = {}
    for fact in merged.verified_facts():
        by_key.setdefault(fact.key, []).append(fact)
    for key in sorted(by_key):
        group = sorted(by_key[key], key=lambda f: f.id)
        distinct = group_values((f.value, f.id) for f in group)
        if len(distinct) > 1:
            literals = tuple(sorted(format_literal(rep) for rep, _ in distinct))
            conflicts.append((key, literals))
            for fact in group:
                merged.downgrade(fact.id, f"merge divergence at {key!r}")

    merged._version = max([s.version for s in stores], default=0) + 1
    return merged, conflicts
