"""One op of each workload, and the checks on its output.

Program entry points are looked up through their modules at call time
(``engine.run_pipeline``), so the traced run's wrappers see every call.
The checks run outside the timed part of an op.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from crosscheck import engine
from crosscheck.auditlog import replay
from crosscheck.errors import NoFeasibleCandidateError
from crosscheck.facts import DERIVED, LOW, RETRIEVED, VERIFIED, FactStore, ToolRecord


def pipeline_op(scenario, config):
    """One run plus the log text ``crosscheck run`` persists; an abstention is a result."""
    try:
        result = engine.run_pipeline(scenario, config)
    except NoFeasibleCandidateError as exc:
        result = exc.result
    return result, result.audit_log.to_text()


def check_pipeline(result, text: str) -> list[str]:
    """Replay must be clean and the audit must stay within its planned budget."""
    problems = []
    if not replay(result.audit_log).ok:
        problems.append("replay found violations")
    budget = next(
        (e.payload["budget"] for e in result.audit_log if e.stage == "audit" and e.event == "plan"),
        0,
    )
    if result.verify_calls > budget:
        problems.append(f"{result.verify_calls} verify calls over planned budget {budget}")
    if not text:
        problems.append("empty audit log")
    return problems


def answer_correct(result, scenario) -> bool:
    """The answer equals the oracle's; an abstention is wrong."""
    return result.answer is not None and result.answer == scenario.oracle.answer


@dataclass
class StoreReference:
    """An independent model of promotion: the expected status of every promoted fact.

    A promotion is verified iff verified facts already speak to its key,
    all with an equal value, and its note is not of low credibility. The
    stream's values are small ints and fixed words, so plain equality is
    the store's canonical equality on them.
    """

    verified: dict[str, set] = field(default_factory=dict)
    promotions: int = 0
    matched: int = 0

    def expect(self, key, value, credibility: str) -> str:
        seen = self.verified.get(key)
        consistent = bool(seen) and seen == {value}
        return VERIFIED if consistent and credibility != LOW else "unverified"

    def record(self, key, value, status: str) -> None:
        if status == VERIFIED:
            self.verified.setdefault(key, set()).add(value)


def store_op(store: FactStore, op: tuple):
    """One mutation; a promotion includes the consistency read that gates it."""
    kind = op[0]
    if kind == "tool":
        return store.record_tool(op[1])
    if kind == "note":
        return store.summarize_to_note(op[1], note_id=op[2])
    if kind == "promote":
        _, key, value, note_id, category = op
        report = store.check_consistency((key, value))
        return store.promote_fact(note_id, category, report, key, value)
    if kind == "given":
        return store.add_given(op[1], op[2])
    return store.add_assumption(op[1], op[2])


def check_store_op(ref: StoreReference, store: FactStore, op: tuple, out) -> list[str]:
    """Compare a mutation's result with the reference model, then advance the model."""
    kind = op[0]
    if kind == "promote":
        _, key, value, note_id, _ = op
        expected = ref.expect(key, value, store.get_note(note_id).credibility)
        ref.promotions += 1
        if out.status != expected:
            return [f"promotion {out.id} got status {out.status}, reference says {expected}"]
        ref.matched += 1
        ref.record(key, value, out.status)
    elif kind == "given":
        ref.record(op[1], op[2], out.status)
    return []


def check_store(store: FactStore) -> tuple[list[str], str]:
    """End-of-pass checks; returns problems and the sha256 of the store dump."""
    problems = list(store.verify_promotion_soundness())
    for fact in store.verified_facts():
        if fact.category in (RETRIEVED, DERIVED):
            chain = store.provenance_chain(fact.id)
            if not any(isinstance(x, ToolRecord) for x in chain):
                problems.append(f"fact {fact.id} has no tool record in its provenance chain")
    digest = hashlib.sha256("\n".join(store.to_lines()).encode("utf-8")).hexdigest()
    return problems, digest
