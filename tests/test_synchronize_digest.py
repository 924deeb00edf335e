"""Pinned output of ``facts.synchronize``.

The digest covers the merged store's dump, its oplog and version, and the
conflict list, over three input families:

* seeded random store sets of one to four stores (their note and fact ids
  collide, so many merged ids are renamed ``id@digest``);
* a store merged with itself, and with a reloaded copy that has one
  verified fact downgraded (same fact ids, higher version);
* hand-built stores whose tool ids collide with a different outcome,
  ``source_url`` or non-ASCII params, merged in both input orders. Random
  stores never share a tool id, so only these cases rename tools;
* one fact promoted under one id with different verdicts in two stores,
  in both orders (equal versions, so the status decides which is kept).

Any change to merged ids, dump bytes, oplog entries, versions or conflicts
changes the digest.
"""

from __future__ import annotations

import hashlib
import json
import random

from crosscheck.facts import DERIVED, RETRIEVED, UNVERIFIED, VERIFIED, ConsistencyReport, FactStore, ToolRecord, synchronize
from crosscheck.values import number, quantity, text

from storegen import build_random_store

SYNCHRONIZE_DIGEST = "2a8152a57cc2d1b6755b2b28d8f44b42798ba13c4461c5f69c2fa94f39cc1182"


def _random_sets():
    for i in range(120):
        rng = random.Random(i)
        seeds = [rng.randrange(10_000) for _ in range(rng.randint(1, 4))]
        yield [build_random_store(seed, n_ops=rng.choice([20, 40, 60])) for seed in seeds]


def _self_merges():
    for seed in (3, 11, 29):
        store = build_random_store(seed, n_ops=60)
        yield [store, store]
        reloaded = FactStore.from_lines(store.to_lines())
        verified = [f for f in reloaded.facts() if f.status == VERIFIED]
        reloaded.downgrade(verified[len(verified) // 2].id, "stale copy")
        yield [store, reloaded]
        yield [reloaded, store]


def _tool_store(outcome, source_url=None, params=None, key="k"):
    store = FactStore()
    store.record_tool(ToolRecord(
        id="t1",
        tool_name="search",
        params=params if params is not None else {"q": "x", "page": 1},
        outcome=outcome,
        source_url=source_url,
        retrieved_at="T001",
    ))
    store.record_tool(ToolRecord(id="t2", tool_name="calc", params={"e": "1+1"}, outcome=number(2)))
    note = store.summarize_to_note(["t1", "t2"], note_id="n1")
    consistent = ConsistencyReport("consistent")
    store.promote_fact(note.id, RETRIEVED, consistent, key, outcome, fact_id="f1")
    store.promote_fact(note.id, DERIVED, consistent, "other", number(2), fact_id="f2")
    store.add_given("premise", text("ok"), fact_id="g1")
    return store


def _tool_collisions():
    base = _tool_store(number(42))
    variants = [
        _tool_store(number(17)),
        _tool_store(number(42), source_url="https://example.test/a"),
        _tool_store(number(42), params={"q": "ünïcödé 東京", "page": 1}),
        _tool_store(quantity(42, "m"), key="k2"),
    ]
    for other in variants:
        yield [base, other]
        yield [other, base]
    yield [base] + variants


def _status_ties():
    # One fact promoted under the same id by two stores, with different
    # verdicts: same content and version, different status.
    stores = []
    for verdict in ("consistent", "unknown"):
        store = _tool_store(number(42))
        store.summarize_to_note(["t2"], note_id="n2")
        store.promote_fact("n2", DERIVED, ConsistencyReport(verdict), "tie", number(2), fact_id="f3")
        stores.append(store)
    assert {store.get_fact("f3").status for store in stores} == {VERIFIED, UNVERIFIED}
    yield stores
    yield stores[::-1]


def _cases():
    yield from _random_sets()
    yield from _self_merges()
    yield from _tool_collisions()
    yield from _status_ties()


def _merge_digest() -> tuple[str, int, int]:
    h = hashlib.sha256()
    renamed = tool_renames = 0
    for stores in _cases():
        merged, conflicts = synchronize(stores)
        lines = merged.to_lines()
        renamed += sum("@" in e.id for e in (*merged.tools(), *merged.notes(), *merged.facts()))
        tool_renames += sum(t.id.startswith("t1@") for t in merged.tools())
        blob = json.dumps({
            "lines": lines,
            "conflicts": [[key, list(literals)] for key, literals in conflicts],
            "oplog": [list(op) for op in merged.oplog],
            "version": merged.version,
        }, separators=(",", ":"), ensure_ascii=False)
        h.update(blob.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest(), renamed, tool_renames


def test_synchronize_output_is_pinned():
    digest, renamed, tool_renames = _merge_digest()
    assert renamed > 100  # the random sets exercise renaming, not only disjoint unions
    assert tool_renames > 0
    assert digest == SYNCHRONIZE_DIGEST
