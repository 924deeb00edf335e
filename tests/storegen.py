"""Randomized fact-store workloads for property and acceptance tests."""

import bisect
import random

from crosscheck.facts import DERIVED, RETRIEVED, FactStore, ToolRecord
from crosscheck.values import number, text

KEYS = [f"k{i}" for i in range(8)]


def random_value(rng: random.Random):
    if rng.random() < 0.7:
        return number(rng.randint(0, 5))
    return text(rng.choice(["alpha", "beta", "gamma"]))


def apply_random_ops(store: FactStore, rng: random.Random, n_ops: int) -> None:
    """Drive the store through a random but always-legal mutation sequence.

    Tool and note ids are listed once and then kept sorted as ops add them,
    which makes the same rng calls as re-listing the store before every op.
    """
    tool_seq = 0
    tool_ids = sorted(t.id for t in store.tools())
    note_ids = sorted(n.id for n in store.notes())
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.35 or not tool_ids:
            tool_seq += 1
            bisect.insort(tool_ids, store.record_tool(ToolRecord(
                id=f"t{rng.randrange(10**9)}-{tool_seq}",
                tool_name=rng.choice(["search", "calc", "fetch"]),
                params={"q": rng.randint(0, 9)},
                outcome=random_value(rng),
                source_url="https://example.test/doc" if rng.random() < 0.5 else None,
                retrieved_at=f"T{rng.randint(0, 999):03d}",
            )))
        elif roll < 0.6:
            picked = rng.sample(tool_ids, k=min(len(tool_ids), rng.randint(1, 3)))
            bisect.insort(note_ids, store.summarize_to_note(picked).id)
        elif roll < 0.85 and note_ids:
            key = rng.choice(KEYS)
            value = random_value(rng)
            report = store.check_consistency((key, value))
            store.promote_fact(
                rng.choice(note_ids),
                rng.choice([RETRIEVED, DERIVED]),
                report,
                key,
                value,
            )
        elif roll < 0.95:
            store.add_given(rng.choice(KEYS), random_value(rng))
        else:
            store.add_assumption(rng.choice(KEYS), random_value(rng))


def build_random_store(seed: int, n_ops: int = 60) -> FactStore:
    store = FactStore()
    apply_random_ops(store, random.Random(seed), n_ops)
    return store
