"""The random store generator is test data: its output must never drift.

``apply_random_ops`` tracks tool and note ids itself instead of re-listing
the store on every op. These digests were taken from the generator that
re-listed and re-sorted every id, so they pin the rng call sequence too.
"""

import hashlib
import json
import random

from crosscheck.facts import FactStore

from storegen import apply_random_ops, build_random_store

DUMP_SHA256 = "e97134a051b2b310cf8149fc3ba97c1f31408a18084a7da602598e3a979c1bc4"
OPLOG_SHA256 = "590485e4d6f51685f9fecd61e595c58f8afc882dcd16a43940ff73bc2fe60874"
SLICED_DUMP_SHA256 = "3b0c63e808b7374d975b65ec19866676dc07e2d5a8d85bf7e8a1d31c4e97dc10"
SLICED_OPLOG_SHA256 = "f8c0c8bf805a70b00f49e83992e73415aa53bc870442bfd01e5ad3dbed6f1ac9"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_random_store_output_is_pinned():
    store = build_random_store(4242, 10_000)
    assert _sha256("".join(line + "\n" for line in store.to_lines())) == DUMP_SHA256
    assert _sha256(json.dumps(store.oplog)) == OPLOG_SHA256


def test_ops_on_a_populated_store_are_pinned():
    # Later calls start from a store that already holds tools and notes.
    store = FactStore()
    rng = random.Random(17)
    for n in (1, 2, 50, 47, 200):
        apply_random_ops(store, rng, n)
    assert _sha256("".join(line + "\n" for line in store.to_lines())) == SLICED_DUMP_SHA256
    assert _sha256(json.dumps(store.oplog)) == SLICED_OPLOG_SHA256
