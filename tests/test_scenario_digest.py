"""Saved scenarios must keep their bytes.

``scenario_to_dict`` is what ``save_scenario`` writes and what the benchmark
hashes into its input pins, and shorthand trace values (a bare ``42``
rather than ``{"kind": "number", "value": 42}``) must come back as written.
One sha256 over the canonical JSON of a seeded corpus, the adversarial set
and a hand-written scenario pins those bytes.
"""

from __future__ import annotations

import hashlib
import json

from crosscheck.corpus import GeneratorParams, adversarial_corpus, random_corpus
from crosscheck.scenario import scenario_from_dict, scenario_to_dict

SCENARIO_SHA256 = "317d65d3d48a0147384fadf9892398781d9595160ce3f265d6e72d2c0ac58de9"


def _hand_written() -> dict:
    """Shorthand and explicit values, defaults left out, provenance, non-ASCII text."""
    return {
        "name": "hand-written",
        "query": "Wie groß ist der Hof? — 中庭",
        "dag": {"steps": ["s1", "s2", "s3"], "edges": [["s1", "s2"], ["s2", "s3"]]},
        "constraints": [],
        "experts": [
            {"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": 3,
             "traces": [
                 {"steps": {"s2": {"value": 2.5, "confidence": 0.8, "provenance": ["t-1", "t-2"]},
                            "s1": {"value": "Straße"},
                            "s3": {"value": {"kind": "quantity", "value": 12, "unit": "m²"},
                                   "confidence": 1}},
                  "response": [1, "zwölf", True, {"kind": "number", "value": 1e-300}]},
                 {"steps": {"s1": {"value": False, "confidence": 0.25}},
                  "analysis": "ohne Gewähr",
                  "response": {"kind": "text", "value": " Ärger "}},
             ]},
            {"expert_id": "e02", "class": "radical", "temperature": 0.9, "seed": 4,
             "traces": [{"steps": {}, "analysis": "", "response": 0.1}], "fail": True},
        ],
        "verdict_table": {"s1|txt:\"straße\"": "support"},
        "tool_scripts": {},
        "oracle": {"answer": {"kind": "number", "value": 7}, "truth": {}},
    }


def _hand_written_store() -> dict:
    """Shorthand store records with optional fields left out, a tool key with
    spaces, and verdict keys that differ only within the numeric tolerance."""
    return {
        "name": "hand-written-store",
        "query": "q",
        "dag": {"steps": ["s1", "s2"], "edges": [["s1", "s2"]]},
        "constraints": [{"id": "r", "check": "range", "min": 0}],
        "experts": [
            {"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": 1,
             "traces": [{"steps": {"s1": {"value": 1.0, "provenance": ["t1"]}}, "response": 1}]},
        ],
        "verdict_table": {"s1|num:1": "refute", "s1|num:1.0": "support", "s2|txt:\"ok\"": "inconclusive"},
        "tool_scripts": {'calc|{"x": 1, "a": "b"}': 1.0, "echo|{}": {"kind": "text", "value": "ok"}},
        "oracle": {"answer": {"kind": "number", "value": 1}, "truth": {"s1": {"kind": "number", "value": 1}}},
        "facts_seed": [
            {"kind": "tool", "id": "t1", "tool_name": "calc", "params": {"x": 1, "a": "b"}, "outcome": 1},
            {"id": "t2", "kind": "tool", "tool_name": "echo", "outcome": "ok", "source_url": None},
            {"kind": "note", "id": "n1", "summary": "one", "credibility": "high", "derived_from": ["t1", "t2"]},
            {"kind": "fact", "id": "f1", "category": "derived", "key": "s1", "value": 1.0,
             "derived_from": ["n1"]},
            {"kind": "fact", "id": "f0", "category": "given", "key": "s2", "value": "ok", "status": "verified"},
        ],
    }


def _canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _digest() -> str:
    corpus, _ = random_corpus(1, 200, GeneratorParams(with_constraints=True, with_facts=True))
    scenarios = corpus + adversarial_corpus(50) + [scenario_from_dict(_hand_written())]
    digest = hashlib.sha256()
    for scenario in scenarios:
        digest.update(_canonical(scenario_to_dict(scenario)).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def test_saved_scenarios_match_pinned_digest():
    assert _digest() == SCENARIO_SHA256


def test_hand_written_scenario_saves_as_written():
    for obj in (_hand_written(), _hand_written_store()):
        saved = scenario_to_dict(scenario_from_dict(obj))
        # Key order too: the saved file lists fields as the scenario carried them.
        assert json.dumps(saved, ensure_ascii=False) == json.dumps(obj, ensure_ascii=False)
