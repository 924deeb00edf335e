"""Audit logs over the fixed corpora must stay byte-identical.

Every scenario of the desk corpus runs under ``EngineConfig()``, then every
scenario of the adversarial corpus under ``EngineConfig(theta=3)``. An
abstention contributes the log of its partial result. All 550 log texts
feed one sha256, in order. A change that moves this digest changes what
``audit.log`` records, and has to say so.

The first eight scenarios of the bench's ``wide`` shape (up to 64 experts
by 64 steps) get a digest of their own, and every line of all these logs
equals the one a general-purpose ``JSONEncoder`` writes for it.

The same corpora also show that every ``EngineConfig`` field acts: for
each one, two values lead some scenario to a different log. And they show
that the audit only examines values the gate admitted, which is why no
verify operator re-checks the constraints, and every log replays clean.
"""

import dataclasses
import functools
import hashlib

import pytest

from crosscheck.auditlog import AuditLog, replay
from crosscheck.corpus import GeneratorParams, adversarial_corpus, random_corpus, random_scenario
from crosscheck.engine import EngineConfig, run_pipeline
from crosscheck.scenario import scenario_from_dict
from crosscheck.values import parse_literal, values_equal
from oracles import reference_line

GOLDEN_LOGS = 550
GOLDEN_SHA256 = "40cb116fb209c1dd63722d5f6a8225e9fe30a529d28a14c75df17262fda6ce52"

# The bench's ``wide`` generator settings; seeds from 10_000 on.
WIDE_PARAMS = GeneratorParams(max_experts=64, max_steps=64, agreement=0.5, distractors=4,
                              edge_prob=0.1, with_constraints=True)
WIDE_LOGS = 8
WIDE_SHA256 = "4e201d1107e11e62c4f4aa75ad7a1960c9333b88028f9ed71a0dbdca55be75d9"

# Two values of each field, to be told apart by some golden scenario's log.
SETTINGS = {
    "theta": (2, 3),
    "budget": (None, 0),
    "gate_threshold": (0.5, 1.0),
    "weights": ((0.5, 0.3, 0.2), (0.0, 0.0, 1.0)),
    "facts_enabled": (True, False),
}


def _golden_runs():
    """(scenario, config) in digest order."""
    desk, _ = random_corpus(1, 500, GeneratorParams(with_constraints=True, with_facts=True))
    return [(s, EngineConfig()) for s in desk] + [(s, EngineConfig(theta=3)) for s in adversarial_corpus()]


def _wide_runs():
    """(scenario, config) in digest order."""
    return [(random_scenario(10_000 + i, WIDE_PARAMS), EngineConfig()) for i in range(WIDE_LOGS)]


def _log_text(scenario, config) -> str:
    return run_pipeline(scenario, config).audit_log.to_text()


def test_audit_logs_match_golden_digest():
    runs = _golden_runs()
    digest = hashlib.sha256()
    for scenario, config in runs:
        digest.update(_log_text(scenario, config).encode("utf-8"))
    assert len(runs) == GOLDEN_LOGS
    assert digest.hexdigest() == GOLDEN_SHA256


def test_wide_audit_logs_match_digest():
    digest = hashlib.sha256()
    for scenario, config in _wide_runs():
        digest.update(_log_text(scenario, config).encode("utf-8"))
    assert digest.hexdigest() == WIDE_SHA256


@functools.cache
def _pinned_entries():
    return tuple(entry for scenario, config in _golden_runs() + _wide_runs()
                 for entry in run_pipeline(scenario, config).audit_log)


def test_every_pinned_line_matches_the_reference_encoder(json_path):
    mismatch = next((e for e in _pinned_entries() if e.to_line() != reference_line(e)), None)
    assert mismatch is None, mismatch


def test_every_golden_log_replays_clean():
    for scenario, config in _golden_runs():
        state = replay(AuditLog.from_lines(_log_text(scenario, config).splitlines()))
        assert state.ok, (scenario.name, state.violations)


def test_every_engine_config_field_has_two_settings():
    assert [f.name for f in dataclasses.fields(EngineConfig)] == list(SETTINGS)


@pytest.mark.parametrize("name", list(SETTINGS))
def test_every_engine_setting_changes_some_audit_log(name):
    # The ``config`` event lists every field, so only the lines below it count.
    first, second = SETTINGS[name]
    for scenario, config in _golden_runs():
        logs = [_log_text(scenario, dataclasses.replace(config, **{name: value})).split("\n", 1)[1]
                for value in (first, second)]
        if logs[0] != logs[1]:
            return
    pytest.fail(f"EngineConfig.{name} = {first!r} and {second!r} give identical logs on every golden scenario")


def _facts_guarded_scenario():
    """A verified fact at s1 cuts e02's and e03's values there; a range cuts e03's s2.

    Uncut, s1 would be a three-way conflict and s2 would offer 500 to the audit.
    """
    return scenario_from_dict({
        "query": "q",
        "dag": {"steps": ["s1", "s2"], "edges": []},
        "constraints": [{"id": "facts", "check": "facts", "step_pattern": "*"},
                        {"id": "band", "check": "range", "step_pattern": "s2", "min": 0, "max": 100}],
        "experts": [
            {"expert_id": f"e0{i}", "class": "conservative", "temperature": 0.1, "seed": i,
             "traces": [{"steps": {"s1": {"value": s1, "confidence": 0.9}, "s2": {"value": s2, "confidence": 0.8}},
                         "response": s2}]}
            for i, s1, s2 in ((1, 6, 10), (2, 7, 11), (3, 8, 500))
        ],
        "verdict_table": {"s2|num:11": "refute"},
        "facts_seed": [{"kind": "fact", "id": "f1", "category": "given", "key": "s1", "value": 6,
                        "status": "verified"}],
    })


def test_the_audit_sees_only_values_the_gate_admits():
    guarded = _facts_guarded_scenario()
    runs = _golden_runs() + [(guarded, EngineConfig(budget=4)), (guarded, EngineConfig(budget=4, facts_enabled=False))]
    examined = 0
    for scenario, config in runs:
        result = run_pipeline(scenario, config)
        verified = result.facts.verified_facts()
        for entry in result.audit_log:
            if entry.stage != "audit" or entry.event != "verify":
                continue
            step, value = entry.payload["step"], parse_literal(entry.payload["value"])
            assert all(c.holds(value) for c in scenario.constraints
                       if c.predicate is not None and c.applies_to_step(step)), (scenario.name, step, value)
            assert all(values_equal(f.value, value) for f in verified if f.key == step), (scenario.name, step, value)
            examined += 1
    assert examined > 200
