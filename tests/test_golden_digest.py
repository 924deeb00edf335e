"""Audit logs over the fixed corpora must stay byte-identical.

Every scenario of the desk corpus runs under ``EngineConfig()``, then every
scenario of the adversarial corpus under ``EngineConfig(theta=3)``. An
abstention contributes the log of its partial result. All 550 log texts
feed one sha256, in order. A change that moves this digest changes what
``audit.log`` records, and has to say so.

The same corpora also show that every ``EngineConfig`` field acts: for
each one, two values lead some scenario to a different log.
"""

import dataclasses
import hashlib

import pytest

from crosscheck.corpus import GeneratorParams, adversarial_corpus, random_corpus
from crosscheck.engine import EngineConfig, run_pipeline
from crosscheck.errors import NoFeasibleCandidateError

GOLDEN_LOGS = 550
GOLDEN_SHA256 = "9025a6e91ca7eaa1ed7f82c564f5224f41ce1d010dbdbe1a2f30dc5fe54f7004"

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


def _log_text(scenario, config) -> str:
    try:
        return run_pipeline(scenario, config).audit_log.to_text()
    except NoFeasibleCandidateError as exc:
        return exc.result.audit_log.to_text()


def test_audit_logs_match_golden_digest():
    runs = _golden_runs()
    digest = hashlib.sha256()
    for scenario, config in runs:
        digest.update(_log_text(scenario, config).encode("utf-8"))
    assert len(runs) == GOLDEN_LOGS
    assert digest.hexdigest() == GOLDEN_SHA256


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
