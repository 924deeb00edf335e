"""Audit logs over the fixed corpora must stay byte-identical.

Every scenario of the desk corpus runs under ``EngineConfig()``, then every
scenario of the adversarial corpus under ``EngineConfig(theta=3)``. An
abstention contributes the log of its partial result. All 550 log texts
feed one sha256, in order. A change that moves this digest changes what
``audit.log`` records, and has to say so.
"""

import hashlib

from crosscheck.corpus import GeneratorParams, adversarial_corpus, random_corpus
from crosscheck.engine import EngineConfig, run_pipeline
from crosscheck.errors import NoFeasibleCandidateError

GOLDEN_LOGS = 550
GOLDEN_SHA256 = "12c42c7cbf25d4f24df2d323adf6039575e67e677aecc5d9e921460365b1569d"


def _log_text(scenario, config) -> str:
    try:
        return run_pipeline(scenario, config).audit_log.to_text()
    except NoFeasibleCandidateError as exc:
        return exc.result.audit_log.to_text()


def test_audit_logs_match_golden_digest():
    desk, _ = random_corpus(1, 500, GeneratorParams(with_constraints=True, with_facts=True))
    runs = [(s, EngineConfig()) for s in desk]
    runs += [(s, EngineConfig(theta=3)) for s in adversarial_corpus()]
    digest = hashlib.sha256()
    for scenario, config in runs:
        digest.update(_log_text(scenario, config).encode("utf-8"))
    assert len(runs) == GOLDEN_LOGS
    assert digest.hexdigest() == GOLDEN_SHA256
