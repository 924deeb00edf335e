"""Evaluation reports over fixed corpora must stay byte-identical.

Each corpus is scored by ``evaluate_methods`` (every method) and by
``run_ablation`` under two configs: its own, and the same with facts off.
Every report contributes its JSON, without the wall clock, and its table.
All of them feed one sha256, in order. Labels, label order, verdicts,
verify calls, params and the table layout are all part of the digest.
"""

import dataclasses
import hashlib
import json

from crosscheck.baselines import METHODS, evaluate_methods, run_ablation
from crosscheck.corpus import GeneratorParams, adversarial_corpus, random_corpus, random_scenario
from crosscheck.engine import EngineConfig

from test_golden_digest import WIDE_PARAMS

REPORTS = 12
REPORT_SHA256 = "42746c38892a716ede7c4bfee8c5965a656755da65972b9d021584bdca5601c0"


def _corpora():
    """(corpus, config) pairs, each scored under its config and with facts off."""
    desk, _ = random_corpus(1, 200, GeneratorParams(with_constraints=True, with_facts=True))
    wide = [random_scenario(10_000 + i, WIDE_PARAMS) for i in range(3)]
    return [(desk, EngineConfig()), (adversarial_corpus(20), EngineConfig(theta=3, budget=2)),
            (wide, EngineConfig())]


def _report_bytes(report) -> bytes:
    payload = report.to_json()
    del payload["wall_time_s"]
    return (json.dumps(payload) + "\n" + report.to_table()).encode("utf-8")


def test_evaluation_reports_match_digest():
    digest = hashlib.sha256()
    reports = 0
    for corpus, config in _corpora():
        for cfg in (config, dataclasses.replace(config, facts_enabled=False)):
            for report in (evaluate_methods(corpus, METHODS, cfg), run_ablation(corpus, config=cfg)):
                digest.update(_report_bytes(report))
                reports += 1
    assert reports == REPORTS
    assert digest.hexdigest() == REPORT_SHA256
