"""Reference baselines and the evaluator that scores them against the pipeline.

Three baselines frame the pipeline's behaviour: majority voting (modal
response), simple verification (one-pass synthesis straight from the
expert tuples — no pruning, anchoring, or auditing), and oracle-style
pass@N (success if any candidate matches ground truth — the ceiling any
selection method can reach over the same samples).

One function scores every label. ``evaluate_methods`` takes any of
``METHODS``: ``audit`` (the pipeline under the caller's config), ``mv``,
``sv`` and ``passn``. ``run_ablation`` scores the four fixed
``ABLATION_ROWS``: ``baseline`` (the lowest-id expert's response),
``synthesis`` (``sv``), ``audited`` (the pipeline with facts off) and
``audited+facts`` (with facts on).

Scores on synthetic corpora are ordinal comparisons between methods run
on identical scenarios; they are not reproductions of any benchmark
percentage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from .engine import EngineConfig, run_pipeline
from .ensemble import ExpertOutput
from .errors import AllExpertsFailedError, InvalidConfigError
from .scenario import Oracle, Scenario, scenario_expert_outputs
from .values import Value, group_values, values_equal

METHOD_AUDIT = "audit"
METHOD_MV = "mv"
METHOD_SV = "sv"
METHOD_PASSN = "passn"
METHODS = (METHOD_AUDIT, METHOD_MV, METHOD_SV, METHOD_PASSN)
ABLATION_ROWS = ("baseline", "synthesis", "audited", "audited+facts")

CORRECT = "correct"
WRONG = "wrong"
ABSTAIN = "abstain"


def majority_vote(responses: Sequence[Value]) -> Value:
    """Modal response under canonical equality; ties go to the earliest asserter."""
    if not responses:
        raise InvalidConfigError("majority_vote needs at least one response")
    groups = group_values((v, idx) for idx, v in enumerate(responses))
    best = max(groups, key=lambda g: (len(g[1]), -g[1][0]))
    return best[0]


def simple_verification(outputs: Sequence[ExpertOutput]) -> Value:
    """Single-pass synthesis over the raw expert tuples: the response whose
    trace is most self-confident, the lowest expert id on ties.

    Deliberately blind to constraints, facts, and disagreements: this is
    the control the audited pipeline is measured against.
    """
    if not outputs:
        raise InvalidConfigError("simple_verification needs at least one expert output")
    return max(sorted(outputs, key=lambda o: o.expert_id), key=ExpertOutput.mean_confidence).response


def pass_at_n(responses: Sequence[Value], oracle: Oracle) -> bool:
    """True iff any candidate equals the oracle answer under canonical equality."""
    return any(values_equal(r, oracle.answer) for r in responses)


@dataclass
class EvalReport:
    """Per-method scores over a corpus, plus enough detail to re-check them."""

    scenario_names: list[str]
    scores: dict[str, float]
    verdicts: dict[str, list[str]]  # method/row label -> outcome per scenario
    verify_calls: dict[str, list[int]] = field(default_factory=dict)
    wall_time_s: float = 0.0
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "scenarios": self.scenario_names,
            "scores": {k: self.scores[k] for k in self.scores},
            "verdicts": self.verdicts,
            "verify_calls": self.verify_calls,
            "wall_time_s": round(self.wall_time_s, 6),
            "params": self.params,
        }

    def to_table(self) -> str:
        lines = [f"{'method':<18} {'score':>7}  {'correct':>9}"]
        n = len(self.scenario_names)
        for label, score in self.scores.items():
            correct = sum(1 for v in self.verdicts[label] if v == CORRECT)
            lines.append(f"{label:<18} {score:>7.3f}  {correct:>4}/{n:<4}")
        return "\n".join(lines) + "\n"


def _outcome(answer: Value | None, oracle: Oracle) -> str:
    if answer is None:
        return ABSTAIN
    return CORRECT if values_equal(answer, oracle.answer) else WRONG


def _require_oracles(corpus: Sequence[Scenario]) -> None:
    if not corpus:
        raise InvalidConfigError("corpus is empty")
    for scenario in corpus:
        if scenario.oracle is None:
            raise InvalidConfigError(f"scenario {scenario.name or '<unnamed>'} lacks an oracle")


def _score(label: str, scenario: Scenario, outputs: list[ExpertOutput],
           config: EngineConfig) -> tuple[str, int | None]:
    """One label's verdict on a scenario and, for a label that runs the pipeline, its verify calls."""
    oracle = scenario.oracle
    responses = [o.response for o in outputs]
    if label == METHOD_PASSN:
        return (CORRECT if pass_at_n(responses, oracle) else WRONG), None
    if label in (METHOD_AUDIT, "audited", "audited+facts"):
        if label != METHOD_AUDIT:
            config = replace(config, facts_enabled=label == "audited+facts")
        try:
            result = run_pipeline(scenario, config)
        except AllExpertsFailedError:
            return ABSTAIN, 0
        return _outcome(result.answer, oracle), result.verify_calls
    # With every expert failed there is nothing to vote on or
    # synthesize from: these labels abstain, as the pipeline does.
    if not outputs:
        return ABSTAIN, None
    if label == METHOD_MV:
        answer = majority_vote(responses)
    elif label in (METHOD_SV, "synthesis"):
        answer = simple_verification(outputs)
    else:  # baseline
        answer = outputs[0].response
    return _outcome(answer, oracle), None


def _evaluate(corpus: Sequence[Scenario], labels: Sequence[str], config: EngineConfig, params: dict) -> EvalReport:
    """Score each label on every scenario, in name order."""
    ordered = sorted(corpus, key=lambda s: s.name)
    verdicts: dict[str, list[str]] = {label: [] for label in labels}
    verify_calls: dict[str, list[int]] = {}
    started = time.perf_counter()
    for scenario in ordered:
        outputs = scenario_expert_outputs(scenario)
        for label in labels:
            verdict, calls = _score(label, scenario, outputs, config)
            verdicts[label].append(verdict)
            if calls is not None:
                verify_calls.setdefault(label, []).append(calls)
    wall = time.perf_counter() - started
    return EvalReport(
        scenario_names=[s.name for s in ordered],
        scores={label: verdicts[label].count(CORRECT) / len(ordered) for label in labels},
        verdicts=verdicts,
        verify_calls=verify_calls,
        wall_time_s=wall,
        params=params,
    )


def evaluate_methods(
    corpus: Sequence[Scenario],
    methods: Sequence[str],
    config: EngineConfig | None = None,
) -> EvalReport:
    """Run the selected methods over a corpus and score each against the oracle."""
    _require_oracles(corpus)
    if not methods:
        raise InvalidConfigError(f"no methods given; choose from {METHODS}")
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise InvalidConfigError(f"unknown method {method!r}; choose from {METHODS}")
        if method in methods[:i]:
            raise InvalidConfigError(f"method {method!r} given twice")
    cfg = config or EngineConfig()
    return _evaluate(corpus, methods, cfg, {
        "theta": cfg.theta, "budget": cfg.budget, "gate_threshold": cfg.gate_threshold,
        "weights": list(cfg.weights)})


def run_ablation(corpus: Sequence[Scenario], config: EngineConfig | None = None) -> EvalReport:
    """Score the four ``ABLATION_ROWS`` on identical scenarios."""
    _require_oracles(corpus)
    cfg = config or EngineConfig()
    return _evaluate(corpus, ABLATION_ROWS, cfg, {"rows": list(ABLATION_ROWS), "theta": cfg.theta, "budget": cfg.budget})
