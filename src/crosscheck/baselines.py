"""Reference baselines and the synthetic ablation evaluator.

Three baselines frame the pipeline's behaviour: majority voting (modal
response), simple verification (one-pass synthesis straight from the
expert tuples — no pruning, anchoring, or auditing), and oracle-style
pass@N (success if any candidate matches ground truth — the ceiling any
selection method can reach over the same samples).

Scores on synthetic corpora are ordinal comparisons between methods run
on identical scenarios with identical seeds; they are not reproductions
of any benchmark percentage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from .engine import EngineConfig, run_pipeline
from .ensemble import ExpertOutput
from .errors import AllExpertsFailedError, InvalidConfigError, NoFeasibleCandidateError
from .scenario import Oracle, Scenario, scenario_expert_outputs
from .values import Value, group_values, values_equal

METHOD_AUDIT = "audit"
METHOD_MV = "mv"
METHOD_SV = "sv"
METHOD_PASSN = "passn"
METHODS = (METHOD_AUDIT, METHOD_MV, METHOD_SV, METHOD_PASSN)

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

    def mean_confidence(output: ExpertOutput) -> float:
        confs = list(output.confidences.values())
        return sum(confs) / len(confs) if confs else 0.0

    return max(sorted(outputs, key=lambda o: o.expert_id), key=mean_confidence).response


def pass_at_n(responses: Sequence[Value], oracle: Oracle) -> bool:
    """True iff any candidate equals the oracle answer under canonical equality."""
    return any(values_equal(r, oracle.answer) for r in responses)


@dataclass(frozen=True)
class AblationConfig:
    """Which subsystems a row enables. Auditing subsumes synthesis."""

    label: str
    facts: bool
    synth: bool
    audit: bool

    def __post_init__(self) -> None:
        if self.audit and not self.synth:
            raise InvalidConfigError(
                f"row {self.label!r}: auditing subsumes synthesis; audit=on requires synth=on"
            )


DEFAULT_ABLATION_ROWS = (
    AblationConfig("baseline", facts=False, synth=False, audit=False),
    AblationConfig("synthesis", facts=False, synth=True, audit=False),
    AblationConfig("facts", facts=True, synth=False, audit=False),
    AblationConfig("audited", facts=False, synth=True, audit=True),
    AblationConfig("synthesis+facts", facts=True, synth=True, audit=False),
    AblationConfig("audited+facts", facts=True, synth=True, audit=True),
)


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


def _pipeline_answer(scenario: Scenario, config: EngineConfig) -> tuple[Value | None, int]:
    try:
        result = run_pipeline(scenario, config)
        return result.answer, result.verify_calls
    except NoFeasibleCandidateError as exc:
        calls = exc.result.verify_calls if exc.result is not None else 0  # type: ignore[union-attr]
        return None, calls
    except AllExpertsFailedError:
        return None, 0


def evaluate_methods(
    corpus: Sequence[Scenario],
    methods: Sequence[str],
    config: EngineConfig | None = None,
) -> EvalReport:
    """Run the selected methods over a corpus and score each against the oracle."""
    _require_oracles(corpus)
    for method in methods:
        if method not in METHODS:
            raise InvalidConfigError(f"unknown method {method!r}; choose from {METHODS}")
    cfg = config or EngineConfig()
    ordered = sorted(corpus, key=lambda s: s.name)
    verdicts: dict[str, list[str]] = {m: [] for m in methods}
    verify_calls: dict[str, list[int]] = {METHOD_AUDIT: []} if METHOD_AUDIT in methods else {}
    started = time.perf_counter()
    for scenario in ordered:
        assert scenario.oracle is not None
        outputs = scenario_expert_outputs(scenario)
        responses = [o.response for o in outputs]
        for method in methods:
            if method == METHOD_PASSN:
                hit = pass_at_n(responses, scenario.oracle)
                verdicts[method].append(CORRECT if hit else WRONG)
                continue
            # With every expert failed there is nothing to vote on or
            # synthesize from: mv and sv abstain, as the pipeline does.
            if method == METHOD_MV:
                answer = majority_vote(responses) if responses else None
            elif method == METHOD_SV:
                answer = simple_verification(outputs) if outputs else None
            else:
                answer, calls = _pipeline_answer(scenario, cfg)
                verify_calls[METHOD_AUDIT].append(calls)
            verdicts[method].append(_outcome(answer, scenario.oracle))
    wall = time.perf_counter() - started
    scores = {
        m: sum(1 for v in verdicts[m] if v == CORRECT) / len(ordered) for m in methods
    }
    return EvalReport(
        scenario_names=[s.name for s in ordered],
        scores=scores,
        verdicts=verdicts,
        verify_calls=verify_calls,
        wall_time_s=wall,
        params={"theta": cfg.theta, "budget": cfg.budget, "gate_threshold": cfg.gate_threshold,
                "weights": list(cfg.weights), "seed": cfg.seed},
    )


def run_ablation(
    corpus: Sequence[Scenario],
    rows: Sequence[AblationConfig] = DEFAULT_ABLATION_ROWS,
    config: EngineConfig | None = None,
) -> EvalReport:
    """Evaluate subsystem combinations on identical scenarios and seeds.

    Rows without auditing run one-pass synthesis (or, with synthesis off
    too, fall back to the lowest-id expert's response). The facts flag
    gates whether the audited rows load the scenario's seeded facts; rows
    without gating have nothing for it to bypass.
    """
    _require_oracles(corpus)
    cfg = config or EngineConfig()
    ordered = sorted(corpus, key=lambda s: s.name)
    verdicts: dict[str, list[str]] = {row.label: [] for row in rows}
    verify_calls: dict[str, list[int]] = {}
    started = time.perf_counter()
    for scenario in ordered:
        assert scenario.oracle is not None
        outputs = scenario_expert_outputs(scenario)
        for row in rows:
            if row.audit:
                answer, calls = _pipeline_answer(scenario, replace(cfg, facts_enabled=row.facts))
                verify_calls.setdefault(row.label, []).append(calls)
            elif row.synth:
                answer = simple_verification(outputs) if outputs else None
            else:
                answer = outputs[0].response if outputs else None
            verdicts[row.label].append(_outcome(answer, scenario.oracle))
    wall = time.perf_counter() - started
    scores = {
        row.label: sum(1 for v in verdicts[row.label] if v == CORRECT) / len(ordered)
        for row in rows
    }
    return EvalReport(
        scenario_names=[s.name for s in ordered],
        scores=scores,
        verdicts=verdicts,
        verify_calls=verify_calls,
        wall_time_s=wall,
        params={"rows": [row.label for row in rows], "theta": cfg.theta,
                "budget": cfg.budget, "seed": cfg.seed},
    )
