"""Seeded scenario generators: random corpora and the adversarial-majority set.

Everything here is a pure function of its seed. Generator parameters
(per-step agreement probability, distractor count, verdict-table fidelity)
travel with the corpus so a report can state exactly what it was scored
on. The adversarial corpus is the constructed separation case: a confident
wrong majority that voting follows and the audit overturns — run it with
an anchor quorum equal to the ensemble size so the wrong majority cannot
anchor itself out of the conflict set.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .errors import DuplicateIdError
from .scenario import Scenario, save_scenario, scenario_from_dict
from .values import Value, number, quantity, statement_key, text, value_to_json, values_equal

_WORDS = ("alder", "basalt", "cedar", "delta", "ember", "flint", "garnet", "harbor")


@dataclass(frozen=True)
class GeneratorParams:
    max_experts: int = 5
    max_steps: int = 8
    agreement: float = 0.7
    distractors: int = 2
    table_fidelity: float = 1.0
    edge_prob: float = 0.35
    with_constraints: bool = False
    with_facts: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def _truth_value(rng: random.Random) -> Value:
    roll = rng.random()
    if roll < 0.8:
        return number(rng.randint(0, 99))
    if roll < 0.9:
        return text(rng.choice(_WORDS))
    return quantity(rng.randint(1, 50), "m")


def _distract(truth: Value, k: int) -> Value:
    if truth.kind == "number":
        return number(truth.payload + k + 1)  # type: ignore[operator]
    if truth.kind == "quantity":
        magnitude, unit = truth.payload  # type: ignore[misc]
        return quantity(magnitude + k + 1, unit)
    return text(f"{truth.payload}-{k + 1}")


def random_scenario(seed: int, params: GeneratorParams = GeneratorParams()) -> Scenario:
    """One seeded scenario: random DAG, noisy experts, truth-derived verdict table."""
    rng = random.Random(seed)
    n_steps = rng.randint(1, params.max_steps)
    steps = [f"s{i + 1:02d}" for i in range(n_steps)]
    edges = [
        (steps[i], steps[j])
        for i in range(n_steps)
        for j in range(i + 1, n_steps)
        if rng.random() < params.edge_prob
    ]
    truth = {s: _truth_value(rng) for s in steps}
    answer_step = steps[-1]
    options = {
        s: [truth[s]] + [_distract(truth[s], k) for k in range(params.distractors)]
        for s in steps
    }

    n_experts = rng.randint(1, params.max_experts)
    expert_blocks = []
    for i in range(n_experts):
        trace_steps = {}
        for s in steps:
            if rng.random() < params.agreement:
                value = truth[s]
                confidence = round(rng.uniform(0.55, 0.95), 4)
            else:
                value = options[s][rng.randint(1, params.distractors)]
                confidence = round(rng.uniform(0.3, 0.9), 4)
            trace_steps[s] = {"value": value_to_json(value), "confidence": confidence}
        expert_blocks.append({
            "expert_id": f"e{i + 1:02d}",
            "class": "conservative" if i == 0 else "radical",
            "temperature": 0.1 if i == 0 else round(0.7 + 0.3 * (i - 1) / max(1, n_experts - 2), 4),
            "seed": seed * 131 + i,
            "traces": [{
                "steps": trace_steps,
                "analysis": f"trace by expert {i + 1}",
                "response": trace_steps[answer_step]["value"],
            }],
        })

    verdict_table = {}
    for s in steps:
        for value in options[s]:
            right = "support" if values_equal(value, truth[s]) else "refute"
            if rng.random() >= params.table_fidelity:
                right = "inconclusive"
            verdict_table[statement_key(s, value)] = right

    obj: dict = {
        "name": f"rnd{seed:06d}",
        "query": f"synthetic task {seed}",
        "dag": {"steps": steps, "edges": [list(e) for e in edges]},
        "constraints": [],
        "experts": expert_blocks,
        "verdict_table": verdict_table,
        "tool_scripts": {},
        "oracle": {
            "answer": value_to_json(truth[answer_step]),
            "truth": {s: value_to_json(v) for s, v in truth.items()},
        },
    }

    if params.with_constraints:
        target = rng.choice([s for s in steps if truth[s].kind == "number"] or steps)
        if truth[target].kind == "number":
            center = truth[target].payload
            obj["constraints"].append({
                "id": f"rng-{target}",
                "check": "range",
                "scope": "step",
                "step_pattern": target,
                "min": center - 0.5,  # type: ignore[operator]
                "max": center + 0.5,  # type: ignore[operator]
                "description": f"plausible band around {target}",
            })
        if rng.random() < 0.5:
            obj["constraints"].append({
                "id": "resp-kind",
                "check": "kind",
                "scope": "response",
                "expect": truth[answer_step].kind,
                "description": "response must match the expected kind",
            })

    if params.with_facts:
        seeded = [s for s in steps if rng.random() < 0.4]
        obj["facts_seed"] = [
            {"kind": "fact", "id": f"seed-{s}", "category": "given", "key": s,
             "value": value_to_json(truth[s]), "status": "verified", "version": 1,
             "derived_from": []}
            for s in seeded
        ]

    return scenario_from_dict(obj, name=obj["name"])


def random_corpus(
    master_seed: int,
    size: int,
    params: GeneratorParams = GeneratorParams(),
) -> tuple[list[Scenario], dict]:
    """A corpus plus the parameter record that reports should carry."""
    scenarios = [random_scenario(master_seed * 10_000 + i, params) for i in range(size)]
    record = {"master_seed": master_seed, "size": size, **params.as_dict()}
    return scenarios, record


def adversarial_scenario(seed: int) -> Scenario:
    """Confident wrong majority vs quiet correct minority, with a decisive table.

    Two radical experts agree on a wrong final value at high confidence;
    one conservative expert dissents with the right one. The verdict table
    refutes the majority claim and supports the minority claim, so an
    audit with budget >= 2 and quorum = 3 flips the outcome while voting
    and confidence-chasing cannot.
    """
    rng = random.Random(seed)
    shared = rng.randint(0, 49)
    correct = rng.randint(100, 199)
    wrong = correct + rng.randint(1, 9)

    def trace(final: int, confidence: float) -> dict:
        return {
            "steps": {
                "s1": {"value": shared, "confidence": 0.9},
                "s2": {"value": final, "confidence": confidence},
            },
            "analysis": "scripted",
            "response": final,
        }

    obj = {
        "name": f"adv{seed:04d}",
        "query": f"adversarial task {seed}",
        "dag": {"steps": ["s1", "s2"], "edges": [["s1", "s2"]]},
        "experts": [
            {"expert_id": "e01", "class": "conservative", "temperature": 0.1, "seed": seed,
             "traces": [trace(correct, 0.6)]},
            {"expert_id": "e02", "class": "radical", "temperature": 0.9, "seed": seed + 1,
             "traces": [trace(wrong, 0.95)]},
            {"expert_id": "e03", "class": "radical", "temperature": 1.0, "seed": seed + 2,
             "traces": [trace(wrong, 0.95)]},
        ],
        "verdict_table": {
            statement_key("s2", number(wrong)): "refute",
            statement_key("s2", number(correct)): "support",
        },
        "oracle": {"answer": correct, "truth": {"s1": shared, "s2": correct}},
    }
    return scenario_from_dict(obj, name=obj["name"])


def adversarial_corpus(size: int = 50, master_seed: int = 7) -> list[Scenario]:
    return [adversarial_scenario(master_seed * 1_000 + i) for i in range(size)]


def write_corpus(scenarios: Sequence[Scenario], directory: str | Path) -> list[Path]:
    """Save each scenario as ``<name>.json``; DuplicateIdError, before any file is written, if two share a name."""
    names: set[str] = set()
    for scenario in scenarios:
        if scenario.name in names:
            raise DuplicateIdError(f"two scenarios are named {scenario.name!r}; one would overwrite the other's file")
        names.add(scenario.name)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for scenario in scenarios:
        path = directory / f"{scenario.name}.json"
        save_scenario(scenario, path)
        paths.append(path)
    return paths
