"""Seeded inputs for the benchmark workloads, written to files before any timing.

Run as a script it generates one workload's inputs into a directory and
prints their sha256 as JSON; it runs in its own process so that the
generator's memory never counts towards the measured process's peak RSS.
The measured process then only loads the files (``load_pipeline`` /
``load_store``), which is the set-up the benchmark times.

File bytes are canonical (sorted keys, no whitespace), so the input digest
changes exactly when the generated inputs change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from bisect import insort
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The desk corpus is six times the ROADMAP golden corpus (500 random + 50
# adversarial scenarios, its first 500 and 50 here), so that accuracy and
# verify calls per op vary little from seed to seed.
DESK_SIZE, DESK_ADVERSARIAL = 3000, 300
GOLDEN_SIZE, GOLDEN_ADVERSARIAL = 500, 50
WIDE_MAX = 64
WIDE_STEP_BANDS = 4
STORE_OPS = 10_000
STORE_KEYS = [f"k{i}" for i in range(8)]
MANIFEST = "manifest.json"
STORE_FILE = "ops.jsonl"


def _canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _pipeline_items(workload: str, seed: int) -> list[tuple[object, int, bool]]:
    """(scenario, anchor quorum, in the audit digest) in run order."""
    from crosscheck.corpus import GeneratorParams, adversarial_corpus, random_corpus, random_scenario

    if workload == "desk":
        scenarios, _ = random_corpus(seed, DESK_SIZE, GeneratorParams(with_constraints=True, with_facts=True))
        # The adversarial tail needs a quorum equal to its ensemble size (3)
        # so the wrong majority cannot anchor itself.
        return ([(s, 2, i < GOLDEN_SIZE) for i, s in enumerate(scenarios)]
                + [(s, 3, i < GOLDEN_ADVERSARIAL) for i, s in enumerate(adversarial_corpus(DESK_ADVERSARIAL))])
    params = GeneratorParams(max_experts=WIDE_MAX, max_steps=WIDE_MAX, agreement=0.5, distractors=4,
                             edge_prob=0.1, with_constraints=True)
    # One scenario for every expert count and band of 16 step counts, the
    # first of the seed's block to fall there: every seed gets the same
    # size mix and the same number of few-expert scenarios (the ones with
    # conflicts), while the seed still decides everything else.
    band = WIDE_MAX // WIDE_STEP_BANDS
    picked: dict[tuple[int, int], int] = {}
    for i in range(10_000):
        experts, steps = _wide_shape(seed * 10_000 + i, params)
        picked.setdefault((experts, (steps - 1) // band), seed * 10_000 + i)
        if len(picked) == WIDE_MAX * WIDE_STEP_BANDS:
            break
    else:
        raise RuntimeError(f"seed {seed}: wide cells not filled by 10000 candidates")
    items = []
    for (experts, step_band), scenario_seed in sorted(picked.items(), key=lambda kv: kv[1]):
        scenario = random_scenario(scenario_seed, params)
        if len(scenario.experts) != experts or (len(scenario.dag.steps) - 1) // band != step_band:
            raise RuntimeError("random_scenario no longer draws its shape as _wide_shape assumes")
        items.append((scenario, 2, True))
    return items


def _wide_shape(seed: int, params) -> tuple[int, int]:
    """(experts, steps) of ``random_scenario(seed, params)`` without building it.

    Replays the generator's draws up to the expert count: steps, one draw
    per possible edge, then each step's true value.
    """
    from crosscheck.corpus import _truth_value

    rng = random.Random(seed)
    steps = rng.randint(1, params.max_steps)
    for _ in range(steps * (steps - 1) // 2):
        rng.random()
    for _ in range(steps):
        _truth_value(rng)
    return rng.randint(1, params.max_experts), steps


def _store_value(rng: random.Random) -> object:
    from crosscheck.values import number, text, value_to_json

    if rng.random() < 0.7:
        return value_to_json(number(rng.randint(0, 5)))
    return value_to_json(text(rng.choice(["alpha", "beta", "gamma"])))


def store_stream(seed: int) -> list[list]:
    """The op mix of ``tests/storegen.py`` with ids tracked here, not re-listed.

    The rng call sequence matches that generator's, and note ids are the
    ones the store would assign itself, so the final store is the same as
    its ``build_random_store(seed, STORE_OPS)``.
    """
    from crosscheck.facts import DERIVED, RETRIEVED

    rng = random.Random(seed)
    tool_ids: list[str] = []
    note_ids: list[str] = []
    ops: list[list] = []
    for _ in range(STORE_OPS):
        roll = rng.random()
        if roll < 0.35 or not tool_ids:
            tool = {
                "id": f"t{rng.randrange(10**9)}-{len(tool_ids) + 1}",
                "tool_name": rng.choice(["search", "calc", "fetch"]),
                "params": {"q": rng.randint(0, 9)},
                "outcome": _store_value(rng),
                "source_url": "https://example.test/doc" if rng.random() < 0.5 else None,
                "retrieved_at": f"T{rng.randint(0, 999):03d}",
            }
            insort(tool_ids, tool["id"])
            ops.append(["tool", tool])
        elif roll < 0.6:
            picked = rng.sample(tool_ids, k=min(len(tool_ids), rng.randint(1, 3)))
            note_id = f"note{len(note_ids) + 1:04d}"
            insort(note_ids, note_id)
            ops.append(["note", picked, note_id])
        elif roll < 0.85 and note_ids:
            key = rng.choice(STORE_KEYS)
            value = _store_value(rng)
            ops.append(["promote", key, value, rng.choice(note_ids), rng.choice([RETRIEVED, DERIVED])])
        elif roll < 0.95:
            ops.append(["given", rng.choice(STORE_KEYS), _store_value(rng)])
        else:
            ops.append(["assumption", rng.choice(STORE_KEYS), _store_value(rng)])
    return ops


def generate(workload: str, seed: int, out: Path) -> str:
    """Write one workload's inputs under ``out``; return their sha256."""
    from crosscheck.scenario import scenario_to_dict

    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    if workload == "store":
        text = "".join(_canonical(op) + "\n" for op in store_stream(seed))
        (out / STORE_FILE).write_text(text, encoding="utf-8")
        digest.update(text.encode("utf-8"))
        return digest.hexdigest()
    manifest = []
    for scenario, theta, golden in _pipeline_items(workload, seed):
        text = _canonical(scenario_to_dict(scenario))
        name = f"{scenario.name}.json"
        (out / name).write_text(text, encoding="utf-8")
        manifest.append([name, theta, golden])
        digest.update(f"{name} theta={theta} golden={golden}\n".encode("utf-8"))
        digest.update(text.encode("utf-8"))
    (out / MANIFEST).write_text(_canonical(manifest), encoding="utf-8")
    return digest.hexdigest()


def load_pipeline(directory: Path) -> list[tuple[object, object, bool]]:
    """Load and validate every scenario file: (scenario, EngineConfig, in the audit digest)."""
    from crosscheck import scenario as scenario_mod
    from crosscheck.engine import EngineConfig

    manifest = json.loads((directory / MANIFEST).read_text(encoding="utf-8"))
    configs = {theta: EngineConfig(theta=theta) for _, theta, _ in manifest}
    return [(scenario_mod.load_scenario(directory / name), configs[theta], golden)
            for name, theta, golden in manifest]


def load_store(directory: Path) -> list[tuple]:
    """Decode the op stream into store arguments, so no parsing is timed."""
    from crosscheck.facts import ToolRecord
    from crosscheck.values import value_from_json

    ops: list[tuple] = []
    with open(directory / STORE_FILE, encoding="utf-8") as fh:
        for line in fh:
            op = json.loads(line)
            kind = op[0]
            if kind == "tool":
                fields = dict(op[1], outcome=value_from_json(op[1]["outcome"]))
                ops.append((kind, ToolRecord(**fields)))
            elif kind == "note":
                ops.append((kind, tuple(op[1]), op[2]))
            elif kind == "promote":
                ops.append((kind, op[1], value_from_json(op[2]), op[3], op[4]))
            else:
                ops.append((kind, op[1], value_from_json(op[2])))
    return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "wide", "store"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    print(json.dumps({"input_sha256": generate(args.workload, args.seed, args.out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
