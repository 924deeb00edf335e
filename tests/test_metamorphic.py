"""Relations between runs, and structural fuzz of saved scenarios.

The byte pins and stage oracles check one run at a time. These check
what the paper claims, or what determinism implies, about pairs of runs:

- *R1, order.* Shuffling the expert blocks of a scenario dict leaves the
  audit log byte-identical: a run orders experts by id, not by file.
- *R2, names.* Renaming the experts by an order-preserving map leaves the
  audit log byte-identical once the ids in its ``expert`` fields and
  their parent refs are mapped back: a run reads an id only for its order.
- *R3, cost follows disagreement.* On a constraint-free scenario, steps on
  which every trace asserts one value leave every ``audit/*`` event and
  the verify calls as they were; one step that splits the experts with
  no quorum adds exactly one conflict.

The fuzz mutates saved scenario dicts: it deletes keys and items, swaps
types, puts huge, zero and negative numbers in, and duplicates list
items. Each mutant must fail with a ``CrosscheckError``, or load, run at
two configs to a log that replays clean and is strict JSON.
"""

from __future__ import annotations

import copy
import functools
import json

from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from crosscheck.auditlog import AuditLog, AuditLogEntry, replay
from crosscheck.corpus import GeneratorParams, adversarial_scenario, random_scenario
from crosscheck.engine import EngineConfig, run_pipeline
from crosscheck.errors import AllExpertsFailedError, CrosscheckError
from crosscheck.scenario import scenario_from_dict, scenario_to_dict
from test_golden_digest import WIDE_PARAMS
from test_scenario import _refuse, _tool_variants

DESK_PARAMS = GeneratorParams(with_constraints=True, with_facts=True)
# Three ``wide`` scenarios: 22 experts by 42 steps, 23 by 15 and 59 by 33.
WIDE_SEEDS = (20_001, 20_005, 20_009)


def _saved(source: str, seed: int) -> dict:
    """A generated scenario as the dict a saved file decodes to."""
    if source == "adversarial":
        scenario = adversarial_scenario(seed)
    else:
        scenario = random_scenario(seed, {"desk": DESK_PARAMS, "wide": WIDE_PARAMS, "plain": GeneratorParams()}[source])
    return json.loads(json.dumps(scenario_to_dict(scenario)))


def _config(source: str) -> EngineConfig:
    return EngineConfig(theta=3) if source == "adversarial" else EngineConfig()


def _log(obj: dict, config: EngineConfig) -> str:
    return run_pipeline(scenario_from_dict(obj), config).audit_log.to_text()


# --- R1: expert order --------------------------------------------------------------

SCENARIO_SOURCES = st.one_of(
    st.tuples(st.sampled_from(["desk", "adversarial"]), st.integers(0, 10**6)),
    st.tuples(st.just("wide"), st.sampled_from(WIDE_SEEDS)),
)
# R1 and R2 draw whole scenarios, and each shrink step reruns one (up to 59
# experts by 33 steps), which kept a failing R2 shrinking for minutes. They
# draw the same examples without the shrink phase and report the first failure.
UNSHRUNK = [Phase.explicit, Phase.reuse, Phase.generate]


@given(SCENARIO_SOURCES, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow], phases=UNSHRUNK)
def test_shuffling_the_expert_blocks_leaves_the_log_byte_identical(source, rng):
    kind, seed = source
    obj = _saved(kind, seed)
    shuffled = copy.deepcopy(obj)
    rng.shuffle(shuffled["experts"])
    assert _log(shuffled, _config(kind)) == _log(obj, _config(kind))


# --- R2: expert names --------------------------------------------------------------

# Short ids over a few characters, so that one often prefixes another and a
# character of an id seldom orders the ids as the whole ids do.
EXPERT_IDS = st.text("ab0-é", min_size=1, max_size=4)


def _mapped_back(text: str, back: dict) -> str:
    """``text`` with each event's ``expert`` and, on such an event, its parent refs mapped through ``back``."""
    lines = []
    for entry in AuditLog.from_lines(text.splitlines()):
        payload, refs = dict(entry.payload), entry.parent_refs
        if "expert" in payload:
            payload["expert"] = back[payload["expert"]]
            refs = tuple(back[ref] for ref in refs)
        lines.append(AuditLogEntry(entry.seq, entry.stage, entry.event, payload, refs).to_line() + "\n")
    return "".join(lines)


@given(st.one_of(SCENARIO_SOURCES, st.tuples(st.just("tools"), st.integers(0, 2))), st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow], phases=UNSHRUNK)
def test_renaming_the_experts_in_order_leaves_the_log_identical_once_mapped_back(source, data):
    kind, seed = source
    obj = _tool_variants()[seed] if kind == "tools" else _saved(kind, seed)
    old = sorted(block["expert_id"] for block in obj["experts"])
    new = sorted(data.draw(st.lists(EXPERT_IDS, min_size=len(old), max_size=len(old), unique=True)))
    renamed = copy.deepcopy(obj)
    for block in renamed["experts"]:
        block["expert_id"] = new[old.index(block["expert_id"])]
    assert _mapped_back(_log(renamed, _config(kind)), dict(zip(new, old))) == _log(obj, _config(kind))


# --- R3: cost follows disagreement ---------------------------------------------------


def _with_step(obj: dict, step: str, value_of) -> dict:
    """``obj`` with one more step, on no edge, at which each trace of expert ``i`` asserts ``value_of(i)``."""
    obj["dag"]["steps"].append(step)
    for i, block in enumerate(obj["experts"]):
        for raw in block.get("traces", ()):
            raw["steps"][step] = {"value": value_of(i), "confidence": 0.9}
    return obj


def _audit_events(result) -> list:
    return [(e.event, e.payload, e.parent_refs) for e in result.audit_log if e.stage == "audit"]


@given(st.integers(0, 10**6), st.integers(1, 3), st.sampled_from([0, 7, "pad"]))
@settings(max_examples=40, deadline=None)
def test_steps_every_trace_agrees_on_leave_the_audit_as_it_was(seed, pads, value):
    obj = _saved("plain", seed)
    padded = copy.deepcopy(obj)
    for k in range(pads):
        _with_step(padded, f"pad{k}", lambda i: value)
    base, more = (run_pipeline(scenario_from_dict(o)) for o in (obj, padded))
    assert _audit_events(more) == _audit_events(base)
    assert more.verify_calls == base.verify_calls


@given(st.integers(0, 10**6), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_a_step_that_splits_the_experts_adds_exactly_one_conflict(seed, budget):
    # An explicit budget: the auto budget grows with the conflicts, up to BUDGET_CAP.
    config = EngineConfig(budget=budget)
    obj = _saved("plain", seed)
    split = _with_step(copy.deepcopy(obj), "split", lambda i: 1000 + i)
    base, more = (run_pipeline(scenario_from_dict(o), config) for o in (obj, split))
    answering = len({gt.expert_id for gt in more.retained})
    base_events, more_events = ([(e.payload, e.parent_refs) for e in r.audit_log if e.event == "conflict"]
                                for r in (base, more))
    if answering < 2:  # one expert cannot disagree with itself
        assert more_events == base_events
        return
    # Each expert asserts its own value there, so no value has a quorum and every expert is a candidate.
    added = [event for event in more_events if event[0]["step"] == "split"]
    assert len(added) == 1 and len(added[0][0]["candidates"]) == answering
    assert [event for event in more_events if event not in added] == base_events
    assert len(more.conflicts) == len(base.conflicts) + 1


# --- structural fuzz -----------------------------------------------------------------

FUZZ_SOURCES = st.one_of(
    st.tuples(st.sampled_from(["desk", "plain", "adversarial"]), st.integers(0, 10**6)),
    st.tuples(st.just("tools"), st.integers(0, 2)),
)
FUZZ_CONFIGS = (EngineConfig(), EngineConfig(theta=3, budget=1, gate_threshold=0.0, facts_enabled=False))
# A value of each JSON type, for a swap to one of another type.
SWAPS = ("x", "", 1, 2.5, True, None, [], [1, "x"], {}, {"kind": "number", "value": 1})
NUMBERS = {
    "huge": (10**400, 2**63, 10**18 + 1, 1.7976931348623157e308),
    "zero": (0, 0.0, -0.0),
    "negative": (-1, -2.5, -(10**9), -1.7976931348623157e308),
}
MUTATIONS = ("delete", "swap", "duplicate", *NUMBERS)


def _paths(obj, prefix=()):
    """The path of every value below ``obj``, as keys and indices."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(obj, path, how, pick):
    parent = functools.reduce(lambda node, key: node[key], path[:-1], obj)
    key = path[-1]
    if how == "delete":
        del parent[key]
    elif how == "duplicate":
        if isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif isinstance(parent[key], list) and parent[key]:
            parent[key].append(copy.deepcopy(parent[key][pick % len(parent[key])]))
    elif how == "swap":
        others = [v for v in SWAPS if type(v) is not type(parent[key])]
        parent[key] = copy.deepcopy(others[pick % len(others)])
    else:
        parent[key] = NUMBERS[how][pick % len(NUMBERS[how])]


@given(FUZZ_SOURCES, st.lists(st.tuples(st.integers(0, 10**9), st.sampled_from(MUTATIONS), st.integers(0, 99)),
                              min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_a_mutated_scenario_fails_typed_or_runs_to_a_clean_log(source, mutations):
    kind, seed = source
    obj = _tool_variants()[seed] if kind == "tools" else _saved(kind, seed)
    for where, how, pick in mutations:
        paths = list(_paths(obj))
        _mutate(obj, paths[where % len(paths)], how, pick)
    try:
        scenario = scenario_from_dict(obj)
    except CrosscheckError:
        return
    for config in FUZZ_CONFIGS:
        try:
            result = run_pipeline(scenario, config)
        except AllExpertsFailedError:  # no expert left to answer: typed, and the CLI writes no log
            continue
        lines = result.audit_log.to_text().splitlines()
        for line in lines:
            json.loads(line, parse_constant=_refuse)
        state = replay(AuditLog.from_lines(lines))
        assert state.ok, state.violations
