"""Brute-force oracles, independent of the implementations they check.

Everything here recomputes results the slow, obvious way: DFS for
reachability and cycles, explicit count filters and all-pairs comparisons
for anchors and conflicts, a direct transcription of the synthesis
formula, and one general-purpose JSON encoder over a whole audit line.
Keep these naive on purpose.
"""

import functools
import json
import operator
from array import array
from typing import NamedTuple

from crosscheck.ensemble import ExpertOutput
from crosscheck.errors import UnknownStepError
from crosscheck.values import format_literal, value_from_json, values_equal


def dfs_reachable(edges, start):
    """Nodes reachable from start via directed edges, excluding start."""
    succ = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    seen = set()
    stack = list(succ.get(start, []))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(succ.get(node, []))
    return seen


def cyclic_steps(steps, edges):
    """The steps on a directed cycle or downstream of one; empty exactly for a DAG."""
    on_cycle = [s for s in steps if s in dfs_reachable(edges, s)]
    return set(on_cycle).union(*(dfs_reachable(edges, s) for s in on_cycle))


def removal_oracle(steps, edges, violated):
    """Violated steps plus everything any of them can reach."""
    removed = set()
    for v in violated:
        removed.add(v)
        removed |= dfs_reachable(edges, v)
    return removed


def trace(expert_id, steps, response):
    """An ExpertOutput from ``{step: (value, confidence[, provenance])}``, columns numbered in the given order.

    It calls the constructor, which checks nothing, so a test can build
    NaN values, steps in any order and confidences no parse would accept.
    """
    rows = [(step, entry[0], entry[1], tuple(entry[2]) if len(entry) > 2 else ()) for step, entry in steps.items()]
    return ExpertOutput(expert_id, response, {step: col for col, (step, _, _, _) in enumerate(rows)},
                        tuple(value for _, value, _, _ in rows), array("d", [c for _, _, c, _ in rows]),
                        {step: provenance for step, _, _, provenance in rows if provenance})


def trace_rows(output):
    """``[(step, value, confidence, provenance)]`` of ``output`` in trace order, read through its public API."""
    return [(step, output.value_at(step), output.confidence_at(step), output.provenance(step))
            for step in output.step_ids]


def reference_parse(raw):
    """A well-formed raw trace as a plain dict of ``(value, confidence, provenance)``, and its response.

    Steps in sorted order; a confidence defaults to 1.0, becomes a float,
    and is clamped into [0, 1] when it lies outside by at most 1e-9;
    provenance defaults to no ids and becomes a tuple; every value is
    decoded afresh. Provenance that is not a list raises ValueError.
    """
    steps = {}
    for step in sorted(raw.get("steps", {})):
        entry = raw["steps"][step]
        confidence = float(entry.get("confidence", 1.0))
        if -1e-9 <= confidence < 0.0:
            confidence = 0.0
        if 1.0 < confidence <= 1.0 + 1e-9:
            confidence = 1.0
        provenance = entry.get("provenance", [])
        if not isinstance(provenance, list):
            raise ValueError(f"provenance of {step!r} is not a list")
        steps[step] = (value_from_json(entry["value"]), confidence, tuple(provenance))
    return steps, value_from_json(raw["response"])


class Stmt(NamedTuple):
    step: str
    value: object
    expert_id: str
    confidence: float


def flat_pool(traces):
    """Every intermediate of every trace as one flat statement list, steps sorted within a trace."""
    return [
        Stmt(step, output.value_at(step), output.expert_id, output.confidence_at(step))
        for output in traces
        for step in sorted(output.step_ids)
    ]


def group_by_equality(pairs):
    """[(value, tag)] -> [(representative, [tags])] via pairwise canonical equality."""
    groups = []
    for value, tag in pairs:
        for rep, tags in groups:
            if values_equal(rep, value):
                tags.append(tag)
                break
        else:
            groups.append((value, [tag]))
    return groups


def count_filter_anchors(pool, theta):
    """Plain count filter: (step, value) pairs backed by >= theta distinct experts.

    Applies the documented per-step collision rule on top: the best-supported
    value wins a step; an exact tie anchors nothing there.
    """
    steps = sorted({s.step for s in pool})
    anchored = {}
    for step in steps:
        groups = group_by_equality([(s.value, s.expert_id) for s in pool if s.step == step])
        eligible = [
            (rep, len(set(ids))) for rep, ids in groups if len(set(ids)) >= theta
        ]
        if not eligible:
            continue
        eligible.sort(key=lambda e: (-e[1], format_literal(e[0])))
        if len(eligible) > 1 and eligible[0][1] == eligible[1][1]:
            continue
        anchored[step] = format_literal(eligible[0][0])
    return anchored


def pairwise_conflicts(pool, anchored_steps):
    """Steps where some pair of distinct experts asserts unequal values."""
    out = set()
    for a in pool:
        for b in pool:
            if (
                a.step == b.step
                and a.expert_id != b.expert_id
                and not values_equal(a.value, b.value)
                and a.step not in anchored_steps
            ):
                out.add(a.step)
    return out


def reference_gate(output, constraints, dag, verified, threshold):
    """The gate asked statement by statement, with no index.

    Every statement of ``output`` is checked against every step-scope
    predicate whose pattern matches its step and against each fact in
    ``verified`` keyed by its step; a fact with an unequal value fails it.
    The failing steps and everything they reach are removed. The response
    must pass every response-scope constraint, a ``facts`` one by agreeing
    with each fact keyed ``"response"``. Returns ``(kept trace_rows or None,
    score, failing, removed, response_ok)``; a step outside ``dag`` raises
    UnknownStepError, the first one in trace order.
    """
    def agrees(key, value):
        return all(values_equal(f.value, value) for f in verified if f.key == key)

    failing = []
    for step, value in output.step_values():
        if step not in dag.steps:
            raise UnknownStepError(f"unknown step {step!r}")
        ok = all(c.predicate(value) for c in constraints
                 if c.scope == "step" and c.predicate is not None and c.applies_to_step(step))
        if not (ok and agrees(step, value)):
            failing.append(step)
    removed = removal_oracle(dag.steps, dag.edges, failing) & set(output.step_ids)
    total = len(output.step_ids)
    score = (total - len(removed)) / total if total else 1.0
    response_ok = all(
        agrees("response", output.response) if c.predicate is None else c.predicate(output.response)
        for c in constraints if c.scope == "response"
    )
    kept = None
    if response_ok and score >= threshold:
        kept = [row for row in trace_rows(output) if row[0] not in removed]
    return kept, score, tuple(sorted(failing)), tuple(sorted(removed)), response_ok


def conjunction(response, predicates):
    """check_response is just this: every predicate holds."""
    return all(p(response) for p in predicates)


def synthesis_score(asserted_steps, retained_steps, anchors, supported, refuted, weights):
    """Direct transcription of the scoring formula over one candidate.

    asserted_steps: {step: (value, confidence)} — everything the expert
    originally claimed (anchor/conflict terms); retained_steps — the
    post-gate survivors (confidence term). anchors: {step: value};
    supported/refuted: [(step, value)]; weights already normalized.
    """
    if not anchors:
        anchor_support = 1.0
    else:
        ok = 0
        for step, value in anchors.items():
            if step not in asserted_steps or values_equal(asserted_steps[step][0], value):
                ok += 1
        anchor_support = ok / len(anchors)
    agree = 0.0
    if supported:
        hits = sum(
            1 for step, value in supported
            if step in asserted_steps and values_equal(asserted_steps[step][0], value)
        )
        agree = hits / len(supported)
    assert_frac = 0.0
    if refuted:
        hits = sum(
            1 for step, value in refuted
            if step in asserted_steps and values_equal(asserted_steps[step][0], value)
        )
        assert_frac = hits / len(refuted)
    if not supported and not refuted:
        conflict_agreement = 0.5
    else:
        conflict_agreement = min(1.0, max(0.0, (agree - assert_frac + 1.0) / 2.0))
    confs = [c for _, c in retained_steps.values()]
    # Left to right from 0, as the engine sums, so the score is the same on every CPython.
    mean_confidence = functools.reduce(operator.add, confs, 0) / len(confs) if confs else 0.0
    w_a, w_c, w_g = weights
    return w_a * anchor_support + w_c * conflict_agreement + w_g * mean_confidence


def modal_value(responses):
    """Highest frequency under canonical equality; ties to earliest index."""
    groups = group_by_equality([(v, i) for i, v in enumerate(responses)])
    best = None
    for rep, idxs in groups:
        key = (len(idxs), -min(idxs))
        if best is None or key > best[0]:
            best = (key, rep)
    return best[1]


def reference_line(entry):
    """An audit line as one ``JSONEncoder`` writes the whole frame, payload keys sorted."""
    encoder = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False)
    return encoder.encode({
        "seq": entry.seq,
        "stage": entry.stage,
        "event": entry.event,
        "payload": {k: entry.payload[k] for k in sorted(entry.payload)},
        "parent_refs": list(entry.parent_refs),
    })
