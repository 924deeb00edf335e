"""Brute-force oracles, independent of the implementations they check.

Everything here recomputes results the slow, obvious way: DFS for
reachability and cycles, explicit count filters and all-pairs comparisons
for anchors and conflicts, a direct transcription of the synthesis
formula, and one general-purpose JSON encoder over a whole audit line.
Keep these naive on purpose.
"""

import json
from typing import NamedTuple

from crosscheck.values import format_literal, values_equal


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


class Stmt(NamedTuple):
    step: str
    value: object
    expert_id: str
    confidence: float


def flat_pool(traces):
    """Every intermediate of every trace as one flat statement list, steps sorted within a trace."""
    return [
        Stmt(step, trace.steps[step].value, trace.expert_id, trace.steps[step].confidence)
        for trace in traces
        for step in sorted(trace.steps)
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
    mean_confidence = sum(confs) / len(confs) if confs else 0.0
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
