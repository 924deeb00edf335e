"""Grouping and the classified statement table against naive scans.

``group_values`` groups by canonical equality under a tolerance that is
not transitive, and ``anchor``/``conflicts``/``rank_conflicts``/
``synthesize`` read one table that a run decides per value class, from a
statement index that classes each statement once by value object. Both
must give exactly what the plain scans give: the same groups in the same
order with the same first-seen representatives, and the same anchors,
collisions, conflict items, audit order, provenance and synthesis scores.
Every table is checked twice: with an index built over the retained
traces alone, and with one built over a superset of outputs, as a loaded
scenario's index holds the traces a run rejects too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from crosscheck.auditlog import AuditLog
from crosscheck.ensemble import index_statements
from crosscheck.engine import (
    OPEN,
    SUPPORTED,
    AuditBudget,
    GatedTrace,
    _candidate_provenance,
    anchor,
    conflicts,
    rank_conflicts,
    run_audit,
    statements,
    synthesize,
)
from crosscheck.plandag import PlanDag
from crosscheck.values import (
    COMPOSITE,
    NUMBER,
    QUANTITY,
    TEXT,
    Value,
    boolean,
    composite,
    format_literal,
    group_values,
    number,
    quantity,
    text,
    values_equal,
)
from crosscheck.verifiers import INCONCLUSIVE, REFUTE, SUPPORT, OperatorRegistry, Verdict

from oracles import flat_pool, group_by_equality, synthesis_score, trace, trace_rows

# An int above 2**53 and a float of equal value: equal as Python numbers, yet
# numbers_close(BIG, TWIN_INT) is False while numbers_close(BIG, TWIN_FLOAT)
# is True, because int and float subtraction round differently.
BIG = 73786976294838212674
TWIN_INT = 73786976221051232256
TWIN_FLOAT = float(TWIN_INT)

EDGE_NUMBERS = (
    1_000_000_000, 1_000_000_001, 1_000_000_002,  # neighbours equal, ends not
    1e9, 1e9 + 1, 1e9 + 2,
    0, 0.0, -0.0, 1, 1.0, 2, 5e-10, -5e-10,
    BIG, TWIN_INT, TWIN_FLOAT,
)
WORDS = ("Paris", " paris", "PARIS ", "Lyon", "lyon")
UNITS = ("m", "ft")

scalars = st.one_of(
    st.sampled_from(EDGE_NUMBERS).map(number),
    st.sampled_from(WORDS).map(text),
    st.booleans().map(boolean),
    st.tuples(st.sampled_from(EDGE_NUMBERS), st.sampled_from(UNITS)).map(lambda t: quantity(*t)),
)
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3).map(composite), max_leaves=6)


def _grouping(groups, items):
    """Groups as tag lists, plus whether each representative is its first member."""
    return [(tags, rep is items[tags[0]][0]) for rep, tags in groups]


def _assert_matches_scan(vals):
    items = [(v, i) for i, v in enumerate(vals)]
    assert _grouping(group_values(items), items) == _grouping(group_by_equality(items), items)


@given(st.lists(values, max_size=30))
@settings(max_examples=300, deadline=None)
def test_group_values_matches_first_seen_scan(vals):
    _assert_matches_scan(vals)


def test_tolerance_edge_chain_keeps_first_representative():
    chain = [number(1e9), number(1e9 + 1), number(1e9 + 2)]
    groups = group_values((v, i) for i, v in enumerate(chain + chain))
    assert [tags for _, tags in groups] == [[0, 1, 3, 4], [2, 5]]
    _assert_matches_scan(chain + chain[::-1] + chain)


def test_int_float_twins_are_not_interchangeable_at_the_edge():
    groups = group_values([(number(BIG), "big"), (number(TWIN_INT), "int"), (number(TWIN_FLOAT), "float")])
    assert [tags for _, tags in groups] == [["big", "float"], ["int"]]
    _assert_matches_scan([number(BIG), number(TWIN_INT), number(TWIN_FLOAT), number(TWIN_INT)])


def test_zero_signs_case_folds_and_units():
    _assert_matches_scan([number(0.0), number(-0.0), number(0), number(-0.0)])
    _assert_matches_scan([text("Paris"), text(" paris"), text("PARIS "), text("Paris")])
    _assert_matches_scan([quantity(1, "m"), quantity(1, "ft"), quantity(1.0, "m"), quantity(1, "ft")])


def test_nested_composites():
    inner = [composite([number(1), text("a")]), composite([number(1.0), text(" A")])]
    outer = [composite([inner[0], quantity(2, "m")]), composite([inner[1], quantity(2.0, "m")])]
    _assert_matches_scan(inner + outer + inner[::-1] + outer[::-1])


def test_payloads_without_an_exact_key_take_the_scan():
    unhashable = [
        Value(COMPOSITE, [number(1), number(2)]),  # list, not tuple
        Value(QUANTITY, [3.0, "m"]),
        Value(COMPOSITE, [number(1), number(2)]),
        Value(QUANTITY, [3, "m"]),
    ]
    _assert_matches_scan(unhashable)
    nan = float("nan")
    _assert_matches_scan([Value(NUMBER, nan), Value(NUMBER, nan), Value(NUMBER, 1)])
    _assert_matches_scan([Value(NUMBER, True), Value(NUMBER, 1), Value(TEXT, "x"), Value(TEXT, "x")])


# --- the statement table against flat-pool scans ---------------------------------

STEPS = ("a", "b", "c", "d", "e")
EXPERTS = ("e1", "e2", "e3", "e4", "e5")
DAG = PlanDag(list(STEPS), [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")])
WEIGHTS = (0.5, 0.3, 0.2)
NAN = Value(NUMBER, float("nan"))  # no exact key: a class of its own each time

statement_values = st.one_of(
    st.sampled_from((0, 0.0, -0.0, 1, 1.0, 2, 1e9, 1e9 + 1, 1e9 + 2, BIG, TWIN_INT, TWIN_FLOAT)).map(number),
    st.sampled_from(WORDS).map(text),
    st.just(NAN),
    st.sampled_from((
        composite([composite([number(1), text("a")]), quantity(2, "m")]),
        composite([composite([number(1.0), text(" A")]), quantity(2.0, "m")]),
        composite([number(1e9), number(1e9 + 2)]),
    )),
)


def _gated(expert_id, index, asserted, kept=None, confidence=None):
    """A retained trace: ``asserted`` is {step: value}; steps outside ``kept`` were excised."""
    confidence = confidence or {}
    steps = {step: (value, confidence.get(step, 0.8), (f"t{index}{step}",)) for step, value in asserted.items()}
    source = trace(expert_id, steps, number(0))
    if kept is None or set(kept) == set(steps):
        return GatedTrace(source, index)
    return GatedTrace(source.restricted_to(set(kept)), index, source)


@st.composite
def retained_traces(draw):
    traces = []
    for index in range(draw(st.integers(0, 8))):
        steps = draw(st.lists(st.sampled_from(STEPS), unique=True, max_size=5))
        asserted = {step: draw(statement_values) for step in steps}
        confidence = {step: draw(st.sampled_from((0.1, 0.5, 0.9, 1.0))) for step in steps}
        kept = draw(st.sets(st.sampled_from(steps))) if steps and draw(st.booleans()) else None
        traces.append(_gated(draw(st.sampled_from(EXPERTS)), index, asserted, kept, confidence))
    return traces


def _step_groups(pool, step):
    return group_by_equality([(s.value, s.expert_id) for s in pool if s.step == step])


def _reference_anchor(pool, theta):
    """Anchors as ``(step, value, supporters)``, and collisions: each step's quorum groups sorted on support, then literal."""
    anchors, collisions = [], []
    for step in sorted({s.step for s in pool}):
        eligible = [
            (step, rep, tuple(sorted(set(ids))))
            for rep, ids in _step_groups(pool, step)
            if len(set(ids)) >= theta
        ]
        if not eligible:
            continue
        eligible.sort(key=lambda a: (-len(a[2]), format_literal(a[1])))
        if len(eligible) > 1 and len(eligible[0][2]) == len(eligible[1][2]):
            collisions.append(step)
        else:
            anchors.append(eligible[0])
    return anchors, collisions


def _reference_conflicts(pool, anchored):
    """Conflict items as ``(step, ((value, supporters), ...))``, candidates in audit order."""
    items = []
    for step in sorted({s.step for s in pool}):
        groups = _step_groups(pool, step)
        experts = [set(ids) for _, ids in groups]
        if step in anchored or not any(
            len(experts[i] | experts[j]) >= 2 for i in range(len(experts)) for j in range(i + 1, len(experts))
        ):
            continue
        candidates = sorted(
            ((rep, tuple(sorted(set(ids)))) for rep, ids in groups),
            key=lambda c: (-len(c[1]), c[1][0], format_literal(c[0])),
        )
        items.append((step, tuple(candidates)))
    return items


def _reference_rank(steps, pool):
    def impact(step):
        confs = [s.confidence for s in pool if s.step == step]
        return (1 + len(DAG.dependents_closure(step))) * (max(confs) - min(confs))

    return sorted(steps, key=lambda s: (-impact(s), s))


def _reference_provenance(traces, step, value):
    ids = set()
    for gt in traces:
        if step in gt.trace.step_ids and values_equal(gt.trace.value_at(step), value):
            ids.update(gt.trace.provenance(step))
    return tuple(sorted(ids))


def _reference_scores(traces, anchors, conflict_set):
    """(fallback, [(expert, trace, total)]) by the direct formula over every asserted statement."""
    anchored = {a.step: a.value for a in anchors.items()}
    supported = conflict_set.supported_statements()
    refuted = conflict_set.refuted_statements()

    def leans_on_refuted(step, value):
        return any(step == rs and values_equal(value, rv) for rs, rv in refuted)

    candidates = sorted(traces, key=lambda gt: (gt.expert_id, gt.trace_index))
    fallback = bool(refuted) and all(
        any(leans_on_refuted(s, value) for s, value, _, _ in trace_rows(gt.asserted)) for gt in candidates
    )
    scores = []
    for gt in candidates:
        asserted = {s: (value, confidence) for s, value, confidence, _ in trace_rows(gt.asserted)}
        surviving = {s: (value, confidence) for s, value, confidence, _ in trace_rows(gt.trace)}
        if fallback:
            asserted = {s: vc for s, vc in asserted.items() if not leans_on_refuted(s, vc[0])}
            surviving = {s: vc for s, vc in surviving.items() if not leans_on_refuted(s, vc[0])}
        total = synthesis_score(asserted, surviving, anchored, supported, refuted, WEIGHTS)
        scores.append((gt.expert_id, gt.trace_index, total))
    return fallback, scores


class _ScriptedVerdicts:
    """Hands out verdicts in the order the audit asks, inconclusive once they run out."""

    op_id = "script"
    scripted = True

    def __init__(self, verdicts):
        self._verdicts = iter(verdicts)

    def examine(self, step, value, provenance):
        return Verdict(next(self._verdicts, INCONCLUSIVE))


def _literals(values):
    # Structural equality takes 1 == 1.0; the literal form tells them apart.
    return [format_literal(value) for value in values]


def _placed_among_rejected(traces):
    """The traces at new positions among rejected outputs, and an index over all of the outputs.

    A rejected output with value objects of its own sits before each
    trace, and each trace's asserted output (a fragment's source) sits once
    more after them all, as a rejected one, so the index's classes and
    masks hold outputs that the run did not retain.
    """
    other = trace("e0", {step: (number(-7), 0.5, ()) for step in STEPS}, number(0))
    outputs, placed = [], []
    for gt in traces:
        outputs.append(other)
        placed.append(GatedTrace(gt.trace, len(outputs), gt.source))
        outputs.append(gt.asserted)
    outputs += [gt.asserted for gt in reversed(traces)]
    return placed, index_statements(outputs)


def _assert_table_matches_oracles(traces, theta, verdicts=()):
    """Every stage matches its naive scan, over an index of the traces alone and over a prebuilt superset one."""
    placed, index = _placed_among_rejected(traces)
    table = statements(placed, index)
    assert table.index is index  # the stages read the prebuilt index, not one of their own
    _assert_stages_match_oracles(placed, table, theta, verdicts)
    return _assert_stages_match_oracles(traces, statements(traces), theta, verdicts)


def _assert_stages_match_oracles(traces, table, theta, verdicts):
    """Every stage over ``table`` equals its naive scan over ``traces``; returns the anchors."""
    pool = flat_pool([gt.trace for gt in traces])
    assert len(table) == len(pool)
    assert list(table.steps) == sorted({s for gt in traces for s in gt.asserted.step_ids})
    for step, sc in table.steps.items():
        assert table.confidences(step) == [s.confidence for s in pool if s.step == step]

    ref_anchors, ref_collisions = _reference_anchor(pool, theta)
    anchors, collisions = anchor(table, theta)
    assert [(a.step, a.value, a.supporters) for a in anchors.items()] == ref_anchors
    assert [a.support for a in anchors.items()] == [len(supporters) for _, _, supporters in ref_anchors]
    assert _literals(a.value for a in anchors.items()) == _literals(value for _, value, _ in ref_anchors)
    assert collisions == ref_collisions

    conflict_set = conflicts(table, anchors)
    ref_items = _reference_conflicts(pool, {a.step for a in anchors.items()})
    got = [(i.step, tuple((c.value, c.supporters) for c in i.candidates)) for i in conflict_set.items()]
    assert got == ref_items
    assert all(i.state == OPEN and i.supported_value is None and not i.refuted_values for i in conflict_set.items())
    assert [_literals(c.value for c in i.candidates) for i in conflict_set.items()] == [
        _literals(value for value, _ in candidates) for _, candidates in ref_items]

    ranked = rank_conflicts(conflict_set, DAG, table)
    assert ranked == _reference_rank(conflict_set.steps(), pool)
    for item in conflict_set.items():
        for candidate in item.candidates:
            assert _candidate_provenance(table, item.step, candidate.value) == _reference_provenance(
                traces, item.step, candidate.value
            )

    registry = OperatorRegistry().register(_ScriptedVerdicts(verdicts))
    run_audit(ranked, conflict_set, anchors, AuditBudget(b_max=100), registry, table, AuditLog())
    for item in conflict_set.items():
        if item.state == SUPPORTED:  # the audit anchors the supported candidate with its supporters
            (promoted,) = [a for a in anchors.items() if a.step == item.step]
            assert (promoted.value, promoted.supporters, promoted.support) in [
                (c.value, c.supporters, len(c.supporters)) for c in item.candidates if c.value is item.supported_value]
    if not traces:
        return anchors
    log = AuditLog()
    winner, score, fallback = synthesize(table, anchors, conflict_set, WEIGHTS, log)
    ref_fallback, ref_scores = _reference_scores(traces, anchors, conflict_set)
    got = [(e.payload["expert"], e.payload["trace"], e.payload["total"]) for e in log if e.event == "score"]
    assert fallback == ref_fallback
    assert got == ref_scores
    best = max(ref_scores, key=lambda t: t[2])  # max keeps the first of equal totals
    assert (winner.expert_id, winner.trace_index, score.total) == best
    return anchors


@given(retained_traces(), st.integers(2, 3), st.lists(st.sampled_from((SUPPORT, REFUTE, INCONCLUSIVE)), max_size=12))
@settings(max_examples=300, deadline=None)
def test_bucketed_stages_match_steps_times_pool_scans(traces, theta, verdicts):
    _assert_table_matches_oracles(traces, theta, verdicts)


def test_tolerance_chain_decides_each_class_against_the_anchor():
    # Groups in first retained order: {1e9, 1e9+1} and {1e9+2}. The second
    # anchors, and e3's 1e9+1 equals it although it sits in the other group.
    traces = [
        _gated("e1", 0, {"a": number(1e9)}),
        _gated("e2", 1, {"a": number(1e9 + 2)}),
        _gated("e3", 2, {"a": number(1e9 + 1)}),
        _gated("e4", 3, {"a": number(1e9 + 2)}),
        _gated("e5", 4, {"a": number(1e9 + 2)}),
    ]
    anchors = _assert_table_matches_oracles(traces, 2)
    assert _literals(a.value for a in anchors.items()) == ["num:1000000002.0"]


def _quorum_groups(counts, order):
    """One step ``a`` where the values 1, 2 and 3 (in literal order) are held by ``counts`` experts each.

    ``order`` is the order of the values' first holders, so the groups form in that order.
    """
    values = [number(1), number(2), number(3)]
    holders = [i for i in order for _ in range(counts[i])]
    return [_gated(f"e{j}", j, {"a": values[i]}) for j, i in enumerate(holders)]


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
@pytest.mark.parametrize("top", [0, 1, 2])
def test_a_unique_top_among_three_quorum_groups_anchors_whatever_the_literal_order(top, order):
    counts = [2, 2, 2]
    counts[top] = 3
    anchors = _assert_table_matches_oracles(_quorum_groups(counts, order), 2)
    assert [(a.value, a.support) for a in anchors.items()] == [(number(top + 1), 3)]


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
@pytest.mark.parametrize("counts", [(3, 3, 2), (2, 3, 3), (3, 2, 3), (2, 2, 2)])
def test_a_tie_at_the_top_of_the_quorum_groups_is_a_collision(counts, order):
    traces = _quorum_groups(counts, order)
    assert not _assert_table_matches_oracles(traces, 2)
    assert anchor(statements(traces), 2)[1] == ["a"]


def test_table_int_float_twins_at_the_edge():
    traces = [
        _gated("e1", 0, {"a": number(BIG), "b": number(TWIN_FLOAT)}),
        _gated("e2", 1, {"a": number(TWIN_INT), "b": number(BIG)}),
        _gated("e3", 2, {"a": number(TWIN_FLOAT), "b": number(TWIN_INT)}),
        _gated("e4", 3, {"a": number(TWIN_INT), "b": number(TWIN_FLOAT)}),
    ]
    _assert_table_matches_oracles(traces, 2, [REFUTE, SUPPORT])


def test_excised_negative_zero_does_not_represent_the_retained_zero():
    traces = [
        _gated("e1", 0, {"a": number(-0.0), "b": number(1)}, kept=["b"]),
        _gated("e2", 1, {"a": number(0.0), "b": number(1)}),
        _gated("e3", 2, {"a": number(0.0), "b": number(2)}),
    ]
    anchors = _assert_table_matches_oracles(traces, 2)
    assert {a.step: format_literal(a.value) for a in anchors.items()}.get("a") == "num:0.0"


def test_excised_statement_within_tolerance_of_an_anchor():
    # e1's excised 1e9+1 agrees with the anchor 1e9, and e4's excised 5e9 contradicts it.
    traces = [
        _gated("e1", 0, {"a": number(1e9 + 1), "b": number(7)}, kept=["b"]),
        _gated("e2", 1, {"a": number(1e9), "b": number(8)}),
        _gated("e3", 2, {"a": number(1e9), "b": number(9)}),
        _gated("e4", 3, {"a": number(5e9), "b": number(9)}, kept=["b"]),
    ]
    _assert_table_matches_oracles(traces, 2, [REFUTE, SUPPORT])
    for verdicts in ([REFUTE, REFUTE, REFUTE], [SUPPORT], [INCONCLUSIVE, REFUTE]):
        _assert_table_matches_oracles(traces, 2, verdicts)


def test_keyless_values_are_classes_of_their_own():
    traces = [
        _gated("e1", 0, {"a": NAN, "b": number(1)}),
        _gated("e2", 1, {"a": NAN, "b": number(1)}),
        _gated("e3", 2, {"a": number(1), "b": NAN}),
        _gated("e4", 3, {"a": Value(QUANTITY, [3.0, "m"]), "b": Value(COMPOSITE, [number(1)])}),
    ]
    table = statements(traces)
    assert len(table.steps["a"].asserted) == 4  # two NaNs, 1 and the unhashable quantity
    _assert_table_matches_oracles(traces, 2, [REFUTE, REFUTE, SUPPORT])


def test_a_shared_nan_object_is_never_one_class():
    # Statements are classed by value object, but a value unequal to itself
    # must not count as two experts agreeing, however many share it.
    traces = [_gated("e1", 0, {"a": NAN}), _gated("e2", 1, {"a": NAN})]
    table = statements(traces)
    assert table.index.reps == (NAN, NAN) and len(table.steps["a"].asserted) == 2
    anchors = _assert_table_matches_oracles(traces, 2)
    assert "a" not in anchors


def test_table_nested_composites():
    left = composite([composite([number(1), text("a")]), quantity(2, "m")])
    right = composite([composite([number(1.0), text(" A")]), quantity(2.0, "m")])
    other = composite([composite([number(2), text("a")]), quantity(2, "m")])
    traces = [
        _gated("e1", 0, {"a": left}),
        _gated("e2", 1, {"a": right, "b": other}, kept=["a"]),
        _gated("e3", 2, {"a": other, "b": left}),
        _gated("e4", 3, {"a": other, "b": right}),
    ]
    table = statements(traces)
    assert len(table.steps["a"].asserted) == 3 and len(table.steps["a"].groups) == 2
    _assert_table_matches_oracles(traces, 2, [REFUTE, REFUTE])
