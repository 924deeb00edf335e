"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration. The brute-force oracles live in tests/oracles.py and are
independent of the implementations they check.
"""

from __future__ import annotations

import time

import pytest

from crosscheck.baselines import evaluate_methods, majority_vote, pass_at_n, simple_verification
from crosscheck.corpus import GeneratorParams, adversarial_corpus, random_scenario
from crosscheck.engine import EngineConfig, run_pipeline
from crosscheck.errors import NoFeasibleCandidateError
from crosscheck.facts import DERIVED, RETRIEVED, ToolRecord
from crosscheck.scenario import scenario_expert_outputs
from crosscheck.values import format_literal, values_equal
from crosscheck.verifiers import RESPONSE_KEY, RESPONSE_SCOPE

from oracles import count_filter_anchors, dfs_reachable, flat_pool, pairwise_conflicts
from storegen import build_random_store

N_MAIN = 1000
MAIN_CONFIG = EngineConfig()  # theta=2, auto budget


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPT {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def main_runs():
    """Criterion 1's scenario population, shared by criteria 2 and 3."""
    runs = []
    started = time.perf_counter()
    for seed in range(N_MAIN):
        scenario = random_scenario(seed)
        budget = None if seed % 3 else (seed % 7)  # mix auto and explicit caps
        config = EngineConfig(budget=budget)
        result = run_pipeline(scenario, config)
        runs.append((scenario, config, result))
    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_criterion_01_budget_bound(main_runs):
    runs, elapsed = main_runs
    violations = 0
    for _, config, result in runs:
        b_max = config.budget if config.budget is not None else min(len(result.conflicts), 16)
        verify_events = [e for e in result.audit_log if e.stage == "audit" and e.event == "verify"]
        if result.verify_calls > b_max or len(verify_events) != result.verify_calls:
            violations += 1
    ok = violations == 0 and elapsed < 10.0
    _report("01 budget-bound", ok,
            f"{len(runs)} runs, {violations} violations, {elapsed:.2f}s < 10s")


def test_criterion_02_anchor_oracle_equivalence(main_runs):
    runs, _ = main_runs
    mismatches = 0
    for _, config, result in runs:
        pool = flat_pool([gt.trace for gt in result.retained])
        expected = count_filter_anchors(pool, config.theta)
        # audited promotions extend the quorum anchors; compare the quorum part
        contested = {item.step for item in result.conflicts.items()}
        quorum_got = {
            a.step: format_literal(a.value)
            for a in result.anchors.items()
            if a.step not in contested
        }
        if quorum_got != expected:
            mismatches += 1
    _report("02 anchor-oracle", mismatches == 0,
            f"{len(runs)} scenarios, {mismatches} mismatches (exact match required)")


def test_criterion_03_conflict_oracle_equivalence(main_runs):
    runs, _ = main_runs
    mismatches = 0
    for _, config, result in runs:
        pool = flat_pool([gt.trace for gt in result.retained])
        oracle_anchors = set(count_filter_anchors(pool, config.theta))
        expected = pairwise_conflicts(pool, oracle_anchors)
        if set(result.conflicts.steps()) != expected:
            mismatches += 1
    _report("03 conflict-oracle", mismatches == 0,
            f"{len(runs)} scenarios, {mismatches} mismatches (exact match required)")


def test_criterion_04_gate_soundness():
    params = GeneratorParams(with_constraints=True, with_facts=True)
    checked, bad_responses, bad_excisions = 0, 0, 0
    for seed in range(400):
        scenario = random_scenario(10_000 + seed, params)
        try:
            result = run_pipeline(scenario)
        except NoFeasibleCandidateError as exc:
            result = exc.result
        checked += 1
        response_constraints = [c for c in scenario.constraints if c.scope == RESPONSE_SCOPE]
        at_response = [f for f in result.facts.verified_facts() if f.key == RESPONSE_KEY]
        for gt in result.retained:
            if not all(c.holds(gt.trace.response, at_response)
                       for c in response_constraints):
                bad_responses += 1
        edges = list(scenario.dag.edges)
        for entry in result.audit_log:
            if entry.stage != "prune" or entry.event != "excise":
                continue
            failing = set(entry.payload["failing"])
            allowed = set(failing)
            for f in failing:
                allowed |= dfs_reachable(edges, f)
            if not set(entry.payload["removed"]) <= allowed:
                bad_excisions += 1
    ok = bad_responses == 0 and bad_excisions == 0
    _report("04 gate-soundness", ok,
            f"{checked} constrained scenarios, {bad_responses} infeasible retained, "
            f"{bad_excisions} unjustified excisions")


def test_criterion_05_cost_locality():
    violations, zero_violations = 0, 0
    for seed in range(500):
        scenario = random_scenario(20_000 + seed)
        outputs = scenario_expert_outputs(scenario)
        pool = flat_pool(outputs)
        disagreeing = pairwise_conflicts(pool, set())
        k = len(disagreeing)
        max_candidates = 1
        for step in disagreeing:
            values = []
            for s in pool:
                if s.step == step and not any(values_equal(s.value, v) for v in values):
                    values.append(s.value)
            max_candidates = max(max_candidates, len(values))
        # a deliberately loose budget so the bound is the algorithm's, not the cap's
        result = run_pipeline(scenario, EngineConfig(budget=10_000))
        if result.verify_calls > k * max_candidates:
            violations += 1
        if k == 0 and result.verify_calls != 0:
            zero_violations += 1
    ok = violations == 0 and zero_violations == 0
    _report("05 cost-locality", ok,
            f"500 scenarios, {violations} over k*maxcand, {zero_violations} nonzero at k=0")


def test_criterion_06_adversarial_majority_separation():
    corpus = adversarial_corpus(size=50, master_seed=7)
    started = time.perf_counter()
    report = evaluate_methods(corpus, ["audit", "mv", "sv", "passn"],
                              EngineConfig(theta=3, budget=2))
    elapsed = time.perf_counter() - started
    again = evaluate_methods(corpus, ["audit", "mv", "sv", "passn"],
                             EngineConfig(theta=3, budget=2))
    deterministic = report.verdicts == again.verdicts
    ok = (
        report.scores["audit"] == 1.0
        and report.scores["mv"] == 0.0
        and report.scores["sv"] <= 0.5
        and report.scores["passn"] == 1.0
        and deterministic
        and elapsed < 5.0
    )
    _report("06 adversarial-separation", ok,
            f"audit={report.scores['audit']:.2f} mv={report.scores['mv']:.2f} "
            f"sv={report.scores['sv']:.2f} passn={report.scores['passn']:.2f}, "
            f"deterministic={deterministic}, {elapsed:.2f}s < 5s")


def test_criterion_07_replay_determinism():
    differing = 0
    for seed in range(100):
        params = GeneratorParams(with_constraints=(seed % 2 == 0), with_facts=(seed % 3 == 0))
        scenario = random_scenario(30_000 + seed, params)
        config = EngineConfig(budget=seed % 5)

        def run_once():
            try:
                return run_pipeline(scenario, config).audit_log.to_text()
            except NoFeasibleCandidateError as exc:
                return exc.result.audit_log.to_text()

        if run_once() != run_once():
            differing += 1
    _report("07 replay-determinism", differing == 0,
            f"100 scenarios run twice, {differing} byte-level differences")


def test_criterion_08_provenance_closure_and_promotion_soundness():
    store = build_random_store(seed=4242, n_ops=10_000)
    broken_chains = 0
    for fact in store.verified_facts():
        if fact.category in (RETRIEVED, DERIVED):
            chain = store.provenance_chain(fact.id)
            if sum(1 for x in chain if isinstance(x, ToolRecord)) < 1:
                broken_chains += 1
    violations = store.verify_promotion_soundness()
    ok = broken_chains == 0 and violations == []
    _report("08 provenance-closure", ok,
            f"{len(store.oplog)} ops, {len(store.verified_facts())} verified facts, "
            f"{broken_chains} broken chains, {len(violations)} soundness violations")


def test_criterion_09_baseline_identities():
    dominance_fails, monotonic_fails, singleton_fails = 0, 0, 0
    singleton_count = 0
    for master in range(30):
        scenarios = [random_scenario(40_000 + master * 100 + i) for i in range(10)]
        report = evaluate_methods(scenarios, ["audit", "mv", "sv", "passn"])
        ceiling = report.scores["passn"]
        if any(report.scores[m] > ceiling for m in ("audit", "mv", "sv")):
            dominance_fails += 1
        for scenario in scenarios:
            outputs = scenario_expert_outputs(scenario)
            responses = [o.response for o in outputs]
            hits = [pass_at_n(responses[:k], scenario.oracle) for k in range(1, len(responses) + 1)]
            if any(a and not b for a, b in zip(hits, hits[1:])):
                monotonic_fails += 1
            if len(scenario.experts) == 1:
                singleton_count += 1
                mv = majority_vote(responses)
                sv = simple_verification(outputs)
                audited = run_pipeline(scenario).answer
                if not (values_equal(mv, sv) and values_equal(sv, audited)):
                    singleton_fails += 1
    ok = dominance_fails == 0 and monotonic_fails == 0 and singleton_fails == 0
    _report("09 baseline-identities", ok,
            f"30 corpora: {dominance_fails} dominance, {monotonic_fails} monotonicity, "
            f"{singleton_fails}/{singleton_count} singleton-agreement failures")


def test_criterion_10_argmax_scale_invariance():
    changed = 0
    for seed in range(200):
        scenario = random_scenario(50_000 + seed)
        base = run_pipeline(scenario, EngineConfig())
        for scale in (0.25, 3.0, 40.0):
            scaled_weights = tuple(w * scale for w in EngineConfig().weights)
            scaled = run_pipeline(scenario, EngineConfig(weights=scaled_weights))
            if (not values_equal(scaled.answer, base.answer)
                    or scaled.winner_expert != base.winner_expert):
                changed += 1
    _report("10 scale-invariance", changed == 0,
            f"200 scenarios x 3 scales, {changed} answer changes")
