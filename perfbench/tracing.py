"""Outside-in tracing: wrap each layer's public functions where their callers find them.

A wrapped function records a span (name, start, end, parent span, op id).
Spans stay in parallel arrays in memory and are written out after the run.
A layer's self time is its span's duration minus the durations of its
direct child spans; calls are nested and single-threaded, so the children
cover disjoint parts of the parent. Functions called thousands of times per
op with almost no work of their own (``values_equal``, trace parsing) are
counted, not timed, so tracing does not swamp what it measures.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

from crosscheck import auditlog, engine, ensemble, facts, plandag, scenario, values, verifiers

LOAD_OP = -1  # op id of spans recorded while loading scenario files


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: dict[tuple[int, str], int] = {}
        self.op = LOAD_OP
        self.active = False
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, name: str, fn, on_result=None):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1])
            self.span_op.append(self.op)
            self.span_start.append(0)
            self.span_end.append(0)
            stack.append(idx)
            self.span_start[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self._count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper_for) -> None:
        if not hasattr(owner, attr):
            # The program moved on; the layer's metrics read 0 until the benchmark follows.
            print(f"tracing: {getattr(owner, '__name__', owner)}.{attr} not found, not traced", file=sys.stderr)
            return
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    # -- install / remove -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name; each layer's metric names carry its module's name."""
        span = lambda name, on_result=None: lambda fn: self._span(name, fn, on_result)  # noqa: E731
        count = lambda name: lambda fn: self._counter(name, fn)  # noqa: E731

        def excised(result) -> None:
            self._count("verifiers.statements_excised", len(result.removed))

        def verdict(result) -> None:
            self._count("verifiers.operators_invoked", result.cost)
            if result.value in (verifiers.SUPPORT, verifiers.REFUTE):
                self._count("verifiers.decisive")

        self._patch(scenario, "load_scenario", span("scenario.load"))
        for method in ("registry", "backend", "tool_runner"):
            self._patch(scenario.Scenario, method, span("scenario.per_run_setup"))
        self._patch(scenario, "default_registry", span("verifiers.registry_build"))
        self._patch(engine, "collect", span("ensemble.collect"))
        self._patch(ensemble, "parse_expert_output", count("ensemble.traces_parsed"))
        self._patch(engine, "gate", span("verifiers.gate", excised))
        self._patch(verifiers.OperatorRegistry, "verify", span("verifiers.verify", verdict))
        self._patch(engine, "run_pipeline", span("engine.pipeline"))
        self._patch(engine, "statements", span("engine.statements",
                                               lambda r: self._count("engine.pool_size", len(r))))
        self._patch(engine, "anchor", span("engine.anchor"))
        self._patch(engine, "conflicts", span("engine.conflicts",
                                              lambda r: self._count("engine.conflict_steps", len(r))))
        self._patch(engine, "rank_conflicts", span("engine.rank"))
        self._patch(engine, "run_audit", span("engine.audit"))
        self._patch(engine, "synthesize", span("engine.synthesize"))
        self._patch(engine, "group_values", span("values.group_values"))
        for module in (engine, verifiers, facts, values):
            self._patch(module, "values_equal", count("values.values_equal_calls"))
        self._patch(facts.FactStore, "check_consistency", span("facts.check_consistency"))
        for method in ("tools", "notes", "facts", "verified_facts"):
            self._patch(facts.FactStore, method, span("facts.listing"))
        self._patch(facts.FactStore, "load_record", span("facts.seed"))
        self._patch(facts.FactStore, "record_tool", span("facts.record_tool"))
        self._patch(facts.FactStore, "summarize_to_note", span("facts.summarize"))
        self._patch(facts.FactStore, "promote_fact", span("facts.promote"))
        for method in ("add_given", "add_assumption"):
            self._patch(facts.FactStore, method, span("facts.add_base"))
        self._patch(plandag.PlanDag, "dependents_closure", span("plandag.closure"))
        self._patch(auditlog.AuditLog, "append", span("auditlog.append"))
        self._patch(auditlog.AuditLog, "to_text", span("auditlog.to_text",
                                                       lambda r: self._count("auditlog.bytes", len(r.encode()))))

    def remove(self) -> list[str]:
        """Restore every original; return the names that did not come back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patched if getattr(owner, attr) is not original]
        self._patched.clear()
        return left

    # -- results ----------------------------------------------------------------

    def self_times(self) -> array:
        """Per-span self time in ns: duration minus the direct children's durations."""
        dur = array("q", (e - s for s, e in zip(self.span_start, self.span_end)))
        own = array("q", dur)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Self time (us) and span count per name over ops, and self time over the load phase."""
        own = self.self_times()
        op_us: dict[str, float] = {}
        op_calls: dict[str, int] = {}
        load_us: dict[str, float] = {}
        for idx, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            if self.span_op[idx] == LOAD_OP:
                load_us[name] = load_us.get(name, 0.0) + own[idx] / 1000
            else:
                op_us[name] = op_us.get(name, 0.0) + own[idx] / 1000
                op_calls[name] = op_calls.get(name, 0) + 1
        return op_us, op_calls, load_us

    def op_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (op, name), n in self.counts.items():
            if op != LOAD_OP:
                out[name] = out.get(name, 0) + n
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: index, op, name, parent, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tname\tparent\tstart_ns\tend_ns\n")
            for idx in range(len(self.span_name)):
                fh.write(f"{idx}\t{self.span_op[idx]}\t{self.names[self.span_name[idx]]}\t"
                         f"{self.span_parent[idx]}\t{self.span_start[idx]}\t{self.span_end[idx]}\n")


def layer_metrics(tracer: Tracer, n_ops: int, loads: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as a mean per traced op (per loaded file for the load)."""
    op_us, op_calls, load_us = tracer.layer_totals()
    counts = tracer.op_counts()
    t = lambda name: (op_us.get(name, 0.0) / n_ops, "us")  # noqa: E731
    c = lambda name: (counts.get(name, 0) / n_ops, "count")  # noqa: E731
    calls = lambda name: (op_calls.get(name, 0) / n_ops, "count")  # noqa: E731
    verify_calls = op_calls.get("verifiers.verify", 0)
    decisive = counts.get("verifiers.decisive", 0) / verify_calls if verify_calls else 0.0
    return {
        "scenario.load_us": (load_us.get("scenario.load", 0.0) / loads if loads else 0.0, "us"),
        "scenario.per_run_setup_us": t("scenario.per_run_setup"),
        "ensemble.collect_us": t("ensemble.collect"),
        "ensemble.traces_parsed": c("ensemble.traces_parsed"),
        "verifiers.gate_us": t("verifiers.gate"),
        "verifiers.gate_calls": calls("verifiers.gate"),
        "verifiers.statements_excised": c("verifiers.statements_excised"),
        "verifiers.registry_build_us": t("verifiers.registry_build"),
        "verifiers.verify_us": t("verifiers.verify"),
        "verifiers.operators_invoked": c("verifiers.operators_invoked"),
        "verifiers.decisive_ratio": (decisive, "share"),
        "engine.statements_us": t("engine.statements"),
        "engine.anchor_us": t("engine.anchor"),
        "engine.conflicts_us": t("engine.conflicts"),
        "engine.rank_us": t("engine.rank"),
        "engine.audit_us": t("engine.audit"),
        "engine.synthesize_us": t("engine.synthesize"),
        "engine.pipeline_self_us": t("engine.pipeline"),
        "engine.pool_size": c("engine.pool_size"),
        "engine.conflict_steps": c("engine.conflict_steps"),
        "facts.check_consistency_us": t("facts.check_consistency"),
        "facts.check_consistency_calls": calls("facts.check_consistency"),
        "facts.listing_us": t("facts.listing"),
        "facts.seed_us": t("facts.seed"),
        "facts.record_tool_us": t("facts.record_tool"),
        "facts.summarize_us": t("facts.summarize"),
        "facts.promote_us": t("facts.promote"),
        "facts.add_base_us": t("facts.add_base"),
        "values.values_equal_calls": c("values.values_equal_calls"),
        "values.group_values_us": t("values.group_values"),
        "plandag.closure_us": t("plandag.closure"),
        "plandag.closure_calls": calls("plandag.closure"),
        "auditlog.append_us": t("auditlog.append"),
        "auditlog.entries": calls("auditlog.append"),
        "auditlog.to_text_us": t("auditlog.to_text"),
        "auditlog.bytes": c("auditlog.bytes"),
    }
