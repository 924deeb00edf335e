"""Task graphs: validated DAGs and downstream-only repair.

A plan is a set of step ids plus dependency edges. Construction rejects
cycles and dangling edges, after which the graph is immutable and safe to
share across threads. ``removal_set`` names a set of violated steps
together with everything downstream of them and nothing else, so repair
never touches upstream or sibling steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CycleError, UnknownStepError
from .values import Value


@dataclass(frozen=True, slots=True)
class StepResult:
    """One step's outcome inside a single expert trace; the trace's ``steps`` maps the step id to it."""

    value: Value
    confidence: float
    provenance: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0,1], got {self.confidence!r}")


class PlanDag:
    """An immutable DAG over step ids."""

    __slots__ = ("steps", "edges", "_succ")

    def __init__(self, steps: Iterable[str], edges: Iterable[tuple[str, str]]) -> None:
        step_list = list(steps)
        step_set = set(step_list)
        if len(step_set) != len(step_list):
            dupes = sorted({s for s in step_list if step_list.count(s) > 1})
            raise ValueError(f"duplicate step ids: {dupes}")
        edge_set = set()
        for src, dst in edges:
            if src not in step_set:
                raise UnknownStepError(f"edge references unknown step {src!r}")
            if dst not in step_set:
                raise UnknownStepError(f"edge references unknown step {dst!r}")
            edge_set.add((src, dst))
        self.steps: tuple[str, ...] = tuple(sorted(step_set))
        self.edges: tuple[tuple[str, str], ...] = tuple(sorted(edge_set))
        succ: dict[str, list[str]] = {s: [] for s in self.steps}
        indegree = {s: 0 for s in self.steps}
        for src, dst in self.edges:
            succ[src].append(dst)
            indegree[dst] += 1
        self._succ = {s: tuple(sorted(targets)) for s, targets in succ.items()}
        # Peel off steps with no remaining dependency; what is left lies on or below a cycle.
        ready = [s for s, d in indegree.items() if d == 0]
        while ready:
            for nxt in self._succ[ready.pop()]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        stuck = sorted(s for s, d in indegree.items() if d > 0)
        if stuck:
            raise CycleError(f"graph has a directed cycle through {stuck}")

    def dependents_closure(self, step: str) -> frozenset[str]:
        """All steps reachable from ``step`` along edges, excluding ``step`` itself."""
        if step not in self._succ:
            raise UnknownStepError(f"unknown step {step!r}")
        seen: set[str] = set()
        stack = list(self._succ[step])
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._succ[cur])
        return frozenset(seen)

    def __contains__(self, step: str) -> bool:
        return step in self._succ


def build_plan(steps: Iterable[str], edges: Iterable[tuple[str, str]]) -> PlanDag:
    """Validate and freeze a plan; raises CycleError / UnknownStepError."""
    return PlanDag(steps, edges)


def removal_set(dag: PlanDag, violated: Iterable[str]) -> frozenset[str]:
    """The violated steps plus every step downstream of any of them; UnknownStepError for a step not in ``dag``."""
    removed: set[str] = set()
    for step in violated:
        removed.add(step)
        removed.update(dag.dependents_closure(step))
    return frozenset(removed)

