"""Task graphs: validated DAGs and downstream-only repair.

A plan is a set of step ids plus dependency edges. Construction rejects
cycles and dangling edges, after which the graph is immutable and safe to
share across threads. ``removal_set`` names a set of violated steps
together with everything downstream of them and nothing else, so repair
never touches upstream or sibling steps.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CycleError, UnknownStepError


class PlanDag:
    """An immutable DAG over step ids.

    The edges are held once, as each step's sorted successors; ``edges``
    is built from them on each read. A loaded scenario's step ids are
    shared strings (``values.shared_text``), so its DAG holds one object
    per step id wherever the id appears.
    """

    __slots__ = ("steps", "_succ")

    def __init__(self, steps: Iterable[str], edges: Iterable[tuple[str, str]]) -> None:
        step_list = list(steps)
        step_set = set(step_list)
        if len(step_set) != len(step_list):
            dupes = sorted({s for s in step_list if step_list.count(s) > 1})
            raise ValueError(f"duplicate step ids: {dupes}")
        succ: dict[str, set[str]] = {s: set() for s in step_set}
        for src, dst in edges:
            if src not in step_set:
                raise UnknownStepError(f"edge references unknown step {src!r}")
            if dst not in step_set:
                raise UnknownStepError(f"edge references unknown step {dst!r}")
            succ[src].add(dst)
        self.steps: tuple[str, ...] = tuple(sorted(step_set))
        self._succ = {s: tuple(sorted(succ[s])) for s in self.steps}
        indegree = {s: 0 for s in self.steps}
        for targets in self._succ.values():
            for dst in targets:
                indegree[dst] += 1
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

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every edge ``(src, dst)`` once, sorted, built from the successor lists."""
        return tuple((src, dst) for src in self.steps for dst in self._succ[src])

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


def removal_set(dag: PlanDag, violated: Iterable[str],
                closures: dict[str, frozenset[str]] | None = None) -> frozenset[str]:
    """The violated steps plus every step downstream of any of them; UnknownStepError for a step not in ``dag``.

    ``closures`` is a memo of ``dag``'s dependents closures that the caller
    keeps across calls: each step's closure is computed on first use and
    read afterwards.
    """
    memo: dict[str, frozenset[str]] = {} if closures is None else closures
    removed: set[str] = set()
    for step in violated:
        closure = memo.get(step)
        if closure is None:
            closure = memo[step] = dag.dependents_closure(step)
        removed.add(step)
        removed.update(closure)
    return frozenset(removed)
