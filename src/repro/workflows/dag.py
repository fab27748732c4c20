"""Workflow DAG definition and analysis.

Two layers live here:

* :class:`TaskGraph` — a validated DAG over opaque task names. It is the
  generic dependency substrate: :class:`WorkflowGraph` uses it for
  sim-level stage DAGs, and ``repro.harness.planner`` builds campaign run
  DAGs on it (sweep stages with barrier dependencies).
* :class:`WorkflowGraph` — the simulation-facing DAG of
  :class:`Stage` bursts (apps × concurrency with ``depends_on`` edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Sequence

from repro.workloads.base import AppSpec


class TaskGraph:
    """A validated DAG over opaque task names.

    ``edges`` are ``(dependency, dependent)`` pairs: the second task may
    only start once the first has completed. Duplicate names, unknown
    endpoints, self-loops, and cycles are rejected at construction.

    Nodes and edges keep the order they were given in (a repeated edge
    counts once), and the topological order is generation by generation,
    each in the order its nodes became ready.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        edges: Iterable[tuple[str, str]] = (),
    ) -> None:
        if not nodes:
            raise ValueError("a task graph needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate task names")
        # Each node's dependencies, as an ordered set (a dict of Nones).
        self._preds: dict[str, dict[str, None]] = {n: {} for n in nodes}
        sorter = TopologicalSorter()
        for node in nodes:
            sorter.add(node)
        for dep, node in edges:
            if dep not in self._preds:
                raise ValueError(f"{node}: unknown dependency {dep!r}")
            if node not in self._preds:
                raise ValueError(f"unknown task {node!r}")
            if dep == node:
                raise ValueError(f"{node}: a task cannot depend on itself")
            if dep not in self._preds[node]:
                self._preds[node][dep] = None
                sorter.add(node, dep)
        try:
            self._order = list(sorter.static_order())
        except CycleError as error:
            raise ValueError(f"task graph has a cycle: {error.args[1]}") from None

    def __len__(self) -> int:
        return len(self._preds)

    def topological_order(self) -> list[str]:
        return list(self._order)

    def roots(self) -> list[str]:
        return [n for n, preds in self._preds.items() if not preds]

    def sinks(self) -> list[str]:
        deps = {dep for preds in self._preds.values() for dep in preds}
        return [n for n in self._preds if n not in deps]

    def predecessors(self, name: str) -> list[str]:
        """``name``'s dependencies, in the order their edges were given."""
        return list(self._preds[name])

    def dependencies(self, name: str) -> list[str]:
        return sorted(self._preds[name])

    def ready(self, completed: Iterable[str]) -> list[str]:
        """Tasks whose every dependency is in ``completed``, in topological
        order (completed tasks themselves are excluded)."""
        done = set(completed)
        return [
            n
            for n in self._order
            if n not in done and all(dep in done for dep in self._preds[n])
        ]


@dataclass(frozen=True)
class Stage:
    """One workflow stage: a concurrent burst of one application.

    ``depends_on`` names stages whose *complete* output this stage consumes
    (barrier semantics, like a MapReduce round or a Step Functions map
    state followed by a join).
    """

    name: str
    app: AppSpec
    concurrency: int
    depends_on: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage needs a name")
        if self.concurrency < 1:
            raise ValueError(f"{self.name}: concurrency must be >= 1")
        if self.name in self.depends_on:
            raise ValueError(f"{self.name}: a stage cannot depend on itself")


class WorkflowGraph:
    """A validated DAG of stages."""

    def __init__(self, stages: Sequence[Stage]) -> None:
        if not stages:
            raise ValueError("a workflow needs at least one stage")
        self.stages: dict[str, Stage] = {s.name: s for s in stages}
        self.tasks = TaskGraph(
            [s.name for s in stages],
            [(dep, s.name) for s in stages for dep in s.depends_on],
        )

    def __len__(self) -> int:
        return len(self.stages)

    def topological_order(self) -> list[Stage]:
        return [self.stages[name] for name in self.tasks.topological_order()]

    def roots(self) -> list[str]:
        return self.tasks.roots()

    def sinks(self) -> list[str]:
        return self.tasks.sinks()

    def critical_path(self, durations: dict[str, float]) -> tuple[list[str], float]:
        """Longest path through the DAG under per-stage ``durations``.

        Returns (stage names along the path, total length). This is the
        workflow's makespan when stages start as soon as their dependencies
        finish.
        """
        missing = set(self.stages) - set(durations)
        if missing:
            raise ValueError(f"missing durations for stages: {sorted(missing)}")
        finish: dict[str, float] = {}
        pred: dict[str, str | None] = {}
        for name in self.tasks.topological_order():
            dep_finish = 0.0
            best_pred = None
            for dep in self.tasks.predecessors(name):
                if finish[dep] > dep_finish:
                    dep_finish = finish[dep]
                    best_pred = dep
            finish[name] = dep_finish + durations[name]
            pred[name] = best_pred
        end = max(finish, key=finish.get)
        path = [end]
        while pred[path[-1]] is not None:
            path.append(pred[path[-1]])
        return list(reversed(path)), finish[end]
