"""Serverless workflow (DAG) support.

The paper's introduction motivates packing with multi-step applications:
"resource-intensive large-scale applications are frequently broken down
into multiple steps, where each of the steps is processed in parallel by a
large number of serverless functions" [14]. This package models such
applications as DAGs of *stages* — each stage a concurrent burst of one
application — and plans every stage's packing degree with ProPack:

* :mod:`~repro.workflows.dag` — stage/graph definitions, validation,
  critical-path analysis (the standard library's ``graphlib`` underneath).
* :mod:`~repro.workflows.executor` — runs a workflow on a platform, with
  per-stage ProPack packing or the unpacked baseline.
"""

from repro.workflows.dag import Stage, TaskGraph, WorkflowGraph
from repro.workflows.deadline import DeadlinePlan, DeadlinePlanner
from repro.workflows.executor import StageOutcome, WorkflowResult, WorkflowRunner

__all__ = [
    "Stage",
    "TaskGraph",
    "WorkflowGraph",
    "StageOutcome",
    "WorkflowResult",
    "WorkflowRunner",
    "DeadlinePlan",
    "DeadlinePlanner",
]
