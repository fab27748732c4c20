"""Compare two sets of benchmark result files against the declared bounds.

Each result file holds one JSON object per line, as ``python -m bench run
--out FILE`` appends them. For every (workload, end-to-end metric) the
comparison prints each side's median and quartiles and a verdict.

Host metrics (times, throughputs, memory) vary from run to run, so they
are judged on medians against the metric's bound in ``BENCHMARK.json``:

* ``within``     — the medians differ by no more than the bound;
* ``worse``      — the change's median is worse by more than the bound;
* ``better``     — better by more than the bound, or, where the spread is
  wider than the bound, every run of the change beats every parent run;
* ``unresolved`` — the run-to-run spread (quartile distance over median)
  of either side is wider than the bound, so "within" cannot be claimed.

The ``sim_*`` metrics are deterministic per seed but move by several
percent between seeds, and the ``BENCHMARK.json`` bounds, which bound
medians over whatever seeds each side ran, are sized to that. So they are
judged seed by seed instead, on the seeds both sides ran, where the
seed-to-seed variation cancels: ``worse`` when any seed is worse by more
than :data:`SIM_REL_TOL` (:data:`SIM_ABS_TOL` absolute for fractions),
``better`` when every seed is better by more than that, else ``within``.
The ``sim`` column says whether every such seed gave the identical value.

``missing`` — one side has no value for the pair, or, for a ``sim_*``
metric, no seed ran on both sides.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

FAILING = ("worse", "missing")
SIM_PREFIX = "sim_"
#: Per-seed tolerance of the ``sim_*`` metrics: relative, or absolute for
#: those whose unit is ``fraction``.
SIM_REL_TOL = 0.02
SIM_ABS_TOL = 0.01


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    a: tuple[float, float, float]   # (q1, median, q3)
    b: tuple[float, float, float]
    change: float                   # positive = worse
    absolute: bool                  # change is a difference, not a share
    verdict: str
    sim: str                        # identical / changed / "" (not a sim metric)


def load_results(path: str) -> list[dict]:
    """Every untraced result line in a result file or a directory of them."""
    p = Path(path)
    results = []
    for f in sorted(p.glob("*.jsonl")) if p.is_dir() else [p]:
        for line in f.read_text(encoding="utf-8").splitlines():
            if line.strip():
                doc = json.loads(line)
                if not doc.get("trace"):
                    results.append(doc)
    return results


def _by_pair(results: list[dict]) -> dict[tuple[str, str], list[tuple[int, float]]]:
    """(workload, metric) -> [(seed, value)], one entry per run."""
    pairs: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for doc in results:
        for metric, entry in doc["metrics"].items():
            pairs.setdefault((doc["workload"], metric), []).append(
                (doc["seed"], entry["value"])
            )
    return pairs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(q: tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[str, float]:
    """The verdict for one pair, and the relative change (positive = worse)."""
    qa, qb = _quartiles(a), _quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    if max(_spread(qa), _spread(qb)) > bound:
        beats = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if beats else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within", change


def sim_verdict(
    a: list[tuple[int, float]], b: list[tuple[int, float]], unit: str, better: str
) -> tuple[str, float, str]:
    """Verdict, worst per-seed change (positive = worse) and the ``sim``
    column for one deterministic metric, over the seeds both sides ran."""
    by_seed: dict[int, tuple[list[float], list[float]]] = {}
    for side, runs in ((0, a), (1, b)):
        for seed, value in runs:
            by_seed.setdefault(seed, ([], []))[side].append(value)
    common = [pair for pair in by_seed.values() if pair[0] and pair[1]]
    if not common:
        return "missing", float("nan"), ""
    absolute = unit == "fraction"
    tol = SIM_ABS_TOL if absolute else SIM_REL_TOL
    sign = 1.0 if better == "lower" else -1.0
    changes = []
    for xs, ys in common:
        x, y = statistics.median(xs), statistics.median(ys)
        diff = sign * (y - x) + 0.0  # no negative zero in the printed change
        changes.append(diff if absolute or x == 0 else diff / abs(x))
    identical = all(len(set(xs + ys)) == 1 for xs, ys in common)
    worst = max(changes)
    if worst > tol:
        outcome = "worse"
    elif all(c < -tol for c in changes):
        outcome = "better"
    else:
        outcome = "within"
    return outcome, worst, "identical" if identical else "changed"


def compare(
    a_results: list[dict], b_results: list[dict], end_to_end: list[dict]
) -> list[Row]:
    a_pairs, b_pairs = _by_pair(a_results), _by_pair(b_results)
    workloads = sorted({w for w, _ in a_pairs} | {w for w, _ in b_pairs})
    rows = []
    for workload in workloads:
        for spec in end_to_end:
            name, unit = spec["name"], spec["unit"]
            a, b = a_pairs.get((workload, name), []), b_pairs.get((workload, name), [])
            a_values, b_values = [v for _, v in a], [v for _, v in b]
            empty = (float("nan"),) * 3
            qa = _quartiles(a_values) if a else empty
            qb = _quartiles(b_values) if b else empty
            if not a or not b:
                rows.append(Row(workload, name, unit, qa, qb, float("nan"), False,
                                "missing", ""))
            elif name.startswith(SIM_PREFIX):
                outcome, change, sim = sim_verdict(a, b, unit, spec["better"])
                rows.append(Row(workload, name, unit, qa, qb, change, unit == "fraction",
                                outcome, sim))
            else:
                outcome, change = verdict(a_values, b_values, spec["bound"], spec["better"])
                rows.append(Row(workload, name, unit, qa, qb, change, False, outcome, ""))
    return rows


def format_rows(rows: list[Row]) -> str:
    def q(t: tuple[float, float, float]) -> str:
        return f"{t[1]:.6g} [{t[0]:.6g}, {t[2]:.6g}]"

    header = (f"{'workload':<15} {'metric':<16} {'unit':<12} {'A median [q1, q3]':<38} "
              f"{'B median [q1, q3]':<38} {'change':>8}  {'verdict':<10} sim")
    lines = [header]
    for r in rows:
        change = f"{r.change:+.4f}" if r.absolute else f"{100 * r.change:+.1f}%"
        lines.append(
            f"{r.workload:<15} {r.metric:<16} {r.unit:<12} {q(r.a):<38} {q(r.b):<38} "
            f"{change:>8}  {r.verdict:<10} {r.sim}"
        )
    return "\n".join(lines)


def run_compare(a: str, b: str, end_to_end: list[dict]) -> int:
    """Print the comparison; non-zero when any pair is worse or missing."""
    rows = compare(load_results(a), load_results(b), end_to_end)
    print(format_rows(rows))
    return 1 if any(r.verdict in FAILING for r in rows) else 0
