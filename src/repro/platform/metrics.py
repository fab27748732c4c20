"""Per-instance run records and burst-level results.

Timing definitions (all relative to the burst invocation instant ``t=0``):

* *scaling time* — start of the last instance's execution, i.e. the gap
  between the first and last instance starts **plus** the provisioning delay
  of the first instance (paper Sec. 1).
* *total service time* — completion of the last instance.
* *tail / median service time* — completion of the first 95% / 50% of
  instances (paper Sec. 3, "Evaluation Metrics").

Expense covers execution GB-seconds, per-request fees, storage operations,
and (on providers that charge it) networking egress — queueing/scaling delay
is never billed (paper Sec. 2.3).

A burst's records are stored once, as the columns of a :class:`RecordTable`;
billing and every burst statistic run over those columns. Totals are added
left to right in record order (:func:`sequential_sum`), the order of a
per-record ``+=`` loop, so a column total equals that loop's to the last
bit on every Python version.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import compress
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from repro.sim.stats import percentile


@dataclass(slots=True)
class InstanceRecord:
    """Lifecycle timestamps of one function instance within a burst."""

    instance_id: int
    n_packed: int
    invoked_at: float = 0.0
    sched_done: Optional[float] = None
    built_at: Optional[float] = None
    shipped_at: Optional[float] = None
    exec_start: Optional[float] = None
    exec_end: Optional[float] = None
    provisioned_mb: int = 0
    warm_start: bool = False
    attempt: int = 1
    failed: bool = False  # crashed mid-execution (billed, then retried)
    timed_out: bool = False      # hit the execution cap (billed in full)
    correlated: bool = False     # killed by a correlated crash event
    persistent_fault: bool = False  # its function group is poisoned
    hedged: bool = False         # speculative duplicate of a straggler
    cancelled: bool = False      # abandoned (lost a hedge race); billed
                                 # for elapsed time only
    throttled_attempts: int = 0  # 429 rejections before this admission
    retry_delay_s: float = 0.0   # backoff that preceded this attempt

    @property
    def exec_seconds(self) -> float:
        if self.exec_start is None or self.exec_end is None:
            raise ValueError(f"instance {self.instance_id} never executed")
        return self.exec_end - self.exec_start

    def phase_durations(self) -> dict[str, float]:
        """Per-phase time breakdown, honouring the module's timing rules.

        Returns only the phases this record has completed, keyed
        ``sched`` / ``build`` / ``ship`` / ``exec``:

        * ``sched`` — placement search, ``sched_done - invoked_at``;
        * ``build`` — container build relative to invocation (builds start
          at invoke and run in parallel with placement),
          ``built_at - invoked_at``;
        * ``ship`` — transfer from ship-ready (built AND placed) to
          arrival, ``shipped_at - max(built_at, sched_done)``;
        * ``exec`` — ``exec_end - exec_start``.

        Warm starts report zero ``sched``/``ship`` (their timestamps
        coincide by construction). :meth:`RecordTable.phase_seconds` is
        the same definition, one column per phase; it is what the
        telemetry's phase histograms and :meth:`RunResult.breakdown` read.
        """
        phases: dict[str, float] = {}
        if self.sched_done is not None:
            phases["sched"] = self.sched_done - self.invoked_at
        if self.built_at is not None:
            phases["build"] = self.built_at - self.invoked_at
        if (
            self.shipped_at is not None
            and self.built_at is not None
            and self.sched_done is not None
        ):
            phases["ship"] = self.shipped_at - max(self.built_at, self.sched_done)
        if self.exec_start is not None and self.exec_end is not None:
            phases["exec"] = self.exec_end - self.exec_start
        return phases


def sequential_sum(values: np.ndarray, start: float = 0.0) -> float:
    """``start + values[0] + values[1] + ...``, added left to right.

    This is the order of a ``+=`` loop, float op for float op. ``np.sum``
    adds pairwise and Python's ``sum`` (since 3.12) compensates; either
    can change the last bits.
    """
    if start:
        values = np.concatenate(((start,), values))
    return float(np.cumsum(values)[-1]) if len(values) else float(start)


#: Column dtype for each :class:`InstanceRecord` field annotation.
_DTYPES = {"int": np.int64, "bool": np.bool_, "float": np.float64,
           "Optional[float]": np.float64}
#: The record fields, in declaration order; one table column each.
RECORD_FIELDS = tuple(f.name for f in fields(InstanceRecord))
_COLUMN_DTYPES = tuple(_DTYPES[f.type] for f in fields(InstanceRecord))
#: Timestamps an unfinished record leaves unset (``None``; NaN in a column).
_OPTIONAL_FIELDS = tuple(
    f.name for f in fields(InstanceRecord) if f.type.startswith("Optional")
)
_record_row = attrgetter(*RECORD_FIELDS)


class RecordTable:
    """A burst's instance records as columns.

    One read-only numpy array per :class:`InstanceRecord` field, all of
    the same length, row ``i`` being record ``i``. An unset timestamp is
    NaN. Columns that hold the same values may share one array.
    """

    __slots__ = RECORD_FIELDS

    def __init__(self, **columns: np.ndarray) -> None:
        n = len(columns["instance_id"])
        for name, dtype in zip(RECORD_FIELDS, _COLUMN_DTYPES):
            column = np.asarray(columns[name], dtype=dtype)
            if len(column) != n:
                raise ValueError(f"column {name} has {len(column)} rows, expected {n}")
            column.setflags(write=False)
            setattr(self, name, column)

    @classmethod
    def from_records(cls, records: Sequence[InstanceRecord]) -> "RecordTable":
        rows = list(map(_record_row, records))
        columns = zip(*rows) if rows else [()] * len(RECORD_FIELDS)
        return cls(**{
            name: np.array(values, dtype=dtype)
            for name, dtype, values in zip(RECORD_FIELDS, _COLUMN_DTYPES, columns)
        })

    def to_records(self) -> list[InstanceRecord]:
        """The rows as records, equal field for field to what was stored."""
        columns = []
        for name in RECORD_FIELDS:
            column = getattr(self, name)
            values = column.tolist()
            if name in _OPTIONAL_FIELDS and np.isnan(column).any():
                values = [None if v != v else v for v in values]
            columns.append(values)
        return list(map(InstanceRecord, *columns))

    def __len__(self) -> int:
        return len(self.instance_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordTable):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name in RECORD_FIELDS
        )

    def __repr__(self) -> str:
        return f"RecordTable({len(self)} records)"

    def exec_seconds(self) -> np.ndarray:
        """``exec_end - exec_start`` per record; every record must have run."""
        seconds = self.exec_end - self.exec_start
        unset = np.isnan(seconds)
        if unset.any():
            rid = int(self.instance_id[np.argmax(unset)])
            raise ValueError(f"instance {rid} never executed")
        return seconds

    def successful(self) -> np.ndarray:
        """Mask of attempts that completed (not crashed, timed out or cancelled)."""
        return ~(self.failed | self.timed_out | self.cancelled)

    def phase_seconds(self) -> dict[str, np.ndarray]:
        """:meth:`InstanceRecord.phase_durations` of every record, as one
        column per phase (``sched``, ``build``, ``ship``, ``exec``); NaN
        where a record has not completed the phase."""
        return {
            "sched": self.sched_done - self.invoked_at,
            "build": self.built_at - self.invoked_at,
            "ship": self.shipped_at - np.maximum(self.built_at, self.sched_done),
            "exec": self.exec_end - self.exec_start,
        }


@dataclass(frozen=True)
class ExpenseBreakdown:
    """Dollar expense of a burst or serving run, by billing line item.

    ``keepalive_usd`` is the provisioned-concurrency-style charge for
    warm-idle instance time (see :mod:`repro.serving.warmpool`); it is zero
    for one-shot bursts and for serving runs without a keep-alive policy —
    pure cold starts never bill it.
    """

    compute_usd: float
    requests_usd: float
    storage_usd: float
    egress_usd: float
    keepalive_usd: float = 0.0

    @property
    def total_usd(self) -> float:
        return (
            self.compute_usd
            + self.requests_usd
            + self.storage_usd
            + self.egress_usd
            + self.keepalive_usd
        )

    def __add__(self, other: "ExpenseBreakdown") -> "ExpenseBreakdown":
        return ExpenseBreakdown(
            self.compute_usd + other.compute_usd,
            self.requests_usd + other.requests_usd,
            self.storage_usd + other.storage_usd,
            self.egress_usd + other.egress_usd,
            self.keepalive_usd + other.keepalive_usd,
        )


ZERO_EXPENSE = ExpenseBreakdown(0.0, 0.0, 0.0, 0.0)


@dataclass
class FaultStats:
    """Per-phase reliability accounting for one burst.

    Derived when the burst ends: the attempt counts and GB-seconds from its
    record table, the retry and throttle counts from its chain moments.

    ``wasted_billed_gb_seconds`` is the GB-seconds billed for attempts that
    produced no result (crashes, timeouts, cancelled hedge losers) — the
    dollar-denominated blast radius of packing under failures.
    """

    crashed_attempts: int = 0
    correlated_crashes: int = 0
    timed_out_attempts: int = 0
    throttled_attempts: int = 0
    throttle_rejections_final: int = 0  # groups dropped after 429 retries
    hedged_attempts: int = 0
    hedge_wins: int = 0
    retries_scheduled: int = 0
    retry_delay_s_total: float = 0.0
    wasted_billed_gb_seconds: float = 0.0
    total_billed_gb_seconds: float = 0.0

    @property
    def work_loss_ratio(self) -> float:
        """Fraction of billed GB-seconds that produced no result."""
        if self.total_billed_gb_seconds <= 0.0:
            return 0.0
        return self.wasted_billed_gb_seconds / self.total_billed_gb_seconds

    @property
    def failed_attempts(self) -> int:
        return self.crashed_attempts + self.timed_out_attempts

    def signature(self) -> tuple:
        """A hashable summary used by the determinism tests."""
        return (
            self.crashed_attempts,
            self.correlated_crashes,
            self.timed_out_attempts,
            self.throttled_attempts,
            self.hedged_attempts,
            self.hedge_wins,
            self.retries_scheduled,
            round(self.retry_delay_s_total, 9),
            round(self.wasted_billed_gb_seconds, 9),
        )


@dataclass
class RunResult:
    """Everything measured from one burst execution.

    The records are stored once, in :attr:`table`, and every statistic
    here reads its columns. :attr:`records` is the same rows as a list of
    :class:`InstanceRecord`, built from the table on first read and
    cached. Equality compares every field of every record (through the
    tables).

    :attr:`kernel_path` names the path that ran the burst, ``"fluid"``
    (the closed-form replay) or ``"event"`` (the event loop), and
    :attr:`fallback_reason` why the replay declined it
    (:func:`~repro.engine.fluid.fluid_ineligibility`'s reason; ``None`` on
    the replay and for bursts never offered to it, such as mixed bursts).
    Both are left out of equality: the paths produce equal results.
    """

    platform_name: str
    app_name: str
    concurrency: int
    packing_degree: int
    table: RecordTable = field(default_factory=lambda: RecordTable.from_records(()))
    expense: ExpenseBreakdown = ZERO_EXPENSE
    lost_functions: int = 0  # functions of the chains the burst gave up
    fault_stats: FaultStats = field(default_factory=FaultStats)
    kernel_path: str = field(default="event", compare=False)
    fallback_reason: Optional[str] = field(default=None, compare=False)

    # ------------------------------------------------------------------ #
    @cached_property
    def records(self) -> list[InstanceRecord]:
        """The records as objects, built from the table on first read."""
        return self.table.to_records()

    @property
    def n_instances(self) -> int:
        return len(self.table)

    @property
    def successful_records(self) -> list[InstanceRecord]:
        """Attempts that completed; service metrics are computed over these
        (failed attempts are still billed — see the billing model)."""
        return list(compress(self.records, self.table.successful().tolist()))

    @property
    def n_failed_attempts(self) -> int:
        return int(np.count_nonzero(self.table.failed | self.table.timed_out))

    @property
    def observed_failure_rate(self) -> float:
        """Failed attempts per executed attempt (drives adaptive packing)."""
        executed = int(np.count_nonzero(~np.isnan(self.table.exec_start)))
        if not executed:
            return 0.0
        return self.n_failed_attempts / executed

    def _starts(self) -> np.ndarray:
        starts = self.table.exec_start
        unset = np.isnan(starts)
        if unset.any():
            rid = int(self.table.instance_id[np.argmax(unset)])
            raise ValueError(f"instance {rid} never started")
        return starts

    def _ends(self) -> np.ndarray:
        ok = self.table.successful()
        if not ok.any():
            raise ValueError("no instance completed successfully")
        return self.table.exec_end if ok.all() else self.table.exec_end[ok]

    @property
    def scaling_time(self) -> float:
        """First-to-last start gap plus first-instance provisioning delay."""
        return float(self._starts().max())

    def service_time(self, merit: str = "total") -> float:
        """Service time under a figure of merit: total, tail, or median."""
        ends = self._ends()
        if merit == "total":
            return float(ends.max())
        if merit == "tail":
            return percentile(ends, 0.95)
        if merit == "median":
            return percentile(ends, 0.5)
        raise ValueError(f"unknown figure of merit {merit!r}")

    @property
    def mean_exec_seconds(self) -> float:
        return float(np.mean(self.table.exec_seconds()))

    @property
    def function_hours(self) -> float:
        """Sum of instance execution times, in hours (paper Fig. 12)."""
        return sequential_sum(self.table.exec_seconds()) / 3600.0

    def breakdown(self) -> dict[str, float]:
        """Mean per-instance scheduling / start-up / shipping delays."""
        phases = self.table.phase_seconds()
        return {
            "scheduling": float(np.mean(phases["sched"])),
            "startup": float(np.mean(phases["build"])),
            "shipping": float(np.mean(phases["ship"])),
        }

    def component_totals(self) -> dict[str, float]:
        """Critical-path view: when each stage finished for the last instance."""
        return {
            "scheduling": float(self.table.sched_done.max()),
            "startup": float(self.table.built_at.max()),
            "shipping": float(self.table.shipped_at.max()),
        }
