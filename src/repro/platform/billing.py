"""Provider billing.

"Users are only charged for the time they actually use the computing
resources (execution time per function instance × memory consumption)"
(paper Sec. 1) — scaling/queueing delay is never billed. Line items:

* compute — GB-seconds: execution seconds × provisioned GB × rate,
* requests — one per *instance* invocation (packing cuts the request count),
* storage — per PUT/GET request,
* egress — per GB transferred, only on providers with a networking fee
  (Google/Azure; AWS charges none — paper Fig. 21 discussion).

:class:`BillingFidelity` layers the *schedule* realism from "Demystifying
Serverless Costs on Public Platforms" on top: duration rounding (per-ms vs
100 ms), a minimum billed duration, and a CPU-share throttling multiplier.
The default fidelity is exact — billed seconds == executed seconds,
byte-for-byte — so every pre-existing expense stays identical.

A burst is billed over its :class:`~repro.platform.metrics.RecordTable`:
each row is rounded on its own (throttle → floor → ceil, the same float
ops as :meth:`BillingFidelity.billed_seconds`), then the rows are summed
in record order. An aggregate is never rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.platform.metrics import (
    ExpenseBreakdown,
    InstanceRecord,
    RecordTable,
    sequential_sum,
)
from repro.platform.providers import PlatformProfile
from repro.platform.storage import StorageUsage


@dataclass(frozen=True)
class BillingFidelity:
    """How a provider turns executed seconds into billed seconds.

    Applied in provider order: throttling stretches the measured duration,
    the minimum billed duration floors it, then the granularity rounds it
    *up*. All knobs default to the exact schedule, under which
    :meth:`billed_seconds` returns its input unchanged (no float
    round-trip), preserving byte-identical billing for existing runs.
    """

    granularity_s: float = 0.0        # 0 = exact; 0.1 = legacy 100 ms
    min_billed_s: float = 0.0
    throttle_multiplier: float = 1.0  # >= 1; billed-time stretch

    def __post_init__(self) -> None:
        if self.granularity_s < 0.0 or not math.isfinite(self.granularity_s):
            raise ValueError("billing granularity must be finite and >= 0")
        if self.min_billed_s < 0.0 or not math.isfinite(self.min_billed_s):
            raise ValueError("minimum billed duration must be finite and >= 0")
        if self.throttle_multiplier < 1.0 or not math.isfinite(
            self.throttle_multiplier
        ):
            raise ValueError("throttle multiplier must be finite and >= 1")

    @classmethod
    def from_profile(cls, profile: PlatformProfile) -> "BillingFidelity":
        return cls(
            granularity_s=profile.billing_granularity_s,
            min_billed_s=profile.min_billed_duration_s,
            throttle_multiplier=profile.cpu_throttle_multiplier,
        )

    @property
    def exact(self) -> bool:
        """True when billed seconds always equal executed seconds."""
        return (
            self.granularity_s == 0.0
            and self.min_billed_s == 0.0
            and self.throttle_multiplier == 1.0
        )

    def billed_seconds(self, exec_seconds: float) -> float:
        """Billed duration for one executed attempt.

        Guaranteed ``>= exec_seconds`` (the billing-legality invariant) and
        monotone in its input. Each transform is guarded so the exact
        schedule returns ``exec_seconds`` unchanged.
        """
        if exec_seconds < 0.0:
            raise ValueError("executed seconds must be non-negative")
        billed = exec_seconds
        if self.throttle_multiplier != 1.0:
            billed *= self.throttle_multiplier
        if self.min_billed_s > 0.0 and billed < self.min_billed_s:
            billed = self.min_billed_s
        if self.granularity_s > 0.0:
            # Round *up* to the granularity; the epsilon forgives float
            # representation noise (0.3 / 0.1 is 2.999…96) so an exact
            # multiple never pays an extra tick.
            units = math.ceil(billed / self.granularity_s - 1e-9)
            billed = units * self.granularity_s
        return billed

    def billed_seconds_array(self, exec_seconds: np.ndarray) -> np.ndarray:
        """:meth:`billed_seconds` of every element, with the same float ops."""
        if (exec_seconds < 0.0).any():
            raise ValueError("executed seconds must be non-negative")
        billed = exec_seconds
        if self.throttle_multiplier != 1.0:
            billed = billed * self.throttle_multiplier
        if self.min_billed_s > 0.0:
            billed = np.where(billed < self.min_billed_s, self.min_billed_s, billed)
        if self.granularity_s > 0.0:
            billed = np.ceil(billed / self.granularity_s - 1e-9) * self.granularity_s
        return billed


#: The idealized schedule every seeded golden was recorded under.
EXACT_BILLING = BillingFidelity()


class BillingModel:
    """Converts run records + storage usage into an expense breakdown."""

    def __init__(
        self,
        profile: PlatformProfile,
        fidelity: Optional[BillingFidelity] = None,
    ) -> None:
        self.profile = profile
        self.fidelity = (
            fidelity if fidelity is not None else BillingFidelity.from_profile(profile)
        )

    def billed_memory_mb(self, requested_mb: int) -> int:
        """Providers bill in memory increments with a floor."""
        step = self.profile.min_billed_memory_mb
        if requested_mb <= 0:
            raise ValueError("requested memory must be positive")
        increments = -(-requested_mb // step)  # ceil division
        return int(increments * step)

    def billed_memory_mb_array(self, requested_mb: np.ndarray) -> np.ndarray:
        """:meth:`billed_memory_mb` of every element."""
        if (requested_mb <= 0).any():
            raise ValueError("requested memory must be positive")
        step = self.profile.min_billed_memory_mb
        return -(-requested_mb // step) * step

    def instance_compute_usd(self, record: InstanceRecord) -> float:
        billed_gb = self.billed_memory_mb(record.provisioned_mb) / 1024.0
        billed_s = self.fidelity.billed_seconds(record.exec_seconds)
        return billed_s * billed_gb * self.profile.gb_second_usd

    def compute_usd_per_instance(self, table: RecordTable) -> np.ndarray:
        """:meth:`instance_compute_usd` of every row, with the same float ops."""
        billed_gb = self.billed_memory_mb_array(table.provisioned_mb) / 1024.0
        billed_s = self.fidelity.billed_seconds_array(table.exec_seconds())
        return billed_s * billed_gb * self.profile.gb_second_usd

    def keepalive_usd(self, idle_gb_seconds: float) -> float:
        """Warm-idle charge at the provisioned-concurrency-style rate.

        Only keep-alive policies accrue idle GB-seconds; a service running
        pure cold starts passes 0 here and is never billed for warmth.
        """
        if idle_gb_seconds < 0.0:
            raise ValueError("idle GB-seconds must be non-negative")
        return idle_gb_seconds * self.profile.keepalive_gb_second_usd

    def serving_expense(
        self,
        exec_gb_seconds: float,
        n_dispatches: int,
        idle_gb_seconds: float = 0.0,
        egress_gb: float = 0.0,
    ) -> ExpenseBreakdown:
        """Expense of a sustained serving run (see :mod:`repro.serving`).

        ``exec_gb_seconds`` covers billed execution including any billed
        cold-start initialization and any partially executed (crashed or
        timed-out) attempts — providers charge for failed work; each
        dispatch pays one request fee. ``egress_gb`` is the re-shipped
        payload traffic of fault retries, billed only on providers with a
        networking fee.

        Fidelity rounding is per *invocation*, so it cannot be applied to
        an already-aggregated GB-seconds total; serving paths that want
        rounded billing must round per dispatch before aggregating (see
        :meth:`BillingFidelity.billed_seconds`).
        """
        if egress_gb < 0.0:
            raise ValueError("egress GB must be non-negative")
        return ExpenseBreakdown(
            compute_usd=float(exec_gb_seconds * self.profile.gb_second_usd),
            requests_usd=float(n_dispatches * self.profile.per_request_usd),
            storage_usd=0.0,
            egress_usd=float(egress_gb * self.profile.egress_usd_per_gb),
            keepalive_usd=self.keepalive_usd(idle_gb_seconds),
        )

    def burst_expense(
        self,
        table: RecordTable,
        storage: StorageUsage,
    ) -> ExpenseBreakdown:
        """Line items of one burst; compute is billed per record, in order."""
        compute = sequential_sum(self.compute_usd_per_instance(table))
        requests = len(table) * self.profile.per_request_usd
        storage_usd = (
            storage.put_requests * self.profile.storage_put_usd
            + storage.get_requests * self.profile.storage_get_usd
        )
        egress = (storage.transferred_mb / 1024.0) * self.profile.egress_usd_per_gb
        return ExpenseBreakdown(
            compute_usd=float(compute),
            requests_usd=float(requests),
            storage_usd=float(storage_usd),
            egress_usd=float(egress),
        )
