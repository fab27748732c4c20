"""Shared-fleet multi-tenant simulation.

Every burst in the main harness runs on its own pristine datacenter. Real
platforms multiplex tenants: their bursts contend for the *same* placement
scheduler, image-builder slots, and shipping uplink. This module runs
several tenants' bursts on one shared simulation — the substrate for the
paper's Sec. 5 observation that "function packing may also be indirectly
beneficial to cloud providers, as function packing improves resource
utilization": a tenant who packs stops monopolizing the placement loop,
and *other* tenants scale faster.

    fleet = SharedFleet(AWS_LAMBDA, seed=7)
    fleet.submit("analytics", BurstSpec(app=SORT, concurrency=3000))
    fleet.submit("api", BurstSpec(app=XAPIAN, concurrency=500), at_time=5.0)
    results = fleet.run()   # {"analytics": RunResult, "api": RunResult}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.registry import ImageRegistry
from repro.platform.base import burst_substrate, interference_model, registered_image
from repro.platform.invoker import BurstInvoker, BurstSpec
from repro.platform.metrics import RunResult
from repro.platform.providers import PlatformProfile
from repro.platform.storage import ObjectStore
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


@dataclass
class FleetAccount:
    """Per-tenant fairness ledger of a shared fleet.

    The conservation identity ``submitted == admitted + rejected`` is what
    :func:`repro.chaos.invariants.check_tenant_conservation` audits; the
    fused fleet (``repro.fusion``) reuses this account type with non-zero
    rejections and proportional ``billed_usd``.
    """

    tenant: str
    submitted: int = 0   # functions the tenant asked for
    admitted: int = 0    # functions the fleet agreed to run
    rejected: int = 0    # functions turned away (quota, shape)
    billed_usd: float = 0.0

    def conserved(self) -> bool:
        return self.submitted == self.admitted + self.rejected


@dataclass
class _Submission:
    tenant: str
    spec: BurstSpec
    at_time: float
    invoker: Optional[BurstInvoker] = None


class SharedFleet:
    """One datacenter, many tenants, overlapping bursts."""

    def __init__(
        self,
        profile: PlatformProfile,
        seed: int = 0,
        enforce_timeout: bool = True,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.enforce_timeout = enforce_timeout
        self.sim = Simulator()
        self._root_rng = RandomStreams(seed)
        self.scheduler, self.pipeline = burst_substrate(
            profile, self.sim, self._root_rng.spawn("pipeline")
        )
        self.registry = ImageRegistry()
        self._submissions: list[_Submission] = []
        self._accounts: dict[str, FleetAccount] = {}
        self._ran = False

    # ------------------------------------------------------------------ #
    def submit(self, tenant: str, spec: BurstSpec, at_time: float = 0.0) -> None:
        """Queue a tenant's burst to begin at ``at_time``."""
        if self._ran:
            raise RuntimeError("fleet already ran; create a new SharedFleet")
        if at_time < 0:
            raise ValueError("at_time must be non-negative")
        if any(s.tenant == tenant for s in self._submissions):
            raise ValueError(f"tenant {tenant!r} already has a burst queued")
        self._submissions.append(_Submission(tenant, spec, at_time))
        account = self._accounts.setdefault(tenant, FleetAccount(tenant))
        account.submitted += spec.concurrency
        account.admitted += spec.concurrency  # the shared fleet never rejects

    def ledger(self) -> dict[str, FleetAccount]:
        """Per-tenant fairness accounts (billed after :meth:`run`)."""
        return dict(self._accounts)

    def run(self) -> dict[str, RunResult]:
        """Execute all queued bursts on the shared fleet."""
        if self._ran:
            raise RuntimeError("fleet already ran; create a new SharedFleet")
        if not self._submissions:
            raise ValueError("no bursts submitted")
        self._ran = True
        interference = interference_model(self.profile)
        for submission in self._submissions:
            invoker = BurstInvoker(
                self.sim,
                self.profile,
                self.scheduler,
                self.pipeline,
                ObjectStore(),
                self._root_rng.spawn(f"tenant/{submission.tenant}"),
                interference,
                enforce_timeout=self.enforce_timeout,
            )
            submission.invoker = invoker
            self.sim.schedule_at(
                submission.at_time, invoker.begin, submission.spec,
                registered_image(self.registry, submission.spec.app),
            )
        self.sim.run()
        results = {s.tenant: s.invoker.collect() for s in self._submissions}
        for tenant, result in results.items():
            self._accounts[tenant].billed_usd = result.expense.total_usd
        return results
