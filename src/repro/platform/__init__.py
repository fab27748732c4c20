"""Serverless platform substrate (control plane + data plane).

A :class:`ServerlessPlatform` glues together the datacenter substrate
(:mod:`repro.cluster`) with the serverless control plane:

* :mod:`~repro.platform.providers` — coefficient profiles for AWS Lambda,
  Google Cloud Functions, Azure Functions (and a generic profile).
* :mod:`~repro.platform.scheduler` — the placement scheduler whose
  per-request search cost grows with outstanding placements.
* :mod:`~repro.platform.container` — container/microVM build + ship pipeline.
* :mod:`~repro.platform.billing` — provider billing (GB-seconds, requests,
  storage, networking egress where the provider charges it).
* :mod:`~repro.platform.storage` — S3-like object store accounting.
* :mod:`~repro.platform.invoker` — Step-Functions-like burst invoker.
* :mod:`~repro.platform.metrics` — per-instance records and run results.
"""

from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec
from repro.platform.multitenant import SharedFleet
from repro.platform.metrics import ExpenseBreakdown, InstanceRecord, RunResult
from repro.platform.providers import (
    AWS_LAMBDA,
    AZURE_FUNCTIONS,
    GOOGLE_CLOUD_FUNCTIONS,
    PROVIDERS,
    PlatformProfile,
)

__all__ = [
    "ServerlessPlatform",
    "BurstSpec",
    "SharedFleet",
    "ExpenseBreakdown",
    "InstanceRecord",
    "RunResult",
    "PlatformProfile",
    "AWS_LAMBDA",
    "GOOGLE_CLOUD_FUNCTIONS",
    "AZURE_FUNCTIONS",
    "PROVIDERS",
]
