"""Extensions beyond the paper's evaluated system, grounded in its
discussion sections:

* :mod:`~repro.extensions.mixed` — packing functions of *different*
  applications into one instance (paper Sec. 5, "packing functions of
  different characteristics presents new modeling challenges — ProPack can
  be extended to account for those").
* :mod:`~repro.extensions.adaptive` — re-profiling when the platform's
  scaling behaviour drifts (paper Sec. 5, provider-side mitigation changes
  the optimal packing degree over time).
* :mod:`~repro.extensions.campaigns` — *amortization campaigns*:
  amortizing the one-time profiling
  overhead over repeated runs (paper Sec. 2.2: "in practice, this overhead
  will be much lower due to amortization over thousands of applications
  and runs").
* :mod:`~repro.extensions.failsafe` — online packing-degree degradation
  when the observed failure rate of recent bursts crosses a threshold.
"""

from repro.extensions.adaptive import AdaptiveProPack
from repro.extensions.campaigns import CampaignReport, run_campaign
from repro.extensions.failsafe import ControllerDecision, FailureAdaptiveProPack
from repro.extensions.mixed import MixedGroup, MixedInterferenceModel, MixedPacker
from repro.extensions.mixed_sim import MixedBurstSimulator
from repro.extensions.skewaware import (
    SkewAwareExecutionModel,
    SkewAwareOptimizer,
    straggler_factor,
)
from repro.extensions.streaming import StreamingPlanner, StreamingPolicy

__all__ = [
    "AdaptiveProPack",
    "CampaignReport",
    "run_campaign",
    "ControllerDecision",
    "FailureAdaptiveProPack",
    "MixedGroup",
    "MixedInterferenceModel",
    "MixedPacker",
    "MixedBurstSimulator",
    "SkewAwareExecutionModel",
    "SkewAwareOptimizer",
    "straggler_factor",
    "StreamingPlanner",
    "StreamingPolicy",
]
