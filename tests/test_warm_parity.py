"""Warm-reuse parity across subsystems (property-based).

The burst invoker's wave-mode reuse and the serving layer's WarmPool hits
must give a warm dispatch the same treatment: a warm start pays exactly
the warm dispatch latency (no placement, no cold pipeline) and is billed
for execution seconds only — never the cold-init surcharge. Serving
routes every dispatch through the engine's
:class:`~repro.engine.DispatchCosts`; the burst applies the treatment on
its own, so its warm records are checked against a ``DispatchCosts``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import ExecutionTimeModel
from repro.engine import DispatchCosts
from repro.extensions.streaming import StreamingPolicy
from repro.platform.base import ServerlessPlatform
from repro.platform.billing import BillingModel
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA
from repro.serving import FixedTTL, PoissonProcess, ServingSimulator, WarmPool
from repro.serving.service import ServingConfig, _ServingRun
from repro.workloads import STATELESS_COST, XAPIAN

EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)
POLICY = StreamingPolicy(degree=6, batch_timeout_s=4.0)

finite = {"allow_nan": False, "allow_infinity": False}


@given(
    cold=st.floats(min_value=0.0, max_value=30.0, **finite),
    warm=st.floats(min_value=0.0, max_value=1.0, **finite),
    init=st.floats(min_value=0.0, max_value=10.0, **finite),
    exec_s=st.floats(min_value=0.0, max_value=900.0, **finite),
)
@settings(max_examples=60, deadline=None)
def test_shared_warm_treatment(cold, warm, init, exec_s):
    """The kernel-level contract both subsystems inherit."""
    costs = DispatchCosts(cold, warm, init)
    assert costs.start_latency(warm=True) == warm
    assert costs.start_latency(warm=False) == cold
    assert costs.billed_seconds(exec_s, warm=True) == exec_s
    assert costs.billed_seconds(exec_s, warm=False) == exec_s + init


@given(
    concurrency=st.integers(min_value=8, max_value=120),
    degree=st.integers(min_value=1, max_value=6),
    wave=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_wave_reuse_follows_shared_warm_treatment(concurrency, degree, wave):
    platform = ServerlessPlatform(AWS_LAMBDA, seed=77)
    spec = BurstSpec(
        app=STATELESS_COST,
        concurrency=concurrency,
        packing_degree=degree,
        wave_size=wave,
    )
    result = platform.run_burst(spec, repetition=0)
    costs = DispatchCosts(
        cold_start_s=0.0, warm_dispatch_s=spec.warm_dispatch_s
    )
    billing = BillingModel(AWS_LAMBDA)
    warm_records = [r for r in result.records if r.warm_start]
    if -(-concurrency // degree) > wave:
        assert warm_records, "wave smaller than instance count must reuse"
    for r in warm_records:
        # No placement, no cold pipeline: dispatch is the warm latency.
        assert r.sched_done == r.invoked_at
        assert r.built_at == r.shipped_at == r.exec_start
        assert r.exec_start == r.invoked_at + costs.start_latency(warm=True)
        # Billed for execution only — identical to the serving warm path.
        billed_gb = billing.billed_memory_mb(r.provisioned_mb) / 1024.0
        expected = (
            costs.billed_seconds(r.exec_seconds, warm=True)
            * billed_gb
            * AWS_LAMBDA.gb_second_usd
        )
        assert billing.instance_compute_usd(r) == expected


@given(
    cold=st.floats(min_value=0.0, max_value=30.0, **finite),
    warm=st.floats(min_value=0.0, max_value=1.0, **finite),
    init=st.floats(min_value=0.0, max_value=10.0, **finite),
)
@settings(max_examples=25, deadline=None)
def test_warmpool_hits_use_engine_dispatch_costs(cold, warm, init):
    """Serving derives its warm-vs-cold split from the same DispatchCosts."""
    cfg = ServingConfig(
        cold_start_s=cold, warm_dispatch_s=warm, cold_init_billed_s=init
    )
    simulator = ServingSimulator(
        AWS_LAMBDA,
        XAPIAN,
        EXEC,
        pool=WarmPool(FixedTTL(60.0)),
        config=cfg,
        seed=3,
    )
    run = _ServingRun(simulator, PoissonProcess(1.0), POLICY, 60.0, 0)
    assert run.costs == DispatchCosts(cold, warm, init)
    assert run.costs.start_latency(warm=True) == cfg.warm_dispatch_s
    assert run.costs.billed_seconds(5.0, warm=True) == 5.0
