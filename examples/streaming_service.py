#!/usr/bin/env python3
"""Packing a sustained request stream (extension beyond the paper).

The paper packs one-shot concurrent bursts; a live search service instead
sees continuous arrivals. Packing still pays — fewer, fuller instances —
but its price changes from interference alone to interference **plus
batching delay**: a request waits for its instance to fill (or a timeout).

This example plans a ``(packing degree, batch timeout)`` policy for a
Xapian-like service at several arrival rates under a p95 sojourn-time QoS,
then validates each plan in the serving simulator: a warm pool with a
120 s keep-alive, billed cold-start initialization and warm idle time.

    python examples/streaming_service.py
"""

from repro import AWS_LAMBDA, ProPack, ServerlessPlatform
from repro.extensions.streaming import StreamingPlanner
from repro.serving import (
    FixedTTL,
    PoissonProcess,
    ServingSimulator,
    StreamingPolicy,
    WarmPool,
)
from repro.workloads import XAPIAN

QOS_SOJOURN_S = 25.0
N_REQUESTS = 600


def main() -> None:
    # Fit the interference model the normal ProPack way (once).
    platform = ServerlessPlatform(AWS_LAMBDA, seed=53)
    exec_model = ProPack(platform).exec_model(XAPIAN)
    planner = StreamingPlanner(AWS_LAMBDA, XAPIAN, exec_model)

    def serve(policy, rate, repetition=0):
        simulator = ServingSimulator(
            AWS_LAMBDA, XAPIAN, exec_model,
            pool=WarmPool(FixedTTL(120.0)),
            seed=53,
        )
        # Poisson arrivals over the horizon that averages N_REQUESTS.
        return simulator.run(
            PoissonProcess(rate), policy, N_REQUESTS / rate, repetition=repetition
        )

    print(f"== Streaming {XAPIAN.name}: p95 sojourn <= {QOS_SOJOURN_S}s ==\n")
    print(f"{'rate(req/s)':>11} {'degree':>6} {'timeout(s)':>10} "
          f"{'p95 sojourn':>11} {'$/1k req':>9} {'vs solo':>8}")
    for rate in (0.5, 2.0, 8.0, 32.0):
        policy = planner.plan(arrival_rate_per_s=rate, qos_sojourn_s=QOS_SOJOURN_S)
        result = serve(policy, rate)
        solo = serve(StreamingPolicy(degree=1, batch_timeout_s=0.0), rate, 1)
        cost = result.cost_per_request_usd() * 1000
        solo_cost = solo.cost_per_request_usd() * 1000
        ok = "ok" if result.p95_sojourn_s <= QOS_SOJOURN_S else "VIOLATED"
        print(f"{rate:>11.1f} {policy.degree:>6} {policy.batch_timeout_s:>10.2f} "
              f"{result.p95_sojourn_s:>9.1f}{ok:>2} {cost:>9.2f} "
              f"{100 * (1 - cost / solo_cost):>7.1f}%")

    print("\nHigher arrival rates fill batches faster, so deeper packing fits"
          "\nunder the same QoS — cost per request falls with traffic.")


if __name__ == "__main__":
    main()
