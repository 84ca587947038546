"""Chaos dispatch overhead: an armed fault plan must be near-invisible.

``repro.net.chaos`` hooks every :meth:`Network.request`.  The contract
(see DESIGN.md, "Robustness architecture") is that the steady-state tax
on fault-free traffic is one set lookup: host-match verdicts are
memoized per ``(rule, host)``, and hosts that either match no rule or
have permanently exhausted every matching rule's fault budget are
promoted to the controller's immune set.

This bench quantifies that claim two ways and records it in
``benchmarks/output/CHAOS_OVERHEAD.json`` (gated by
``scripts/bench.py``):

* the per-request steady-state cost of ``ChaosController.intercept``
  for the named transient plans, after the warm-up requests that pay
  the one-off sha256 sampling and slot bookkeeping, and
* the *implied* slowdown of the snapshot-collection pipeline: every
  request of a freshly built longitudinal world charged the worst
  measured steady-state intercept cost must stay under 1% of the
  measured pipeline wall clock.
"""

from __future__ import annotations

import json
import time

from repro.net.chaos import ChaosController, NAMED_PLANS
from repro.net.http import Request
from repro.net.server import Website
from repro.net.transport import Network
from repro.obs.metrics import shared_registry
from repro.report.experiments import build_longitudinal_bundle
from repro.web.population import PopulationConfig
from repro.web.worldstore import WorldStore

#: Loop length for the per-op microbenches.
N_OPS = 200_000

#: Ceiling for one steady-state intercept call (seconds).  The real
#: cost is ~150ns; 2 microseconds absorbs slow shared CI machines.
PER_OP_CEILING = 2e-6

#: Transient plans whose hosts must all converge to the immune set.
STEADY_STATE_PLANS = ("flaky-resets", "flaky-refusals", "mixed-storm")

#: Requests that warm one host: enough to spend every bounded slot of
#: the named plans (largest max_per_host is 2) plus the scan that
#: promotes the host to the immune set.
WARMUP_REQUESTS = 8

#: A 1:250 model of the paper's population -- the pipeline denominator.
PIPELINE_CONFIG = PopulationConfig(
    universe_size=500, list_size=300, top5k_cut=40, audit_size=90, seed=7
)


def _per_op_seconds(fn, n: int = N_OPS) -> float:
    start = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - start) / n


def _steady_state_costs() -> dict:
    """Warmed per-request intercept cost of each transient plan."""
    net = Network()
    site = Website("bench.example")
    site.add_page("/", "<p>bench</p>")
    net.register(site)
    request = Request(host="bench.example", path="/")
    costs = {}
    for name in STEADY_STATE_PLANS:
        controller = ChaosController(NAMED_PLANS[name], net, seed=0)
        for _ in range(WARMUP_REQUESTS):
            controller.intercept(request)
        # The guarantee under test: warm-up exhausted every bounded
        # fault slot, so the host sits on the immune fast path.
        assert "bench.example" in controller._immune, name
        costs[name] = _per_op_seconds(lambda: controller.intercept(request))
    return costs


def _request_count() -> int:
    registry = shared_registry()
    return sum(registry.counter_totals("net.responses").values()) + sum(
        registry.counter_totals("net.errors").values()
    )


def test_steady_state_intercept_cost(artifact_dir):
    for name, seconds in _steady_state_costs().items():
        assert seconds < PER_OP_CEILING, f"{name}: {seconds * 1e9:.0f}ns/op"


def test_chaos_overhead_on_snapshot_pipeline(artifact_dir):
    costs = _steady_state_costs()
    worst = max(costs.values())

    # Time a cold snapshot-collection run (fresh store: the shared
    # content-addressed world cache would skip the fetch plane this
    # bench is taxing) and count the requests it issued.
    before = _request_count()
    start = time.perf_counter()
    bundle = build_longitudinal_bundle(PIPELINE_CONFIG, store=WorldStore())
    pipeline_seconds = time.perf_counter() - start
    n_requests = _request_count() - before
    assert bundle.series.shard.specs and n_requests > 0  # the run really ran

    implied_seconds = n_requests * worst
    implied_pct = 100.0 * implied_seconds / pipeline_seconds

    payload = {
        "schema_version": 1,
        "steady_state_intercept_seconds": {
            name: round(value, 12) for name, value in costs.items()
        },
        "pipeline_seconds": round(pipeline_seconds, 6),
        "pipeline_requests": n_requests,
        "implied_overhead_pct": round(implied_pct, 4),
    }
    (artifact_dir / "CHAOS_OVERHEAD.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(json.dumps(payload, indent=2))

    assert implied_pct < 1.0, (
        f"an armed transient fault plan would cost {implied_pct:.2f}% of "
        f"the snapshot pipeline (budget: 1%)"
    )
