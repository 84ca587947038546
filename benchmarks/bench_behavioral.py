"""Behavioral plane: arming the policy must stay under 1% of a battery.

Composing a :class:`~repro.proxy.behavioral.BehavioralPolicy` into a
proxy adds two hooks to every proxied request: ``assess`` at the top of
``handle`` (two dict probes inside the grace allowance, a cached
verdict between rescore points after it) and ``observe`` from the
access-log append (a deque push plus eviction; the O(window) signal
pass runs only every ``rescore_every`` observations, sort-free while
events arrive in clock order).  Proxies built without a policy pay a
single ``is None`` check.

The simulator's whole request plane is itself only a few microseconds
deep, so the budget is charged at the unit users actually run: a cold
``run_all`` over the full experiment registry (what ``repro
reproduce`` performs), which is also where the behavioral experiments
arm the policy.  This bench measures the steady-state per-request
delta of an armed proxy on the all-allow path -- the worst case, where
every hook fires and verdicts keep being recomputed -- multiplies it
by the assessments a full battery really makes, and records the
implied share of the battery wall clock in
``benchmarks/output/BEHAVIORAL_OVERHEAD.json`` (gated by
``scripts/bench.py``).  The absolute per-request delta rides along in
the payload so the raw cost stays visible.
"""

from __future__ import annotations

import json
import time

from repro.net.http import Request
from repro.net.server import Website, render_page
from repro.obs.metrics import set_metrics_enabled, shared_registry, snapshot_delta
from repro.proxy.behavioral import BehavioralPolicy
from repro.proxy.reverse_proxy import ReverseProxy

#: Per-op timing: best of ``N_BATCHES`` batches (min-of-runs, like
#: ``timeit``, so scheduler noise only inflates the discarded batches).
N_BATCHES = 5
N_REQUESTS = 2000

#: The budget ``scripts/bench.py`` enforces (percent of battery cost).
OVERHEAD_BUDGET_PCT = 1.0

_UA = "ReaderBot/1.0"


def _origin() -> Website:
    site = Website("bench.example")
    for index in range(16):
        site.add_page(f"/p{index}", render_page(f"p{index}", paragraphs=["x"]))
    site.set_robots_txt("User-agent: *\nDisallow:")
    return site


def _drive(proxy: ReverseProxy) -> None:
    """N_REQUESTS disciplined requests: the all-allow steady state.

    The clock advances two simulated seconds per request so the armed
    run keeps every pair on the allow path -- a gated request would
    *short-circuit* origin dispatch and read cheaper than the baseline.
    """
    proxy.handle(Request(host="bench.example", path="/robots.txt",
                         headers={"User-Agent": _UA},
                         client_ip="198.51.100.9"))
    for index in range(N_REQUESTS):
        proxy.now += 2.0
        proxy.handle(Request(host="bench.example",
                             path=f"/p{index % 16}",
                             headers={"User-Agent": _UA},
                             client_ip="198.51.100.9"))


def _per_request_seconds() -> float:
    """Marginal cost of one request with a policy armed.

    Metrics stay disabled so the delta is the assess/observe hooks
    alone (the verdict series adds are a separate, already-gated
    budget).  Fresh proxies per batch keep access logs from growing
    across the measurement.
    """
    set_metrics_enabled(False)
    try:
        batches = []
        for _ in range(N_BATCHES):
            proxy = ReverseProxy(_origin())
            start = time.perf_counter()
            _drive(proxy)
            batches.append((time.perf_counter() - start) / N_REQUESTS)
        baseline = min(batches)  # the behavioral-is-None check

        batches = []
        for _ in range(N_BATCHES):
            proxy = ReverseProxy(_origin(), behavioral=BehavioralPolicy())
            start = time.perf_counter()
            _drive(proxy)
            assert proxy.behavioral.gated() == 0  # stayed on the allow path
            batches.append((time.perf_counter() - start) / N_REQUESTS)
        armed = min(batches)
    finally:
        set_metrics_enabled(True)
    return max(armed - baseline, 0.0)


def _cold_battery() -> tuple:
    """One full cold battery: ``(n_assessments, seconds)``.

    A fresh small world and a fresh store over the complete experiment
    registry -- the work one ``repro reproduce`` session performs.  The
    assessment count is read from the ``behavioral.verdicts`` series
    that run really recorded (a before/after delta of the shared
    registry, which other benches read too, so it is never reset), not
    a density assumption; the measured
    wall clock *includes* the armed hooks, which only makes the implied
    percentage conservative.
    """
    from repro.report.orchestrator import run_all
    from repro.web.population import PopulationConfig
    from repro.web.worldstore import WorldStore

    config = PopulationConfig(universe_size=500, list_size=300,
                              top5k_cut=40, audit_size=90, seed=7)
    registry = shared_registry()
    before = registry.snapshot()
    start = time.perf_counter()
    run_all(config, workers=1, store=WorldStore())
    seconds = time.perf_counter() - start
    recorded = snapshot_delta(registry.snapshot(), before)["series"]
    n_assessments = int(sum(
        sum(points.values())
        for (name, _labels), points in recorded.items()
        if name == "behavioral.verdicts"
    ))
    return n_assessments, seconds


def test_behavioral_armed_overhead(artifact_dir, record_timing):
    per_request = _per_request_seconds()
    n_assessments, battery_seconds = _cold_battery()
    assert n_assessments > 0  # the battery really armed the policy
    record_timing("bench_behavioral::battery", battery_seconds)
    implied_pct = 100.0 * (n_assessments * per_request) / battery_seconds

    payload = {
        "schema_version": 1,
        "per_request_seconds": round(per_request, 9),
        "battery_seconds": round(battery_seconds, 6),
        "battery_assessments": n_assessments,
        "implied_overhead_pct": round(implied_pct, 4),
    }
    (artifact_dir / "BEHAVIORAL_OVERHEAD.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(json.dumps(payload, indent=2))

    assert implied_pct < OVERHEAD_BUDGET_PCT, (
        f"an armed behavioral policy would cost {implied_pct:.2f}% of "
        f"a cold reproduction battery (budget: {OVERHEAD_BUDGET_PCT:.0f}%)"
    )
