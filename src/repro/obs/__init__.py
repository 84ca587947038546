"""``repro.obs`` -- dependency-free telemetry for the pipeline.

Import the submodules directly; this package re-exports nothing, so
importing one of them loads only what it needs.

Two primitives, one process-wide instance of each:

* :mod:`repro.obs.metrics` -- a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters, gauges, fixed-bucket histograms and month series on the
  simulated-month logical clock (the per-agent monthly traffic/block
  matrix a site operator would see), with a snapshot/delta/merge
  protocol so forked workers ship their activity back to the parent.
  It exports as ``METRICS.json`` and, for the series,
  ``SERIES.json`` (:mod:`repro.obs.series`).
* :mod:`repro.obs.trace` -- hierarchical spans with deterministic ids
  and wall + logical (simulated month) clocks, exported as JSONL.

Everything else reads a run's exported artifacts:
:mod:`repro.obs.analyze` (critical path, worker utilization, folded
stacks, run diffs, the request-cell fold; ``repro stats`` / ``repro
dashboard``), :mod:`repro.obs.alerts` (declarative SLO rules;
``repro alerts``) and :mod:`repro.obs.prometheus` (Prometheus text
over ``/metrics``; ``repro serve-metrics``).  :mod:`repro.obs.logql`
and :mod:`repro.obs.features` read the wide-event log store (``repro
logs``, ``repro dashboard`` of a log-store directory,
``FEATURES.json``).  :mod:`repro.obs.profile` attaches
tracemalloc/cProfile samplers to pipeline phases
(``repro reproduce --profile``).

Defaults: metrics **on** (cheap: one bool check and one add per
increment on already-coarse call sites), tracing **off** (a disabled ``span()``
call costs one global bool check).  The residual overhead of disabled
telemetry is benchmarked <1% in ``benchmarks/bench_obs_overhead.py``.

The determinism contract: **counter, histogram and series totals are
identical for identical workloads whether a batch runs in line or on
forked workers** (enforced by ``tests/report/test_orchestrator.py``);
gauges are process-local point-in-time observations with no such
guarantee (shared-cache hit rates are inherently scheduling-dependent).
"""
