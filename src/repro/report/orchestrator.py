"""Dependency-aware parallel experiment orchestrator.

The paper's artifact is ~16 independent measurements over one shared
world.  This module declares each runner's world dependency in a
registry and executes any subset of the battery -- in line or on
forked workers -- on top of the content-addressed
:class:`~repro.web.worldstore.WorldStore`:

* the **longitudinal bundle** (population + fifteen crawled snapshots)
  is built once and shared read-only by the Figure 2-4 / Table 3 /
  extension runners,
* **population** runners (Sections 6.2/6.3/2.2, Appendix B.2,
  Section 8.1) read the same frozen population the bundle holds; a
  stored world rejects every write, so no runner can observe another's,
* **standalone** runners (survey, Table 1/2) need no world at all.

Scheduling never affects results: runners draw everything from seeded
inputs and the one immutable world, results are assembled in registry
order regardless of completion order, and ``workers=1`` vs
``workers=N`` outputs are bit-identical (enforced by
``tests/report/test_orchestrator.py``).  ``run_all`` returns a
machine-readable :class:`RunReport` with per-experiment wall-clock
timings for the perf trajectory.
"""

from __future__ import annotations

from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.compiled import shared_policy_cache
from ..fanout import batch_mode, fan_out
from ..net import chaos as _chaos
from ..obs.profile import Profiler
from ..obs.metrics import (
    MetricsRegistry,
    export_metrics,
    shared_registry,
    snapshot_delta,
)
from ..obs.series import export_series
from ..obs.trace import (
    shared_tracer,
    span,
    tracing_enabled,
    write_trace,
)
from ..measure.incremental import IncrementalStore, experiment_input_key
from ..net.accesslog import set_log_sink
from ..net.logstore import LogSink, LogStore, log_stream
from ..web.population import PopulationConfig
from ..web.worldstore import WorldStore, config_digest, shared_world_store
from . import experiments as exp
from .experiments import ExperimentResult, LongitudinalBundle

__all__ = [
    "ExperimentSpec",
    "EXPERIMENT_REGISTRY",
    "experiment_keys",
    "RunReport",
    "run_all",
    "run_one",
    "run_strata",
]

#: World dependency labels.
WORLD_BUNDLE = "bundle"
WORLD_POPULATION = "population"
WORLD_NONE = "none"


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry entry.

    Attributes:
        key: CLI-facing identifier (``repro experiment <key>``).
        result_id: ``ExperimentResult.experiment_id`` the runner emits
            (also the ``results/<result_id>.txt`` artifact name).
        title: Short human-readable title.
        world: ``"bundle"``, ``"population"``, or ``"none"`` -- what
            the runner consumes.
        run: The runner; receives the world (or nothing) plus the
            declared parameters as keyword arguments and returns an
            :class:`ExperimentResult`.
        params: Declared ``(name, default)`` runner parameters.  These
            are part of the experiment's incremental input key: editing
            a parameter (via ``run_all(param_overrides=...)`` or
            ``repro reproduce --set``) invalidates exactly this
            experiment's cached result and no other.
    """

    key: str
    result_id: str
    title: str
    world: str
    run: Callable[..., ExperimentResult]
    params: Tuple[Tuple[str, object], ...] = ()


EXPERIMENT_REGISTRY: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec("table1", "table1", "AI crawler compliance (Table 1)",
                   WORLD_NONE, lambda **kw: exp.run_table1_compliance(**kw),
                   params=(("seed", 42), ("months", 6), ("n_apps", 2000))),
    ExperimentSpec("figure2", "figure2", "Full-disallow trend (Figure 2)",
                   WORLD_BUNDLE,
                   lambda bundle, **kw: exp.run_figure2(bundle.series, **kw),
                   params=(("require_explicit", True),)),
    ExperimentSpec("figure3", "figure3", "Per-agent disallow trend (Figure 3)",
                   WORLD_BUNDLE, lambda bundle: exp.run_figure3(bundle.series)),
    ExperimentSpec("figure4", "figure4", "Explicit allows & removals (Figure 4)",
                   WORLD_BUNDLE, lambda bundle: exp.run_figure4(bundle.series)),
    ExperimentSpec("table3", "table3", "Snapshot coverage (Table 3)",
                   WORLD_BUNDLE, lambda bundle: exp.run_table3(bundle.series)),
    ExperimentSpec("table2", "table2", "Artist hosting providers (Table 2)",
                   WORLD_NONE, lambda: exp.run_table2_artists()),
    ExperimentSpec("sec62", "sec62", "Active blocking prevalence (Section 6.2)",
                   WORLD_POPULATION, exp.run_sec62_active_blocking),
    ExperimentSpec("sec63", "sec63", "Cloudflare Block AI Bots (Section 6.3)",
                   WORLD_POPULATION, exp.run_sec63_cloudflare),
    ExperimentSpec("sec22", "sec22", "NoAI meta tags (Section 2.2)",
                   WORLD_POPULATION, exp.run_sec22_meta_tags),
    ExperimentSpec("survey", "survey", "Artist survey (Tables 5-8)",
                   WORLD_NONE, lambda: exp.run_survey_tables()),
    ExperimentSpec("appb2", "appb2", "Parser comparison (Appendix B.2)",
                   WORLD_POPULATION, exp.run_appb2_parser_comparison),
    ExperimentSpec("sec81", "sec81", "robots.txt mistakes (Section 8.1)",
                   WORLD_POPULATION, exp.run_sec81_mistakes),
    ExperimentSpec("tables9_12", "tables9_12", "Thematic codebooks (Tables 9-12)",
                   WORLD_NONE, lambda: exp.run_tables9_12_codebooks()),
    ExperimentSpec("crosstabs", "survey_crosstabs", "Survey association tests",
                   WORLD_NONE, lambda: exp.run_survey_crosstabs()),
    ExperimentSpec("taxonomy", "change_taxonomy", "robots.txt change taxonomy",
                   WORLD_BUNDLE, exp.run_change_taxonomy),
    ExperimentSpec("category", "ext_adoption_by_category", "Adoption by category",
                   WORLD_BUNDLE, exp.run_ext_adoption_by_category),
    ExperimentSpec("behavioral", "behavioral_equilibrium",
                   "Behavioral detection equilibrium",
                   WORLD_NONE, lambda **kw: exp.run_behavioral_equilibrium(**kw),
                   params=(("seed", 7), ("pages", 24))),
    ExperimentSpec("selective", "selective_compliance",
                   "Selective compliance per directive",
                   WORLD_NONE, lambda **kw: exp.run_selective_compliance(**kw),
                   params=(("seed", 7),)),
)

_BY_KEY: Dict[str, ExperimentSpec] = {spec.key: spec for spec in EXPERIMENT_REGISTRY}

#: The bundle experiments that read the series' verdict rows: an
#: incremental run builds the rows up front only for these.
_ROW_READERS = frozenset({"figure2", "figure3", "figure4", "category"})


def experiment_keys() -> List[str]:
    """Registry keys in canonical (report) order."""
    return [spec.key for spec in EXPERIMENT_REGISTRY]


# -- timing report -------------------------------------------------------------


@dataclass
class RunReport:
    """The outcome of one :func:`run_all` invocation.

    Attributes:
        results: One :class:`ExperimentResult` per requested experiment,
            in registry order (scheduling never reorders them).
        timings_seconds: Per-experiment measurement wall clock, keyed by
            registry key.  Derived from each experiment's span (the
            spans *are* the timing source, not a parallel stopwatch).
        world_seconds: Wall clock spent building (or hitting the cache
            for) the shared worlds before any runner started -- the
            ``world_build`` span's duration.
        total_seconds: The ``run_all`` root span's duration.
        workers: Worker count the battery ran with.
        mode: How the experiments ran: "serial" (in line) or
            "process" (forked workers; see
            :func:`repro.fanout.batch_mode`), or "strata" for
            :func:`run_strata`.
        spans: Every span record produced by this run (world build,
            per-experiment, nested pipeline spans), in completion order.
            Exported as ``results/TRACE.jsonl``.
        incremental: Per-experiment incremental disposition, empty for
            non-incremental runs.  Values: ``"hit"`` (assembled from the
            store), ``"run:first"`` (never cached), ``"run:invalidated"``
            (inputs changed), ``"bypassed:chaos"`` (store refused while
            a fault plan was armed).
        profiler: The :class:`~repro.obs.profile.Profiler` that sampled
            this run, when ``run_all(profile=True)`` asked for one
            (exported as ``PROFILE.json`` alongside the telemetry).
        metrics_mark: The shared registry's snapshot when the run
            started: the run's telemetry export holds what was recorded
            since, as a fork worker ships what its unit recorded.
    """

    results: List[ExperimentResult] = field(default_factory=list)
    timings_seconds: Dict[str, float] = field(default_factory=dict)
    world_seconds: float = 0.0
    total_seconds: float = 0.0
    workers: int = 1
    mode: str = "serial"
    spans: List[Dict[str, object]] = field(default_factory=list)
    incremental: Dict[str, str] = field(default_factory=dict)
    profiler: Optional[Profiler] = None
    metrics_mark: Dict[str, Dict] = field(default_factory=dict, init=False, repr=False)

    def to_timings(self) -> Dict[str, object]:
        """Machine-readable timing payload (for results/TIMINGS.json).

        Every number here is derived from the run's span tree:
        per-experiment seconds from the ``experiment:<key>`` spans,
        world/total from the ``world_build`` / ``run_all`` spans.
        """
        payload = {
            "schema_version": 1,
            "mode": self.mode,
            "workers": self.workers,
            "world_seconds": round(self.world_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "experiments": [
                {
                    "key": spec.key,
                    "experiment_id": spec.result_id,
                    "title": spec.title,
                    "world": spec.world,
                    "seconds": round(self.timings_seconds.get(spec.key, 0.0), 6),
                }
                for spec in EXPERIMENT_REGISTRY
                if spec.key in self.timings_seconds
            ],
        }
        # Strata runs time keys outside the registry ("figure2@top-1k");
        # emit them after the registry entries, in execution order.
        for key in self.timings_seconds:
            if key not in _BY_KEY:
                payload["experiments"].append(
                    {
                        "key": key,
                        "experiment_id": key,
                        "title": key,
                        "world": "archive",
                        "seconds": round(self.timings_seconds[key], 6),
                    }
                )
        if self.incremental:
            payload["incremental"] = dict(self.incremental)
        return payload

    def export_telemetry(self, directory: Union[str, Path]) -> Dict[str, Path]:
        """Write this run's telemetry artifacts into *directory*.

        Produces ``METRICS.json`` (counters, gauges and histograms, via
        :meth:`~repro.obs.metrics.MetricsRegistry.to_json`),
        ``SERIES.json`` (the simulated-month series) and
        ``TRACE.jsonl`` (this run's span records).  The metrics are
        what the shared registry recorded since :attr:`metrics_mark`:
        an instrument the run never created or changed, and a gauge it
        never set, is not in them.  Returns the paths keyed by artifact
        name.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        metrics_path = directory / "METRICS.json"
        series_path = directory / "SERIES.json"
        trace_path = directory / "TRACE.jsonl"
        recorded = MetricsRegistry()
        recorded.merge(snapshot_delta(shared_registry().snapshot(), self.metrics_mark))
        export_metrics(metrics_path, recorded)
        export_series(series_path, recorded)
        write_trace(trace_path, self.spans)
        return {
            "METRICS.json": metrics_path,
            "SERIES.json": series_path,
            "TRACE.jsonl": trace_path,
        }


# -- execution -----------------------------------------------------------------


def _validated_overrides(
    param_overrides: Optional[Dict[str, Dict[str, object]]],
) -> Dict[str, Dict[str, object]]:
    """Check override keys against the registry's declared parameters."""
    if not param_overrides:
        return {}
    validated: Dict[str, Dict[str, object]] = {}
    for key, edits in param_overrides.items():
        spec = _BY_KEY.get(key)
        if spec is None:
            raise KeyError(f"unknown experiment key in param_overrides: {key!r}")
        declared = {name for name, _ in spec.params}
        unknown = sorted(set(edits) - declared)
        if unknown:
            raise ValueError(
                f"experiment {key!r} declares no parameter(s) "
                f"{', '.join(map(repr, unknown))}; declared: "
                f"{sorted(declared) or 'none'}"
            )
        validated[key] = dict(edits)
    return validated


def _phase(profiler: Optional[Profiler], name: str, **attrs: object):
    """A profiler phase, or a no-op context when profiling is off."""
    if profiler is None:
        return nullcontext()
    return profiler.phase(name, **attrs)


def _export(
    report: RunReport,
    telemetry_dir: Optional[Union[str, Path]],
    bundle: Optional[LongitudinalBundle] = None,
) -> None:
    """The export tail of a run: publish the cache gauges, then write
    the telemetry and the profile."""
    if telemetry_dir is None:
        return
    # Shared-cache tallies are point-in-time, scheduling-dependent
    # observations: publish them as gauges right before export.
    shared_policy_cache().publish()
    if bundle is not None:
        bundle.series.cache.publish()
    report.export_telemetry(telemetry_dir)
    if report.profiler is not None:
        report.profiler.export(telemetry_dir)


def run_strata(
    strata: Sequence[str],
    config: Optional[PopulationConfig] = None,
    workers: Optional[int] = None,
    shards: int = 0,
    archive_dir: Optional[Union[str, Path]] = None,
    store: Optional[WorldStore] = None,
    telemetry_dir: Optional[Union[str, Path]] = None,
    profile: bool = False,
) -> RunReport:
    """Run the Section 3 figure battery over one or more top-k strata.

    For each named stratum (see
    :data:`~repro.web.tranco.STRATUM_SIZES`) this crawls -- or reopens,
    when a matching archive already sits under *archive_dir* -- the
    sharded columnar archive for the stratum's scaled config, then hands
    it to the Figure 2-4 and Table 3 runners that :func:`run_all` feeds
    with ``bundle.series``; they aggregate it shard by shard.  Peak
    aggregation memory is O(largest shard), not O(stratum), so growing
    the stratum 10x does not grow resident analysis state 10x.

    Args:
        strata: Stratum names, e.g. ``["top-1k", "top-10k"]``.
        config: Base config the stratum scaling derives from (None =
            the paper's default scale; ``top-10k`` is then the default
            world itself).
        workers: Shard-crawl parallelism for cold archives (forwarded
            to :func:`~repro.measure.longitudinal.collect_shard_archives`).
        shards: Shard count (0 = sized automatically from the stratum).
        archive_dir: Directory holding one archive per stratum
            (``<archive_dir>/<stratum>/shard-*``).  Defaults to
            ``.repro-archives`` under the working directory.
        store: World store for the backing populations.
        telemetry_dir: When given, export METRICS/SERIES/TRACE here.
        profile: Sample memory/CPU per stratum; exported as
            ``PROFILE.json`` when *telemetry_dir* is given.

    Returns:
        A :class:`RunReport` with ``mode="strata"`` and results whose
        ids are suffixed ``@<stratum>`` (``figure2@top-1k``, ...).
    """
    from ..web.population import stratum_config
    from ..web.tranco import strata_names

    known = strata_names()
    unknown = [s for s in strata if s not in known]
    if unknown:
        raise KeyError(
            f"unknown stratum name(s): {', '.join(unknown)} "
            f"(known: {', '.join(known)})"
        )
    store = store or shared_world_store()
    archive_root = Path(archive_dir) if archive_dir is not None else Path(".repro-archives")

    registry = shared_registry()
    tracer = shared_tracer()
    run_mark = tracer.record_count()
    profiler = Profiler() if profile else None
    report = RunReport(
        workers=max(1, workers or 1), mode="strata", profiler=profiler
    )
    report.metrics_mark = registry.snapshot()
    with tracing_enabled():
        total_span = span("run_strata", n_strata=len(strata), shards=shards)
        with total_span:
            for stratum in strata:
                cfg = stratum_config(stratum, config)
                with span("stratum", stratum=stratum), _phase(
                    profiler, f"stratum:{stratum}", stratum=stratum
                ):
                    world_span = span("archive_build", stratum=stratum)
                    with world_span:
                        archive = store.archive(
                            cfg,
                            archive_root / stratum,
                            shards=shards,
                            workers=workers,
                        )
                    report.world_seconds += getattr(
                        world_span, "duration_seconds", 0.0
                    )
                    try:
                        # One row cache per archive, persisted in its
                        # facts.json: each body is parsed or read once.
                        body = archive.body_store()
                        archive.cache.attach_store(body)
                        for key, runner in (
                            ("figure2", exp.run_figure2),
                            ("figure3", exp.run_figure3),
                            ("figure4", exp.run_figure4),
                            ("table3", exp.run_table3),
                        ):
                            run_key = f"{key}@{stratum}"
                            exp_span = span(
                                f"experiment:{run_key}", key=key, stratum=stratum
                            )
                            with exp_span:
                                result = runner(archive)
                            report.timings_seconds[run_key] = getattr(
                                exp_span, "duration_seconds", 0.0
                            )
                            report.results.append(
                                ExperimentResult(
                                    experiment_id=run_key,
                                    title=f"{result.title} [{stratum}]",
                                    text=result.text,
                                    metrics=result.metrics,
                                )
                            )
                        body.flush()
                        # Archive-plane probes (data bytes, mmap
                        # residency, body-cache occupancy) while the
                        # readers are still open and mapped.
                        archive.publish_probes(registry, stratum=stratum)
                    finally:
                        archive.close()
        report.total_seconds = getattr(total_span, "duration_seconds", 0.0)
        report.spans = tracer.records_since(run_mark)
    _export(report, telemetry_dir)
    return report


def run_all(
    config: Optional[PopulationConfig] = None,
    workers: Optional[int] = None,
    experiments: Optional[Sequence[str]] = None,
    store: Optional[WorldStore] = None,
    telemetry_dir: Optional[Union[str, Path]] = None,
    incremental: Optional[Union[str, Path]] = None,
    param_overrides: Optional[Dict[str, Dict[str, object]]] = None,
    profile: bool = False,
    log_dir: Optional[Union[str, Path]] = None,
) -> RunReport:
    """Run the experiment battery over one shared world.

    Tracing is force-enabled for the duration of the run (and restored
    afterwards): the orchestrator's timings *are* its span tree, so
    ``run_all`` always produces one.  The experiments fan out through
    :func:`repro.fanout.fan_out`, so every unit's counters, series,
    spans and wide events land in the process-wide buffers -- directly
    when the battery runs in line, as shipped deltas from forked
    workers -- and are identical for any ``workers`` count (enforced
    by ``tests/report/test_orchestrator.py``).

    Args:
        config: Population config (None = the paper's default scale).
        workers: Worker count for the experiments (None/1 = in line;
            more fork when :func:`repro.fanout.batch_mode` allows).
            Results are bit-identical for any worker count.
        experiments: Registry keys to run (None = the full battery), in
            any order; results always come back in registry order.
        store: World store to draw from (default: the process-wide
            shared store, so repeated invocations hit the cache).
        telemetry_dir: When given, write ``METRICS.json``,
            ``SERIES.json`` and ``TRACE.jsonl`` -- what this run
            recorded -- into this directory after the run (see
            :meth:`RunReport.export_telemetry`).
        incremental: Persistent O(changed) recomputation in the
            :class:`~repro.measure.incremental.IncrementalStore` at this
            directory.  Each experiment is keyed on its config
            digest, world kind, and declared parameters: unchanged
            experiments are assembled from the store without building
            their world, changed ones re-run and overwrite their entry.
            An armed fault plan bypasses the store entirely -- it is
            neither read nor written -- so injected faults can never
            leak into warm artifacts.
        param_overrides: ``{experiment_key: {param: value}}`` edits to
            declared :attr:`ExperimentSpec.params`.  Overrides feed both
            the runner call and the incremental input key, so editing
            one experiment's parameter invalidates exactly that
            experiment.
        profile: Attach memory/CPU samplers to the run's phases: the world
            build, and each experiment when the battery runs in line,
            or the forked battery as one phase (the stdlib CPU
            profiler cannot follow workers).  Exported as
            ``PROFILE.json`` when *telemetry_dir* is given; also
            returned on :attr:`RunReport.profiler`.
        log_dir: When given, install a wide-event
            :class:`~repro.net.logstore.LogSink` for the run and commit
            the columnar access-log archive here afterwards.  Fork
            workers ship per-stream event deltas back (like metrics
            deltas), so the committed archive is byte-identical in line
            and forked, at any worker count.  ``FEATURES.json`` -- the
            per-(agent, host) traffic features -- is written next to
            the telemetry export when *telemetry_dir* is given, else
            into *log_dir*.

    Chaos is the caller's context: run inside
    ``with repro.net.chaos.chaos_active(plan, seed):`` and every network
    the world build and the runners construct gets the plan's fault
    controller (fork workers inherit the activation).  A faulted world
    must never enter or come from the process-shared store, so an armed
    plan with no explicit *store* builds into a fresh one.

    Returns:
        A :class:`RunReport` with results in registry order, the
        span-derived timing trajectory, and the run's span records.
    """
    chaos_armed = _chaos.active_plan() is not None
    if store is None:
        store = WorldStore() if chaos_armed else shared_world_store()
    keys = list(experiments) if experiments is not None else experiment_keys()
    unknown = [k for k in keys if k not in _BY_KEY]
    if unknown:
        raise KeyError(f"unknown experiment key(s): {', '.join(unknown)}")
    ordered = [spec.key for spec in EXPERIMENT_REGISTRY if spec.key in set(keys)]

    overrides = _validated_overrides(param_overrides)

    registry = shared_registry()
    metrics_mark = registry.snapshot()

    # -- incremental decisions (parent-side, pre-fork: identical in line
    # and forked at any worker count, so the counters stay inside the
    # cross-mode determinism contract) -----------------------------------
    inc: Optional[IncrementalStore] = None
    dispositions: Dict[str, str] = {}
    cached_results: Dict[str, ExperimentResult] = {}
    input_keys: Dict[str, str] = {}
    to_run = list(ordered)
    if incremental is not None:
        if chaos_armed:
            # A faulted world must never touch the store: no reads (a
            # warm result would mask the faults the run exists to
            # observe) and no writes (faulted results would poison
            # clean runs).
            dispositions = {key: "bypassed:chaos" for key in ordered}
        else:
            inc = IncrementalStore(Path(incremental))
            world_digest = config_digest(config)
            to_run = []
            tally = {"hit": 0, "miss": 0, "invalidated": 0}
            for key in ordered:
                spec = _BY_KEY[key]
                params = dict(spec.params)
                params.update(overrides.get(key, {}))
                input_keys[key] = experiment_input_key(
                    spec.key,
                    spec.result_id,
                    spec.world,
                    world_digest if spec.world != WORLD_NONE else "-",
                    tuple(sorted(params.items())),
                )
                disposition, result = inc.lookup_experiment(key, input_keys[key])
                tally[disposition] += 1
                if disposition == "hit":
                    cached_results[key] = result
                    dispositions[key] = "hit"
                else:
                    to_run.append(key)
                    dispositions[key] = (
                        "run:first" if disposition == "miss" else "run:invalidated"
                    )
            registry.counter("incremental.hits").inc(tally["hit"])
            registry.counter("incremental.misses").inc(tally["miss"])
            registry.counter("incremental.invalidations").inc(tally["invalidated"])

    specs = [_BY_KEY[k] for k in to_run]
    n_workers = max(1, workers or 1)
    resolved = batch_mode(min(n_workers, len(to_run)))

    tracer = shared_tracer()
    run_mark = tracer.record_count()
    bundle: Optional[LongitudinalBundle] = None
    profiler = Profiler() if profile else None
    sink = LogSink() if log_dir is not None else None
    with ExitStack() as planes:
        planes.enter_context(tracing_enabled())
        # Install the wide-event sink before the world build so
        # collection traffic is captured too; the previous sink comes
        # back when the stack closes.
        if sink is not None:
            planes.callback(set_log_sink, set_log_sink(sink))
        total_span = span(
            "run_all", mode=resolved, workers=n_workers, n_experiments=len(ordered)
        )
        with total_span:
            # Worlds are built only for experiments that actually run:
            # a fully warm incremental battery skips the bundle build
            # outright -- that skip is most of the warm-run speedup.
            needs_bundle = any(spec.world == WORLD_BUNDLE for spec in specs)
            needs_population = any(spec.world == WORLD_POPULATION for spec in specs)
            world_kind = (
                WORLD_BUNDLE
                if needs_bundle
                else (WORLD_POPULATION if needs_population else WORLD_NONE)
            )
            population = None
            world_span = span("world_build", world=world_kind)
            with world_span, _phase(profiler, "world_build", world=world_kind):
                if needs_bundle:
                    bundle = exp.build_longitudinal_bundle(config, store=store)
                    population = bundle.population
                elif needs_population:
                    population = store.population(config)
            if inc is not None and not _ROW_READERS.isdisjoint(to_run):
                # Back the series' verdict rows with the persistent
                # store: invalidated re-runs skip the bodies earlier
                # runs already classified.  Detached when the stack
                # closes so non-incremental runs over the same cached
                # bundle never touch the store.
                series = bundle.series
                series.cache.attach_store(inc)
                planes.callback(series.cache.attach_store, None)
                # Every analysed body gets its row here, in the parent:
                # forked workers inherit the rows, and the store holds
                # them whatever the worker count.
                reader = series.analysis.reader
                for ref in dict.fromkeys(
                    ref for refs in series.analysis.eff_bodies for ref in refs
                ):
                    series.cache.row(reader.body_text(ref), reader.body_digest(ref))

            def run_experiment(index: int) -> Tuple[float, ExperimentResult]:
                key = to_run[index]
                spec = _BY_KEY[key]
                params = dict(spec.params)
                params.update(overrides.get(key, {}))
                # Distinct span names per experiment keep ids
                # deterministic under any schedule.
                exp_span = span(f"experiment:{key}", key=key, world=spec.world)
                # Only in line is per-experiment CPU attribution
                # truthful, so only then is each key a profile phase.
                # One named wide-event stream per experiment: the
                # label, not the scheduling, decides where its requests
                # land in the committed log archive.
                with _phase(
                    profiler if resolved == "serial" else None,
                    f"experiment:{key}",
                    key=key,
                ), log_stream(f"experiment:{key}"), exp_span:
                    if spec.world == WORLD_BUNDLE:
                        result = spec.run(bundle, **params)
                    elif spec.world == WORLD_POPULATION:
                        # Every population runner reads the one frozen
                        # world the bundle runners read; it rejects
                        # writes, so no runner sees another's.
                        result = spec.run(population, **params)
                    else:
                        result = spec.run(**params)
                return getattr(exp_span, "duration_seconds", 0.0), result

            with _phase(
                None if resolved == "serial" else profiler,
                "experiments",
                mode=resolved,
                workers=n_workers,
            ):
                outcomes = fan_out(run_experiment, len(to_run), n_workers)

    report = RunReport(
        workers=n_workers,
        mode=resolved,
        world_seconds=getattr(world_span, "duration_seconds", 0.0),
        incremental=dispositions,
        profiler=profiler,
    )
    report.metrics_mark = metrics_mark
    executed = dict(zip(to_run, outcomes))
    # Assemble in registry order, interleaving freshly executed results
    # with store hits -- indistinguishable downstream from a full run.
    for key in ordered:
        if key in executed:
            seconds, result = executed[key]
        else:
            seconds, result = 0.0, cached_results[key]
        report.timings_seconds[key] = seconds
        report.results.append(result)
    report.total_seconds = getattr(total_span, "duration_seconds", 0.0)
    report.spans = tracer.records_since(run_mark)

    if inc is not None:
        for key in to_run:
            inc.record_experiment(key, input_keys[key], executed[key][1])
        inc.flush()

    if sink is not None:
        # Commit after the shipped-delta merge so fork-worker events are
        # in; stream ordering makes the archive scheduling-invariant.
        sink.commit(log_dir, config_digest(config))
        from ..obs.features import write_features

        features_dir = (
            Path(telemetry_dir) if telemetry_dir is not None else Path(log_dir)
        )
        from ..proxy.behavioral import write_verdicts

        features_dir.mkdir(parents=True, exist_ok=True)
        with LogStore.open(log_dir) as committed:
            write_features(committed, features_dir / "FEATURES.json")
            # Offline behavioral verdicts over the same committed store:
            # the classifier view of the whole run's traffic, next to
            # the feature vectors it consumed.
            write_verdicts(committed, features_dir / "BEHAVIORAL.json")

    _export(report, telemetry_dir, bundle)
    return report


def run_one(key: str, config: Optional[PopulationConfig] = None) -> ExperimentResult:
    """Run a single experiment by registry key over the shared store."""
    return run_all(config, workers=1, experiments=[key]).results[0]
