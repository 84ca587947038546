"""Per-layer ledger for the traced pass of ``perf/run.py``.

The layers are the packages under ``src/repro``.  A :class:`Ledger`
replaces each boundary function or method with a timing wrapper.  A
function is replaced by identity in every loaded ``repro.*`` module, so
``from x import f`` call sites are covered; a method is replaced on its
class.  Per boundary the ledger aggregates calls, inclusive seconds and
self seconds (the span minus its nested wrapped children), keeps full
spans to depth 3, and counts garbage-collector pauses.  Everything stays
in memory until the caller asks for it.

Boundaries are the explicit list below plus every public function in
the namespace of ``repro.report.experiments``: the experiment runners
and every function they import from another layer, which are the calls
the report layer makes into the rest of the program.  A target
that no longer exists is skipped and listed in :attr:`Ledger.missing`,
so the ledger keeps working while the program is refactored.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(target, count metric, group metric)``.  The target is
#: ``"module:qualname"``; its layer is the package the original was
#: defined in.  A count metric counts every call.  A group metric sums
#: the inclusive seconds of the outermost call among its members.
BOUNDARIES: Tuple[Tuple[str, Optional[str], Optional[str]], ...] = (
    ("repro.report.orchestrator:run_all", None, None),
    ("repro.report.orchestrator:run_strata", None, None),
    # core: parse / compile / match
    ("repro.core.parser:parse", "core.parse_calls", None),
    ("repro.core.lexer:tokenize", "core.tokenize_calls", None),
    ("repro.core.matcher:compile_pattern", "core.compile_pattern_calls", None),
    ("repro.core.compiled:compile_rules", "core.compile_rules_calls", None),
    ("repro.core.classify:classify", "core.classify_calls", None),
    ("repro.core.policy:RobotsPolicy.rules_for", "core.rules_for_calls", None),
    ("repro.core.compiled:CompiledRobots.rules_for", "core.rules_for_calls", None),
    ("repro.core.legacy:LegacyPolicy.rules_for", "core.rules_for_calls", None),
    ("repro.core.policy:RobotsPolicy.is_allowed", None, None),
    ("repro.core.legacy:LegacyPolicy.is_allowed", None, None),
    ("repro.core.diff:diff_robots", "core.diff_robots_calls", None),
    # measure: classic and streaming aggregation, incremental store
    ("repro.measure.longitudinal:full_disallow_trend", None, "measure.aggregate_s"),
    ("repro.measure.longitudinal:per_agent_trend", None, "measure.aggregate_s"),
    ("repro.measure.longitudinal:allow_and_removal_trend", None, "measure.aggregate_s"),
    ("repro.measure.longitudinal:first_allow_table", None, "measure.aggregate_s"),
    ("repro.measure.longitudinal:snapshot_coverage_table", None, "measure.aggregate_s"),
    ("repro.measure.streaming:streaming_full_disallow_trend", None, "measure.aggregate_s"),
    ("repro.measure.streaming:streaming_per_agent_trend", None, "measure.aggregate_s"),
    ("repro.measure.streaming:streaming_allow_and_removal_trend", None, "measure.aggregate_s"),
    ("repro.measure.streaming:streaming_first_allow_table", None, "measure.aggregate_s"),
    ("repro.measure.streaming:streaming_coverage_table", None, "measure.aggregate_s"),
    ("repro.measure.incremental:IncrementalStore.__init__", None, "measure.incremental_load_s"),
    ("repro.measure.incremental:IncrementalStore.flush", None, "measure.incremental_flush_s"),
    # crawlers: snapshot collection (the collection functions live in measure)
    ("repro.measure.longitudinal:collect_snapshots", None, "crawlers.collect_s"),
    ("repro.measure.longitudinal:collect_shard_archives", None, "crawlers.collect_s"),
    ("repro.crawlers.commoncrawl:SnapshotCrawler.snapshot", None, None),
    ("repro.crawlers.engine:Crawler.crawl", None, None),
    # web: world build, world store, archive
    ("repro.web.population:build_web_population", None, "web.build_s"),
    ("repro.web.worldstore:WorldStore.population", None, None),
    ("repro.web.worldstore:WorldStore.population_view", None, None),
    ("repro.web.worldstore:WorldStore.series", None, None),
    ("repro.web.worldstore:WorldStore.archive", None, None),
    ("repro.web.archive:ShardWriter.commit", None, "web.archive_write_s"),
    ("repro.web.archive:ArchiveSet.open", None, "web.archive_open_s"),
    # net: request plane and log store
    ("repro.net.transport:Network.request", "net.requests", None),
    ("repro.net.server:Website.handle", None, None),
    ("repro.net.logstore:LogSink.commit", None, "net.logstore_commit_s"),
    ("repro.net.logstore:LogStore.open", None, None),
    ("repro.net.logstore:LogStore.verify", None, None),
    # proxy
    ("repro.proxy.reverse_proxy:ReverseProxy.handle", "proxy.handle_calls", None),
    ("repro.proxy.cloudflare:CloudflareProxy.handle", "proxy.handle_calls", None),
    # survey
    ("repro.survey.crosstabs:chi_square", None, "survey.chi_square_s"),
    # obs: artifact export
    ("repro.obs.metrics:export_metrics", None, "obs.export_s"),
    ("repro.obs.series:export_series", None, "obs.export_s"),
    ("repro.obs.trace:write_trace", None, "obs.export_s"),
    ("repro.obs.features:write_features", None, "obs.export_s"),
    ("repro.proxy.behavioral:write_verdicts", None, "obs.export_s"),
)

#: Layers reported even when no boundary of theirs ran.
LAYERS = (
    "agents", "core", "crawlers", "measure", "net", "obs", "proxy",
    "report", "survey", "web",
)

#: Spans deeper than this are aggregated but not kept individually.
SPAN_DEPTH = 3


def _layer_of(function: Callable) -> str:
    parts = getattr(function, "__module__", "").split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


def _report_calls() -> List[str]:
    """Targets for every public function in the namespace of
    ``repro.report.experiments``."""
    module = importlib.import_module("repro.report.experiments")
    return sorted({
        f"{value.__module__}:{value.__qualname__}"
        for name, value in vars(module).items()
        if inspect.isfunction(value) and not name.startswith("_")
        and value.__module__.startswith("repro.")
    })


class Ledger:
    """Timing wrappers over the layer boundaries, plus a GC probe.

    Single-threaded by design: the benchmark runs the program with
    ``workers=1``, so every wrapped call happens on one thread.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: boundary (target without ``repro.``) -> [calls, inclusive s, self s]
        self.stats: Dict[str, List[float]] = {}
        self.layer: Dict[str, str] = {}
        self.counts: Dict[str, int] = {}
        self.groups: Dict[str, float] = {}
        #: ``(id, parent id, depth, name, start, end)`` of spans to depth
        #: :data:`SPAN_DEPTH`; tuples keep a few hundred thousand small.
        self.spans: List[tuple] = []
        self.missing: List[str] = []
        self.bodies = set()
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._stack: List[list] = []
        self._next_id = [0]
        self._active: Dict[str, int] = {}
        self._gc_start = 0.0
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> "Ledger":
        explicit = {target for target, _, _ in BOUNDARIES}
        plan = list(BOUNDARIES) + [
            (target, None, None)
            for target in _report_calls()
            if target not in explicit
        ]
        for target, count, group in plan:
            try:
                self._install_one(target, count, group)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _install_one(self, target: str, count: Optional[str], group: Optional[str]) -> None:
        module_name, qualname = target.split(":")
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if not inspect.isfunction(function) or inspect.isgeneratorfunction(function):
            raise KeyError(target)
        on_call = self._note_body if target == "repro.core.parser:parse" else None
        name = target[len("repro."):]
        wrapper = self._wrap(name, _layer_of(function), function, count, group, on_call)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(wrapper)
        if path:
            self._replace(owner, attr, raw, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._replace(module, key, raw, wrapper)

    def _replace(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _note_body(self, args: tuple, kwargs: dict) -> None:
        source = args[0] if args else kwargs.get("source", "")
        if isinstance(source, str):
            source = source.encode("utf-8", "surrogateescape")
        self.bodies.add(hashlib.sha256(source).digest())

    def _wrap(self, name, layer, function, count, group, on_call):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer[name] = layer
        if count is not None:
            self.counts.setdefault(count, 0)
        if group is not None:
            self.groups.setdefault(group, 0.0)
        stack, active, spans, next_id = self._stack, self._active, self.spans, self._next_id
        counts, groups = self.counts, self.groups
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            if count is not None:
                counts[count] += 1
            outermost = False
            if group is not None:
                outermost = not active.get(group)
                active[group] = active.get(group, 0) + 1
            depth = len(stack) + 1
            parent = stack[-1][1] if stack else None
            span_id = None
            if depth <= SPAN_DEPTH:
                span_id = next_id[0]
                next_id[0] += 1
            # [seconds spent in wrapped children, span id]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if group is not None:
                    active[group] -= 1
                    if outermost:
                        groups[group] += elapsed
                if span_id is not None:
                    spans.append((span_id, parent, depth, name, start, end))

        wrapper.__wrapped__ = function
        wrapper.__name__ = function.__name__
        wrapper.__qualname__ = function.__qualname__
        wrapper.__doc__ = function.__doc__
        return wrapper

    def span_records(self):
        """Kept spans as JSON-ready dicts, in the order they ended."""
        for span_id, parent, depth, name, start, end in self.spans:
            yield {"run": self.run_id, "id": span_id, "parent": parent, "depth": depth,
                   "name": name, "layer": self.layer[name], "start": start, "end": end}

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- results --------------------------------------------------------------

    def self_seconds(self) -> float:
        """Self seconds summed over every boundary so far."""
        return sum(self_s for _, _, self_s in self.stats.values())

    def snapshot(self) -> Dict[str, object]:
        """Everything recorded, as plain JSON-ready data (see :func:`combine`)."""
        return {
            "boundaries": {
                name: {"layer": self.layer[name], "calls": int(calls),
                       "inclusive_s": incl, "self_s": self_s}
                for name, (calls, incl, self_s) in sorted(self.stats.items())
                if calls
            },
            "counts": dict(self.counts),
            "groups": dict(self.groups),
            # 16 hex digits keep the distinct-body count exact in practice
            # while keeping the payload small.
            "bodies": sorted(digest.hex()[:16] for digest in self.bodies),
            "gc_s": self.gc_seconds,
            "gc_collections": self.gc_collections,
            "missing": list(self.missing),
        }


def combine(snapshots: List[Dict[str, object]]) -> Dict[str, float]:
    """The named per-layer metrics of one traced repetition.

    A repetition can span several interpreters (``strata_cold`` reopens
    its archive in a second one); their snapshots add up, and distinct
    bodies are the union.
    """
    metrics: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    bodies = set()
    gc_s, gc_collections = 0.0, 0
    for snap in snapshots:
        for row in snap["boundaries"].values():
            key = f"{row['layer']}.self_s"
            metrics[key] = metrics.get(key, 0.0) + row["self_s"]
        for name, value in list(snap["counts"].items()) + list(snap["groups"].items()):
            metrics[name] = metrics.get(name, 0) + value
        bodies.update(snap["bodies"])
        gc_s += snap["gc_s"]
        gc_collections += snap["gc_collections"]
    metrics["core.distinct_bodies"] = len(bodies)
    for name in ("parse", "classify"):
        calls = metrics.get(f"core.{name}_calls", 0)
        metrics[f"core.{name}_per_body"] = calls / len(bodies) if bodies else 0.0
    metrics["runtime.gc_s"] = gc_s
    metrics["runtime.gc_collections"] = gc_collections
    return metrics
