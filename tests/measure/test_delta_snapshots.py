"""Delta-aware snapshot collection must be invisible in the output.

The contract: ``collect_snapshots(..., delta=True)`` refetches only
sites whose served robots state changed since the previous spec, yet
every snapshot -- records, insertion order, derived analysis sets --
is bit-identical to a full crawl.  Chaos plans force full crawls
because injected transport faults break the carry-forward purity
argument.
"""

import pytest

from repro.crawlers.commoncrawl import SNAPSHOT_SPECS, carry_forward_snapshot
from repro.measure.longitudinal import _site_fetch_plan, collect_snapshots
from repro.net import chaos
from repro.net.chaos import FaultPlan, FaultRule
from repro.obs.series import shared_series
from repro.web.population import PopulationConfig, build_web_population

CONFIG = PopulationConfig(
    universe_size=260, list_size=170, top5k_cut=30, audit_size=40, seed=11
)

SPECS = list(SNAPSHOT_SPECS)


@pytest.fixture(scope="module")
def population():
    return build_web_population(CONFIG)


def _series_equal(a, b):
    assert [s.spec.snapshot_id for s in a.snapshots] == [
        s.spec.snapshot_id for s in b.snapshots
    ]
    for full, delta in zip(a.snapshots, b.snapshots):
        # Same records, same canonical insertion order.
        assert list(full.records) == list(delta.records)
        assert full.records == delta.records
    assert a.stable_domains == b.stable_domains
    assert a.analysis_domains == b.analysis_domains


class TestDeltaEquivalence:
    def test_delta_matches_full_crawl(self, population):
        full = collect_snapshots(population, SPECS, delta=False)
        delta = collect_snapshots(population, SPECS, delta=True)
        _series_equal(full, delta)

    def test_delta_is_the_default(self, population):
        # Auto mode (delta=None) must produce the same series as an
        # explicit full crawl.
        auto = collect_snapshots(population, SPECS)
        full = collect_snapshots(population, SPECS, delta=False)
        _series_equal(full, auto)

    def test_workers_do_not_change_delta_results(self, population):
        serial = collect_snapshots(population, SPECS, delta=True)
        parallel = collect_snapshots(population, SPECS, workers=4, delta=True)
        _series_equal(serial, parallel)

    def test_single_spec_never_deltas(self, population):
        single = collect_snapshots(population, SPECS[:1])
        assert len(single.snapshots) == 1
        assert set(single.snapshots[0].records) == set(single.stable_domains)


def delta_plan(population):
    return _site_fetch_plan(list(population.stable), SPECS, use_delta=True)


class TestFetchPlan:
    def test_first_spec_fetches_everything(self, population):
        plan = delta_plan(population)
        assert plan[0] == list(population.stable)

    def test_later_specs_fetch_strict_subsets(self, population):
        # The simulated web barely moves month over month; the plan
        # must reflect that or delta collection buys nothing.
        plan = delta_plan(population)
        total_later = sum(len(subset) for subset in plan[1:])
        full_later = len(population.stable) * (len(SPECS) - 1)
        assert total_later < full_later * 0.5

    def test_plan_entries_changed_robots(self, population):
        plan = delta_plan(population)
        for prev, spec, subset in zip(SPECS, SPECS[1:], plan[1:]):
            for site in subset:
                assert site.robots_at(prev.month_index) != site.robots_at(
                    spec.month_index
                )

    def test_refetched_series_recorded(self, population):
        registry = shared_series()
        registry.reset()
        collect_snapshots(population, SPECS, delta=True)
        by_month = registry.series("delta.sites_refetched").points()
        assert by_month[SPECS[0].month_index] == len(population.stable)
        later = [
            by_month.get(spec.month_index, 0) for spec in SPECS[1:]
        ]
        assert all(n < len(population.stable) for n in later)


class TestChaosForcesFullCrawl:
    def test_armed_plan_disables_delta(self, population):
        plan = FaultPlan(
            "delta-test",
            (FaultRule(kind="reset", rate=0.2, months=(2, 3)),),
        )
        registry = shared_series()
        chaos.activate(plan, seed=3)
        try:
            registry.reset()
            collect_snapshots(population, SPECS, delta=True)
            points = registry.series("delta.sites_refetched").points()
        finally:
            chaos.deactivate()
        # Every month refetched the full stable set: delta was off.
        n = len(population.stable)
        assert all(amount == n for amount in points.values())
        assert len(points) == len(SPECS)


class TestCarryForwardAssembly:
    def test_assembled_records_follow_domain_order(self, population):
        full = collect_snapshots(population, SPECS[:2], delta=False)
        first, second = full.snapshots
        domains = full.stable_domains
        # Rebuild month 2 from an artificially sparse "fetched" delta.
        sparse = type(second)(
            spec=second.spec,
            records={d: second.records[d] for d in domains[:5]},
        )
        assembled = carry_forward_snapshot(sparse, first, domains)
        assert list(assembled.records) == list(domains)
        for domain in domains[:5]:
            assert assembled.records[domain] is sparse.records[domain]
        for domain in domains[5:]:
            assert assembled.records[domain] is first.records[domain]
