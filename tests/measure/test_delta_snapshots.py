"""Delta-aware snapshot collection must be invisible in the output.

The contract: ``collect_snapshots`` over more than one spec refetches
only sites whose served robots state changed since the previous spec,
yet the series' shard holds every cell -- status and robots body per
(spec, domain) -- and the analysis set that an independent full crawl
(``tests/measure/oracle.crawl``) fetches.  A row a spec did not fetch
keeps the previous spec's status and body ref.  Chaos plans force full
crawls because injected transport faults break the carry-forward
purity argument.
"""

import pytest

from repro.crawlers.commoncrawl import SNAPSHOT_SPECS, SiteRecord
from repro.measure.longitudinal import _site_fetch_plan, collect_snapshots
from repro.net import chaos
from repro.net.chaos import FaultPlan, FaultRule
from repro.obs.metrics import shared_registry
from repro.web.population import PopulationConfig, build_web_population

from . import oracle

CONFIG = PopulationConfig(
    universe_size=260, list_size=170, top5k_cut=30, audit_size=40, seed=11
)

SPECS = list(SNAPSHOT_SPECS)


@pytest.fixture(scope="module")
def population():
    return build_web_population(CONFIG)


@pytest.fixture(scope="module")
def full_crawl(population):
    return oracle.crawl(population, SPECS)


class TestDeltaEquivalence:
    def test_delta_matches_full_crawl(self, population, full_crawl):
        series = collect_snapshots(population, SPECS)
        collected = oracle.from_columns(series)
        assert collected.specs == full_crawl.specs
        assert collected.domains == full_crawl.domains
        assert collected.cells == full_crawl.cells
        assert series.analysis_domains == oracle.analysis_domains(full_crawl)

    def test_delta_is_the_default(self, population):
        # More than one spec and no armed plan: later specs refetch
        # only some sites, so the crawl fetches fewer than a full one.
        registry = shared_registry()
        registry.reset()
        collect_snapshots(population, SPECS)
        fetched = registry.series("delta.sites_refetched").points()
        assert sum(fetched.values()) < len(population.stable) * len(SPECS)

    def test_single_spec_never_deltas(self, population):
        registry = shared_registry()
        registry.reset()
        single = collect_snapshots(population, SPECS[:1])
        assert single.specs == SPECS[:1]
        assert single.stable_domains == [site.domain for site in population.stable]
        points = registry.series("delta.sites_refetched").points()
        assert points == {SPECS[0].month_index: len(population.stable)}


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
        registry = shared_registry()
        registry.reset()
        collect_snapshots(population, SPECS)
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
        registry = shared_registry()
        chaos.activate(plan, seed=3)
        try:
            registry.reset()
            collect_snapshots(population, SPECS)
            points = registry.series("delta.sites_refetched").points()
        finally:
            chaos.deactivate()
        # Every month refetched the full stable set: delta was off.
        n = len(population.stable)
        assert all(amount == n for amount in points.values())
        assert len(points) == len(SPECS)


class TestCarryForwardAssembly:
    """A spec's columns carry every row it did not fetch forward."""

    @staticmethod
    def _shard(population):
        return collect_snapshots(population, SPECS[:1]).shard

    def test_assembled_records_follow_domain_order(self, population):
        shard = self._shard(population)
        domains = shard.domains
        first_statuses = list(shard.statuses(0))
        first_refs = list(shard.body_refs(0))
        # A sparse second spec fetching three rows out of order: one
        # new body, one 404, one body the first spec already interned.
        known = next(ref for ref in first_refs if ref >= 0)
        fetched = {
            domains[7]: SiteRecord(domains[7], 200, "User-agent: *\nDisallow: /x\n"),
            domains[2]: SiteRecord(domains[2], 404),
            domains[5]: SiteRecord(domains[5], 200, shard.body_text(known)),
        }
        shard.add_snapshot(SPECS[1], fetched)
        statuses, refs = shard.statuses(1), shard.body_refs(1)
        new_ref = 1 + max(first_refs)
        assert (statuses[2], refs[2]) == (404, -1)
        assert (statuses[5], refs[5]) == (200, known)
        assert (statuses[7], refs[7]) == (200, new_ref)
        assert shard.body_text(new_ref) == "User-agent: *\nDisallow: /x\n"
        for row in set(range(len(domains))) - {2, 5, 7}:
            assert (statuses[row], refs[row]) == (first_statuses[row], first_refs[row])
        # The carried columns are copies: the first spec's are untouched.
        assert list(shard.statuses(0)) == first_statuses
        assert list(shard.body_refs(0)) == first_refs

    def test_new_bodies_are_interned_in_row_order(self, population):
        shard = self._shard(population)
        domains = shard.domains
        base = 1 + max(shard.body_refs(0))
        shard.add_snapshot(SPECS[1], {
            domains[9]: SiteRecord(domains[9], 200, "# nine\n"),
            domains[3]: SiteRecord(domains[3], 200, "# three\n"),
        })
        assert shard.body_refs(1)[3] == base
        assert shard.body_refs(1)[9] == base + 1

    def test_first_spec_must_cover_every_row(self, population):
        shard = self._shard(population)
        empty = type(shard)(shard.domains, shard.ranks, ["other"] * shard.n_domains)
        sparse = {
            domain: SiteRecord(domain, 404) for domain in shard.domains[1:]
        }
        with pytest.raises(KeyError):
            empty.add_snapshot(SPECS[0], sparse)
