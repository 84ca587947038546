"""Property-style check: cached classification == uncached classification.

Over a seeded population's full snapshot series, every (domain,
snapshot, agent) triple must classify identically through the
content-addressed :class:`~repro.measure.cache.PolicyCache` and through
the uncached :func:`~repro.core.classify.classify` /
:class:`~repro.core.policy.RobotsPolicy` path -- including domains
whose records are non-200 (403/0 transport errors) and missing-robots
(404) sites.
"""

import pytest

from repro.core.classify import classify, explicitly_allows, fully_disallows_any
from repro.core.policy import RobotsPolicy
from repro.measure.cache import PolicyCache
from repro.measure.longitudinal import collect_snapshots
from repro.web.population import PopulationConfig, build_web_population

CONFIG = PopulationConfig(
    universe_size=450, list_size=300, top5k_cut=40, audit_size=80, seed=11
)

AGENTS = ["GPTBot", "CCBot", "anthropic-ai", "ChatGPT-User", "Bytespider"]


def _robots(snapshot, domain):
    """The robots.txt one domain serves in one snapshot (www fallback)."""
    record = snapshot.record_for(domain)
    return record.robots_txt if record is not None and record.ok else None


@pytest.fixture(scope="module")
def world():
    population = build_web_population(CONFIG)
    series = collect_snapshots(population)
    return population, series


class TestCacheAgreesWithUncachedPath:
    def test_every_triple_classifies_identically(self, world):
        _, series = world
        cache = PolicyCache()
        for snapshot in series.snapshots:
            for domain in series.stable_domains:
                text = _robots(snapshot, domain)
                for agent in AGENTS:
                    for require_explicit in (True, False):
                        cached = cache.classification(
                            text, agent, require_explicit=require_explicit
                        )
                        uncached = classify(
                            text, agent, require_explicit=require_explicit
                        )
                        assert cached == uncached, (domain, snapshot.spec, agent)

    def test_non_200_and_missing_records_covered(self, world):
        """The population must actually exercise the None-text paths."""
        _, series = world
        statuses = {
            record.status
            for snapshot in series.snapshots
            for record in snapshot.records.values()
        }
        assert 200 in statuses
        # Missing robots (404) and at least one non-2xx/4xx failure mode
        # must be present, else the property above is vacuous for them.
        assert 404 in statuses
        assert statuses - {200, 404}, statuses

    def test_fully_disallows_any_agrees(self, world):
        _, series = world
        cache = PolicyCache()
        final = series.snapshots[-1]
        for domain in series.analysis_domains:
            text = _robots(final, domain)
            for require_explicit in (True, False):
                assert cache.fully_disallows_any(
                    text, AGENTS, require_explicit=require_explicit
                ) == fully_disallows_any(
                    text, AGENTS, require_explicit=require_explicit
                )

    def test_explicitly_allows_agrees(self, world):
        _, series = world
        cache = PolicyCache()
        for snapshot in series.snapshots[-3:]:
            for domain in series.analysis_domains:
                text = _robots(snapshot, domain)
                expected = (
                    explicitly_allows(RobotsPolicy(text), "GPTBot")
                    if text is not None
                    else False
                )
                assert cache.explicitly_allows(text, "GPTBot") == expected

    def test_none_text_means_no_robots(self):
        cache = PolicyCache()
        assert cache.classification(None, "GPTBot").level.name == "NO_ROBOTS"
        assert cache.fully_disallows_any(None, AGENTS) is False
        assert cache.explicitly_allows(None, "GPTBot") is False

    def test_memoization_returns_stable_objects(self):
        cache = PolicyCache()
        text = "User-agent: GPTBot\nDisallow: /\n"
        first = cache.classification(text, "GPTBot")
        second = cache.classification(text, "GPTBot")
        assert first is second
        assert cache.policy(text) is cache.policy(text)


class TestSeriesBodyInterning:
    def test_identical_bodies_share_one_string(self, world):
        _, series = world
        by_value = {}
        for snapshot in series.snapshots:
            for record in snapshot.records.values():
                if record.robots_txt is None:
                    continue
                canonical = by_value.setdefault(record.robots_txt, record.robots_txt)
                assert record.robots_txt is canonical

    def test_body_counts_cover_analysis_set(self, world):
        _, series = world
        view = series.analysis
        for spec_index, snapshot in enumerate(series.snapshots):
            counts = view.body_counts(spec_index)
            assert sum(counts.values()) == len(series.analysis_domains)
            # One reference per distinct body: the shard view is built
            # from the series' interned bodies.
            bodies = {view.reader.body_text(ref) for ref in counts}
            assert len(bodies) == len(counts)
            assert bodies == {
                _robots(snapshot, domain) for domain in series.analysis_domains
            }
