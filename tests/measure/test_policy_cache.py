"""Property-style check: a verdict row answers like uncached classification.

Over a seeded population's full snapshot series, every (domain,
snapshot, agent) triple must classify identically through the
content-addressed :class:`~repro.measure.cache.PolicyCache` rows and
through the uncached :func:`~repro.core.classify.classify` /
:class:`~repro.core.policy.RobotsPolicy` path -- including domains
whose records are non-200 (403/0 transport errors) and missing-robots
(404) sites.  A differential test holds :class:`VerdictRow` itself to
the uncached functions over every distinct body.
"""

import pytest

from repro.agents.darkvisitors import AI_USER_AGENT_TOKENS as ROW_AGENTS
from repro.core.classify import NO_ROBOTS_ROW, VerdictRow, classify
from repro.core.compiled import policy_digest
from repro.core.policy import RobotsPolicy
from repro.measure.cache import PolicyCache
from repro.measure.longitudinal import collect_snapshots
from repro.web.population import PopulationConfig, build_web_population

from ..core.test_compiled import ROBOTS_SAMPLES
from ..core.test_resolver_differential import assert_matches_oracle
from . import oracle
from .oracle import fully_disallows_any

CONFIG = PopulationConfig(
    universe_size=450, list_size=300, top5k_cut=40, audit_size=80, seed=11
)

AGENTS = ["GPTBot", "CCBot", "anthropic-ai", "ChatGPT-User", "Bytespider"]


@pytest.fixture(scope="module")
def world():
    population = build_web_population(CONFIG)
    series = collect_snapshots(population)
    return oracle.from_columns(series), series


class TestCacheAgreesWithUncachedPath:
    def test_every_triple_classifies_identically(self, world):
        corpus, _ = world
        cache = PolicyCache()
        for spec_index, spec in enumerate(corpus.specs):
            for domain in corpus.domains:
                text = oracle.body_of(corpus, spec_index, domain)
                for agent in AGENTS:
                    for require_explicit in (True, False):
                        cached = cache.row(text).classification(
                            agent, require_explicit=require_explicit
                        )
                        uncached = classify(
                            text, agent, require_explicit=require_explicit
                        )
                        assert cached == uncached, (domain, spec, agent)

    def test_non_200_and_missing_records_covered(self, world):
        """The population must actually exercise the None-text paths."""
        corpus, _ = world
        statuses = {
            status for cells in corpus.cells.values() for status, _ in cells
        }
        assert 200 in statuses
        # Missing robots (404) and at least one non-2xx/4xx failure mode
        # must be present, else the property above is vacuous for them.
        assert 404 in statuses
        assert statuses - {200, 404}, statuses

    def test_fully_disallows_any_agrees(self, world):
        corpus, series = world
        cache = PolicyCache()
        final = len(corpus.specs) - 1
        for domain in series.analysis_domains:
            text = oracle.body_of(corpus, final, domain)
            for require_explicit in (True, False):
                assert cache.row(text).fully_disallows_any(
                    AGENTS, require_explicit=require_explicit
                ) == fully_disallows_any(
                    text, AGENTS, require_explicit=require_explicit
                )

    def test_explicitly_allows_agrees(self, world):
        corpus, series = world
        cache = PolicyCache()
        for spec_index in range(len(corpus.specs))[-3:]:
            for domain in series.analysis_domains:
                text = oracle.body_of(corpus, spec_index, domain)
                expected = (
                    RobotsPolicy(text).rules_for("GPTBot").explicit_allow
                    if text is not None
                    else False
                )
                row = cache.row(text)
                assert row.classification("GPTBot").explicit_allow == expected
                assert row.allows_any(["GPTBot"]) == expected

    def test_none_text_means_no_robots(self):
        cache = PolicyCache()
        row = cache.row(None)
        assert row is NO_ROBOTS_ROW
        assert row.classification("GPTBot").level.name == "NO_ROBOTS"
        assert row.fully_disallows_any(AGENTS) is False
        assert row.classification("GPTBot").explicit_allow is False
        assert row.allows_any(AGENTS) is False
        assert cache.stats["entries"] == 0

    def test_memoization_returns_stable_objects(self):
        cache = PolicyCache()
        text = "User-agent: GPTBot\nDisallow: /\n"
        first = cache.row(text)
        second = cache.row(text)
        assert first is second
        # A caller-supplied digest finds the same row.
        assert cache.row(text, policy_digest(text)) is first
        assert cache.stats == {
            "hits": 2, "misses": 1, "persistent_hits": 0, "entries": 1
        }

    def test_bodies_with_one_row_share_the_row_object(self):
        cache = PolicyCache()
        first = cache.row("User-agent: GPTBot\nDisallow: /\n")
        second = cache.row("User-agent: GPTBot\nDisallow: /\n# twin\n")
        assert first is second
        assert cache.stats["entries"] == 2

    def test_agent_outside_the_vocabulary_raises(self):
        row = PolicyCache().row("User-agent: *\nDisallow: /\n")
        with pytest.raises(ValueError):
            row.classification("SomeOtherBot")
        with pytest.raises(ValueError):
            row.allows_any(["SomeOtherBot"])


def _distinct_bodies(corpus):
    return sorted(
        {
            body
            for cells in corpus.cells.values()
            for _, body in cells
            if body is not None
        }
    )


class TestVerdictRowDifferential:
    """A row equals the uncached functions it replaces, for every agent
    of the vocabulary and both ``require_explicit`` values."""

    def _check(self, text):
        policy = RobotsPolicy(text)
        row = VerdictRow.of(policy)
        for agent in ROW_AGENTS:
            for require_explicit in (True, False):
                assert row.classification(agent, require_explicit) == classify(
                    policy, agent, require_explicit=require_explicit
                ), (text, agent, require_explicit)
            assert row.allows_any([agent]) == policy.rules_for(agent).explicit_allow
            assert row.disallows_any([agent]) == (
                classify(policy, agent).level.disallows
            )
        for require_explicit in (True, False):
            assert row.fully_disallows_any(
                ROW_AGENTS, require_explicit
            ) == fully_disallows_any(policy, ROW_AGENTS, require_explicit)
            for agent in ROW_AGENTS:
                assert row.fully_disallows_any([agent], require_explicit) == (
                    fully_disallows_any(policy, [agent], require_explicit)
                )
        assert row.allows_any(ROW_AGENTS) == any(
            policy.rules_for(agent).explicit_allow for agent in ROW_AGENTS
        )
        assert row.disallows_any(ROW_AGENTS) == any(
            classify(policy, agent).level.disallows for agent in ROW_AGENTS
        )
        assert VerdictRow.unpack(row.pack()) == row

    @pytest.mark.parametrize("text", ROBOTS_SAMPLES)
    def test_samples(self, text):
        self._check(text)

    def test_every_distinct_body_of_the_world(self, world):
        corpus, _ = world
        bodies = _distinct_bodies(corpus)
        assert len(bodies) > 50
        for text in bodies:
            self._check(text)

    def test_every_distinct_body_matches_the_oracles(self, world):
        """The token-indexed resolver and the named-agents-only row
        agree with the group walk and the 25-call row on every body."""
        corpus, _ = world
        for text in _distinct_bodies(corpus):
            assert_matches_oracle(text)

    def test_the_world_exercises_every_cell_kind(self, world):
        """Explicit, wildcard-only, allow and full cells all occur, so
        the differential test above is not vacuous for any of them."""
        corpus, _ = world
        rows = [VerdictRow.of(RobotsPolicy(text)) for text in _distinct_bodies(corpus)]
        cells = {cell for row in rows for cell in row.cells}
        assert any(cell.explicit and cell.level.name == "FULL" for cell in cells)
        assert any(cell.explicit_allow for cell in cells)
        assert any(not cell.explicit for cell in cells)
        assert any(row.wildcard.name == "FULL" for row in rows)

    def test_no_robots_row_equals_classify_none(self):
        for agent in ROW_AGENTS:
            for require_explicit in (True, False):
                assert NO_ROBOTS_ROW.classification(agent, require_explicit) == (
                    classify(None, agent, require_explicit=require_explicit)
                )
        assert NO_ROBOTS_ROW.fully_disallows_any(ROW_AGENTS) is False
        assert NO_ROBOTS_ROW.allows_any(ROW_AGENTS) is False
        assert NO_ROBOTS_ROW.disallows_any(ROW_AGENTS) is False
        assert VerdictRow.unpack(NO_ROBOTS_ROW.pack()) == NO_ROBOTS_ROW

    @pytest.mark.parametrize(
        "packed",
        [
            None,
            3,
            ["1"] * 25,
            "",
            "1" * 24,
            "1" * 26,
            "1" * 24 + "4",  # wildcard digit outside 0-3
            "1" * 24 + "f",
            "g" + "1" * 24,
            "+" + "1" * 24,
            "\u0663" + "1" * 24,  # a non-ASCII decimal digit
        ],
    )
    def test_unpack_rejects_anything_pack_does_not_write(self, packed):
        assert VerdictRow.unpack(packed) is None


class TestSeriesBodyInterning:
    def test_identical_bodies_share_one_string(self, world):
        corpus, series = world
        shard = series.shard
        refs = {
            ref
            for spec_index in range(len(shard.specs))
            for ref in shard.body_refs(spec_index)
            if ref >= 0
        }
        # One ref per distinct body: the shard keeps each text once.
        texts = [shard.body_text(ref) for ref in sorted(refs)]
        assert sorted(refs) == list(range(len(refs)))
        assert len(set(texts)) == len(texts)
        assert sorted(texts) == _distinct_bodies(corpus)

    def test_body_counts_cover_analysis_set(self, world):
        corpus, series = world
        view = series.analysis
        for spec_index in range(len(series.specs)):
            counts = view.body_counts(spec_index)
            assert sum(counts.values()) == len(series.analysis_domains)
            # One reference per distinct body: the shard view is built
            # from the series' interned bodies.
            bodies = {view.reader.body_text(ref) for ref in counts}
            assert len(bodies) == len(counts)
            assert bodies == {
                oracle.body_of(corpus, spec_index, domain)
                for domain in series.analysis_domains
            }
