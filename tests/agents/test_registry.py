"""Tests for repro.agents.registry and the Table 1 population."""

import pytest

from repro.agents.darkvisitors import AI_USER_AGENT_TOKENS, build_registry
from repro.agents.registry import (
    AgentCategory,
    AgentRegistry,
    AIUserAgent,
    Compliance,
)


def by_category(registry, category):
    """The registry's agents in *category*, in registration order."""
    return [agent for agent in registry if agent.category is category]


class TestAIUserAgent:
    def test_default_full_user_agent(self):
        agent = AIUserAgent("TestBot", AgentCategory.AI_DATA, "Test Co")
        assert agent.full_user_agent == "TestBot/1.0"

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            AIUserAgent("", AgentCategory.AI_DATA, "X")

    def test_control_token_flag(self):
        agent = AIUserAgent("Google-Extended", AgentCategory.CONTROL_TOKEN, "Google")
        assert agent.is_control_token

    def test_compliance_not_boolable(self):
        with pytest.raises(TypeError):
            bool(Compliance.YES)


class TestAgentRegistry:
    def _make(self):
        return AgentRegistry(
            [
                AIUserAgent("GPTBot", AgentCategory.AI_DATA, "OpenAI"),
                AIUserAgent("OAI-SearchBot", AgentCategory.AI_SEARCH, "OpenAI"),
                AIUserAgent("CCBot", AgentCategory.AI_DATA, "Common Crawl"),
            ]
        )

    def test_case_insensitive_lookup(self):
        registry = self._make()
        assert registry.get("gptbot").token == "GPTBot"
        assert "GPTBOT" in registry

    def test_duplicate_rejected(self):
        registry = self._make()
        with pytest.raises(ValueError):
            registry.add(AIUserAgent("gptbot", AgentCategory.AI_DATA, "X"))

    def test_by_category(self):
        registry = self._make()
        tokens = [a.token for a in by_category(registry, AgentCategory.AI_DATA)]
        assert tokens == ["GPTBot", "CCBot"]

    def test_iteration_order_is_insertion_order(self):
        assert [a.token for a in self._make()] == ["GPTBot", "OAI-SearchBot", "CCBot"]


class TestTable1Population:
    REGISTRY = build_registry()

    def test_twenty_four_agents(self):
        assert len(self.REGISTRY) == 24
        assert len(AI_USER_AGENT_TOKENS) == 24

    def test_three_control_tokens(self):
        tokens = [
            a.token
            for a in by_category(self.REGISTRY, AgentCategory.CONTROL_TOKEN)
        ]
        assert sorted(tokens) == [
            "Applebot-Extended",
            "Google-Extended",
            "Webzio-Extended",
        ]

    def test_real_crawlers_excludes_control_tokens(self):
        assert len(self.REGISTRY.real_crawlers()) == 21

    def test_bytespider_does_not_respect(self):
        bot = self.REGISTRY.get("Bytespider")
        assert bot.respects_in_practice is Compliance.NO
        assert bot.company == "ByteDance"

    def test_anthropic_agents_do_not_publish_ips(self):
        for token in ("anthropic-ai", "Claude-Web", "ClaudeBot"):
            assert self.REGISTRY.get(token).publishes_ips is Compliance.NO

    def test_paper_observed_respecting_crawlers(self):
        respecting = {
            a.token
            for a in self.REGISTRY
            if a.respects_in_practice is Compliance.YES
        }
        assert respecting == {
            "Amazonbot",
            "Applebot",
            "CCBot",
            "ChatGPT-User",
            "ClaudeBot",
            "GPTBot",
            "Meta-ExternalAgent",
        }

    def test_categories_match_table1_counts(self):
        by_cat = {
            cat: len(by_category(self.REGISTRY, cat)) for cat in AgentCategory
        }
        assert by_cat[AgentCategory.AI_DATA] == 11
        assert by_cat[AgentCategory.AI_ASSISTANT] == 2
        assert by_cat[AgentCategory.AI_SEARCH] == 5
        assert by_cat[AgentCategory.UNDOCUMENTED] == 3
        assert by_cat[AgentCategory.CONTROL_TOKEN] == 3

    def test_meta_externalfetcher_claims_no_respect(self):
        assert (
            self.REGISTRY.get("Meta-ExternalFetcher").claims_respect
            is Compliance.NO
        )
