"""Tests for repro.agents.catalogs and useragent utilities."""

from repro.agents.catalogs import (
    CLOUDFLARE_AI_BOTS_BLOCKED,
    CLOUDFLARE_DEFINITELY_AUTOMATED,
    CLOUDFLARE_VERIFIED_AI_BOTS_BLOCKED,
    CLOUDFLARE_VERIFIED_BOTS,
    N_GENERIC_CRAWLERS,
    SQUARESPACE_BLOCKED_AGENTS,
    generic_crawler_user_agents,
)
from repro.agents.useragent import (
    DEFAULT_BROWSER_UA,
    contains_token,
    looks_like_browser,
    matches_any,
    primary_product,
    product_tokens,
)


class TestCatalogContents:
    def test_squarespace_blocks_ten_agents(self):
        assert len(SQUARESPACE_BLOCKED_AGENTS) == 10
        assert "GPTBot" in SQUARESPACE_BLOCKED_AGENTS
        assert "anthropic-ai" in SQUARESPACE_BLOCKED_AGENTS

    def test_cloudflare_ai_bots_list_is_seventeen(self):
        assert len(CLOUDFLARE_AI_BOTS_BLOCKED) == 17

    def test_cloudflare_ai_bots_excludes_unblocked_verified(self):
        # Applebot, OAI-SearchBot, DuckAssistbot are verified but NOT
        # blocked by the Block AI Bots feature (footnote 8).
        joined = " ".join(CLOUDFLARE_AI_BOTS_BLOCKED).lower()
        assert "applebot" not in joined
        assert "oai-searchbot" not in joined

    def test_definitely_automated_includes_tools_used_for_inference(self):
        # Figure 7 uses HeadlessChrome and libwww-perl as probes.
        assert "HeadlessChrome" in CLOUDFLARE_DEFINITELY_AUTOMATED
        assert "libwww-perl" in CLOUDFLARE_DEFINITELY_AUTOMATED

    def test_verified_blocked_is_subset_of_verified(self):
        assert set(CLOUDFLARE_VERIFIED_AI_BOTS_BLOCKED) <= set(
            CLOUDFLARE_VERIFIED_BOTS
        )


class TestGenericUserAgents:
    def test_count_and_uniqueness(self):
        agents = generic_crawler_user_agents()
        assert len(agents) == N_GENERIC_CRAWLERS == 590
        assert len(set(agents)) == 590

    def test_deterministic(self):
        assert generic_crawler_user_agents() == generic_crawler_user_agents()


class TestProductTokens:
    def test_simple(self):
        assert product_tokens("GPTBot/1.1") == ["GPTBot"]

    def test_comment_skipped(self):
        tokens = product_tokens("Mozilla/5.0 (X11; Linux x86_64) GPTBot/1.1")
        assert tokens == ["Mozilla", "GPTBot"]

    def test_empty(self):
        assert product_tokens("") == []


class TestPrimaryProduct:
    def test_bare_token(self):
        assert primary_product("anthropic-ai") == "anthropic-ai"

    def test_versioned(self):
        assert primary_product("CCBot/2.0 (https://commoncrawl.org/faq/)") == "CCBot"

    def test_browser_style_crawler(self):
        ua = "Mozilla/5.0 (compatible; GPTBot/1.1; +https://openai.com/gptbot)"
        assert primary_product(ua) == "GPTBot"

    def test_browser_style_with_webkit(self):
        ua = (
            "Mozilla/5.0 AppleWebKit/537.36 (compatible; ChatGPT-User/1.0; "
            "+https://openai.com/bot)"
        )
        assert primary_product(ua) == "ChatGPT-User"

    def test_plain_browser_returns_first_token(self):
        assert primary_product(DEFAULT_BROWSER_UA) == "Mozilla"


class TestContainsToken:
    def test_case_insensitive(self):
        assert contains_token("Mozilla/5.0 gptbot/1.1", "GPTBot")

    def test_trailing_slash_requires_version(self):
        assert contains_token("GPTBot/1.1", "GPTBot/")
        assert not contains_token("GPTBot", "GPTBot/")

    def test_matches_any(self):
        assert matches_any("Bytespider", ["GPTBot/", "Bytespider"])
        assert not matches_any("Googlebot", ["GPTBot/", "Bytespider"])


class TestLooksLikeBrowser:
    def test_chrome_ua(self):
        assert looks_like_browser(DEFAULT_BROWSER_UA)

    def test_bot_ua(self):
        assert not looks_like_browser(
            "Mozilla/5.0 (compatible; GPTBot/1.1; +https://openai.com/gptbot)"
        )

    def test_non_mozilla(self):
        assert not looks_like_browser("curl/8.0")
