"""Tests for repro.core.policy."""

from repro.core.policy import RobotsPolicy, extract_product_token


class TestExtractProductToken:
    def test_plain_token(self):
        assert extract_product_token("GPTBot") == "GPTBot"

    def test_token_with_version(self):
        assert extract_product_token("GPTBot/1.2") == "GPTBot"

    def test_token_with_comment(self):
        assert extract_product_token("CCBot (https://commoncrawl.org)") == "CCBot"

    def test_hyphenated_token(self):
        assert extract_product_token("ChatGPT-User/1.0") == "ChatGPT-User"

    def test_empty_string(self):
        assert extract_product_token("") == ""


class TestAgentSelection:
    POLICY = RobotsPolicy(
        "User-agent: Googlebot\n"
        "Allow: /\n"
        "\n"
        "User-agent: ChatGPT-User\n"
        "User-agent: GPTBot\n"
        "Disallow: /\n"
        "\n"
        "User-agent: *\n"
        "Disallow: /secret/\n"
    )

    def test_named_agent_fully_disallowed(self):
        assert not self.POLICY.is_allowed("GPTBot", "/anything")
        assert not self.POLICY.is_allowed("ChatGPT-User", "/")

    def test_googlebot_allowed_everywhere(self):
        assert self.POLICY.is_allowed("Googlebot", "/secret/x")

    def test_other_agents_fall_to_wildcard(self):
        assert self.POLICY.is_allowed("Bingbot", "/page")
        assert not self.POLICY.is_allowed("Bingbot", "/secret/page")

    def test_matching_is_case_insensitive(self):
        assert not self.POLICY.is_allowed("gptbot", "/x")
        assert not self.POLICY.is_allowed("GPTBOT", "/x")

    def test_full_user_agent_string_matched_by_token(self):
        ua = "Mozilla/5.0 AppleWebKit/537.36; compatible; GPTBot/1.0"
        # Token extraction takes the leading run: "Mozilla".  Callers in
        # this codebase pass the product token; verify that behavior.
        assert self.POLICY.is_allowed(ua, "/page")  # Mozilla -> wildcard? no:
        # Mozilla falls to wildcard group, /page is outside /secret/.

    def test_prefix_matching_governs_subproducts(self):
        policy = RobotsPolicy("User-agent: googlebot\nDisallow: /")
        assert not policy.is_allowed("Googlebot-Image", "/x")

    def test_specific_group_shadows_wildcard_entirely(self):
        policy = RobotsPolicy(
            "User-agent: *\nDisallow: /\nUser-agent: GPTBot\nDisallow: /a\n"
        )
        # GPTBot gets only its own group: / is allowed, /a is not.
        assert policy.is_allowed("GPTBot", "/")
        assert not policy.is_allowed("GPTBot", "/a")

    def test_most_specific_token_wins(self):
        policy = RobotsPolicy(
            "User-agent: google\nDisallow: /\n"
            "User-agent: googlebot\nAllow: /\n"
        )
        assert policy.is_allowed("Googlebot", "/x")

    def test_equal_length_groups_merge(self):
        policy = RobotsPolicy(
            "User-agent: GPTBot\nDisallow: /a\n"
            "User-agent: GPTBot\nDisallow: /b\n"
        )
        assert not policy.is_allowed("GPTBot", "/a")
        assert not policy.is_allowed("GPTBot", "/b")

    def test_robots_txt_itself_always_fetchable(self):
        policy = RobotsPolicy("User-agent: *\nDisallow: /")
        assert policy.is_allowed("Anybot", "/robots.txt")


class TestPolicyAccessors:
    def test_sitemaps(self):
        policy = RobotsPolicy("Sitemap: https://e.com/a.xml\nSitemap: https://e.com/b.xml")
        assert policy.parsed.sitemaps == ["https://e.com/a.xml", "https://e.com/b.xml"]

    def test_crawl_delay_exposed(self):
        policy = RobotsPolicy("User-agent: slowbot\nCrawl-delay: 10\nDisallow: /x")
        assert policy.crawl_delay("slowbot") == 10.0
        assert policy.crawl_delay("fastbot") is None

    def test_has_explicit_group(self):
        policy = RobotsPolicy("User-agent: GPTBot\nDisallow: /\nUser-agent: *\nAllow: /")
        assert policy.rules_for("GPTBot").explicit
        assert not policy.rules_for("CCBot").explicit

    def test_named_agents(self):
        policy = RobotsPolicy("User-agent: A\nDisallow: /\nUser-agent: B\nAllow: /")
        assert policy.named_agents() == ["a", "b"]

    def test_verdict_includes_rule(self):
        policy = RobotsPolicy("User-agent: *\nDisallow: /admin")
        verdict = policy.verdict("anybot", "/admin/panel")
        assert not verdict.allowed
        assert verdict.rule.path == "/admin"

    def test_empty_policy_allows_everything(self):
        policy = RobotsPolicy("")
        assert policy.is_allowed("GPTBot", "/anything")

    def test_from_parsed_roundtrip(self):
        from repro.core.parser import parse

        parsed = parse("User-agent: *\nDisallow: /")
        policy = RobotsPolicy(parsed)
        assert not policy.is_allowed("x", "/y")


class TestGroupSpecificityEdgeCases:
    def test_group_with_multiple_matching_tokens_uses_longest(self):
        # One group lists both a short and a long token matching the
        # crawler; a more specific group elsewhere must NOT be shadowed
        # by the short token's length.
        policy = RobotsPolicy(
            "User-agent: foo\n"
            "User-agent: foobot\n"
            "Disallow: /\n"
            "\n"
            "User-agent: foobo\n"
            "Allow: /\n"
        )
        # Crawler "foobot": group 1 matches at length 6 ("foobot"),
        # group 2 at length 5 ("foobo") -> group 1 wins alone.
        assert not policy.is_allowed("foobot", "/x")

    def test_equally_specific_groups_merge(self):
        policy = RobotsPolicy(
            "User-agent: foobot\nDisallow: /a\n"
            "User-agent: foobot\nDisallow: /b\n"
        )
        assert not policy.is_allowed("foobot", "/a")
        assert not policy.is_allowed("foobot", "/b")
