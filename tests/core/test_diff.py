"""Tests for the semantic robots.txt differ and change taxonomy."""

from repro.core.classify import RestrictionLevel
from repro.core.diff import ChangeKind, classify_change, diff_robots

BASE = "User-agent: *\nDisallow: /admin/\n"
WITH_GPTBOT = BASE + "\nUser-agent: GPTBot\nDisallow: /\n"
WITH_ALLOW = BASE + "\nUser-agent: GPTBot\nAllow: /\n"

AI = ["GPTBot", "CCBot", "anthropic-ai"]


class TestDiffRobots:
    def test_identical_versions_empty(self):
        assert diff_robots(BASE, BASE).is_empty

    def test_formatting_only_change_empty(self):
        reformatted = "User-agent: *\n# a comment\nDisallow: /admin/\n"
        assert diff_robots(BASE, reformatted).is_empty

    def test_agent_added_and_tightened(self):
        diff = diff_robots(BASE, WITH_GPTBOT)
        assert diff.agents_added == ["gptbot"]
        assert diff.tightened_agents() == ["gptbot"]
        (change,) = diff.changes
        assert change.before is RestrictionLevel.NO_RESTRICTIONS
        assert change.after is RestrictionLevel.FULL

    def test_agent_removed_and_loosened(self):
        diff = diff_robots(WITH_GPTBOT, BASE)
        assert diff.agents_removed == ["gptbot"]
        assert diff.loosened_agents() == ["gptbot"]

    def test_allow_gained(self):
        diff = diff_robots(WITH_GPTBOT, WITH_ALLOW)
        assert diff.allow_gained == ["gptbot"]
        assert diff.loosened_agents() == ["gptbot"]

    def test_wildcard_change_detected(self):
        diff = diff_robots(BASE, "User-agent: *\nDisallow: /\n")
        assert diff.wildcard_changed

    def test_none_before_means_everything_new(self):
        diff = diff_robots(None, WITH_GPTBOT)
        assert "gptbot" in diff.agents_added
        assert diff.tightened_agents() == ["gptbot"]

    def test_wildcard_edit_beside_a_group_naming_any_agent(self):
        """The ``*`` rules are compared as merged, whatever agent names
        the other groups hold (a group naming ``generic`` used to govern
        the agent the comparison probed with)."""
        for name in ("generic", "g", "generic-probe-bot", "GPTBot"):
            named = f"User-agent: {name}\nDisallow: /x\n\n"
            before = named + "User-agent: *\nDisallow: /private/\n"
            after = named + "User-agent: *\nDisallow: /\n"
            assert diff_robots(before, after).wildcard_changed, name
            assert classify_change(before, after, AI) is ChangeKind.UNRELATED_CHANGE

    def test_empty_user_agent_line_is_not_an_agent(self):
        """An empty ``User-agent:`` value is neither added, removed nor
        compared."""
        before = (
            "User-agent:\nUser-agent: CCBot\nDisallow: /\n\n"
            "User-agent: *\nDisallow: /tmp\n"
        )
        after = (
            "User-agent: GPTBot\nUser-agent:\nAllow: /\n\n"
            "User-agent: *\nDisallow: /tmp\n"
        )
        diff = diff_robots(before, after)
        assert diff.agents_added == ["gptbot"]
        assert diff.agents_removed == ["ccbot"]
        assert [c.agent for c in diff.changes] == ["ccbot"]
        assert diff.allow_gained == ["gptbot"]
        assert not diff.wildcard_changed
        assert diff_robots("User-agent:\nDisallow: /\n", "User-agent: \nDisallow: /x\n").is_empty


class TestClassifyChange:
    def test_no_change(self):
        assert classify_change(BASE, BASE, AI) is ChangeKind.NO_CHANGE

    def test_ai_added(self):
        assert classify_change(BASE, WITH_GPTBOT, AI) is ChangeKind.AI_RESTRICTION_ADDED

    def test_ai_removed(self):
        assert classify_change(WITH_GPTBOT, BASE, AI) is ChangeKind.AI_RESTRICTION_REMOVED

    def test_explicit_allow(self):
        assert classify_change(WITH_GPTBOT, WITH_ALLOW, AI) is ChangeKind.EXPLICIT_ALLOW_ADDED

    def test_unrelated(self):
        after = "User-agent: *\nDisallow: /admin/\nDisallow: /tmp/\n"
        assert classify_change(BASE, after, AI) is ChangeKind.UNRELATED_CHANGE

    def test_mixed(self):
        before = BASE + "\nUser-agent: GPTBot\nDisallow: /\n"
        after = BASE + "\nUser-agent: CCBot\nDisallow: /\n"
        assert classify_change(before, after, AI) is ChangeKind.MIXED

    def test_non_ai_bot_changes_are_unrelated(self):
        before = BASE
        after = BASE + "\nUser-agent: AhrefsBot\nDisallow: /\n"
        assert classify_change(before, after, AI) is ChangeKind.UNRELATED_CHANGE

    def test_deal_removal_is_surgical_and_detected(self):
        from repro.core.serialize import remove_agent_rules

        before = WITH_GPTBOT + "\nUser-agent: CCBot\nDisallow: /\n"
        after = remove_agent_rules(before, ["GPTBot"])
        assert classify_change(before, after, AI) is ChangeKind.AI_RESTRICTION_REMOVED
        # CCBot untouched by the surgical removal.
        diff = diff_robots(before, after)
        assert "ccbot" not in [c.agent for c in diff.changes]
