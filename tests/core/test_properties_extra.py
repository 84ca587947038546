"""Additional property-based tests: differ and stats invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diff import ChangeKind, classify_change, diff_robots
from repro.core.serialize import RobotsBuilder, add_disallow_group

_ai_agents = ["GPTBot", "CCBot", "anthropic-ai"]


@st.composite
def simple_robots(draw):
    builder = RobotsBuilder()
    builder.group("*").disallow(draw(st.sampled_from(["/admin/", "/tmp/", "/x"])))
    if draw(st.booleans()):
        agent = draw(st.sampled_from(_ai_agents))
        builder.group(agent).disallow(draw(st.sampled_from(["/", "/img/"])))
    return builder.build()


class TestDiffProperties:
    @given(text=simple_robots())
    @settings(max_examples=60)
    def test_self_diff_is_empty(self, text):
        assert diff_robots(text, text).is_empty
        assert classify_change(text, text, _ai_agents) is ChangeKind.NO_CHANGE

    @given(text=simple_robots(), agent=st.sampled_from(_ai_agents))
    @settings(max_examples=60)
    def test_add_and_remove_are_symmetric(self, text, agent):
        from repro.core.serialize import remove_agent_rules

        base = remove_agent_rules(text, [agent])
        tightened = add_disallow_group(base, [agent])
        forward = classify_change(base, tightened, _ai_agents)
        backward = classify_change(tightened, base, _ai_agents)
        assert forward is ChangeKind.AI_RESTRICTION_ADDED
        assert backward is ChangeKind.AI_RESTRICTION_REMOVED

    @given(text=simple_robots())
    @settings(max_examples=40)
    def test_diff_against_none_reports_additions_only(self, text):
        diff = diff_robots(None, text)
        assert diff.agents_removed == []
        assert not diff.loosened_agents()
