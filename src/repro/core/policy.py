"""High-level query interface over parsed robots.txt files.

:class:`RobotsPolicy` answers the questions crawlers and measurement
pipelines actually ask: *may user agent X fetch path P*, *which rules
apply to X*, and *what crawl delay, if any, does the file request*.

User-agent matching follows RFC 9309 section 2.2.1 with the same
practical extension used by Google's parser: a group applies to a
crawler when the group's product token is a case-insensitive prefix of
the crawler's product token (so a ``googlebot`` group governs
``Googlebot-Image``).  When any specific group matches, wildcard groups
are ignored; all matching specific groups are merged, per the RFC's
"combine into one group" requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from .matcher import Rule, Verdict, evaluate
from .parser import Group, ParsedRobots, parse

__all__ = ["extract_product_token", "RobotsPolicy"]

_TOKEN_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)


def extract_product_token(user_agent: str) -> str:
    """Extract the product token from a full user-agent string.

    A crawler identifying as ``"Mozilla/5.0 (compatible; GPTBot/1.0;
    +https://openai.com/gptbot)"`` is matched by its product token.  Per
    the convention implemented by production parsers, the token is the
    longest run of token characters at the start of the string; when the
    string looks like a browser UA, each ``;``- or space-delimited
    product is tried and the caller typically passes the crawler name
    directly.

    This helper keeps the simple, deterministic behavior of Google's
    ``ExtractUserAgent``: the leading run of ``[a-zA-Z_-]`` characters
    (digits are accepted as well, which is harmless for every agent in
    this study).

    >>> extract_product_token("GPTBot/1.2 (+https://openai.com/gptbot)")
    'GPTBot'
    """
    out = []
    for ch in user_agent:
        if ch in _TOKEN_CHARS:
            out.append(ch)
        else:
            break
    return "".join(out)


def _agent_matches(group_token: str, crawler_token: str) -> bool:
    """Whether a group's agent token governs a crawler product token."""
    group_token = group_token.lower()
    crawler_token = crawler_token.lower()
    if not group_token:
        return False
    return crawler_token.startswith(group_token)


@dataclass(frozen=True)
class AgentRules:
    """The merged rule set that applies to one crawler.

    Attributes:
        rules: Merged rules from every applicable group, in file order.
        explicit: True when at least one non-wildcard group matched (the
            rules come from groups naming the agent), False when only a
            wildcard group applied.
        crawl_delay: The first crawl delay found in the applicable
            groups, or None.
    """

    rules: Sequence[Rule]
    explicit: bool
    crawl_delay: Optional[float] = None


class RobotsPolicy:
    """Queryable policy for one robots.txt file.

    Construct from raw text/bytes, or from an already-parsed
    :class:`~repro.core.parser.ParsedRobots` via :meth:`from_parsed`.
    Group resolution runs once per distinct user agent (:meth:`rules_for`
    is memoized) and each rule compiles its pattern once, so repeated
    queries only normalize the request path.  Answers are fixed at
    parse, so one policy may be shared across threads: a race on the
    memo only resolves the same rules twice.

    >>> policy = RobotsPolicy("User-agent: GPTBot\\nDisallow: /")
    >>> policy.is_allowed("GPTBot", "/page")
    False
    >>> policy.is_allowed("Googlebot", "/page")
    True
    """

    def __init__(self, source: Union[str, bytes, ParsedRobots]):
        if isinstance(source, ParsedRobots):
            self._parsed = source
        else:
            self._parsed = parse(source)
        self._agent_rules: Dict[str, AgentRules] = {}

    @classmethod
    def from_parsed(cls, parsed: ParsedRobots) -> "RobotsPolicy":
        """Wrap an existing parse result without re-parsing."""
        return cls(parsed)

    @property
    def parsed(self) -> ParsedRobots:
        """The underlying parse result."""
        return self._parsed

    @property
    def sitemaps(self) -> List[str]:
        """Sitemap URLs declared anywhere in the file."""
        return list(self._parsed.sitemaps)

    def named_agents(self) -> List[str]:
        """Every agent token named in the file, lowercased."""
        return self._parsed.named_agents()

    def rules_for(self, user_agent: str) -> AgentRules:
        """Merged rules applying to *user_agent* (full string or token).

        Specific (non-wildcard) matching groups shadow wildcard groups
        entirely; among specific groups, only those with the *longest*
        matching token apply (the RFC's most-specific-match rule), and
        multiple groups with that token are merged.  Memoized per
        *user_agent*.
        """
        cached = self._agent_rules.get(user_agent)
        if cached is None:
            cached = self._agent_rules[user_agent] = self._resolve(user_agent)
        return cached

    def _resolve(self, user_agent: str) -> AgentRules:
        token = extract_product_token(user_agent) or user_agent
        # Some agent names contain characters outside the product-token
        # alphabet ("Kangaroo Bot", "ICC Crawler"); an exact full-string
        # comparison covers those.
        full = user_agent.strip().lower()
        best_len = -1
        matched: List[Group] = []
        for group in self._parsed.groups:
            # A group may list several tokens that match this crawler
            # (e.g. "foo" and "foobot"); its specificity is the longest.
            group_len = max(
                (
                    len(agent_token)
                    for agent_token in group.agent_tokens()
                    if agent_token != "*"
                    and (_agent_matches(agent_token, token) or agent_token == full)
                ),
                default=-1,
            )
            if group_len < 0:
                continue
            if group_len > best_len:
                best_len = group_len
                matched = [group]
            elif group_len == best_len:
                matched.append(group)
        if matched:
            rules: List[Rule] = []
            delay: Optional[float] = None
            for group in matched:
                rules.extend(group.rules)
                if delay is None and group.crawl_delays:
                    delay = group.crawl_delays[0]
            return AgentRules(rules=tuple(rules), explicit=True, crawl_delay=delay)

        wildcard_rules: List[Rule] = []
        delay = None
        for group in self._parsed.wildcard_groups():
            wildcard_rules.extend(group.rules)
            if delay is None and group.crawl_delays:
                delay = group.crawl_delays[0]
        return AgentRules(rules=tuple(wildcard_rules), explicit=False, crawl_delay=delay)

    def verdict(self, user_agent: str, path: str) -> Verdict:
        """Full evaluation result (winning rule included) for one fetch."""
        return evaluate(self.rules_for(user_agent).rules, path)

    def is_allowed(self, user_agent: str, path: str) -> bool:
        """Whether *user_agent* may fetch *path* under this policy.

        The robots.txt file itself must always be fetchable.
        """
        if path.split("?", 1)[0] in ("/robots.txt",):
            return True
        return self.verdict(user_agent, path).allowed

    def crawl_delay(self, user_agent: str) -> Optional[float]:
        """The non-standard crawl delay requested for *user_agent*."""
        return self.rules_for(user_agent).crawl_delay

    def has_explicit_group(self, user_agent: str) -> bool:
        """Whether any group names *user_agent* (not via wildcard)."""
        return self.rules_for(user_agent).explicit
