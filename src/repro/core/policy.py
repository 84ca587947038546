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

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .matcher import Rule, Verdict, evaluate
from .parser import Group, ParsedRobots, parse

__all__ = ["extract_product_token", "RobotsPolicy"]

_PRODUCT_TOKEN = re.compile(r"[A-Za-z0-9_-]*")


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
    return _PRODUCT_TOKEN.match(user_agent).group()


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


def _merged(groups: Iterable[Group], explicit: bool) -> AgentRules:
    """One :class:`AgentRules` from *groups*, merged in the given order."""
    rules: List[Rule] = []
    delay: Optional[float] = None
    for group in groups:
        rules.extend(group.rules)
        if delay is None and group.crawl_delays:
            delay = group.crawl_delays[0]
    return AgentRules(rules=tuple(rules), explicit=explicit, crawl_delay=delay)


class RobotsPolicy:
    """Queryable policy for one robots.txt file.

    Construct from raw text/bytes, or from an already-parsed
    :class:`~repro.core.parser.ParsedRobots` via :meth:`from_parsed`.
    Construction indexes the groups by the agent tokens they name and
    merges the ``User-agent: *`` groups once, so resolving an agent
    scans the file's distinct named tokens only, and every agent no
    group names shares the one wildcard answer.  :meth:`rules_for` is
    memoized and each rule compiles its pattern once, so repeated
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
        # Each lowercased non-wildcard token -> the indices of the groups
        # naming it, in file order, each group once.  Tuples: every
        # cached policy holds its index.
        by_token: Dict[str, List[int]] = {}
        for index, group in enumerate(self._parsed.groups):
            for token in dict.fromkeys(group.agent_tokens()):
                if token != "*":
                    by_token.setdefault(token, []).append(index)
        self._groups_by_token: Dict[str, Tuple[int, ...]] = {
            token: tuple(indices) for token, indices in by_token.items()
        }
        self._wildcard_rules = _merged(self._parsed.wildcard_groups(), explicit=False)
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
        *user_agent*; every agent no group names gets the same
        wildcard-only object.
        """
        cached = self._agent_rules.get(user_agent)
        if cached is None:
            cached = self._agent_rules[user_agent] = self._resolve(user_agent)
        return cached

    def _resolve(self, user_agent: str) -> AgentRules:
        # A group token matches when it is a non-empty prefix of the
        # crawler's product token.  Some agent names contain characters
        # outside the product-token alphabet ("Kangaroo Bot", "ICC
        # Crawler"); an exact full-string comparison covers those.
        token = (extract_product_token(user_agent) or user_agent).lower()
        full = user_agent.strip().lower()
        best_len = -1
        matched: Tuple[int, ...] = ()
        for agent_token, indices in self._groups_by_token.items():
            prefix = agent_token and token.startswith(agent_token)
            if not prefix and agent_token != full:
                continue
            # A group may list several tokens that match this crawler
            # (e.g. "foo" and "foobot"); its specificity is the longest.
            if len(agent_token) > best_len:
                best_len = len(agent_token)
                matched = indices
            elif len(agent_token) == best_len:
                # Two distinct tokens of one length match only when a
                # token starts with whitespace, which a parsed file never
                # holds; merge both tokens' groups in file order.
                matched = tuple(sorted(set(matched + indices)))
        if not matched:
            return self._wildcard_rules
        groups = self._parsed.groups
        return _merged((groups[i] for i in matched), explicit=True)

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
