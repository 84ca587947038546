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

Each merged rule set (:class:`AgentRules`) also answers *how restricted
is X*: its :class:`RestrictionLevel` and Section 3.4's explicit allow,
computed once per distinct rule set.  :mod:`repro.core.classify` builds
the paper's per-site classification on those answers.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..util import computed_once
from .matcher import Rule, Verdict, evaluate, normalize_path
from .parser import Group, ParsedRobots, parse

__all__ = [
    "AgentRules",
    "RestrictionLevel",
    "RobotsPolicy",
    "classify_rules",
    "extract_product_token",
    "naming_tokens",
]

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


def naming_tokens(user_agent: str) -> Iterator[str]:
    """Every lowercased group token that names *user_agent*, shortest
    first, each once: every non-empty prefix of its product token, then
    the whole stripped string unless it was one of those.

    The whole string covers agent names with characters outside the
    product-token alphabet ("Kangaroo Bot", "ICC Crawler").  A UA whose
    product token is empty (a leading space) is its own token.  A
    generator rather than a tuple: CPython keeps up to 2,000 finished
    tuples of each small size on a free list, so a tuple per resolution
    would leave a few hundred KiB parked there after a sweep of rows.

    >>> list(naming_tokens("CCBot/2.0"))
    ['c', 'cc', 'ccb', 'ccbo', 'ccbot', 'ccbot/2.0']
    """
    token = (extract_product_token(user_agent) or user_agent).lower()
    for end in range(1, len(token) + 1):
        yield token[:end]
    full = user_agent.strip().lower()
    if not (full and token.startswith(full)):
        yield full


class RestrictionLevel(enum.IntEnum):
    """How restricted a crawler is by a site's robots.txt.

    Ordering is meaningful: higher values are more restrictive, so
    aggregations can use ``max`` across agents.
    """

    NO_ROBOTS = 0
    NO_RESTRICTIONS = 1
    PARTIAL = 2
    FULL = 3

    @property
    def disallows(self) -> bool:
        """Whether this level reflects any disallowing at all."""
        return self in (RestrictionLevel.PARTIAL, RestrictionLevel.FULL)


def _rules_disallow_everything(rules: Iterable[Rule]) -> bool:
    """Whether the merged rule set denies every possible path.

    A rule set is fully-disallowing when a disallow rule matches the
    root ``/`` with a pattern that matches *all* paths (``/``, ``*`` or a
    pure-wildcard variant), and no allow rule can ever beat it.  An
    allow rule beats the blanket disallow on the paths it matches when
    its priority is greater than or equal to the disallow's priority
    (ties go to allow).
    """
    rules = list(rules)
    blanket_priority: Optional[int] = None
    for rule in rules:
        if rule.allow or rule.is_empty:
            continue
        stripped = rule.path.rstrip("*")
        if stripped in ("", "/"):
            priority = rule.pattern.priority
            if blanket_priority is None or priority > blanket_priority:
                blanket_priority = priority
    if blanket_priority is None:
        return False
    for rule in rules:
        if not rule.allow or rule.is_empty:
            continue
        if rule.pattern.priority >= blanket_priority:
            return False
    return True


def _witness_path(rule: Rule) -> Optional[str]:
    """A concrete path *rule*'s pattern matches, or None when unmatchable.

    Built by anchoring off the ``$`` terminator and replacing each ``*``
    with a literal character.  Patterns that do not start with ``/`` (or
    a wildcard that can absorb the leading slash) never match any
    normalized request path and yield None.
    """
    pattern = rule.path
    body = pattern[:-1] if pattern.endswith("$") else pattern
    witness = body.replace("*", "x")
    if not witness:
        return None
    if not witness.startswith("/"):
        if body.startswith("*"):
            witness = "/" + body[1:].replace("*", "x")
        else:
            return None
    if not rule.pattern.matches(normalize_path(witness)):
        return None
    return witness


def classify_rules(rules: Iterable[Rule]) -> RestrictionLevel:
    """Classify a merged rule set into a restriction level.

    A set is ``FULL`` when a blanket disallow covers every path and no
    allow rule can ever beat it; it is ``PARTIAL`` when at least one
    disallow rule *wins* somewhere, established by evaluating a witness
    path derived from the rule's own pattern.  (The witness construction
    is a heuristic: a pathological allow rule could match the chosen
    witness yet miss other paths the disallow covers.  No such file
    occurs in this study's corpora.)

    >>> classify_rules([Rule(allow=False, path="/")])
    <RestrictionLevel.FULL: 3>
    >>> classify_rules([])
    <RestrictionLevel.NO_RESTRICTIONS: 1>
    """
    effective = [r for r in rules if not r.is_empty]
    disallows = [r for r in effective if not r.allow]
    if not disallows:
        return RestrictionLevel.NO_RESTRICTIONS
    if _rules_disallow_everything(effective):
        return RestrictionLevel.FULL
    for rule in disallows:
        witness = _witness_path(rule)
        if witness is not None and not evaluate(effective, witness).allowed:
            return RestrictionLevel.PARTIAL
    return RestrictionLevel.NO_RESTRICTIONS


@dataclass(frozen=True)
class AgentRules:
    """The merged rule set that applies to one crawler.

    A policy hands out one object per distinct set of matched groups,
    so every agent those groups govern shares it, and its :attr:`level`
    and :attr:`explicit_allow` are computed once, on first use.

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

    @computed_once
    def level(self) -> RestrictionLevel:
        """:func:`classify_rules` of :attr:`rules`."""
        return classify_rules(self.rules)

    @computed_once
    def explicit_allow(self) -> bool:
        """Section 3.4's reverse intent: the rules come from a group
        naming the agent, an ``Allow`` rule covers the root, and nothing
        is disallowed anywhere."""
        return (
            self.explicit
            and any(
                rule.allow and rule.pattern is not None and rule.pattern.matches("/")
                for rule in self.rules
            )
            and self.level is RestrictionLevel.NO_RESTRICTIONS
        )


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
    probes that index with its :func:`naming_tokens` only.  Every agent
    that resolves to the same groups shares one :class:`AgentRules` (all
    agents no group names share :attr:`wildcard_rules`), so a rule set
    is merged and classified once however many agents it governs.
    :meth:`rules_for` is memoized and each rule compiles its pattern
    once, so repeated queries only normalize the request path.

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
        # One answer per distinct set of matched group indices; no match
        # at all is the empty set, whose answer is the merged wildcard.
        self._rules_by_groups: Dict[Tuple[int, ...], AgentRules] = {
            (): _merged(self._parsed.wildcard_groups(), explicit=False)
        }
        self._agent_rules: Dict[str, AgentRules] = {}

    @property
    def parsed(self) -> ParsedRobots:
        """The underlying parse result."""
        return self._parsed

    def named_agents(self) -> List[str]:
        """Every agent token named in the file, lowercased."""
        return self._parsed.named_agents()

    @property
    def wildcard_rules(self) -> AgentRules:
        """The merged ``User-agent: *`` rules: the answer for every agent
        no group names (empty when the file has no wildcard group)."""
        return self._rules_by_groups[()]

    def rules_for(self, user_agent: str) -> AgentRules:
        """Merged rules applying to *user_agent* (full string or token).

        Specific (non-wildcard) matching groups shadow wildcard groups
        entirely; among specific groups, only those with the *longest*
        matching token apply (the RFC's most-specific-match rule), and
        multiple groups with that token are merged.  Memoized per
        *user_agent*; agents that match the same groups get the same
        object, and every agent no group names gets
        :attr:`wildcard_rules`.
        """
        cached = self._agent_rules.get(user_agent)
        if cached is None:
            cached = self._agent_rules[user_agent] = self._resolve(user_agent)
        return cached

    def _resolve(self, user_agent: str) -> AgentRules:
        best_len = -1
        matched: Tuple[int, ...] = ()
        for token in naming_tokens(user_agent):
            indices = self._groups_by_token.get(token)
            if indices is None:
                continue
            # A group may list several tokens that match this crawler
            # (e.g. "foo" and "foobot"); its specificity is the longest.
            if len(token) > best_len:
                best_len = len(token)
                matched = indices
            elif len(token) == best_len:
                # Two distinct tokens of one length match only when a
                # token starts with whitespace, which a parsed file never
                # holds; merge both tokens' groups in file order.
                matched = tuple(sorted(set(matched + indices)))
        rules = self._rules_by_groups.get(matched)
        if rules is None:
            groups = self._parsed.groups
            rules = self._rules_by_groups[matched] = _merged(
                (groups[i] for i in matched), explicit=True
            )
        return rules

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
