"""RFC 9309 robots.txt engine: parse, match, classify, lint, author.

This subpackage is the reproduction's equivalent of Google's
open-source robots.txt parser plus the classification wrapper the paper
builds on top of it (Section 3.1).  Public API:

* :func:`parse` / :class:`ParsedRobots` -- structural parsing.
* :class:`RobotsPolicy` -- per-agent allow/disallow queries; each
  :class:`Rule` compiles its pattern once, and every evaluator (this
  policy, the legacy parser, the classifier, ai.txt) matches through it.
* :func:`shared_policy_cache` -- one :class:`RobotsPolicy` per distinct
  body, content-addressed.
* :func:`classify` / :class:`RestrictionLevel` -- the paper's four
  restriction categories.
* :class:`LegacyPolicy` -- the deliberately buggy comparison parser.
* :func:`lint` -- author-mistake detection.
* :class:`RobotsBuilder` and edit helpers -- programmatic authoring.
"""

from .aitxt import AITXT_PATH, AiTxtPolicy
from .classify import (
    Classification,
    RestrictionLevel,
    classify,
    classify_rules,
)
from .compiled import CompiledPolicyCache, shared_policy_cache
from .diagnostics import Finding, Severity, has_mistakes, lint
from .legacy import LegacyPolicy, LegacyQuirks
from .lexer import Line, LineKind, tokenize
from .matcher import Rule, Verdict, evaluate, normalize_path
from .parser import Group, ParsedRobots, parse
from .policy import AgentRules, RobotsPolicy, extract_product_token
from .serialize import (
    RobotsBuilder,
    add_allow_group,
    add_disallow_group,
    agents_mentioned,
    remove_agent_rules,
)

__all__ = [
    "AITXT_PATH",
    "AiTxtPolicy",
    "Classification",
    "RestrictionLevel",
    "classify",
    "classify_rules",
    "CompiledPolicyCache",
    "shared_policy_cache",
    "Finding",
    "Severity",
    "has_mistakes",
    "lint",
    "LegacyPolicy",
    "LegacyQuirks",
    "Line",
    "LineKind",
    "tokenize",
    "Rule",
    "Verdict",
    "evaluate",
    "normalize_path",
    "Group",
    "ParsedRobots",
    "parse",
    "AgentRules",
    "RobotsPolicy",
    "extract_product_token",
    "RobotsBuilder",
    "add_allow_group",
    "add_disallow_group",
    "agents_mentioned",
    "remove_agent_rules",
]
