"""RFC 9309 robots.txt engine: parse, match, classify, lint, author.

This subpackage is the reproduction's equivalent of Google's
open-source robots.txt parser plus the classification wrapper the paper
builds on top of it (Section 3.1).  Import the submodules directly;
this package re-exports nothing, so importing one of them loads only
what it needs:

* :func:`~repro.core.parser.parse` /
  :class:`~repro.core.parser.ParsedRobots` -- structural parsing.
* :class:`~repro.core.policy.RobotsPolicy` -- per-agent allow/disallow
  queries; each :class:`~repro.core.matcher.Rule` compiles its pattern
  once, and every evaluator (this policy, the legacy parser, the
  classifier, ai.txt) matches through it.
* :func:`~repro.core.compiled.shared_policy_cache` -- one
  :class:`~repro.core.policy.RobotsPolicy` per distinct body,
  content-addressed.
* :func:`~repro.core.classify.classify` /
  :class:`~repro.core.policy.RestrictionLevel` -- the paper's four
  restriction categories.
* :class:`~repro.core.legacy.LegacyPolicy` -- the deliberately buggy
  comparison parser.
* :func:`~repro.core.diagnostics.lint` -- author-mistake detection.
* :class:`~repro.core.serialize.RobotsBuilder` and edit helpers --
  programmatic authoring.
"""
