"""User-agent catalogs used by providers and blocking services.

This module records the concrete user-agent lists the paper documents:

* :data:`SQUARESPACE_BLOCKED_AGENTS` -- the ten agents Squarespace's
  "Artificial Intelligence Crawlers" toggle disallows (Appendix C.1).
* :data:`CLOUDFLARE_AI_BOTS_BLOCKED` -- the seventeen user agents
  Cloudflare's "Block AI Scrapers and Crawlers" option blocks
  (Appendix C.3; entries ending in ``/`` are prefix patterns).
* :data:`CLOUDFLARE_DEFINITELY_AUTOMATED` -- the automation tools the
  "Definitely Automated" managed ruleset blocks (Appendix C.2).
* :data:`CLOUDFLARE_VERIFIED_BOTS` -- crawlers Cloudflare verifies by
  IP; spoofed requests claiming these UAs from wrong IPs are blocked.
* :data:`CARBONMADE_DEFAULT_BLOCKED` -- agents Carbonmade's default
  robots.txt disallows (Section 4.4).
* :func:`generic_crawler_user_agents` -- a stand-in of
  :data:`N_GENERIC_CRAWLERS` (590) entries for the public
  crawler-user-agents list [79] used to probe Cloudflare's coverage.
"""

from __future__ import annotations

from typing import List

__all__ = [
    "SQUARESPACE_BLOCKED_AGENTS",
    "CLOUDFLARE_AI_BOTS_BLOCKED",
    "CLOUDFLARE_DEFINITELY_AUTOMATED",
    "CLOUDFLARE_VERIFIED_BOTS",
    "CLOUDFLARE_VERIFIED_AI_BOTS_BLOCKED",
    "CARBONMADE_DEFAULT_BLOCKED",
    "N_GENERIC_CRAWLERS",
    "generic_crawler_user_agents",
]

#: Appendix C.1: Squarespace's AI-crawler toggle adds a Disallow: / group
#: for exactly these user agents.
SQUARESPACE_BLOCKED_AGENTS = [
    "GPTBot",
    "ChatGPT-User",
    "CCBot",
    "anthropic-ai",
    "Google-Extended",
    "FacebookBot",
    "Claude-Web",
    "cohere-ai",
    "PerplexityBot",
    "Applebot-Extended",
]

#: Appendix C.3: UA *patterns* blocked by Cloudflare's "Block AI Scrapers
#: and Crawlers".  A trailing "/" means the pattern matches the product
#: token plus version separator (e.g. "GPTBot/" matches "GPTBot/1.1").
CLOUDFLARE_AI_BOTS_BLOCKED = [
    "Amazonbot",
    "AwarioRssBot",
    "AwarioSmartBot",
    "Bytespider",
    "CCBot/",
    "ChatGPT-User",
    "Claude-Web",
    "ClaudeBot",
    "cohere-ai",
    "Diffbot/",
    "GPTBot/",
    "magpie-crawler",
    "MeltwaterNews",
    "omgili/",
    "PerplexityBot",
    "PiplBot",
    "YouBot",
]

#: Appendix C.2: the "Definitely Automated" managed ruleset.
CLOUDFLARE_DEFINITELY_AUTOMATED = [
    "360Spider",
    "AHC",
    "aiohttp",
    "anthropic-ai",
    "Apache-HttpClient",
    "axios",
    "binlar",
    "Bytespider",
    "CCBot",
    "centurybot",
    "Claudebot",
    "curl",
    "Diffbot",
    "Go-http-client",
    "grub.org",
    "HeadlessChrome",
    "httpx",
    "libwww-perl",
    "magpie-crawler",
    "MeltwaterNews",
    "node-fetch",
    "Nutch",
    "omgili",
    "PerplexityBot",
    "PhantomJS",
    "PHP-Curl-Class",
    "PiplBot",
    "python-requests",
    "Python-urllib",
    "Scrapy",
    "serpstatbot",
    "Teoma",
    "W3C-checklink",
]

#: Cloudflare verified bots relevant to the Section 6.3 audit: these are
#: validated by source IP, so a spoofed UA from an unexpected address is
#: blocked regardless of managed-rule settings.
CLOUDFLARE_VERIFIED_BOTS = [
    "Amazonbot",
    "Applebot",
    "GPTBot",
    "OAI-SearchBot",
    "ChatGPT-User",
    "ICC Crawler",
    "DuckAssistbot",
    "Googlebot",
    "Bingbot",
    "CCBot",
]

#: The subset of verified bots that the Block AI Bots feature actually
#: blocks (footnote 8: Applebot, OAI-SearchBot, ICC Crawler, and
#: DuckAssistbot are verified but NOT blocked).
CLOUDFLARE_VERIFIED_AI_BOTS_BLOCKED = [
    "Amazonbot",
    "GPTBot",
    "ChatGPT-User",
    "CCBot",
]

#: Carbonmade's default robots.txt disallows these AI crawlers
#: (Section 4.4: "only Carbonmade disallows AI crawlers (GPTBot and
#: CCBot) in their default robots.txt file").
CARBONMADE_DEFAULT_BLOCKED = ["GPTBot", "CCBot"]

#: Families used to synthesize the public crawler-UA list stand-in.
_GENERIC_FAMILIES = [
    "{name}Bot/{major}.{minor}",
    "Mozilla/5.0 (compatible; {name}bot/{major}.{minor}; +https://{name}.example/bot)",
    "{name}-crawler/{major}.{minor}",
    "{name}spider/{major}.{minor} (+http://crawl.{name}.example)",
    "{name}fetch/{major}.{minor}",
]

_GENERIC_NAMES = [
    "acme", "aardvark", "beacon", "bluejay", "cedar", "cinder", "dune",
    "ember", "falcon", "garnet", "harbor", "iris", "juniper", "krill",
    "lumen", "maple", "nimbus", "onyx", "prairie", "quartz", "raven",
    "sable", "tundra", "umbra", "vortex", "willow", "xenon", "yarrow",
    "zephyr", "basalt", "cobalt", "drift", "echo", "flint", "glade",
    "hollow", "ingot", "jasper", "kelp", "larch", "mesa", "nectar",
    "opal", "pine", "quill", "ridge", "slate", "thorn", "ursa", "vale",
    "wren", "yew", "zinc", "amber", "birch", "coral", "delta", "elm",
    "fern", "grove", "heath", "inlet", "jade", "knoll", "loch", "moss",
    "nook", "orchid", "pond", "quince", "reef", "shoal", "tarn", "vine",
    "wharf", "yucca", "zest", "alder", "briar", "cliff", "dell", "eyrie",
    "fjord", "gorge", "holt", "isle", "jetty", "kame", "lagoon", "marsh",
    "ness", "oxbow", "plateau", "quarry", "rill", "scree", "trail",
    "upland", "verge", "wold", "yonder", "zenith", "arbor", "bight",
    "combe", "downs", "esker", "frith", "ghyll", "haven", "inglenook",
    "jumble", "karst", "levee", "moor", "notch", "outcrop", "pass",
]


#: Entries in the crawler-user-agents list [79] the paper probes
#: Cloudflare's UA coverage with (Section 6.3).
N_GENERIC_CRAWLERS = 590


def generic_crawler_user_agents() -> List[str]:
    """Synthesize :data:`N_GENERIC_CRAWLERS` distinct full crawler
    user-agent strings.

    Stand-in for the monperrus/crawler-user-agents list [79] the paper
    uses to probe Cloudflare's UA coverage.  Deterministic: every call
    yields the same list.
    """
    out: List[str] = []
    for index in range(N_GENERIC_CRAWLERS):
        name = _GENERIC_NAMES[index % len(_GENERIC_NAMES)]
        family = _GENERIC_FAMILIES[(index // len(_GENERIC_NAMES)) % len(_GENERIC_FAMILIES)]
        major = 1 + (index % 9)
        minor = index % 10
        serial = index // (len(_GENERIC_NAMES) * len(_GENERIC_FAMILIES))
        suffix = f"-{serial}" if serial else ""
        out.append(family.format(name=name + suffix, major=major, minor=minor))
    return out
