"""Quickstart: the robots.txt engine and a polite crawler over real TCP.

Run with::

    python examples/quickstart.py

Demonstrates the core public API in five minutes:

1. parse and query a robots.txt file (RFC 9309 semantics),
2. classify restriction levels the way the paper does,
3. author and surgically edit robots.txt files,
4. serve a website on a real localhost socket and watch a compliant
   and a defiant crawler behave differently in its access log.
"""

from repro.core.classify import classify
from repro.core.policy import RestrictionLevel, RobotsPolicy
from repro.core.serialize import RobotsBuilder, add_disallow_group, remove_agent_rules
from repro.crawlers.engine import Crawler
from repro.crawlers.profiles import CrawlerProfile
from repro.net.realserver import RealHttpServer, fetch_real
from repro.net.server import Website, render_page
from repro.net.transport import Network


def robots_basics() -> None:
    print("== 1. Parsing and querying ==")
    policy = RobotsPolicy(
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
    for agent, path in [
        ("Googlebot", "/secret/page"),
        ("GPTBot", "/art/gallery"),
        ("Bingbot", "/art/gallery"),
        ("Bingbot", "/secret/page"),
    ]:
        verdict = "allowed" if policy.is_allowed(agent, path) else "DISALLOWED"
        print(f"  {agent:12s} {path:16s} -> {verdict}")


def classification() -> None:
    print("\n== 2. Restriction classification (Section 3.1) ==")
    samples = {
        "no robots.txt": None,
        "wildcard only": "User-agent: *\nDisallow: /\n",
        "explicit partial": "User-agent: GPTBot\nDisallow: /images/\n",
        "explicit full": "User-agent: GPTBot\nDisallow: /\n",
    }
    for label, text in samples.items():
        level = classify(text, "GPTBot").level
        print(f"  {label:18s} -> {level.name}")
    assert classify(samples["explicit full"], "GPTBot").level is RestrictionLevel.FULL


def authoring() -> None:
    print("\n== 3. Authoring and editing ==")
    text = (
        RobotsBuilder()
        .comment("my portfolio site")
        .group("*")
        .disallow("/drafts/")
        .sitemap("https://example.com/sitemap.xml")
        .build()
    )
    text = add_disallow_group(text, ["GPTBot", "CCBot", "anthropic-ai"])
    print("  after blocking AI crawlers:")
    print("    " + "\n    ".join(text.strip().splitlines()))
    text = remove_agent_rules(text, ["GPTBot"])  # a "data deal"
    print("  GPTBot group removed (deal struck); CCBot still blocked:",
          classify(text, "CCBot").level.name)


def live_crawl() -> None:
    print("\n== 4. Crawlers over a real localhost socket ==")
    site = Website("studio.example")
    site.add_page("/", render_page("Art studio", links=["/gallery", "/about"]))
    site.add_page("/gallery", render_page("Gallery"))
    site.add_page("/about", render_page("About"))
    site.set_robots_txt("User-agent: *\nDisallow: /\n")

    with RealHttpServer(site) as server:
        response = fetch_real(f"http://{server.address}/robots.txt")
        print(f"  robots.txt over TCP ({server.address}): {response.status}")

    network = Network()
    network.register(site)
    polite = Crawler(CrawlerProfile.respectful("GoodBot"), network)
    rogue = Crawler(CrawlerProfile.defiant("Bytespider", "Bytespider"), network)
    polite.crawl("studio.example")
    rogue.crawl("studio.example")

    print("  access log (UA -> robots fetched / content pages fetched):")
    for token in ("GoodBot", "Bytespider"):
        log = site.access_log
        print(
            f"    {token:10s} -> robots={log.fetched_robots(token)} "
            f"content={len(log.content_paths(token))} pages"
        )


if __name__ == "__main__":
    robots_basics()
    classification()
    authoring()
    live_crawl()
    print("\nquickstart complete")
