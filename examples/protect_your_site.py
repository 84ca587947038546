"""An artist's options for keeping AI crawlers out -- and their limits.

Run with::

    python examples/protect_your_site.py

Walks the defensive ladder the paper evaluates, verifying each rung by
actually sending crawler traffic at a simulated portfolio site:

1. nothing (every crawler gets everything),
2. robots.txt (polite crawlers stop; Bytespider does not),
3. hosting-provider toggles (the Squarespace single click),
4. active blocking via a Cloudflare-style proxy (Bytespider stops too,
   but dual-purpose and unlisted crawlers remain).
"""

from repro.agents.catalogs import SQUARESPACE_BLOCKED_AGENTS
from repro.core.serialize import RobotsBuilder, add_disallow_group
from repro.crawlers.engine import Crawler
from repro.crawlers.profiles import CrawlerProfile
from repro.net.server import Website, render_page
from repro.net.transport import Network
from repro.proxy.cloudflare import CloudflareProxy, CloudflareSettings
from repro.web.providers import provider_by_name


def portfolio() -> Website:
    site = Website("artist.example")
    site.add_page("/", render_page("Portfolio", links=["/gallery"]))
    site.add_page("/gallery", render_page("Gallery", images=["/img/piece.png"]))
    return site


def crawl_and_report(network: Network, label: str) -> None:
    bots = {
        "GPTBot": CrawlerProfile.respectful("GPTBot"),
        "CCBot": CrawlerProfile.respectful("CCBot"),
        "Bytespider": CrawlerProfile.defiant("Bytespider", "Bytespider"),
        "Googlebot": CrawlerProfile.respectful("Googlebot"),
    }
    print(f"\n-- {label} --")
    for name, profile in bots.items():
        result = Crawler(profile, network).crawl("artist.example")
        pages = sum(
            1
            for path, status in result.fetched
            if status == 200 and not path.startswith("/robots.txt")
        )
        blocked = sum(1 for _, status in result.fetched if status == 403)
        note = f"{pages} pages scraped"
        if blocked:
            note += f" ({blocked} requests actively blocked)"
        if result.skipped:
            note += f"; {len(result.skipped)} paths skipped per robots.txt"
        print(f"  {name:10s}: {note}")


def main() -> None:
    # Rung 1: nothing.
    network = Network()
    network.register(portfolio())
    crawl_and_report(network, "rung 1: no protection")

    # Rung 2: hand-written robots.txt for the big AI crawlers.
    network = Network()
    site = portfolio()
    robots = RobotsBuilder().group("*").disallow("/drafts/").build()
    robots = add_disallow_group(robots, ["GPTBot", "CCBot", "Bytespider"])
    site.set_robots_txt(robots)
    network.register(site)
    crawl_and_report(network, "rung 2: robots.txt (voluntary)")

    # Rung 3: the hosting-provider toggle (Squarespace, Appendix C.1).
    network = Network()
    site = portfolio()
    squarespace = provider_by_name("Squarespace")
    site.set_robots_txt(squarespace.default_robots_txt(ai_toggle_on=True))
    network.register(site)
    print(f"\n(Squarespace toggle disallows: {', '.join(SQUARESPACE_BLOCKED_AGENTS)})")
    crawl_and_report(network, "rung 3: provider AI toggle")

    # Rung 4: active blocking -- Cloudflare Block AI Bots.
    network = Network()
    site = portfolio()
    site.set_robots_txt(squarespace.default_robots_txt(ai_toggle_on=True))
    network.register(
        CloudflareProxy(site, CloudflareSettings(block_ai_bots=True)),
        host="artist.example",
    )
    crawl_and_report(network, "rung 4: robots.txt + Cloudflare Block AI Bots")

    print(
        "\nTakeaway: robots.txt stops compliant crawlers only; the provider\n"
        "toggle is robots.txt underneath (Bytespider is not even listed);\n"
        "active blocking finally stops Bytespider, while Googlebot -- a\n"
        "dual-purpose crawler -- is still allowed through, which is why\n"
        "Google-Extended must be expressed in robots.txt (Section 6.2)."
    )


if __name__ == "__main__":
    main()
