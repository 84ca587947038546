"""Micro-benchmarks of the robots.txt engine itself.

These run as proper pytest-benchmark loops (many iterations), providing
throughput numbers for the building blocks every experiment leans on:
parsing, policy queries, and restriction classification.
"""

from repro.core.classify import classify
from repro.core.parser import parse
from repro.core.policy import RobotsPolicy

REPRESENTATIVE = (
    "# typical production robots.txt\n"
    "User-agent: *\n"
    "Disallow: /admin/\n"
    "Disallow: /cgi-bin/\n"
    "Allow: /admin/public/\n"
    "\n"
    "User-agent: GPTBot\n"
    "User-agent: ChatGPT-User\n"
    "User-agent: CCBot\n"
    "Disallow: /\n"
    "\n"
    "User-agent: AhrefsBot\n"
    "Crawl-delay: 5\n"
    "Disallow: /\n"
    "\n"
    "Sitemap: https://example.com/sitemap.xml\n"
)


def test_parse_throughput(benchmark):
    parsed = benchmark(parse, REPRESENTATIVE)
    assert len(parsed.groups) == 3


def test_policy_query_throughput(benchmark):
    policy = RobotsPolicy(REPRESENTATIVE)
    allowed = benchmark(policy.is_allowed, "GPTBot", "/images/art.png")
    assert allowed is False


def test_classify_throughput(benchmark):
    policy = RobotsPolicy(REPRESENTATIVE)
    result = benchmark(classify, policy, "GPTBot")
    assert result.level.name == "FULL"


def test_wildcard_path_matching_throughput(benchmark):
    from repro.core.matcher import compile_pattern, normalize_path

    def match(pattern, path):
        return compile_pattern(pattern).matches(normalize_path(path))

    hit = benchmark(match, "/fish*heads/*.php$", "/fish-and-heads/deep/file.php")
    assert hit is True
