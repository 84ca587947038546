"""repro: reproduction of "Somesite I Used To Crawl" (IMC 2025).

A complete, self-contained model of the paper's measurement setting --
an RFC 9309 robots.txt engine, an HTTP substrate with in-memory and
real-socket transports, the Table 1 AI crawler fleet, reverse-proxy
active blocking (including a Cloudflare simulation), a synthetic web
population whose robots.txt files evolve over October 2022-October
2024, the artist hosting ecosystem, and the artist survey -- plus the
measurement pipelines that regenerate every table and figure in the
paper's evaluation.

Quick start (the packages re-export nothing; import from the module
that defines a name)::

    from repro.core.policy import RobotsPolicy
    policy = RobotsPolicy("User-agent: GPTBot\\nDisallow: /")
    policy.is_allowed("GPTBot", "/art/")        # False

    from repro.report.experiments import run_table1_compliance
    print(run_table1_compliance().text)

Subpackages: ``core`` (robots.txt engine), ``agents`` (UA registry),
``net`` (HTTP substrate), ``proxy`` (active blocking), ``crawlers``
(crawl engine + fleet), ``web`` (synthetic web), ``measure``
(methodology pipelines), ``survey`` (user study), ``report``
(experiment runners and rendering).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
