"""Dataset export/import: share the measured data like the paper does.

The paper publishes its data and code; a downstream user of this
reproduction needs the same affordance.  The snapshot corpus (the
Common-Crawl-style robots.txt records) is exported as the columnar
shard archive (:func:`repro.measure.longitudinal.collect_shard_archives`,
reopened with :class:`repro.web.archive.ArchiveSet`).  This module
serializes the other two datasets to line-oriented, diff-friendly
JSONL:

* **Robots.txt schedules** (the per-site longitudinal ground truth).
* **Survey responses** (answers are heterogeneous, so CSV would lose
  structure); loaded back by :func:`load_respondents`.
"""

from __future__ import annotations

import json
from typing import Iterable, List, TextIO, Union

from ..survey.respondents import Respondent
from ..web.site import SimSite

__all__ = [
    "dump_schedules",
    "dump_respondents",
    "load_respondents",
]


def _write_lines(sink: TextIO, records: Iterable[dict]) -> int:
    count = 0
    for record in records:
        sink.write(json.dumps(record, sort_keys=True) + "\n")
        count += 1
    return count


# -- robots.txt schedules ----------------------------------------------------------


def dump_schedules(sites: Iterable[SimSite], sink: TextIO) -> int:
    """Write per-site robots.txt schedules as JSONL."""

    def records():
        for site in sites:
            yield {
                "domain": site.domain,
                "rank": site.rank,
                "tier": site.tier,
                "category": site.category,
                "publisher": site.publisher,
                "missing_months": sorted(site.missing_months),
                "schedule": [
                    {"month": month, "robots_txt": text}
                    for month, text in site.robots_schedule
                ],
            }

    return _write_lines(sink, records())


# -- survey respondents -------------------------------------------------------------


def dump_respondents(respondents: Iterable[Respondent], sink: TextIO) -> int:
    """Write survey responses as JSONL (tuples become lists)."""

    def encode(value):
        if isinstance(value, tuple):
            return list(value)
        return value

    def records():
        for r in respondents:
            yield {
                "rid": r.rid,
                "completion_minutes": r.completion_minutes,
                "answers": {k: encode(v) for k, v in r.answers.items()},
            }

    return _write_lines(sink, records())


def load_respondents(source: Union[TextIO, Iterable[str]]) -> List[Respondent]:
    """Load responses written by :func:`dump_respondents`.

    Multi-choice answers come back as lists; the analysis pipeline
    accepts any iterable, so no conversion is needed.
    """
    out: List[Respondent] = []
    for line in source:
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        out.append(
            Respondent(
                rid=data["rid"],
                answers=data["answers"],
                completion_minutes=data["completion_minutes"],
            )
        )
    return out
