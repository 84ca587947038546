"""Dataset export/import: share the measured data like the paper does.

The paper publishes its data and code; a downstream user of this
reproduction needs the same affordance.  This module serializes the
three main datasets to line-oriented, diff-friendly formats:

* **Snapshot records** (the Common-Crawl-style robots.txt corpus) as
  JSONL -- one record per (snapshot, site), schema compatible with the
  analysis pipeline; loaded back by :func:`load_snapshots`.
* **Robots.txt schedules** (the per-site longitudinal ground truth) as
  JSONL.
* **Survey responses** as JSONL (answers are heterogeneous, so CSV
  would lose structure); loaded back by :func:`load_respondents`.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, TextIO, Union

from ..crawlers.commoncrawl import SiteRecord, Snapshot, SnapshotSpec
from ..survey.respondents import Respondent
from ..web.site import SimSite

__all__ = [
    "dump_snapshots",
    "load_snapshots",
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


# -- snapshots -------------------------------------------------------------------


def dump_snapshots(snapshots: Iterable[Snapshot], sink: TextIO) -> int:
    """Write snapshots as JSONL; returns the number of records written."""

    def records():
        for snapshot in snapshots:
            for domain, record in snapshot.records.items():
                yield {
                    "snapshot_id": snapshot.spec.snapshot_id,
                    "label": snapshot.spec.label,
                    "month_index": snapshot.spec.month_index,
                    "domain": domain,
                    "status": record.status,
                    "robots_txt": record.robots_txt,
                    "error": record.error,
                }

    return _write_lines(sink, records())


def load_snapshots(source: Union[TextIO, Iterable[str]]) -> List[Snapshot]:
    """Load snapshots previously written by :func:`dump_snapshots`."""
    by_id: Dict[str, Snapshot] = {}
    for line in source:
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        snapshot = by_id.get(data["snapshot_id"])
        if snapshot is None:
            spec = SnapshotSpec(
                snapshot_id=data["snapshot_id"],
                label=data["label"],
                month_index=data["month_index"],
            )
            snapshot = Snapshot(spec=spec)
            by_id[data["snapshot_id"]] = snapshot
        snapshot.records[data["domain"]] = SiteRecord(
            domain=data["domain"],
            status=data["status"],
            robots_txt=data["robots_txt"],
            error=data["error"],
        )
    return sorted(by_id.values(), key=lambda s: s.spec.month_index)


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
