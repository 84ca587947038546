"""Per-domain record cells of an archive or a crawled series.

A cell is what the archive stores per ``(spec, domain)``: the HTTP
status and the robots body (None when there is none).  Comparing an
archive's cells with a series' cells shows that a sharded crawl stored
what an unsharded one crawled, without rebuilding ``Snapshot`` objects.
"""

from typing import Dict, List, Optional, Tuple

Cell = Tuple[int, Optional[str]]


def archive_cells(archive) -> Dict[str, List[Cell]]:
    """``{domain: [cell per spec]}`` read through each shard's columns,
    with domains in global rank order."""
    rows = []
    for reader in archive.readers:
        columns = [
            (reader.statuses(spec_index), reader.body_refs(spec_index))
            for spec_index in range(len(reader.specs))
        ]
        for row, domain in enumerate(reader.domains):
            cells = [
                (statuses[row], reader.body_text(refs[row]) if refs[row] >= 0 else None)
                for statuses, refs in columns
            ]
            rows.append((reader.ranks[row], domain, cells))
    rows.sort()
    return {domain: cells for _, domain, cells in rows}


def series_cells(snapshots) -> Dict[str, List[Cell]]:
    """The same cells from crawled snapshots, in their record order."""
    cells: Dict[str, List[Cell]] = {}
    for snapshot in snapshots:
        for domain, record in snapshot.records.items():
            cells.setdefault(domain, []).append((record.status, record.robots_txt))
    return cells
