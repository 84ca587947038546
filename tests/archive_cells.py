"""Per-domain record cells of a shard source.

A cell is what a shard stores per ``(spec, domain)``: the HTTP status
and the robots body (None when there is none).  One column walk reads
them from an open archive's shards or from a series' one in-memory
shard, so an archive can be compared with the series an unsharded crawl
filled, cell for cell.
"""

from typing import Dict, List, Optional, Tuple

Cell = Tuple[int, Optional[str]]


def shards_of(source) -> list:
    """The shards of an open archive, or a series' one shard."""
    readers = getattr(source, "readers", None)
    return readers if readers is not None else [source.shard]


def archive_cells(source) -> Dict[str, List[Cell]]:
    """``{domain: [cell per spec]}`` read through each shard's columns,
    with domains in global rank order."""
    rows = []
    for reader in shards_of(source):
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
