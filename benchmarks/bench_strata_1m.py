"""Benchmark: a cold top-1m stratum, pinned to its result texts.

``run_strata(["top-1m"])`` over a fresh archive dir builds the 10x
world, crawls it into a sharded columnar archive and aggregates the
Figure 2-4 and Table 3 texts shard by shard.  A cold run is too slow
for the tier-1 suite, so this bench pins what it produces: the SHA-256
of the four result texts, concatenated in ``RunReport.results`` order,
must equal :data:`TOP_1M_DIGEST`.  Any speed change to the world build,
the crawl or the aggregation must keep it.

The digest does not depend on ``PYTHONHASHSEED`` (checked at 42 and
123).  Wall time and the process's peak resident set (``VmHWM``) land
in ``BENCH_RESULTS.json`` through ``record_timing``, and the peak must
stay within :data:`PEAK_RSS_BOUND_MB`, top-1m's memory target.
"""

import hashlib
import time

from repro.report.orchestrator import run_strata
from repro.web.worldstore import WorldStore

#: SHA-256 of ``figure2@top-1m`` .. ``table3@top-1m`` texts, joined.
TOP_1M_DIGEST = "95e8b16fb59a21d5eddc2fc86f7a521f25d6de9cbce4e23726abce6d96bc152a"

#: The most a cold top-1m run may hold resident (``VmHWM``, MB).  The
#: peak is the process's, so benches run before this one count too.
PEAK_RSS_BOUND_MB = 160.0


def _peak_rss_mb() -> float:
    """This process's peak resident set in MB, 0.0 where unreadable."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def test_top_1m_texts_match_pin(tmp_path, record_timing):
    start = time.perf_counter()
    report = run_strata(
        ["top-1m"], workers=1, archive_dir=tmp_path, store=WorldStore()
    )
    seconds = time.perf_counter() - start
    record_timing("bench_strata_1m::cold_seconds", seconds)
    peak_mb = _peak_rss_mb()
    record_timing("bench_strata_1m::peak_rss_mb", peak_mb)

    joined = "".join(result.text for result in report.results)
    digest = hashlib.sha256(joined.encode("utf-8")).hexdigest()
    ids = [result.experiment_id for result in report.results]
    assert len(ids) == 4 and all(i.endswith("@top-1m") for i in ids), ids
    assert digest == TOP_1M_DIGEST, f"top-1m texts changed: {digest}"
    assert peak_mb <= PEAK_RSS_BOUND_MB, (
        f"top-1m peaked at {peak_mb:.1f} MB, above {PEAK_RSS_BOUND_MB:.0f} MB"
    )
