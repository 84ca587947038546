"""Crawlers: engine, behavior profiles, the Table 1 fleet, assistants,
and the Common-Crawl-style snapshotter."""

from .assistant import (
    GptApp,
    GptAppStore,
    ThirdPartyService,
    build_app_store,
    build_third_party_services,
)
from .commoncrawl import (
    CCBOT_UA,
    SNAPSHOT_SPECS,
    SiteRecord,
    Snapshot,
    SnapshotCrawler,
    SnapshotSpec,
    month_label,
)
from .engine import Crawler, CrawlResult
from .fleet import (
    FACEBOOK_EXTERNAL_HIT_UA,
    PASSIVE_VISITORS,
    FleetMember,
    build_builtin_assistants,
    build_fleet,
)
from .profiles import CrawlerProfile, RobotsBehavior
from .scheduler import CrawlScheduler, CrawlTask, SchedulerReport

__all__ = [
    "GptApp",
    "GptAppStore",
    "ThirdPartyService",
    "build_app_store",
    "build_third_party_services",
    "CCBOT_UA",
    "SNAPSHOT_SPECS",
    "SiteRecord",
    "Snapshot",
    "SnapshotCrawler",
    "SnapshotSpec",
    "month_label",
    "Crawler",
    "CrawlResult",
    "FACEBOOK_EXTERNAL_HIT_UA",
    "PASSIVE_VISITORS",
    "FleetMember",
    "build_builtin_assistants",
    "build_fleet",
    "CrawlerProfile",
    "RobotsBehavior",
    "CrawlScheduler",
    "CrawlTask",
    "SchedulerReport",
]
