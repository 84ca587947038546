"""The synthetic web: domains, rankings, sites, providers, evolution."""

from .artists import (
    SQUARESPACE_TOGGLE_RATE,
    ArtistPopulation,
    ArtistSite,
    build_artist_population,
)
from .domains import artist_domain, domain_name, domain_names
from .events import (
    AGENT_ANNOUNCED,
    DATA_DEALS,
    EU_AI_ACT,
    GPTBOT_ANNOUNCEMENT,
    MONTHS,
    DataDeal,
)
from .evolution import AGENT_BLOCK_WEIGHTS, EvolutionParams, OperatorModel
from .managed import ManagedRobotsService
from .population import PopulationConfig, WebPopulation, build_web_population
from .providers import TOP_PROVIDERS, HostingProvider, RobotsControl, provider_by_name
from .site import BlockingConfig, SimSite
from .tranco import RankingModel, stable_sites
from .worldstore import (
    WorldStore,
    config_digest,
    freeze_population,
    shared_world_store,
)

__all__ = [
    "SQUARESPACE_TOGGLE_RATE",
    "ArtistPopulation",
    "ArtistSite",
    "build_artist_population",
    "artist_domain",
    "domain_name",
    "domain_names",
    "AGENT_ANNOUNCED",
    "DATA_DEALS",
    "EU_AI_ACT",
    "GPTBOT_ANNOUNCEMENT",
    "MONTHS",
    "DataDeal",
    "AGENT_BLOCK_WEIGHTS",
    "EvolutionParams",
    "OperatorModel",
    "ManagedRobotsService",
    "PopulationConfig",
    "WebPopulation",
    "build_web_population",
    "TOP_PROVIDERS",
    "HostingProvider",
    "RobotsControl",
    "provider_by_name",
    "BlockingConfig",
    "SimSite",
    "RankingModel",
    "stable_sites",
    "WorldStore",
    "config_digest",
    "freeze_population",
    "shared_world_store",
]
