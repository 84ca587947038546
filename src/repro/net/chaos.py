"""Deterministic fault-injection campaigns over the in-memory network.

The paper's measurement pipelines run against a flaky, adversarial Web:
Common Crawl records fetch errors per site (Appendix B.1), and the
Section 6 active-blocking differential must distinguish deliberate
blocks from transient transport failures.  :class:`FaultPlan` turns
that adversity into a *reproducible campaign*: a seeded set of
:class:`FaultRule` entries -- connection resets and refusals, injected
latency, outage windows on the simulated-month clock, truncated or
garbage robots.txt bodies -- that fires deterministically on every
:class:`~repro.net.transport.Network` built while it is armed.

Determinism contract:

* Which hosts a rule affects is a pure function of
  ``(seed, plan name, rule index, host)`` -- a SHA-256 hash fraction
  compared against the rule's ``rate``.  No RNG state is shared across
  networks, so parallel snapshot collection (one network per snapshot)
  sees exactly the same faults for any worker count.
* *When* a fault fires is governed by per-``(rule, host)`` counters
  local to one controller (one network): ``max_per_host=1`` models a
  transient failure that heals on retry, ``months=(a, b)`` models an
  outage window tied to the simulated-month clock the rest of the
  telemetry stack already uses.

Injected transport errors surface through the exact error counters
``repro.obs`` already exports (``net.errors{kind=...}``), plus
campaign-side ``chaos.faults{kind=...}`` counters and a ``chaos.faults``
time series on the month clock.

Activation: :func:`activate` / :func:`chaos_active` arm a plan
process-wide, so every :class:`Network` constructed while the plan is
active (experiments build their own networks internally) gets a
controller automatically.  This is the one way a transport fault
enters the network.
:func:`retries_enabled` is the global switch the
retry/confirmation consumers (snapshot crawler, active-blocking
detector) consult -- ``repro chaos --no-retries`` flips it to
demonstrate what the fault plan does to an unhardened pipeline.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..obs.metrics import shared_registry
from . import transport as _transport
from .errors import ConnectionRefused, ConnectionReset
from .http import Request, Response
from .transport import Network

__all__ = [
    "FaultRule",
    "FaultPlan",
    "ChaosController",
    "NAMED_PLANS",
    "plan",
    "plan_names",
    "activate",
    "deactivate",
    "active_plan",
    "chaos_active",
    "retries_enabled",
    "set_retries_enabled",
    "retries_disabled",
    "deterministic_fraction",
]

#: Fault kinds a rule may inject.
FAULT_KINDS = (
    "reset",            # ConnectionReset, bounded by max_per_host
    "refuse",           # ConnectionRefused, bounded by max_per_host
    "outage",           # persistent ConnectionRefused (ignores max_per_host)
    "latency",          # advance the simulated clock, no error
    "truncate_robots",  # cut a 200 robots.txt body short
    "garbage_robots",   # replace a 200 robots.txt body with binary junk
)


def deterministic_fraction(*parts: object) -> float:
    """A uniform fraction in ``[0, 1)`` from a SHA-256 of *parts*.

    This is the only "randomness" in the chaos layer: stable across
    processes and Python hash seeds, so fault campaigns replay exactly.
    """
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultRule:
    """One fault family within a plan.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        rate: Fraction of the host space affected (seeded per-host
            sampling); 1.0 = every matching host.
        hosts: Explicit host list; overrides ``rate`` sampling.
        host_suffix: Restrict to hosts ending with this suffix.
        agent_contains: Restrict to requests whose ``User-Agent``
            contains this substring (case-insensitive) -- models
            anti-bot layers that drop only automation traffic.
        months: Inclusive ``(start, end)`` window on the simulated-month
            clock; the rule is dormant outside it (and on unclocked
            networks, ``month == -1``).
        max_per_host: Faults injected per host per network before the
            host heals (None = unlimited).  ``outage`` ignores this.
        latency_seconds: Simulated seconds a ``latency`` fault adds.
        truncate_at: Byte offset ``truncate_robots`` cuts the body at.
    """

    kind: str
    rate: float = 1.0
    hosts: Optional[Tuple[str, ...]] = None
    host_suffix: Optional[str] = None
    agent_contains: Optional[str] = None
    months: Optional[Tuple[int, int]] = None
    max_per_host: Optional[int] = 1
    latency_seconds: float = 1.0
    truncate_at: int = 16

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.months is not None and self.months[0] > self.months[1]:
            raise ValueError(f"months window is inverted: {self.months}")

    def matches_host(self, host: str, seed: int, rule_index: int, plan_name: str) -> bool:
        """Whether *host* is in this rule's deterministic blast radius."""
        if self.hosts is not None:
            return host in self.hosts
        if self.host_suffix is not None and not host.endswith(self.host_suffix):
            return False
        if self.rate >= 1.0:
            return True
        return deterministic_fraction(seed, plan_name, rule_index, host) < self.rate

    def active_in(self, month: int) -> bool:
        """Whether the rule is live at *month* on the simulated clock."""
        if self.months is None:
            return True
        return self.months[0] <= month <= self.months[1]


@dataclass(frozen=True)
class FaultPlan:
    """A named, seedable campaign of fault rules.

    >>> plan = FaultPlan("demo", (FaultRule(kind="reset", rate=0.5),))
    >>> with chaos_active(plan, seed=0):  # doctest: +SKIP
    ...     network = Network()  # faults per the plan
    """

    name: str
    rules: Tuple[FaultRule, ...]
    description: str = ""


class ChaosController:
    """Per-network fault execution state for one plan + seed.

    The controller is what :meth:`Network.request` consults: it decides
    per request whether a transport error fires (returned to the network
    so injected errors flow through the same ``net.errors`` counters as
    organic ones) and whether a returned robots.txt body gets corrupted.
    """

    def __init__(self, plan: FaultPlan, network: Network, seed: int = 0):
        self.plan = plan
        self.network = network
        self.seed = seed
        #: Faults already injected, keyed ``(rule_index, host)``.
        self._injected: Dict[Tuple[int, str], int] = {}
        #: Memoized ``matches_host`` verdicts -- the decision is pure in
        #: ``(seed, plan, rule_index, host)``, so hash-based sampling is
        #: paid once per (rule, host) rather than on every request.
        self._match_cache: Dict[Tuple[int, str], bool] = {}
        #: Hosts no rule matches at all: the steady-state fast path for
        #: the fault-free majority of traffic is one set lookup.
        self._immune: set = set()
        #: ``(rule_index, host)`` slots already exhausted -- checked
        #: first, so healed hosts skip the counters.
        self._spent: set = set()
        registry = shared_registry()
        self._fault_counters = {
            kind: registry.counter("chaos.faults", kind=kind, plan=plan.name)
            for kind in FAULT_KINDS
        }
        self._latency_histogram = registry.histogram("chaos.latency_seconds")
        self._registry = registry

    # -- bookkeeping --------------------------------------------------------

    def _take_slot(self, rule_index: int, rule: FaultRule, host: str) -> bool:
        """Consume one fault slot for ``(rule, host)``; False when spent."""
        if rule.kind == "outage" or rule.max_per_host is None:
            return True
        key = (rule_index, host)
        if key in self._spent:
            return False
        used = self._injected.get(key, 0)
        if used >= rule.max_per_host:
            self._spent.add(key)
            return False
        self._injected[key] = used + 1
        if used + 1 >= rule.max_per_host:
            self._spent.add(key)
        return True

    def _host_matches(self, index: int, rule: FaultRule, host: str) -> bool:
        key = (index, host)
        cached = self._match_cache.get(key)
        if cached is None:
            cached = rule.matches_host(host, self.seed, index, self.plan.name)
            self._match_cache[key] = cached
        return cached

    def _record(self, kind: str) -> None:
        self._fault_counters[kind].inc()
        self._registry.add(
            "chaos.faults", self.network.month, kind=kind, plan=self.plan.name
        )

    # -- the two network hooks ----------------------------------------------

    def intercept(self, request: Request) -> Optional[Exception]:
        """Pre-dispatch hook: the transport error to raise, if any.

        Latency rules fire here too (advancing the network's simulated
        clock) but never abort the request.
        """
        host = request.host.lower()
        if host in self._immune:
            return None
        month = self.network.month
        agent = None  # resolved lazily; most rules don't filter on it
        any_host_match = False
        for index, rule in enumerate(self.plan.rules):
            if not self._host_matches(index, rule, host):
                continue
            any_host_match = True
            if not rule.active_in(month):
                continue
            if rule.agent_contains is not None:
                if agent is None:
                    agent = request.user_agent.lower()
                if rule.agent_contains.lower() not in agent:
                    continue
            if rule.kind == "latency":
                if self._take_slot(index, rule, host):
                    self._record("latency")
                    self._latency_histogram.observe(rule.latency_seconds)
                    self.network.now += rule.latency_seconds
                continue
            if rule.kind in ("reset", "refuse", "outage"):
                if not self._take_slot(index, rule, host):
                    continue
                self._record(rule.kind)
                if rule.kind == "reset":
                    return ConnectionReset(request.host)
                return ConnectionRefused(request.host)
        if not any_host_match or all(
            rule.kind != "outage"
            and rule.max_per_host is not None
            and (index, host) in self._spent
            for index, rule in enumerate(self.plan.rules)
            if self._match_cache.get((index, host))
        ):
            # Either no rule ever matches this host, or every matching
            # rule has permanently exhausted its fault budget (spent
            # slots never replenish): all future requests take the
            # one-set-lookup fast path.
            self._immune.add(host)
        return None

    def mutate_response(self, request: Request, response: Response) -> Response:
        """Post-dispatch hook: corrupt robots.txt bodies where planned."""
        if request.path_only != "/robots.txt" or response.status != 200:
            return response
        host = request.host.lower()
        if host in self._immune:
            return response
        month = self.network.month
        for index, rule in enumerate(self.plan.rules):
            if rule.kind not in ("truncate_robots", "garbage_robots"):
                continue
            if not rule.active_in(month):
                continue
            if not self._host_matches(index, rule, host):
                continue
            if not self._take_slot(index, rule, host):
                continue
            self._record(rule.kind)
            assert isinstance(response.body, bytes)
            if rule.kind == "truncate_robots":
                body = response.body[: rule.truncate_at]
            else:
                # Deterministic binary junk: stable per (seed, host), not
                # valid UTF-8, long enough to exercise lenient parsing.
                digest = hashlib.sha256(
                    f"{self.seed}|garbage|{host}".encode()
                ).digest()
                body = (digest * 8)[:200]
            return Response(
                status=response.status,
                body=body,
                headers=response.headers,
                url=response.url,
            )
        return response


# -- process-wide activation ---------------------------------------------------

_ACTIVE: Optional[Tuple[FaultPlan, int]] = None


def activate(campaign: FaultPlan, seed: int = 0) -> None:
    """Arm *campaign* for every Network constructed from now on.

    Experiment runners build their networks internally; activation is
    how ``repro chaos`` injects faults into worlds it never sees.
    """
    global _ACTIVE
    _ACTIVE = (campaign, seed)
    _transport.set_chaos_factory(
        lambda network: ChaosController(campaign, network, seed=seed)
    )


def deactivate() -> None:
    """Disarm the active plan (already-installed controllers persist)."""
    global _ACTIVE
    _ACTIVE = None
    _transport.set_chaos_factory(None)


def active_plan() -> Optional[Tuple[FaultPlan, int]]:
    """The armed ``(plan, seed)``, or None."""
    return _ACTIVE


@contextmanager
def chaos_active(campaign: FaultPlan, seed: int = 0) -> Iterator[None]:
    """``with chaos_active(plan): ...`` -- arm, then restore on exit."""
    previous = _ACTIVE
    activate(campaign, seed)
    try:
        yield
    finally:
        if previous is None:
            deactivate()
        else:
            activate(*previous)


# -- the retry master switch ---------------------------------------------------

_RETRIES_ENABLED = True


def retries_enabled() -> bool:
    """Whether the retry/confirmation consumers should harden fetches."""
    return _RETRIES_ENABLED


def set_retries_enabled(enabled: bool) -> None:
    """Globally enable/disable retry passes and confirmation probes."""
    global _RETRIES_ENABLED
    _RETRIES_ENABLED = bool(enabled)


@contextmanager
def retries_disabled() -> Iterator[None]:
    """``with retries_disabled(): ...`` -- expose raw fault impact."""
    was = _RETRIES_ENABLED
    set_retries_enabled(False)
    try:
        yield
    finally:
        set_retries_enabled(was)


# -- named campaigns -----------------------------------------------------------

#: The campaign library ``repro chaos --plan <name>`` draws from.  The
#: transient plans (``flaky-*``, ``ai-probe-resets``) are heal-guaranteed:
#: every fault is bounded per host, so the bounded retry passes in the
#: snapshot crawler / blocking detector restore fault-free results
#: byte-for-byte.  ``outage-window`` and ``garbage-robots`` are
#: deliberately *not* healable -- they exist to measure degradation.
NAMED_PLANS: Dict[str, FaultPlan] = {
    "flaky-resets": FaultPlan(
        "flaky-resets",
        (FaultRule(kind="reset", rate=0.35, max_per_host=1),),
        "35% of hosts reset their first connection per network, then heal",
    ),
    "flaky-refusals": FaultPlan(
        "flaky-refusals",
        (FaultRule(kind="refuse", rate=0.25, max_per_host=1),),
        "25% of hosts refuse their first connection per network, then heal",
    ),
    "ai-probe-resets": FaultPlan(
        "ai-probe-resets",
        (
            FaultRule(kind="reset", rate=1.0, agent_contains="claude", max_per_host=1),
            FaultRule(
                kind="reset", rate=1.0, agent_contains="anthropic", max_per_host=1
            ),
        ),
        "every host resets the first connection from each Anthropic UA "
        "(the Section 6 false-positive confound)",
    ),
    "slow-origins": FaultPlan(
        "slow-origins",
        (
            FaultRule(
                kind="latency", rate=0.5, latency_seconds=1.5, max_per_host=None
            ),
        ),
        "half the hosts add 1.5 simulated seconds to every request",
    ),
    "outage-window": FaultPlan(
        "outage-window",
        (FaultRule(kind="outage", rate=0.10, months=(6, 9)),),
        "10% of hosts are down for simulated months 6-9 (not healable)",
    ),
    "garbage-robots": FaultPlan(
        "garbage-robots",
        (
            FaultRule(kind="truncate_robots", rate=0.08, max_per_host=None),
            FaultRule(kind="garbage_robots", rate=0.05, max_per_host=None),
        ),
        "8% of hosts truncate and 5% serve binary junk for robots.txt",
    ),
    "mixed-storm": FaultPlan(
        "mixed-storm",
        (
            FaultRule(kind="reset", rate=0.20, max_per_host=1),
            FaultRule(kind="refuse", rate=0.10, max_per_host=1),
            FaultRule(
                kind="latency", rate=0.25, latency_seconds=0.8, max_per_host=2
            ),
        ),
        "transient resets, refusals, and latency together (healable)",
    ),
}


def plan(name: str) -> FaultPlan:
    """Look up a named plan (KeyError lists the known names)."""
    try:
        return NAMED_PLANS[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_PLANS))
        raise KeyError(f"unknown fault plan {name!r}; known plans: {known}") from None


def plan_names() -> Tuple[str, ...]:
    """All named plans, sorted."""
    return tuple(sorted(NAMED_PLANS))
