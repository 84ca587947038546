"""Shared fixtures for the telemetry unit tests.

Every test in this package runs against pristine global telemetry
state: the enable flags are restored and the process-wide metrics
registry and tracer are reset both before and after each test, so no
test can leak counters, series points, or buffered spans into a
neighbor -- regardless of execution order.
"""

import pytest

from repro.net.accesslog import reset_agent_label_memo
from repro.obs.metrics import set_metrics_enabled, shared_registry
from repro.obs.trace import set_tracing_enabled, shared_tracer


@pytest.fixture(autouse=True)
def clean_telemetry_state():
    """Reset flags, the shared registry and tracer, and the accesslog
    memos."""
    set_metrics_enabled(True)
    set_tracing_enabled(False)
    shared_registry().reset()
    shared_tracer().drain()
    reset_agent_label_memo()
    yield
    set_metrics_enabled(True)
    set_tracing_enabled(False)
    shared_registry().reset()
    shared_tracer().drain()
    reset_agent_label_memo()
