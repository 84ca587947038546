"""Fixtures shared across the test packages."""

import os

import pytest


@pytest.fixture
def force_fork(monkeypatch):
    """Make :func:`repro.fanout.batch_mode` see more than one CPU, so a
    batch with more than one worker takes the fork path even on a
    one-CPU host (it still needs the fork start method)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
