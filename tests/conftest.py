"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.obs.telemetry import Telemetry
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def telemetry(env) -> Telemetry:
    """A metrics-off bundle on ``env``; its tracer is the event log."""
    tm = Telemetry.disabled()
    tm.attach(env)
    return tm
