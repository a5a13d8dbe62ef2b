"""Exact kernel cost and output digests of two pinned runs.

The kernel counts processed and scheduled events with no monitor
attached, and the run is deterministic per seed, so these counts are
pinned exactly, like a digest: a change that moves them either intends
to (and re-seeds the pins) or is a regression.

The digests pin what the runs produce, not only how much they cost: a
kernel refactor that keeps every event in its place leaves them
byte-equal, so this file proves byte-identity in tier-1.
"""

import hashlib
import json

import pytest

from repro.core.quantify import QuantifyConfig, run_single_fault
from repro.experiments import runner
from repro.experiments.configs import version
from repro.experiments.profiles import SMALL
from repro.faults.types import FaultKind
from repro.obs.telemetry import Telemetry

#: the client ramp is over and the caches are warm by then
UNTIL = 60.0

PROCESSED = 158_813
SCHEDULED = 158_823
ISSUED = 9_375

#: world_digest of the steady COOP world below
COOP_DIGEST = (
    "7b92923489bd3c4b8d26bd091ca7d380d6c74d4a0581141daa0827252672367f")
#: world_digest of the FME switch_down quick cell, seed 0
FME_SWITCH_DOWN_DIGEST = (
    "09e3964feaa91665c7c7fd9e7d6009abd203596a963992b3e3966f881403e38e")


def world_digest(world) -> str:
    """Chained SHA-256 over a world's event log, outcomes, success
    timestamps, final clock and kernel counts."""
    chain = hashlib.sha256(b"cost-pin")
    for entry in world.markers.entries:
        chain.update(json.dumps(list(entry), sort_keys=True).encode())
    stats, env = world.stats, world.env
    chain.update(json.dumps({
        "issued": stats.issued,
        "outcomes": {o.value: n for o, n in stats.outcomes.items()},
        "now": env.now,
        "processed": env.processed_count,
        "scheduled": env.scheduled_count,
    }, sort_keys=True).encode())
    chain.update(stats.series.times.tobytes())
    return chain.hexdigest()


@pytest.fixture(scope="module")
def steady_coop():
    """COOP, SMALL profile, seed 0, telemetry off, run to ``UNTIL``."""
    world = runner.build_world(version("COOP"), SMALL, seed=0,
                               telemetry=Telemetry.disabled())
    world.env.run(until=UNTIL)
    return world


def test_steady_coop_event_cost_is_pinned(steady_coop):
    """To re-seed after an intended change to the event sequence, run
    this world and copy ``env.processed_count``, ``env.scheduled_count``
    and ``stats.issued`` into the constants above; say in the change log
    why they moved.  ``ISSUED`` depends only on the client's random
    stream, so it should not move unless the workload generator changed.
    """
    env, issued = steady_coop.env, steady_coop.stats.issued
    assert (env.processed_count, env.scheduled_count, issued) == (
        PROCESSED, SCHEDULED, ISSUED)
    # one send runs in its sender's process, one deadline queue serves
    # every request, and puts that find room schedule nothing
    assert env.processed_count / issued < 18


def test_steady_coop_output_digest_is_pinned(steady_coop):
    assert world_digest(steady_coop) == COOP_DIGEST


@pytest.mark.slow
def test_fme_switch_down_cell_digest_is_pinned():
    """The blocking, retry and front-end paths of one quick FME cell."""
    _, world = run_single_fault(version("FME"), FaultKind.SWITCH_DOWN,
                                QuantifyConfig.quick(seed=0))
    assert world_digest(world) == FME_SWITCH_DOWN_DIGEST
