"""Exact kernel cost of the steady cooperative path.

The kernel counts processed and scheduled events with no monitor
attached, and the run is deterministic per seed, so these counts are
pinned exactly, like a digest: a change that moves them either intends
to (and re-seeds the pins) or is a regression.
"""

from repro.experiments import runner
from repro.experiments.configs import version
from repro.experiments.profiles import SMALL
from repro.obs.telemetry import Telemetry

#: the client ramp is over and the caches are warm by then
UNTIL = 60.0

PROCESSED = 158_813
SCHEDULED = 158_823
ISSUED = 9_375


def test_steady_coop_event_cost_is_pinned():
    """COOP, SMALL profile, seed 0, telemetry off, run to ``UNTIL``.

    To re-seed after an intended change to the event sequence, run this
    world and copy ``env.processed_count``, ``env.scheduled_count`` and
    ``stats.issued`` into the constants above; say in the change log why
    they moved.  ``ISSUED`` depends only on the client's random stream,
    so it should not move unless the workload generator changed.
    """
    world = runner.build_world(version("COOP"), SMALL, seed=0,
                               telemetry=Telemetry.disabled())
    world.env.run(until=UNTIL)
    env, issued = world.env, world.stats.issued
    assert (env.processed_count, env.scheduled_count, issued) == (
        PROCESSED, SCHEDULED, ISSUED)
    # one send runs in its sender's process, one deadline queue serves
    # every request, and puts that find room schedule nothing
    assert env.processed_count / issued < 18
