"""Validation-module plumbing (the expensive end-to-end path runs in
benchmarks/test_model_validation.py)."""

import numpy as np
import pytest

from repro.core.validation import (
    VALIDATION_ENVIRONMENT,
    ValidationResult,
    _fault_load_driver,
    validation_catalog,
)
from repro.core.model import ModelResult
from repro.faults.types import FaultKind


class TestValidationCatalog:
    def test_counts_track_topology(self):
        cat = validation_catalog(n_nodes=4, disks_per_node=2)
        assert cat[FaultKind.NODE_CRASH].count == 4
        assert cat[FaultKind.SCSI_TIMEOUT].count == 8
        assert FaultKind.FRONTEND_FAILURE not in cat
        assert FaultKind.FRONTEND_FAILURE in validation_catalog(with_frontend=True)

    def test_compressed_but_subcritical(self):
        """The catalog's fault fractions must stay well below 1 even with
        the operator path charged on every fault."""
        cat = validation_catalog(n_nodes=5, disks_per_node=2)
        env = VALIDATION_ENVIRONMENT
        slack = env.operator_response + env.reset_duration + 60.0
        total = sum(r.count * (r.mttr + slack) / r.mttf for r in cat)
        assert total < 0.6


class TestFaultLoadDriver:
    def test_serializes_faults_and_logs_them(self, env, telemetry):
        """Faults queue: a new fault starts only after the previous repair
        + recovery wait, per the paper's model assumption."""
        from repro.faults.faultload import FaultCatalog, FaultRate
        from repro.faults.injector import FaultInjector
        from repro.hardware.host import Host
        from repro.sim.series import ThroughputSeries

        host = Host(env, "n1", 1)
        catalog = FaultCatalog([FaultRate(FaultKind.NODE_FREEZE, 50.0, 5.0, 1)])

        class W:
            pass

        world = W()
        world.env = env
        world.markers = telemetry.tracer
        world.offered_rate = 100.0
        world.injector = FaultInjector(env, {"n1": host}, telemetry=telemetry)
        world.default_target = lambda kind: "n1"
        world.operator_reset = lambda: None

        class Stats:
            series = ThroughputSeries()

        world.stats = Stats()

        def feed():  # keep the rate "healthy" so no operator resets happen
            while True:
                yield env.timeout(0.01)
                world.stats.series.record(env.now)

        env.process(feed())
        log = []
        rng = np.random.default_rng(5)
        env.process(_fault_load_driver(world, catalog, rng, horizon=400.0,
                                       recovery_wait=5.0, operator_threshold=0.5,
                                       log=log))
        env.run(until=400.0)
        assert len(log) >= 2
        # Never two active faults at once.
        log = telemetry.tracer
        events = sorted([(e.time, +1) for e in log.events_of("fault_injected")]
                        + [(e.time, -1) for e in log.events_of("fault_repaired")])
        active = 0
        for _, delta in events:
            active += delta
            assert 0 <= active <= 1

    def test_operator_reset_names_fault_and_target(self, env, telemetry):
        """A reset after a stuck fault carries the fault and its target,
        so span phases label the post-reset window after the fault."""
        from repro.faults.faultload import FaultCatalog, FaultRate
        from repro.faults.injector import FaultInjector
        from repro.hardware.host import Host
        from repro.obs.spans import phases_from_trace
        from repro.sim.series import ThroughputSeries

        host = Host(env, "n1", 1)
        catalog = FaultCatalog([FaultRate(FaultKind.NODE_CRASH, 50.0, 5.0, 1)])

        class W:
            pass

        world = W()
        world.env = env
        world.markers = telemetry.tracer
        world.offered_rate = 100.0
        world.injector = FaultInjector(env, {"n1": host}, telemetry=telemetry)
        world.default_target = lambda kind: "n1"
        world.operator_reset = lambda: None

        class Stats:
            series = ThroughputSeries()  # no throughput: always degraded

        world.stats = Stats()
        env.process(_fault_load_driver(world, catalog, np.random.default_rng(5),
                                       horizon=200.0, recovery_wait=5.0,
                                       operator_threshold=0.5, log=[]))
        env.run(until=200.0)
        reset = telemetry.tracer.first("operator_reset")
        assert reset is not None
        assert reset.source == "operator"
        assert reset.data == {"fault": "node_crash", "target": "n1"}
        after = [p for p in phases_from_trace(telemetry.tracer.entries, end=env.now)
                 if p[1] == reset.time]
        assert after and after[0][0] == "after node_crash"

    def test_result_ratio(self):
        result = ValidationResult(
            version="X",
            predicted=ModelResult("X", 100.0, 100.0, 99.0, 0.99),
            measured_availability=0.98,
            horizon=100.0,
            faults_injected=3,
        )
        assert result.ratio == pytest.approx(2.0)
        assert result.measured_unavailability == pytest.approx(0.02)
