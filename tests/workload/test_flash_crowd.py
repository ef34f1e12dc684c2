"""Flash-crowd scenario: scale-up, load shedding, and SLO burn.

The tentpole integration test: a diurnal baseline with a flash crowd
drives an :class:`AutoscaledFleet` through a
:class:`~repro.serving.client.WorkloadClient`.  The burst must (a)
trigger scale-out, (b) move the admission-control shed counter once the
backlog cap is hit, and (c) spike the short-window SLO burn rate in
:class:`SloTracker` relative to the pre-flash baseline.
"""

from repro.core import MetricsCollector, ServerConfig
from repro.core.request import OUTCOME_OK, OUTCOME_SHED
from repro.serving import AutoscaledFleet, AutoscalerPolicy, WorkloadClient
from repro.sim import Environment, RandomStreams
from repro.telemetry import SloConfig, SloTracker
from repro.vision import reference_dataset
from repro.workload import Workload

SERVER = ServerConfig(model="resnet-50", preprocess_batch_size=64)

FLASH_START = 12.0
FLASH_LEN = 8.0


class Scenario:
    def __init__(self, max_backlog):
        self.env = Environment()
        collector = MetricsCollector()
        collector.arm(0.0)
        # Baseline p99 sits around 0.7 s on one node, so a 1 s objective
        # is met at baseline and blown through during the flash.
        self.tracker = SloTracker(SloConfig(latency_objective_seconds=1.0,
                                            burn_windows_seconds=(5.0,)))
        self.completed = []

        def observe(request):
            self.completed.append(request)
            self.tracker.observe(request.latency, self.env.now,
                                 ok=request.outcome == OUTCOME_OK)

        policy = AutoscalerPolicy(min_nodes=1, max_nodes=4,
                                  provision_delay_seconds=2.0,
                                  interval_seconds=0.5,
                                  max_backlog=max_backlog)
        self.fleet = AutoscaledFleet(self.env, SERVER, policy,
                                     metrics=collector, on_complete=observe)
        # ~20% of one node's capacity at baseline; 12x that in the flash.
        workload = Workload.flash_crowd(
            800.0,
            bursts=[(FLASH_START, FLASH_LEN, 12.0)],
            ramp_seconds=1.0,
            duration_seconds=30.0,
        )
        source = workload.source(RandomStreams(0),
                                 default_dataset=reference_dataset("medium"))
        self.client = WorkloadClient(self.env, self.fleet, source,
                                     on_complete=self._watch_shed)

    def _watch_shed(self, request):
        # Shed requests complete instantly via the client-visible done
        # event, not the server's on_complete, so feed them to the
        # tracker here.
        if request.outcome == OUTCOME_SHED:
            self.completed.append(request)
            self.tracker.observe(0.0, self.env.now, ok=False)


class TestFlashCrowd:
    def test_flash_drives_scaleup_shedding_and_slo_burn(self):
        scenario = Scenario(max_backlog=128)
        env, fleet, tracker = scenario.env, scenario.fleet, scenario.tracker

        # Run to just before the lead-in ramp: steady 800 req/s baseline.
        # The baseline may oscillate 1<->2 nodes; record its peak so the
        # flash assertions measure growth *beyond* baseline behaviour.
        env.run(until=FLASH_START - 1.0)
        burn_before = tracker.burn_rate(5.0, env.now)
        shed_before = fleet.shed
        peak_before = max([e.active_nodes for e in fleet.events] + [1])
        assert burn_before < 1.0, "baseline must meet the SLO"

        # Run through the flash window plus the scaling reaction.
        env.run(until=FLASH_START + FLASH_LEN + 4.0)
        burn_peak = tracker.burn_rate(5.0, FLASH_START + FLASH_LEN)

        # (a) the autoscaler scaled beyond the baseline peak,
        peak_after = max(e.active_nodes for e in fleet.events)
        assert peak_after > peak_before
        # (b) admission control shed once the backlog cap was hit,
        assert fleet.shed > shed_before
        # (c) the 5 s burn rate spiked during the flash.
        assert burn_peak > burn_before
        assert burn_peak > 1.0, "flash must burn error budget faster than target"

    def test_phase_labels_flow_through_the_fleet(self):
        scenario = Scenario(max_backlog=None)
        scenario.env.run(until=FLASH_START + 3.0)
        phases = {request.workload_phase for request in scenario.completed}
        assert "flash" in phases
        assert len(phases) > 1  # baseline phase label also present

    def test_shed_requests_are_observed_as_bad(self):
        scenario = Scenario(max_backlog=64)
        scenario.env.run(until=FLASH_START + FLASH_LEN)
        assert scenario.fleet.shed > 0
        assert scenario.tracker.bad > 0
