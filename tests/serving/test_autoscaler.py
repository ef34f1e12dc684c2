"""Tests for the reactive fleet autoscaler."""

import pytest

from repro.core import MetricsCollector, ServerConfig
from repro.serving import AutoscaledFleet, AutoscalerPolicy, WorkloadClient
from repro.sim import Environment, RandomStreams
from repro.vision import reference_dataset
from repro.workload import Workload

SERVER = ServerConfig(model="resnet-50", preprocess_batch_size=64)


def run_autoscaled(workload, policy, seconds=20.0):
    env = Environment()
    collector = MetricsCollector()
    collector.arm(0.0)
    fleet = AutoscaledFleet(env, SERVER, policy, metrics=collector)
    source = workload.source(RandomStreams(0), prefix="patterned",
                             default_dataset=reference_dataset("medium"))
    WorkloadClient(env, fleet, source)
    env.run(until=seconds)
    collector.disarm(env.now)
    return fleet, collector.finalize()


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_outstanding_per_node": 0},
            {"scale_out_threshold": 1.0},
            {"scale_in_threshold": 0.0},
            {"scale_in_threshold": 1.0},
            {"interval_seconds": 0},
            {"min_nodes": 0},
            {"min_nodes": 5, "max_nodes": 2},
            {"per_node_cap": 0},
        ],
    )
    def test_invalid_policy(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalerPolicy(**kwargs)


class TestScaling:
    def test_scales_out_under_heavy_load(self):
        policy = AutoscalerPolicy(min_nodes=1, max_nodes=4,
                                  provision_delay_seconds=1.0)
        fleet, metrics = run_autoscaled(Workload.constant(15000), policy, seconds=10.0)
        assert fleet.active_count >= 3
        assert any(e.action == "scale_out" for e in fleet.events)
        # With 3-4 nodes active the fleet serves most of the offer.
        assert metrics.throughput > 10000

    def test_stays_small_under_light_load(self):
        policy = AutoscalerPolicy(min_nodes=1, max_nodes=4)
        # ~5% of a node's capacity: comfortably a one-node workload.
        fleet, _ = run_autoscaled(Workload.constant(200), policy, seconds=10.0)
        assert fleet.active_count == 1
        assert not any(e.action == "scale_out" for e in fleet.events)

    def test_scales_in_after_burst(self):
        policy = AutoscalerPolicy(min_nodes=1, max_nodes=4,
                                  provision_delay_seconds=0.5)
        # 500 req/s with a 15k req/s burst over 8-11 s, then 5 s of quiet.
        workload = Workload.flash_crowd(500, bursts=[(8.0, 3.0, 30.0)])
        fleet, _ = run_autoscaled(workload, policy, seconds=16.0)
        first_out = next(e for e in fleet.events if e.action == "scale_out")
        assert first_out.at_time >= 8.0, "only the burst may trigger scale-out"
        assert any(e.action == "scale_in" and e.at_time > 11.0
                   for e in fleet.events), "quiet period must trigger scale-in"

    def test_respects_max_nodes(self):
        policy = AutoscalerPolicy(min_nodes=1, max_nodes=2,
                                  provision_delay_seconds=0.2)
        fleet, _ = run_autoscaled(Workload.constant(30000), policy, seconds=5.0)
        assert fleet.active_count <= 2
        assert all(e.active_nodes <= 2 for e in fleet.events)

    def test_provision_delay_delays_capacity(self):
        slow = AutoscalerPolicy(min_nodes=1, max_nodes=4, provision_delay_seconds=4.0)
        fleet, _ = run_autoscaled(Workload.constant(15000), slow, seconds=5.0)
        first_out = next(e for e in fleet.events if e.action == "scale_out")
        assert first_out.at_time >= 4.0

    def test_diurnal_load_tracks_the_wave(self):
        policy = AutoscalerPolicy(min_nodes=1, max_nodes=4,
                                  provision_delay_seconds=1.0)
        # 9000 * (1 + 0.7 sin(2 pi t / 30)): the quarter-period offset
        # turns the curve's midnight trough into a rising start.
        workload = Workload.diurnal(9000, swing=0.7, period_seconds=30,
                                    phase_offset_seconds=7.5)
        fleet, metrics = run_autoscaled(workload, policy, seconds=45.0)
        actions = {e.action for e in fleet.events}
        assert actions == {"scale_out", "scale_in"}
        assert metrics.throughput > 7000  # most of the mean offer served
