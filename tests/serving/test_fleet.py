"""Tests for the multi-node fleet: load balancer and capacity planning."""

import pytest

from repro.core import ServerConfig
from repro.serving import (
    LEAST_OUTSTANDING,
    ROUND_ROBIN,
    ResiliencePolicy,
    plan_capacity,
    run_fleet_experiment,
)
from repro.serving.fleet import Fleet, LoadBalancer
from repro.sim import Environment
from repro.vision import reference_dataset
from repro.workload import Workload

SERVER = ServerConfig(model="resnet-50", preprocess_batch_size=64)


class TestValidation:
    def test_balancer_args(self):
        env = Environment()
        with pytest.raises(ValueError):
            LoadBalancer(env, [], per_node_cap=1)
        fleet = Fleet(env, 1, SERVER)
        with pytest.raises(ValueError):
            LoadBalancer(env, fleet.servers, per_node_cap=0)
        with pytest.raises(ValueError):
            LoadBalancer(env, fleet.servers, per_node_cap=1, policy="random")

    def test_fleet_args(self):
        env = Environment()
        with pytest.raises(ValueError):
            Fleet(env, 0, SERVER)

    def test_run_args(self):
        with pytest.raises(ValueError):
            run_fleet_experiment(SERVER, node_count=1, workload=Workload.constant(0))
        with pytest.raises(TypeError):
            run_fleet_experiment(SERVER, node_count=1)  # workload is required

    def test_plan_args(self):
        with pytest.raises(ValueError):
            plan_capacity(SERVER, offered_rate=100, p99_slo_seconds=0)


class TestFleetBehaviour:
    def test_two_nodes_serve_more_than_one(self):
        one = run_fleet_experiment(
            SERVER, node_count=1, workload=Workload.constant(9000),
            warmup_requests=800, measure_requests=1500,
        )
        two = run_fleet_experiment(
            SERVER, node_count=2, workload=Workload.constant(9000),
            warmup_requests=800, measure_requests=1500,
        )
        assert one.goodput_fraction < 0.85  # one node is overloaded
        assert two.goodput_fraction > 0.95  # two nodes absorb the load
        assert two.throughput > 1.3 * one.throughput

    def test_least_outstanding_balances_evenly(self):
        result = run_fleet_experiment(
            SERVER, node_count=3, workload=Workload.constant(6000),
            warmup_requests=500, measure_requests=1500,
            policy=LEAST_OUTSTANDING,
        )
        assert result.balance_ratio < 1.2

    def test_round_robin_balances_evenly(self):
        result = run_fleet_experiment(
            SERVER, node_count=3, workload=Workload.constant(6000),
            warmup_requests=500, measure_requests=1500,
            policy=ROUND_ROBIN,
        )
        assert result.balance_ratio < 1.2

    def test_backlog_grows_under_overload(self):
        result = run_fleet_experiment(
            SERVER, node_count=1, workload=Workload.constant(12000),
            warmup_requests=500, measure_requests=1000,
            per_node_cap=256,
        )
        assert result.peak_backlog > 100

    def test_deterministic(self):
        a = run_fleet_experiment(SERVER, node_count=2, workload=Workload.constant(4000),
                                 warmup_requests=300, measure_requests=800)
        b = run_fleet_experiment(SERVER, node_count=2, workload=Workload.constant(4000),
                                 warmup_requests=300, measure_requests=800)
        assert a.throughput == pytest.approx(b.throughput)

    def test_shed_requests_count_as_drained(self):
        # A bounded workload that overruns a 20-deep backlog: shed
        # requests resolve in the balancer and never reach a server, yet
        # the run must end once every issued request has resolved, not
        # pad its window out to max_sim_seconds.
        def run(max_sim_seconds):
            return run_fleet_experiment(
                SERVER, node_count=1,
                workload=Workload.constant(8000.0, duration_seconds=0.25),
                resilience=ResiliencePolicy(max_backlog=20, deadline_seconds=None),
                seed=0, warmup_requests=0, measure_requests=10**9,
                max_sim_seconds=max_sim_seconds,
            ).metrics

        short, long = run(2.0), run(30.0)
        assert short.window_seconds == long.window_seconds < 1.0
        for metrics in (short, long):
            assert metrics.shed_count > 0
            # Without shedding the same arrivals complete 1951 requests.
            assert metrics.completed + metrics.shed_count == 1951


class TestCapacityPlanning:
    def test_plan_finds_minimum_fleet(self):
        plan = plan_capacity(
            SERVER,
            offered_rate=8000,
            p99_slo_seconds=0.2,
            dataset=reference_dataset("medium"),
            warmup_requests=1500,
            measure_requests=2500,
        )
        # One ~5.7k img/s node cannot absorb 8k req/s; two can.
        assert plan.nodes_required == 2
        assert plan.achieved_p99 <= 0.2
        assert 1 in plan.evaluations

    def test_plan_raises_when_impossible(self):
        with pytest.raises(RuntimeError, match="no fleet"):
            plan_capacity(
                SERVER,
                offered_rate=50000,
                p99_slo_seconds=0.001,
                max_nodes=2,
                warmup_requests=200,
                measure_requests=400,
                max_sim_seconds=5.0,
            )
