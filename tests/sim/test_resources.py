"""Unit tests for Resource / PriorityResource / Container."""

import gc

import pytest

from repro.sim import Container, Environment, PriorityResource, Resource
from repro.sim.events import NORMAL


class CountingEnvironment(Environment):
    """Counts the events scheduled through ``schedule``."""

    def __init__(self):
        super().__init__()
        self.scheduled = 0

    def schedule(self, event, priority=NORMAL, delay=0.0):
        self.scheduled += 1
        super().schedule(event, priority, delay)


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_when_free(self):
        env = Environment()
        res = Resource(env, capacity=2)
        granted = []

        def proc(env):
            req = res.request()
            yield req
            granted.append(env.now)
            res.release(req)

        env.process(proc(env))
        env.run()
        assert granted == [0]

    def test_mutual_exclusion(self):
        env = Environment()
        res = Resource(env, capacity=1)
        trace = []

        def proc(env, tag):
            with res.request() as req:
                yield req
                trace.append((f"{tag} start", env.now))
                yield env.timeout(2)
                trace.append((f"{tag} end", env.now))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        assert trace == [
            ("a start", 0),
            ("a end", 2),
            ("b start", 2),
            ("b end", 4),
        ]

    def test_fifo_grant_order(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def waiter(env, tag, arrive):
            yield env.timeout(arrive)
            with res.request() as req:
                yield req
                order.append(tag)

        env.process(holder(env))
        env.process(waiter(env, "first", 1))
        env.process(waiter(env, "second", 2))
        env.process(waiter(env, "third", 3))
        env.run()
        assert order == ["first", "second", "third"]

    def test_count_and_queue(self):
        env = Environment()
        res = Resource(env, capacity=2)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def check(env):
            yield env.timeout(1)
            assert res.count == 2
            assert len(res.queue) == 1

        for _ in range(3):
            env.process(holder(env))
        env.process(check(env))
        env.run()
        assert res.count == 0

    def test_with_block_cancels_queued_request(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env):
            with res.request() as req:
                # Give up after 1s without being granted.
                yield req | env.timeout(1)
            # Exiting the with-block must remove the queued request.

        env.process(holder(env))
        env.process(impatient(env))
        env.run()
        assert len(res.queue) == 0

    def test_double_release_is_noop(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def proc(env):
            req = res.request()
            yield req
            res.release(req)
            res.release(req)  # second release must not corrupt state

        env.process(proc(env))
        env.run()
        assert res.count == 0

    def test_release_without_waiter_schedules_nothing(self):
        env = Environment()
        res = Resource(env, capacity=1)
        req = res.request()
        env.run()
        pending = env.pending
        assert res.release(req) is None
        assert env.pending == pending
        assert res.count == 0

    def test_release_schedules_only_the_waiters_grant(self):
        env = Environment()
        res = Resource(env, capacity=1)
        held = res.request()
        waiting = res.request()
        env.run()
        assert env.pending == 0
        res.release(held)
        assert env.pending == 1
        assert res.users == [waiting]
        env.step()
        assert waiting.processed
        assert env.pending == 0

    def test_cancel_through_with_exit_schedules_nothing(self):
        env = Environment()
        res = Resource(env, capacity=1)
        held = res.request()
        env.run()
        with res.request() as queued:
            assert list(res.queue) == [queued]
        assert env.pending == 0
        assert len(res.queue) == 0
        assert res.users == [held]
        assert not queued.triggered

    def test_wait_time_accounting(self):
        env = Environment()
        res = Resource(env, capacity=1)
        waits = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(4)

        def waiter(env):
            yield env.timeout(1)
            with res.request() as req:
                yield req
                waits.append(req.wait_time)

        env.process(holder(env))
        env.process(waiter(env))
        env.run()
        assert waits == [3]

    def test_utilization(self):
        env = Environment()
        res = Resource(env, capacity=2)

        def proc(env):
            with res.request() as req:
                yield req
                yield env.timeout(5)

        env.process(proc(env))
        env.run(until=10)
        # One of two slots busy for 5 of 10 seconds -> 25%.
        assert res.utilization() == pytest.approx(0.25)

    def test_collecting_a_finished_run_schedules_nothing(self):
        # A run that ends with one holder and one queued request leaves
        # both processes suspended inside `with res.request()`.  When
        # the collector closes them, the holder's exit must not grant
        # the queued request on the discarded environment.
        def finished_run():
            env = CountingEnvironment()
            res = Resource(env, capacity=1)

            def user(env):
                with res.request() as req:
                    yield req
                    yield env.event()  # never triggers

            env.process(user(env))
            env.process(user(env))
            env.run()
            assert (len(res.users), len(res.queue)) == (1, 1)
            return env

        env = finished_run()
        before = env.scheduled
        gc.collect()
        assert env.scheduled == before
        assert env.pending == 0


class TestPriorityResource:
    def test_priority_order(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def holder(env):
            with res.request(priority=0) as req:
                yield req
                yield env.timeout(10)

        def waiter(env, tag, priority, arrive):
            yield env.timeout(arrive)
            with res.request(priority=priority) as req:
                yield req
                order.append(tag)

        env.process(holder(env))
        env.process(waiter(env, "low", 5, 1))
        env.process(waiter(env, "high", 1, 2))
        env.process(waiter(env, "mid", 3, 3))
        env.process(waiter(env, "high-later", 1, 4))
        env.run()
        assert order == ["high", "high-later", "mid", "low"]

    def test_fifo_within_priority(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def holder(env):
            with res.request(priority=0) as req:
                yield req
                yield env.timeout(10)

        def waiter(env, tag, arrive):
            yield env.timeout(arrive)
            with res.request(priority=5) as req:
                yield req
                order.append(tag)

        env.process(holder(env))
        env.process(waiter(env, "a", 1))
        env.process(waiter(env, "b", 2))
        env.run()
        assert order == ["a", "b"]


class TestContainer:
    def test_init_level(self):
        env = Environment()
        c = Container(env, capacity=100, init=40)
        assert c.level == 40
        assert c.free == 60

    def test_init_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Container(env, capacity=10, init=20)
        with pytest.raises(ValueError):
            Container(env, capacity=0)
        c = Container(env, capacity=10)
        with pytest.raises(ValueError):
            c.put(-1)
        with pytest.raises(ValueError):
            c.get(-1)

    def test_get_blocks_until_put(self):
        env = Environment()
        c = Container(env, capacity=100)
        trace = []

        def consumer(env):
            yield c.get(10)
            trace.append(("got", env.now))

        def producer(env):
            yield env.timeout(3)
            yield c.put(10)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert trace == [("got", 3)]
        assert c.level == 0

    def test_put_blocks_when_full(self):
        env = Environment()
        c = Container(env, capacity=10, init=8)
        trace = []

        def producer(env):
            yield c.put(5)
            trace.append(("put done", env.now))

        def consumer(env):
            yield env.timeout(4)
            yield c.get(6)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert trace == [("put done", 4)]
        assert c.level == 7

    def test_fifo_gets(self):
        env = Environment()
        c = Container(env, capacity=100)
        order = []

        def getter(env, tag, amount, arrive):
            yield env.timeout(arrive)
            yield c.get(amount)
            order.append(tag)

        def putter(env):
            yield env.timeout(10)
            yield c.put(100)

        env.process(getter(env, "big-first", 50, 1))
        env.process(getter(env, "small-second", 1, 2))
        env.process(putter(env))
        env.run()
        assert order == ["big-first", "small-second"]

    def test_cancel_pending_get(self):
        env = Environment()
        c = Container(env, capacity=10)

        def proc(env):
            get = c.get(5)
            yield env.timeout(1)
            get.cancel()
            yield c.put(10)  # should succeed: no getter holds a claim

        env.run(until=env.process(proc(env)))
        assert c.level == 10

    def test_adjust_moves_the_level_without_an_event(self):
        env = CountingEnvironment()
        c = Container(env, capacity=10, init=4)
        c.adjust(5.5)
        assert c.level == 9.5
        c.adjust(-2.25)
        assert c.level == 7.25
        assert env.scheduled == 0 and env.pending == 0

    def test_adjust_serves_waiters_of_the_other_kind(self):
        env = Environment()
        c = Container(env, capacity=10)
        got = []

        def getter(env):
            yield c.get(3)
            got.append(env.now)

        env.process(getter(env))
        env.run()
        c.adjust(5)
        env.run()
        assert got == [0] and c.level == 2

    def test_adjust_falls_back_to_an_event_behind_waiters(self):
        env = CountingEnvironment()
        c = Container(env, capacity=10, init=2)
        blocked = c.get(6)
        c.adjust(-1)  # fits, but queues behind the blocked get: first fit
        assert c.level == 1 and env.scheduled == 1
        c.adjust(20)  # does not fit: waits as a put
        assert c.level == 1 and c.free == 9
        c.adjust(5)  # serves the blocked get; the queued put still waits
        assert blocked.triggered and c.level == 0
