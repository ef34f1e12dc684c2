"""Unit tests for Store and RandomStreams."""

import pytest

from repro.sim import Environment, RandomStreams, Store


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        got = []

        def proc(env):
            yield store.put("x")
            item = yield store.get()
            got.append(item)

        env.run(until=env.process(proc(env)))
        assert got == ["x"]

    def test_fifo_item_order(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            for item in "abc":
                yield store.put(item)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == ["a", "b", "c"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((item, env.now))

        def producer(env):
            yield env.timeout(5)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [("late", 5)]

    def test_bounded_capacity_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)
        trace = []

        def producer(env):
            yield store.put(1)
            trace.append(("put1", env.now))
            yield store.put(2)
            trace.append(("put2", env.now))

        def consumer(env):
            yield env.timeout(3)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert trace == [("put1", 0), ("put2", 3)]

    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_peak_size(self):
        env = Environment()
        store = Store(env)

        def proc(env):
            for i in range(5):
                yield store.put(i)
            for _ in range(5):
                yield store.get()

        env.run(until=env.process(proc(env)))
        assert store.peak_size == 5
        assert store.size == 0

    def test_get_wait_time(self):
        env = Environment()
        store = Store(env)
        waits = []

        def consumer(env):
            get = store.get()
            item = yield get
            waits.append((item, get.wait_time))

        def producer(env):
            yield env.timeout(2.5)
            yield store.put("x")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert waits == [("x", 2.5)]

    def test_cancel_pending_get(self):
        env = Environment()
        store = Store(env)

        def proc(env):
            get = store.get()
            yield env.timeout(1)
            get.cancel()
            yield store.put("x")

        env.run(until=env.process(proc(env)))
        assert store.size == 1  # nobody consumed it


class TestGetCancelRequeue:
    """``get | timeout`` races: cancelling a get that already succeeded
    must put the item back (at the front), never drop it."""

    def test_cancel_after_success_requeues_item_at_front(self):
        env = Environment()
        store = Store(env)
        seen = []

        def proc(env):
            yield store.put("a")
            yield store.put("b")
            get = store.get()  # succeeds immediately with "a"
            timeout = env.timeout(0)
            yield get | timeout
            get.cancel()  # loser branch of a race: give "a" back
            seen.append(list(store.items))

        env.run(until=env.process(proc(env)))
        assert seen == [["a", "b"]]  # "a" back at the *front*, order kept

    def test_cancel_twice_requeues_once(self):
        env = Environment()
        store = Store(env)

        def proc(env):
            yield store.put("a")
            get = store.get()
            yield env.timeout(0)
            get.cancel()
            get.cancel()

        env.run(until=env.process(proc(env)))
        assert list(store.items) == ["a"]

    def test_requeued_item_wakes_blocked_getter(self):
        env = Environment()
        store = Store(env)
        got = []

        def waiter(env):
            item = yield store.get()
            got.append((item, env.now))

        def racer(env):
            yield env.timeout(1)
            yield store.put("x")
            get = store.get()
            yield env.timeout(0)
            get.cancel()  # hand "x" back; the waiter must receive it

        env.process(racer(env))
        env.process(waiter(env))
        env.run()
        assert got == [("x", 1)]

    def test_get_timeout_race_never_loses_item(self):
        """put and timeout land on the same timestamp: whichever branch
        the consumer takes, the item survives."""
        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            yield env.timeout(1.0)
            yield store.put("x")

        def consumer(env):
            get = store.get()
            timeout = env.timeout(1.0)
            yield get | timeout
            if get.triggered:
                got.append(get.value)
            else:
                get.cancel()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == ["x"] or list(store.items) == ["x"]

    def test_cancel_untriggered_get_leaves_no_waiter(self):
        env = Environment()
        store = Store(env)

        def proc(env):
            get = store.get()
            yield env.timeout(1)
            get.cancel()
            yield store.put("x")

        env.run(until=env.process(proc(env)))
        assert list(store.items) == ["x"]
        assert store.waiting_getters == 0


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(seed=7).stream("arrivals")
        b = RandomStreams(seed=7).stream("arrivals")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_creation_order_does_not_matter(self):
        s1 = RandomStreams(seed=3)
        s1.stream("x")
        first = s1.stream("y").random()

        s2 = RandomStreams(seed=3)
        second = s2.stream("y").random()  # y created before x here
        s2.stream("x")
        assert first == second

    def test_spawn_derives_independent_family(self):
        parent = RandomStreams(seed=1)
        child = parent.spawn("gpu0")
        assert child.seed != parent.seed
        # Deterministic: same spawn name gives same child seed.
        assert parent.spawn("gpu0").seed == child.seed
        assert parent.spawn("gpu1").seed != child.seed
