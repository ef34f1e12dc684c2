"""Property-based tests (hypothesis) for the DES kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Container, Environment, Resource, Store


@given(delays=st.lists(st.floats(min_value=0, max_value=1e4,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    """No event may observe time going backwards."""
    env = Environment()
    observed = []

    def proc(delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(proc(delay))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0.001, max_value=10,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=25),
       capacity=st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_resource_never_exceeds_capacity(delays, capacity):
    """At every grant instant, users <= capacity, and all work finishes."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    max_seen = {"users": 0}
    finished = []

    def proc(hold):
        with res.request() as grant:
            yield grant
            max_seen["users"] = max(max_seen["users"], res.count)
            assert res.count <= capacity
            yield env.timeout(hold)
        finished.append(hold)

    for hold in delays:
        env.process(proc(hold))
    env.run()
    assert len(finished) == len(delays)
    assert res.count == 0
    assert max_seen["users"] <= capacity


@given(delays=st.lists(st.floats(min_value=0.01, max_value=5,
                                 allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=20))
@settings(max_examples=40, deadline=None)
def test_resource_busy_time_equals_total_work(delays):
    """With ample capacity, busy slot-seconds == sum of hold times."""
    env = Environment()
    res = Resource(env, capacity=len(delays))

    def proc(hold):
        with res.request() as grant:
            yield grant
            yield env.timeout(hold)

    for hold in delays:
        env.process(proc(hold))
    env.run()
    assert abs(res.busy_time() - sum(delays)) < 1e-9 * max(1, len(delays))


@given(amounts=st.lists(st.floats(min_value=1, max_value=100,
                                  allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_container_conserves_quantity(amounts):
    """put(x) then get(x) for every x leaves the container at its
    initial level; the level never goes negative or above capacity."""
    env = Environment()
    capacity = sum(amounts) + 1
    container = Container(env, capacity=capacity)

    def producer():
        for amount in amounts:
            yield container.put(amount)
            assert 0 <= container.level <= capacity

    def consumer():
        for amount in amounts:
            yield container.get(amount)
            assert 0 <= container.level <= capacity

    env.process(producer())
    env.process(consumer())
    env.run()
    assert container.level == 0


@given(items=st.lists(st.integers(), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_store_is_fifo_and_lossless(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == items
