"""Unit tests for the DES engine: time, processes, events, conditions."""

import pytest

from repro.sim import Environment, EmptySchedule


def test_initial_time_is_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_can_be_set():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_time():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)

    env.process(proc(env))
    env.run()
    assert env.now == 3.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_value_delivered():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_run_until_time_stops_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1)

    env.process(proc(env))
    env.run(until=10)
    assert env.now == 10


def test_run_until_past_time_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_process_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return 42

    result = env.run(until=env.process(proc(env)))
    assert result == 42
    assert env.now == 2


def test_run_empty_schedule_returns_none():
    env = Environment()
    assert env.run() is None


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_events_processed_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 3, "c"))
    env.process(proc(env, 1, "a"))
    env.process(proc(env, 2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in "abcde":
        env.process(proc(env, tag))
    env.run()
    assert order == list("abcde")


def test_process_waits_for_process():
    env = Environment()
    trace = []

    def child(env):
        yield env.timeout(5)
        trace.append("child done")
        return "result"

    def parent(env):
        value = yield env.process(child(env))
        trace.append(f"parent got {value}")

    env.process(parent(env))
    env.run()
    assert trace == ["child done", "parent got result"]


def test_manual_event_succeed():
    env = Environment()
    done = env.event()
    got = []

    def waiter(env):
        value = yield done
        got.append(value)

    def firer(env):
        yield env.timeout(2)
        done.succeed("fired")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert got == ["fired"]


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("nope"))


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    ev.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_escalates():
    env = Environment()
    ev = env.event()
    ev.fail(ValueError("unhandled"))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_uncaught_exception_in_waited_process_propagates():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise RuntimeError("child crashed")

    def parent(env):
        with pytest.raises(RuntimeError, match="child crashed"):
            yield env.process(child(env))

    env.run(until=env.process(parent(env)))


def test_uncaught_exception_in_unwaited_process_escalates():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise RuntimeError("nobody is watching")

    env.process(child(env))
    with pytest.raises(RuntimeError, match="nobody is watching"):
        env.run()


def test_yield_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="invalid yield"):
        env.run()


def test_yielding_already_processed_event_resumes_immediately():
    env = Environment()
    trace = []

    def proc(env):
        t = env.timeout(1, value="v")
        yield env.timeout(5)
        value = yield t  # processed long ago; should not block
        trace.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert trace == [(5, "v")]


def test_process_is_alive():
    env = Environment()

    def proc(env):
        yield env.timeout(3)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_peek_reports_next_event_time():
    env = Environment()

    def proc(env):
        yield env.timeout(7)

    env.process(proc(env))
    # The Initialize event is scheduled at t=0.
    assert env.peek() == 0.0
    env.step()
    assert env.peek() == 7.0


class TestConditions:
    def test_all_of(self):
        env = Environment()
        results = []

        def proc(env):
            t1 = env.timeout(1, value="a")
            t2 = env.timeout(2, value="b")
            cond = yield env.all_of([t1, t2])
            results.append((env.now, cond.values()))

        env.process(proc(env))
        env.run()
        assert results == [(2, ["a", "b"])]

    def test_any_of(self):
        env = Environment()
        results = []

        def proc(env):
            t1 = env.timeout(1, value="a")
            t2 = env.timeout(2, value="b")
            cond = yield env.any_of([t1, t2])
            results.append((env.now, cond.values()))

        env.process(proc(env))
        env.run()
        assert results == [(1, ["a"])]

    def test_and_operator(self):
        env = Environment()
        results = []

        def proc(env):
            yield env.timeout(1) & env.timeout(3)
            results.append(env.now)

        env.process(proc(env))
        env.run()
        assert results == [3]

    def test_or_operator(self):
        env = Environment()
        results = []

        def proc(env):
            yield env.timeout(1) | env.timeout(3)
            results.append(env.now)

        env.process(proc(env))
        env.run()
        assert results == [1]

    def test_empty_all_of_triggers_immediately(self):
        env = Environment()
        results = []

        def proc(env):
            yield env.all_of([])
            results.append(env.now)

        env.process(proc(env))
        env.run()
        assert results == [0]

    def test_condition_failure_propagates(self):
        env = Environment()
        ev = env.event()

        def proc(env):
            with pytest.raises(ValueError, match="cond"):
                yield env.all_of([ev, env.timeout(10)])

        p = env.process(proc(env))
        ev.fail(ValueError("cond"))
        env.run(until=p)

    def test_condition_value_mapping(self):
        env = Environment()

        def proc(env):
            t1 = env.timeout(1, value="x")
            t2 = env.timeout(1, value="y")
            cond = yield env.all_of([t1, t2])
            assert cond[t1] == "x"
            assert cond[t2] == "y"
            assert t1 in cond
            assert len(cond) == 2

        env.run(until=env.process(proc(env)))


class TestScheduleAt:
    """Absolute-time scheduling (the cross-environment delivery path)."""

    def test_fires_at_exact_absolute_time(self):
        env = Environment()
        seen = []
        event = env.event()
        event._ok = True
        event._value = None
        event.callbacks.append(lambda _ev: seen.append(env.now))
        # A time that relative scheduling could miss by an ulp.
        at = 0.1 + 0.2  # 0.30000000000000004
        env.schedule_at(event, at)
        env.run()
        assert seen == [at]

    def test_interleaves_with_relative_events(self):
        env = Environment()
        order = []

        def proc(env):
            yield env.timeout(1.0)
            order.append("timeout")

        env.process(proc(env))
        event = env.event()
        event._ok = True
        event._value = None
        event.callbacks.append(lambda _ev: order.append("absolute"))
        env.schedule_at(event, 0.5)
        env.run()
        assert order == ["absolute", "timeout"]

    def test_past_time_rejected(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2.0)

        env.run(until=env.process(proc(env)))
        with pytest.raises(ValueError, match="must be >= now"):
            env.schedule_at(env.event(), 1.0)


class TestRunUntilDrift:
    """run(until=<number>) must stop at *exactly* that float.

    The old implementation scheduled the stop event with a relative
    delay of ``until - now``, and float arithmetic does not guarantee
    ``now + (until - now) == until`` — runs could stop one ulp early or
    late, and a subsequent ``run(until=...)`` with the same target
    could raise "until is in the past".  The fix routes the stop event
    through absolute-time scheduling.
    """

    # (now, until) pairs where ``now + (until - now) != until`` — the
    # relative-delay formulation lands one ulp off the target.
    PATHOLOGICAL = [
        (0.7148007551913033, 1.9935579046706298),
        (1.0139796020820893, 3.5222556151550743),
        (0.289738047221913, 1.463544898080057),
        (1.4855757384787682, 7.854891493606652),
    ]

    def test_drift_arithmetic_is_actually_pathological(self):
        """Guard the premise: every pair above does exhibit the drift."""
        assert all(now + (at - now) != at for now, at in self.PATHOLOGICAL)

    @pytest.mark.parametrize("now,target", PATHOLOGICAL)
    def test_stops_at_exact_float(self, now, target):
        env = Environment(initial_time=now)

        def ticker(env):
            while True:
                yield env.timeout((target - now) / 7)

        env.process(ticker(env))
        env.run(until=target)
        assert env.now == target  # bit-exact, not approx

    @pytest.mark.parametrize("now,target", PATHOLOGICAL)
    def test_resuming_to_same_target_is_a_noop(self, now, target):
        """If the first run overshot by an ulp, this raised ValueError."""
        env = Environment(initial_time=now)

        def ticker(env):
            while True:
                yield env.timeout(0.1)

        env.process(ticker(env))
        env.run(until=target)
        env.run(until=target)  # same instant: legal, advances nothing
        assert env.now == target

    def test_events_at_the_stop_instant_still_fire_first(self):
        """The stop bound sits below NORMAL priority, so work
        landing at exactly t=until runs before the run() returns."""
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(5.0)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=5.0)
        assert fired == [5.0]


class TestRunUntilBound:
    """run(until=<number>) stops at a bound and queues nothing."""

    def test_each_slice_consumes_one_insertion_number(self):
        env = Environment()
        env.run(until=1.0)
        env.run(until=1.0)
        assert (env._eid, env.pending, env.now) == (2, 0, 1.0)

    def test_a_failed_slice_leaves_no_stop_behind(self):
        """A slice that raises must not leave a stop that ends a later run."""
        env = Environment()
        env.event().fail(RuntimeError("boom"))
        late = env.timeout(10.0)
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=5.0)
        assert env.pending == 1
        env.run()
        assert late.processed
        assert env.now == 10.0


class TestStepRunEquivalence:
    """run() inlines step()'s dispatch; interleaving them cannot change
    the trajectory."""

    @staticmethod
    def _workload(env, trace):
        def chain(env, tag):
            for i in range(8):
                yield env.timeout(0.25 + 0.1 * i)
                trace.append((round(env.now, 6), tag, i))

        env.process(chain(env, "a"))
        env.process(chain(env, "b"))

    def test_interleaved_step_run_matches_pure_run(self):
        pure = Environment()
        pure_trace = []
        self._workload(pure, pure_trace)
        pure.run()

        mixed = Environment()
        mixed_trace = []
        self._workload(mixed, mixed_trace)
        for _ in range(3):
            mixed.step()  # a few manual steps...
        mixed.run(until=1.0)  # ...a bounded run...
        while mixed.pending:
            mixed.step()  # ...then stepped to exhaustion
        assert mixed_trace == pure_trace
        assert mixed.now == pure.now
