"""Unit tests for :class:`repro.kernel.AsyncioBackend`.

The backend subclasses the DES :class:`Environment`, sharing every
primitive by identity; what needs testing here is the wall-clock
dispatch loop itself — sleeping/waking, time mapping, external
injection, cancellation races under ``run_async``, and the asyncio
bridging (:meth:`as_future`, :meth:`request_stop`).

Most tests run in ``fast_forward`` mode, which never sleeps: those
are exact-semantics tests.  The handful of real-sleep tests use
aggressive ``time_scale`` values so the whole file stays fast.
"""

import asyncio

import pytest

from repro.kernel import (
    AsyncioBackend,
    Event,
    Store,
    VirtualTimeBackend,
    is_realtime,
    run_until,
)


def go(env, coro_or_until=None, **kwargs):
    """Drive ``env.run_async`` from sync test code."""
    return asyncio.run(env.run_async(coro_or_until, **kwargs))


class TestConstruction:
    def test_defaults(self):
        env = AsyncioBackend()
        assert env.now == 0.0
        assert env.time_scale == 1.0
        assert not env.fast_forward
        assert is_realtime(env)
        assert not is_realtime(VirtualTimeBackend())

    def test_bad_time_scale(self):
        with pytest.raises(ValueError):
            AsyncioBackend(time_scale=0)
        with pytest.raises(ValueError):
            AsyncioBackend(time_scale=-1)

    def test_sync_run_refused(self):
        env = AsyncioBackend()
        with pytest.raises(RuntimeError, match="run_async"):
            env.run(until=1.0)


class TestFastForwardSemantics:
    """No-sleep dispatch follows DES time semantics exactly."""

    def test_timeout_advances_virtual_time(self):
        env = AsyncioBackend(fast_forward=True)
        seen = []

        def proc():
            yield env.timeout(1.5)
            seen.append(env.now)
            yield env.timeout(2.5)
            seen.append(env.now)

        env.process(proc())
        go(env)
        assert seen == [1.5, 4.0]

    def test_until_time(self):
        env = AsyncioBackend(fast_forward=True)

        def ticker():
            while True:
                yield env.timeout(1.0)

        env.process(ticker())
        go(env, 5.0)
        assert env.now == 5.0

    def test_until_event_value(self):
        env = AsyncioBackend(fast_forward=True)

        def proc():
            yield env.timeout(3.0)
            return "done"

        assert go(env, env.process(proc())) == "done"

    def test_until_already_processed_event(self):
        env = AsyncioBackend(fast_forward=True)
        event = env.event()
        event.succeed("early")
        go(env)  # drains the succeed
        assert go(env, event) == "early"

    def test_process_failure_propagates(self):
        env = AsyncioBackend(fast_forward=True)

        def proc():
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(proc())
        with pytest.raises(RuntimeError, match="boom"):
            go(env)

    def test_store_get_cancel_race_requeues_under_run_async(self):
        """The PR-5 ``get | timeout`` race, driven by the asyncio loop."""
        env = AsyncioBackend(fast_forward=True)
        store = Store(env)
        seen = []

        def proc():
            yield store.put("a")
            yield store.put("b")
            get = store.get()  # succeeds immediately with "a"
            timeout = env.timeout(0)
            yield get | timeout
            get.cancel()  # loser branch: give "a" back
            seen.append(list(store.items))

        env.process(proc())
        go(env)
        assert seen == [["a", "b"]]

    def test_cancel_pending_get_under_run_async(self):
        env = AsyncioBackend(fast_forward=True)
        store = Store(env)

        def proc():
            get = store.get()
            yield env.timeout(1)
            get.cancel()
            yield store.put("x")

        go(env, env.process(proc()))
        assert store.size == 1

    def test_matches_virtual_backend_exactly(self):
        """Same program, both clocks: identical event trace."""

        def program(env, log):
            store = Store(env, capacity=2)

            def producer():
                for index in range(6):
                    yield store.put(index)
                    yield env.timeout(0.25)

            def consumer():
                while True:
                    item = yield store.get()
                    log.append((round(env.now, 6), item))
                    yield env.timeout(0.4)

            env.process(producer())
            env.process(consumer())

        virtual_log = []
        venv = VirtualTimeBackend()
        program(venv, virtual_log)
        venv.run(until=10.0)

        live_log = []
        lenv = AsyncioBackend(fast_forward=True)
        program(lenv, live_log)
        go(lenv, 10.0)

        assert live_log == virtual_log


class TestWallClock:
    def test_time_scale_compresses_sleep(self):
        env = AsyncioBackend(time_scale=200.0)
        done = []

        def proc():
            yield env.timeout(2.0)  # 2 virtual seconds = 10ms wall
            done.append(env.now)

        env.process(proc())
        go(env)
        assert done and done[0] >= 2.0
        # Wall overhead is stamped into now but must stay small.
        assert done[0] < 10.0

    def test_touch_advances_now(self):
        env = AsyncioBackend(time_scale=1000.0)

        async def main():
            task = asyncio.get_running_loop().create_task(
                env.run_async(stop_on_empty=False)
            )
            before = env.now
            await asyncio.sleep(0.01)
            touched = env.touch()
            assert touched >= before
            env.request_stop()
            await task
            return touched

        touched = asyncio.run(main())
        assert touched > 0.0  # 10ms wall * 1000 = 10 virtual seconds

    def test_external_injection_wakes_parked_loop(self):
        env = AsyncioBackend(time_scale=100.0)
        served = []

        def handle(tag):
            yield env.timeout(0.5)
            served.append(tag)
            return tag

        async def main():
            task = asyncio.get_running_loop().create_task(
                env.run_async(stop_on_empty=False)
            )
            # Let the loop park on an empty queue, then inject.
            await asyncio.sleep(0.005)
            env.touch()
            result = await env.as_future(env.process(handle("req-1")))
            assert result == "req-1"
            env.request_stop()
            await task

        asyncio.run(main())
        assert served == ["req-1"]

    def test_bare_timeout_wakes_parked_loop(self):
        """A timeout created outside dispatch (no process around it)
        must wake a parked loop just as ``env.process(...)`` does."""
        env = AsyncioBackend(time_scale=100.0)

        async def main():
            task = asyncio.get_running_loop().create_task(
                env.run_async(stop_on_empty=False)
            )
            try:
                await asyncio.sleep(0.005)
                env.touch()
                # 0.5 simulated s is 5 ms of wall time at x100; a loop
                # left parked would never dispatch it.
                return await asyncio.wait_for(
                    env.as_future(env.timeout(0.5, "woke")), timeout=1.0)
            finally:
                env.request_stop()
                await task

        assert asyncio.run(main()) == "woke"

    def test_request_stop_exits_parked_loop(self):
        env = AsyncioBackend()

        async def main():
            task = asyncio.get_running_loop().create_task(
                env.run_async(stop_on_empty=False)
            )
            await asyncio.sleep(0.005)
            env.request_stop()
            await task

        asyncio.run(main())  # must terminate


class TestAsFuture:
    def test_resolves_with_value(self):
        env = AsyncioBackend(fast_forward=True)

        def proc():
            yield env.timeout(1.0)
            return 42

        async def main():
            future = env.as_future(env.process(proc()))
            await env.run_async()
            return await future

        assert asyncio.run(main()) == 42

    def test_resolves_with_exception_and_defuses(self):
        env = AsyncioBackend(fast_forward=True)

        def proc():
            yield env.timeout(1.0)
            raise ValueError("nope")

        async def main():
            future = env.as_future(env.process(proc()))
            # The failure is defused by the future: run_async must not
            # re-raise it as an unhandled event failure.
            await env.run_async()
            with pytest.raises(ValueError, match="nope"):
                await future

        asyncio.run(main())

    def test_already_processed_event(self):
        env = AsyncioBackend(fast_forward=True)

        async def main():
            event = Event(env)
            event.succeed("x")
            await env.run_async()
            assert event.callbacks is None  # processed
            return await env.as_future(event)

        assert asyncio.run(main()) == "x"

    def test_cancelled_future_defuses_failure(self):
        env = AsyncioBackend(fast_forward=True)

        def proc():
            yield env.timeout(1.0)
            raise ValueError("ignored")

        async def main():
            future = env.as_future(env.process(proc()))
            future.cancel()
            await env.run_async()  # must not raise

        asyncio.run(main())


class TestRunUntilHelper:
    def test_drives_either_backend(self):
        def proc(env):
            yield env.timeout(1.0)
            return "ok"

        venv = VirtualTimeBackend()
        assert run_until(venv, venv.process(proc(venv))) == "ok"
        lenv = AsyncioBackend(fast_forward=True)
        assert run_until(lenv, lenv.process(proc(lenv))) == "ok"
