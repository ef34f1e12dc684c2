"""Stateful test (hypothesis): ``Environment`` against a reference queue.

The reference keeps pending events in a plain list and pops the
smallest ``(time, priority, insertion order)`` key by linear scan, with
no heap and no inlined loop.  Hypothesis drives both through random
interleavings of ``timeout``, ``schedule``, ``schedule_at``, ``step``,
``run(until=...)`` and ``run()``, including events whose callbacks
schedule further events mid-dispatch, and after every operation the
two must agree on the firing order, the clock, ``pending`` and
``peek()``, bit for bit.

The reference stops ``run(until=<number>)`` by pushing a stop item at
``(at, NORMAL + 1)``.  Events are scheduled at priorities on both sides
of it, and one rule stops at the time of an event already queued, so
the ties at the stop instant are checked: a ``NORMAL + 1`` event queued
there before the call runs before the stop, a ``NORMAL + 2`` one waits.
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim import EmptySchedule, Environment
from repro.sim.events import NORMAL, URGENT

#: Delays with many exact ties plus floats whose sums round.
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.25, 1.0, 1.0 / 3.0]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False),
)

#: Priority of the reference's run(until=<number>) stop item: after
#: every NORMAL event at the stop instant.
_STOP_PRIORITY = NORMAL + 1
_STOP = "stop"

#: Priorities on both sides of the stop item's.
PRIORITIES = st.sampled_from([URGENT, NORMAL, NORMAL + 1, NORMAL + 2])


class ReferenceQueue:
    """The dispatch contract, written as plainly as possible."""

    def __init__(self):
        self.now = 0.0
        self.items = []  # (time, priority, seq, tag, child_tag)
        self.seq = 0
        self.fired = []

    def push(self, at, priority, tag, child=None):
        self.seq += 1
        self.items.append((at, priority, self.seq, tag, child))

    def pop(self):
        """Dispatch the smallest item; return its tag."""
        item = min(self.items, key=lambda entry: entry[:3])
        self.items.remove(item)
        self.now, _, _, tag, child = item
        if tag != _STOP:
            self.fired.append(tag)
        if child is not None:
            # The callback's `child.succeed()`: now, NORMAL, next seq.
            self.push(self.now, NORMAL, child)
        return tag

    def peek(self):
        return min(entry[0] for entry in self.items) if self.items else math.inf


class EngineMatchesReference(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.fired = []
        self.ref = ReferenceQueue()
        self.tags = 0

    def _new_tag(self):
        self.tags += 1
        return f"e{self.tags}"

    def _recorder(self, tag, child_tag=None):
        def callback(event):
            self.fired.append(tag)
            if child_tag is not None:
                child = self.env.event()
                child.callbacks.append(self._recorder(child_tag))
                child.succeed()

        return callback

    @rule(delay=DELAYS, spawn=st.booleans())
    def timeout(self, delay, spawn):
        tag = self._new_tag()
        child = self._new_tag() if spawn else None
        self.env.timeout(delay).callbacks.append(self._recorder(tag, child))
        self.ref.push(self.ref.now + delay, NORMAL, tag, child)

    @rule(delay=DELAYS, priority=PRIORITIES, spawn=st.booleans())
    def schedule(self, delay, priority, spawn):
        tag = self._new_tag()
        child = self._new_tag() if spawn else None
        event = self.env.event()
        event.callbacks.append(self._recorder(tag, child))
        self.env.schedule(event, priority=priority, delay=delay)
        self.ref.push(self.ref.now + delay, priority, tag, child)

    @rule(offset=DELAYS, priority=PRIORITIES)
    def schedule_at(self, offset, priority):
        tag = self._new_tag()
        at = self.ref.now + offset
        event = self.env.event()
        event.callbacks.append(self._recorder(tag))
        self.env.schedule_at(event, at, priority=priority)
        self.ref.push(at, priority, tag)

    @rule()
    def step(self):
        if not self.ref.items:
            with pytest.raises(EmptySchedule):
                self.env.step()
            return
        self.env.step()
        self.ref.pop()

    def _run_until(self, target):
        self.env.run(until=target)
        self.ref.push(target, _STOP_PRIORITY, _STOP)
        while self.ref.pop() != _STOP:
            pass
        assert self.env.now == target

    @rule(offset=DELAYS)
    def run_until(self, offset):
        self._run_until(self.ref.now + offset)

    @precondition(lambda self: self.ref.items)
    @rule(pick=st.integers(min_value=0, max_value=63))
    def run_until_a_queued_time(self, pick):
        """Stop exactly where an event is queued: ties at the stop."""
        items = self.ref.items
        self._run_until(items[pick % len(items)][0])

    @rule()
    def run_to_exhaustion(self):
        self.env.run()
        while self.ref.items:
            self.ref.pop()

    @invariant()
    def agrees_with_reference(self):
        assert self.fired == self.ref.fired
        assert self.env.now == self.ref.now
        assert self.env.pending == len(self.ref.items)
        assert self.env.peek() == self.ref.peek()


EngineMatchesReference.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
test_engine_matches_reference = EngineMatchesReference.TestCase
