"""Dynamic batcher (Triton-style, paper Sec. 2.1).

Aggregates individual requests into batches for the GPU.  Two policies:

- **dynamic** (``max_queue_delay`` set): greedily take whatever is queued
  up to ``max_batch``; if the batch is short, wait for more items until
  the *oldest* item has waited ``max_queue_delay``, then dispatch.
- **fixed** (``max_queue_delay`` is None): always wait for a full batch.
  This is the pre-dynamic-batching configuration of the Fig. 3 ladder,
  whose tail latency the paper shows dynamic batching improves
  (55 ms -> 38 ms).

The batcher pushes batches into a bounded output store sized to the
number of consuming instances, so requests keep accruing *queue* time
until an instance is actually free — matching how Triton reports queue
duration.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from ..kernel import ExecutionBackend, Store

__all__ = ["DynamicBatcher"]

#: Sentinel flushed through the input queue by :meth:`DynamicBatcher.drain`.
#: Travelling the ordinary ``queue.put`` path means draining adds *zero*
#: events to the schedule until a drain is actually requested, so the
#: event-id stream — and with it every pinned golden — is untouched.
_DRAIN = object()


class DynamicBatcher:
    """Forms batches from an input queue and emits them to instances."""

    def __init__(
        self,
        env: ExecutionBackend,
        max_batch: int,
        max_queue_delay: Optional[float],
        output_capacity: int = 1,
        name: str = "batcher",
        greedy: bool = True,
        preferred_batch: int = 1,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue_delay is not None and max_queue_delay < 0:
            raise ValueError(f"max_queue_delay must be >= 0, got {max_queue_delay}")
        if output_capacity < 1:
            raise ValueError(f"output_capacity must be >= 1, got {output_capacity}")
        if preferred_batch < 1 or preferred_batch > max_batch:
            raise ValueError(
                f"preferred_batch must be in [1, max_batch], got {preferred_batch}"
            )
        self.env = env
        self.name = name
        self.max_batch = max_batch
        self.max_queue_delay = max_queue_delay
        #: Greedy batchers dispatch immediately to an idle consumer
        #: (Triton inference scheduling); non-greedy ones always wait out
        #: the queue delay to build large batches (DALI preferred-batch
        #: preprocessing pipelines).
        self.greedy = greedy
        #: Triton preferred_batch_size: an idle consumer only triggers
        #: immediate dispatch once the batch has reached this size;
        #: smaller batches wait out the queue delay.
        self.preferred_batch = preferred_batch
        self.queue: Store = Store(env)
        self.batches: Store = Store(env, capacity=output_capacity)
        self.dispatched_batches = 0
        self.dispatched_items = 0
        #: Enqueue timestamp of every item still in ``queue``, in FIFO
        #: order.  The dynamic policy anchors its deadline to the oldest
        #: item's arrival (Triton max_queue_delay semantics), which must
        #: survive the batcher being blocked on a full output store.
        self._arrivals: Deque[float] = deque()
        self._draining = False
        self._drained = None
        env.spawn(self._run())

    def __repr__(self) -> str:
        return (
            f"<DynamicBatcher {self.name} max_batch={self.max_batch} "
            f"delay={self.max_queue_delay}>"
        )

    @property
    def mean_batch_size(self) -> float:
        if self.dispatched_batches == 0:
            return 0.0
        return self.dispatched_items / self.dispatched_batches

    def submit(self, item: Any):
        """Event: enqueue one item for batching."""
        self._arrivals.append(self.env.now)
        return self.queue.put(item)

    def next_batch(self):
        """Event: retrieve the next formed batch (instances call this)."""
        return self.batches.get()

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has been requested."""
        return self._draining

    def drain(self):
        """Event: flush everything queued as (partial) batches, then succeed.

        Graceful-shutdown hook: after ``drain()`` the batching loop stops
        waiting — no full-batch blocking, no queue-delay accumulation —
        and dispatches whatever is queued immediately, so in-flight work
        completes instead of being dropped.  The returned event succeeds
        once the input queue is empty and the last partial batch has been
        emitted.  Idempotent: repeated calls return the same event.  Any
        shutdown *deadline* belongs to the caller (``yield drain() |
        timeout`` and give up on expiry).
        """
        if self._drained is None:
            self._drained = self.env.event()
            self._draining = True
            self._arrivals.append(self.env.now)
            self.queue.put(_DRAIN)
        return self._drained

    def _consumer_idle(self) -> bool:
        """True when an instance is blocked right now waiting for a batch."""
        return self.greedy and self.batches.waiting_getters > 0

    def _dispatchable(self, batch: List[Any]) -> bool:
        """True when an idle consumer should receive ``batch`` right now."""
        return self._consumer_idle() and len(batch) >= self.preferred_batch

    # -- batching loop -------------------------------------------------------

    def _run(self):
        while True:
            first = yield self.queue.get()
            if first is _DRAIN:
                self._pop_arrival()
                self._finish_drain()
                continue
            first_arrival = self._pop_arrival()
            batch: List[Any] = [first]
            self._drain_into(batch)

            if len(batch) < self.max_batch and not self._draining:
                if self.max_queue_delay is None:
                    yield from self._fill_to_capacity(batch)
                elif not self._dispatchable(batch):
                    # Triton semantics: an idle instance receives the batch
                    # immediately once it reaches the preferred size; the
                    # queue delay accumulates it otherwise.
                    yield from self._fill_until_deadline(batch, first_arrival)

            yield self.batches.put(batch)
            self.dispatched_batches += 1
            self.dispatched_items += len(batch)

    def _finish_drain(self) -> None:
        """The drain sentinel reached the loop head: decide if we're done."""
        if self.queue.items:
            # Items were submitted behind the sentinel; push it to the
            # back so they flush (immediately, since draining) first.
            self._arrivals.append(self.env.now)
            self.queue.items.append(_DRAIN)
        else:
            self._drained.succeed()

    def _requeue_sentinel(self) -> None:
        """A fill pass pulled the sentinel mid-batch: put it back in front.

        Its arrival stamp was not popped, so the arrivals deque stays
        aligned with the queue contents.
        """
        self.queue.items.appendleft(_DRAIN)

    def _pop_arrival(self) -> float:
        """Consume the enqueue timestamp of the item just removed."""
        if self._arrivals:
            return self._arrivals.popleft()
        return self.env.now

    def _drain_into(self, batch: List[Any]) -> None:
        """Move already-queued items into ``batch`` without waiting."""
        items = self.queue.items
        arrivals = self._arrivals
        while len(batch) < self.max_batch and items and items[0] is not _DRAIN:
            batch.append(items.popleft())
            if arrivals:
                arrivals.popleft()

    def _fill_to_capacity(self, batch: List[Any]):
        """Fixed-batch policy: block until the batch is completely full."""
        while len(batch) < self.max_batch:
            item = yield self.queue.get()
            if item is _DRAIN:
                self._requeue_sentinel()
                return
            self._pop_arrival()
            batch.append(item)

    def _fill_until_deadline(self, batch: List[Any], first_arrival: float):
        """Dynamic policy: top up until the oldest item's delay expires
        or a consumer goes idle.

        The deadline is anchored to the *oldest item's enqueue time*, not
        to when this fill pass starts: when the batcher was stalled on a
        full output store, the time its queue head already waited counts
        against ``max_queue_delay`` (Triton's definition of queue delay).
        """
        deadline = first_arrival + self.max_queue_delay
        timeout = None
        while len(batch) < self.max_batch and not self._dispatchable(batch):
            remaining = deadline - self.env.now
            if remaining <= 0:
                return
            if timeout is None:
                # One timer for the whole fill pass: the deadline is fixed,
                # so re-arming a fresh Timeout per item is pure allocation.
                timeout = self.env.timeout(remaining)
            get_event = self.queue.get()
            yield get_event | timeout
            if get_event.triggered:
                if get_event.value is _DRAIN:
                    self._requeue_sentinel()
                    return
                self._pop_arrival()
                batch.append(get_event.value)
                self._drain_into(batch)
            else:
                get_event.cancel()
                return
