"""Deterministic discrete-event simulation kernel (SimPy-style, from scratch).

Public surface::

    env = Environment()
    def proc(env):
        yield env.timeout(1.0)
        return "done"
    p = env.process(proc(env))
    env.run()        # or env.run(until=10.0) / env.run(until=p)

Synchronization primitives: :class:`Resource`, :class:`PriorityResource`,
:class:`Container`, :class:`Store`, :class:`FilterStore`,
:class:`PriorityStore`.  Reproducible randomness: :class:`RandomStreams`.
"""

from .containers import Container
from .engine import EmptySchedule, Environment
from .monitor import Counter, Gauge, Monitor, Series
from .events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .process import Initialize, Interrupt, Process
from .resources import PriorityResource, Request, Resource
from .rng import RandomStreams
from .stores import FilterStore, PriorityItem, PriorityStore, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Container",
    "Counter",
    "Gauge",
    "Monitor",
    "Series",
    "EmptySchedule",
    "Environment",
    "Event",
    "FilterStore",
    "Initialize",
    "Interrupt",
    "PriorityItem",
    "PriorityResource",
    "PriorityStore",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "Store",
    "Timeout",
]
