"""Deterministic discrete-event simulation kernel (SimPy-style, from scratch).

Public surface::

    env = Environment()
    def proc(env):
        yield env.timeout(1.0)
        return "done"
    p = env.process(proc(env))
    env.run()        # or env.run(until=10.0) / env.run(until=p)

Synchronization primitives: :class:`Resource`, :class:`PriorityResource`,
:class:`Container`, :class:`Store`.  Reproducible randomness:
:class:`RandomStreams`.
"""

from .containers import Container
from .engine import EmptySchedule, Environment
from .events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .process import Initialize, Process
from .resources import PriorityResource, Request, Resource
from .rng import RandomStreams
from .stores import Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Container",
    "EmptySchedule",
    "Environment",
    "Event",
    "Initialize",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "Store",
    "Timeout",
]
