"""Every kernel event is ``__slots__``-based, as the ``Event`` docstring says.

Events are the most-allocated objects in a run; a subclass that forgets
``__slots__`` silently gives every instance a ``__dict__``.
"""

import importlib
import pkgutil

import repro
from repro.sim import Environment, Resource
from repro.sim.events import Event
from repro.sim.process import Initialize


def _import_all_repro_modules():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _has_instance_dict(cls) -> bool:
    # A class without __slots__ anywhere in its MRO gets a __dict__
    # descriptor of its own.
    return any("__dict__" in vars(klass) for klass in cls.__mro__)


def test_no_repro_event_subclass_has_an_instance_dict():
    _import_all_repro_modules()
    events = {cls for cls in _subclasses(Event)
              if cls.__module__.startswith("repro.")}
    assert len(events) >= 13  # the walk found the kernel's events
    offenders = sorted(f"{cls.__module__}.{cls.__qualname__}"
                       for cls in events | {Event} if _has_instance_dict(cls))
    assert offenders == []


def test_events_built_in_place_set_every_event_slot():
    # Request, Process and Initialize assign Event's fields themselves
    # instead of calling Event.__init__; a slot they miss would raise
    # only when first read.
    env = Environment()

    def idle():
        yield env.timeout(1)

    process = env.process(idle())
    for event in (Resource(env).request(), process, Initialize(env, process)):
        missing = [slot for slot in Event.__slots__ if not hasattr(event, slot)]
        assert missing == [], type(event).__name__
