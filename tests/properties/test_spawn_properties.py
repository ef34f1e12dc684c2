"""Property test (hypothesis): ``spawn`` runs a program as ``process`` does.

``Environment.spawn`` starts a process nobody can wait on, and skips the
exit event such a process schedules on success.  That event has no
callbacks, so dropping it must leave everything else unchanged.
Hypothesis builds small programs of timeouts, resource grants and store
hops, whose children start further children, and runs each one twice:
every child started by ``spawn``, then every child started by a
``process`` whose result is discarded.  Both runs must dispatch the same
``(now, label)`` trace, and a child that raises must make ``run()``
raise the same exception at the same ``now``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store

#: Few distinct delays, so that many events tie on time.
DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.5])

STEPS = st.one_of(
    st.tuples(st.just("wait"), DELAYS),
    st.tuples(st.just("hold"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("put"), st.integers(0, 1)),
    st.tuples(st.just("get"), st.integers(0, 1)),
    st.tuples(st.just("raise")),
)
#: A child's steps, one of which may start a grandchild.
BODIES = st.lists(
    st.one_of(STEPS, st.tuples(st.just("start"), st.lists(STEPS, max_size=4))),
    max_size=6,
)
PROGRAMS = st.lists(st.tuples(DELAYS, BODIES), min_size=1, max_size=5)


class Boom(Exception):
    pass


def run(program, start):
    """Run ``program``, starting every child with ``start(env, gen)``.

    Returns the ``(now, label)`` trace of completed steps and, when a
    child raised, the exception's message and the time ``run()`` raised.
    """
    env = Environment()
    resources = [Resource(env, capacity=1), Resource(env, capacity=2)]
    stores = [Store(env), Store(env, capacity=1)]
    trace = []

    def body(name, steps):
        for index, step in enumerate(steps):
            label = f"{name}.{index}"
            kind = step[0]
            if kind == "wait":
                yield env.timeout(step[1])
            elif kind == "hold":
                with resources[step[1]].request() as grant:
                    yield grant
                    yield env.timeout(step[2])
            elif kind == "put":
                yield stores[step[1]].put(label)
            elif kind == "get":
                item = yield stores[step[1]].get()
                label = f"{label}<{item}"
            elif kind == "raise":
                raise Boom(label)
            else:
                start(env, body(label, step[1]))
            trace.append((env.now, label))

    def child(name, delay, steps):
        yield env.timeout(delay)
        yield from body(name, steps)

    for index, (delay, steps) in enumerate(program):
        start(env, child(f"c{index}", delay, steps))
    try:
        env.run()
    except Boom as exc:
        return trace, (str(exc), env.now)
    return trace, None


def spawn(env, generator):
    assert env.spawn(generator) is None


def process(env, generator):
    env.process(generator)


@given(program=PROGRAMS)
@settings(max_examples=150, deadline=None)
def test_spawn_dispatches_as_an_unawaited_process(program):
    assert run(program, spawn) == run(program, process)


def test_a_raising_spawned_child_escalates_from_run():
    program = [(0.5, [("wait", 1.0), ("raise",)]), (0.0, [("wait", 2.5)])]
    trace, failure = run(program, spawn)
    assert trace == [(1.5, "c0.0")]
    assert failure == ("c0.1", 1.5)
    assert (trace, failure) == run(program, process)
