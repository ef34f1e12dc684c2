"""Float totals that every supported interpreter rounds the same way.

From CPython 3.12 the built-in :func:`sum` adds floats with compensated
(Neumaier) summation; 3.10 and 3.11 add them one after another.  The
same latencies therefore average to a different last digit on 3.12+,
and every pinned digest over a mean would depend on the interpreter.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["float_sum"]


def float_sum(values: Iterable[float]) -> float:
    """Add ``values`` in the order given, left to right.

    This is what the built-in :func:`sum` does on CPython 3.10 and 3.11,
    so pinned outputs keep their digits on every interpreter
    ``requires-python`` admits.  Use it for every total of floats under
    ``repro`` (``tests/kernel/test_float_sums.py`` enforces this); sums
    of ints keep the built-in, because int addition is exact.  Like the
    built-in it starts from the int ``0``, so an empty input gives ``0``.
    :func:`math.fsum` would also be interpreter-independent, but it
    rounds differently from the sums the pins were taken with.
    """
    total = 0
    for value in values:
        total += value
    return total
