"""Phase counts and times of library calls, recorded only inside ``recording()``.

One recording serves the process; off, a phase costs a read of ``on`` and ``is None`` tests.
"""

from contextlib import contextmanager
from time import perf_counter as clock

on = None  # the recording in force: phase name -> (count, seconds), or None


@contextmanager
def recording():
    """Record the block's phases in the dict yielded, then restore the outer one."""
    global on
    outer, on = on, {}
    try:
        yield on
    finally:
        on = outer


def add(name: str, count: int, start: float) -> float:
    """Add a pass of ``name`` over ``count`` items, from ``start`` to the clock returned."""
    end = clock()
    items, seconds = on.get(name, (0, 0.0))
    on[name] = (items + count, seconds + end - start)
    return end
