"""Keep Python's cyclic garbage collector off a simulator's live graph.

A built simulator -- engine, machine, kernel, server, packages and every
application's tasks -- is one large object graph that stays alive until
the run is reduced.  The cyclic collector cannot free any of it, yet every
automatic collection of the build re-walks what has been built so far,
and every full collection in the event loop re-walks all of it.
:func:`collector_scope` brackets one run:

* from the start of the build until event-loop entry, automatic
  collection is paused (the build makes no cyclic garbage);
* at loop entry the collector is switched back on.  If the build is
  larger than the collector's full-collection cadence (the product of its
  three thresholds: a build that size would have triggered at least one
  full collection by itself), every tracked object is first moved to the
  permanent generation with :func:`gc.freeze`, so the loop's own
  short-lived garbage is still collected without re-walking the graph;
* when the scope closes, a frozen graph is thawed and the one full
  collection the freeze held back is run, and the collector is back in
  the state it was found in, whatever the exit path.

That closing collection is what keeps memory bounded.  The freeze also
takes any garbage the caller left -- the previous run's simulator is
cyclic -- and it resets the young-generation count, so the collector's
own triggers would not come back to that garbage soon.  The caller closes
the scope once the run's graph is unreachable, so the closing collection
frees the graph instead of walking it.  A smaller build is left to the
collector's normal triggers, which still count it.

The scope does nothing when the caller already runs without the collector
or holds frozen objects (``--benchmark-disable-gc``, a run nested in
another, a caller's own freeze): :func:`gc.unfreeze` thaws every frozen
object, so a scope never freezes unless it will be the one to thaw.  The
collector's state is per process, so runs in one process must not overlap
from several threads.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, Iterator


@contextmanager
def collector_scope() -> Iterator[Callable[[], None]]:
    """Pause the collector for a build; yield the call that enters the loop.

    Usage::

        with collector_scope() as enter_loop:
            ...  # build: no automatic collection
            enter_loop()
            ...  # run: a large built graph is frozen, collector on
        # graph unreachable here: a frozen one is thawed and collected
    """
    if not gc.isenabled() or gc.get_freeze_count():
        yield lambda: None
        return
    froze = False

    def enter_loop() -> None:
        nonlocal froze
        young, middle, old = gc.get_threshold()
        # With the collector off, the young count is every tracked object
        # the build allocated and still holds.
        if gc.get_count()[0] > young * middle * old:
            gc.freeze()
            froze = True
        gc.enable()

    gc.disable()
    try:
        yield enter_loop
    finally:
        gc.enable()
        if froze:
            gc.unfreeze()
            gc.collect()
