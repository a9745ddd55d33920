"""Parallel experiment sweep runner.

Every figure and ablation is a sweep of independent, deterministic
simulations -- a perfect fan-out.  :func:`parallel_map` runs sweep cells
across worker processes (simulations are CPU-bound, so threads would gain
nothing under the GIL) while keeping the results in input order, which
together with the per-cell determinism of the simulator makes the parallel
path bit-identical to the serial one.

Job count resolution (first match wins):

1. an explicit ``jobs=`` argument;
2. the active run config's ``jobs`` (``--jobs`` / ``REPRO_JOBS``);
3. ``os.cpu_count()``.

Pool workers run under the parent's active config (handed over by the
pool initializer), so a sweep inside :func:`repro.config.configured` means
the same thing serial or parallel.

The count is clamped to the number of sweep cells, and anything that
prevents multiprocessing (a sandbox that forbids fork, a broken worker)
degrades to the plain serial loop rather than failing the experiment --
cells are pure functions, so re-running them is always safe.

Cells must be picklable: module-level functions taking plain-data argument
tuples and returning plain data (no ``ScenarioResult``, whose scenario
holds closures).  Each experiment module defines its own cell functions.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, TypeVar

from repro.config import activate, active_config

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_jobs(jobs: Optional[int] = None, n_items: Optional[int] = None) -> int:
    """Resolve the worker count: argument > active config > cpu_count.

    The result is clamped to *n_items* (no point spawning idle workers)
    and floored at 1.
    """
    if jobs is None:
        jobs = active_config().jobs or os.cpu_count() or 1
    if n_items is not None:
        jobs = min(jobs, n_items)
    return max(1, jobs)


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    jobs: Optional[int] = None,
) -> List[_R]:
    """Map *fn* over *items*, possibly across processes; order-preserving.

    With a resolved job count of 1 (the default on a single-core host, or
    ``jobs=1`` in the config) this is exactly ``[fn(x) for x in items]`` --
    no pool, no pickling, no behavioural difference.  Otherwise cells are
    distributed over a :class:`ProcessPoolExecutor`; results come back in
    input order.

    Falls back to the serial loop if the pool cannot be created or breaks
    (sandboxed environments, killed workers).  Exceptions raised by *fn*
    itself propagate unchanged in both modes.
    """
    cells = list(items)
    n_jobs = resolve_jobs(jobs, n_items=len(cells))
    if n_jobs <= 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    try:
        with ProcessPoolExecutor(
            max_workers=n_jobs, initializer=activate, initargs=(active_config(),)
        ) as pool:
            return list(pool.map(fn, cells))
    except (BrokenProcessPool, OSError):
        # Pool creation or a worker died (fork forbidden, OOM-killed, ...):
        # cells are pure, so redo the whole sweep serially.
        return [fn(cell) for cell in cells]
