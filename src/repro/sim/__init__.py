"""Discrete-event simulation substrate.

This package provides the deterministic discrete-event engine that the
multiprocessor model (:mod:`repro.machine`), the kernel (:mod:`repro.kernel`),
and everything above them are built on.  It deliberately contains no
scheduling policy or machine knowledge: just a clock, an event calendar,
named pseudo-random streams, and a structured trace log.

Public API
----------

- :class:`~repro.sim.engine.Engine` -- the event loop.
- :class:`~repro.sim.engine.EventHandle` -- cancellable handle returned by
  :meth:`Engine.schedule`.
- :class:`~repro.sim.rand.RandomStreams` -- named, independently seeded
  pseudo-random streams so that adding randomness to one subsystem does not
  perturb another.
- :class:`~repro.sim.trace.TraceLog` / :class:`~repro.sim.trace.TraceRecord`
  -- structured event tracing used by the metrics layer.
- :mod:`repro.sim.units` -- integer-microsecond time helpers.
- :func:`~repro.sim.collector.collector_scope` -- keeps the cyclic garbage
  collector off a run's live object graph (paused build, frozen loop).
"""

from repro.sim.engine import Engine, EventHandle, RepeatingEvent, SimulationError
from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceLog, TraceRecord, dispatch_digest
from repro.sim.export import dump_trace, load_trace
from repro.sim.collector import collector_scope
from repro.sim import units

__all__ = [
    "Engine",
    "EventHandle",
    "RepeatingEvent",
    "SimulationError",
    "RandomStreams",
    "TraceLog",
    "TraceRecord",
    "dispatch_digest",
    "collector_scope",
    "dump_trace",
    "load_trace",
    "units",
]
