"""Host-time attribution by layer, recorded from outside the simulator.

:class:`LayerTrace` patches the public entry points of each layer of
``repro`` for the duration of a ``with`` block and restores every patched
attribute on exit.  Nothing under ``src/`` knows it is being measured.

Spans nest: a span's *self* time is its duration minus the time spent in
spans it (transitively) called and in garbage-collector pauses, so the
per-layer self times partition the traced run's host time.  Layer
boundaries:

* ``sim``: ``Engine.run_until_done`` (the event loop and its completion
  predicate); ``sim.schedule``: ``Engine.schedule``/``schedule_at``;
* every event callback, attributed to the layer of the module that owns
  it (``kernel`` for the kernel's per-CPU completions, ``threads`` for
  an application's arrival, ``core`` for server wake-ups, ...);
* every process program's ``send`` (a worker-generator resumption),
  attributed to the module of the generator function (``threads`` for
  the runtimes' worker loops, ``core`` for the control server);
* ``kernel``: ``Kernel.spawn`` (also where programs are wrapped);
* ``kernel.sched``: ``SchedulerPolicy.enqueue``/``dequeue`` of every
  scheduler class;
* ``machine.cache``: every public ``CacheModel`` method;
* ``threads.queue``: ``TaskQueue.push``/``push_front``/``pop``;
* ``apps.initial_tasks`` / ``apps.on_task_done``: those methods of every
  ``Application`` class;
* ``core.allocate``: ``allocate`` of every ``AllocationPolicy`` class and
  ``IncrementalWaterFiller.targets`` (the default equal policy's path);
* ``core.filler``: ``IncrementalWaterFiller.set_cap``/``remove``.

A call nested directly in a span of the same key (a subclass method calling
its parent's version through ``super()``, a kernel callback spawning a
process) is part of the outer span and counts as one call.  The patches add a fixed cost per call, which is why
end-to-end numbers come from untraced runs (see ``trace.overhead``).
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict
from functools import partial
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.apps.base import Application
from repro.core.allocation import AllocationPolicy
from repro.core.policy import IncrementalWaterFiller
from repro.kernel import Kernel
from repro.kernel.scheduler.base import SchedulerPolicy
from repro.machine.cache import CacheModel
from repro.sim import Engine
from repro.threads.taskqueue import TaskQueue

perf_counter = time.perf_counter


def _class_tree(base: type) -> Iterator[type]:
    """*base* and every subclass defined so far."""
    seen = set()
    stack = [base]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        stack.extend(cls.__subclasses__())


def module_layer(module: str) -> str:
    """``repro.kernel.kernel`` -> ``kernel``; non-repro code -> ``other``."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro":
        return parts[1]
    return "other"


def callback_layer(callback: Callable) -> str:
    """The layer that owns an event callback."""
    target = callback.func if isinstance(callback, partial) else callback
    owner = getattr(target, "__self__", None)
    if owner is not None:
        return module_layer(type(owner).__module__)
    return module_layer(getattr(target, "__module__", None) or "")


class GcWatch:
    """Counts cyclic-GC collections and their total pause via ``gc.callbacks``.

    While a :class:`LayerTrace` is active, a pause is also charged to the
    innermost open span as child time, so it is not counted as that
    layer's self time.
    """

    def __init__(self, trace: Optional["LayerTrace"] = None) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0
        self._trace = trace

    def _callback(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        pause = perf_counter() - self._started
        self.collections += 1
        self.pause_s += pause
        if self._trace is not None:
            self._trace.child_time[-1] += pause

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


class LayerTrace:
    """Self time and call counts per span key, while installed."""

    def __init__(self) -> None:
        #: span key -> self time (s) and -> calls.
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        # Parallel stacks: open span keys and their accumulated child time.
        # Index 0 is the root (time outside any span).
        self.keys: List[str] = [""]
        self.child_time: List[float] = [0.0]
        self._patches: List[Tuple[type, str, object]] = []
        self.gc = GcWatch(self)

    # -- spans -----------------------------------------------------------

    def timed(self, key: str, fn: Callable) -> Callable:
        """*fn* wrapped in a span named *key*."""
        keys = self.keys
        child_time = self.child_time
        self_s = self.self_s
        calls = self.calls

        def span(*args, **kwargs):
            if keys[-1] == key:  # same key nested (e.g. super()): one span
                return fn(*args, **kwargs)
            calls[key] += 1
            keys.append(key)
            child_time.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                keys.pop()
                self_s[key] += elapsed - child_time.pop()
                child_time[-1] += elapsed

        return span

    def _event(self, callback: Callable) -> Callable:
        return self.timed(callback_layer(callback), callback)

    def _program(self, program):
        frame = getattr(program, "gi_frame", None)
        layer = module_layer(frame.f_globals.get("__name__", "")) if frame else "other"
        return SimpleNamespace(send=self.timed(layer, program.send))

    # -- patching --------------------------------------------------------

    def _patch(self, owner: type, name: str, replacement: Callable) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_tree(self, base: type, name: str, key: str) -> None:
        for cls in _class_tree(base):
            if name in cls.__dict__:
                self._patch(cls, name, self.timed(key, cls.__dict__[name]))

    def install(self) -> None:
        event = self._event
        schedule = Engine.__dict__["schedule"]
        schedule_at = Engine.__dict__["schedule_at"]
        self._patch(
            Engine,
            "schedule",
            self.timed(
                "sim.schedule",
                lambda engine, delay, callback, label="": schedule(
                    engine, delay, event(callback), label
                ),
            ),
        )
        self._patch(
            Engine,
            "schedule_at",
            self.timed(
                "sim.schedule",
                lambda engine, at, callback, label="": schedule_at(
                    engine, at, event(callback), label
                ),
            ),
        )
        self._patch(
            Engine, "run_until_done", self.timed("sim", Engine.run_until_done)
        )
        spawn = Kernel.__dict__["spawn"]
        program = self._program
        self._patch(
            Kernel,
            "spawn",
            self.timed(
                "kernel",
                lambda kernel, prog, *args, **kwargs: spawn(
                    kernel, program(prog), *args, **kwargs
                ),
            ),
        )
        self._patch_tree(SchedulerPolicy, "enqueue", "kernel.sched.enqueue")
        self._patch_tree(SchedulerPolicy, "dequeue", "kernel.sched.dequeue")
        for name, method in list(vars(CacheModel).items()):
            if callable(method) and not name.startswith("_"):
                self._patch(CacheModel, name, self.timed("machine.cache", method))
        for name in ("push", "push_front", "pop"):
            self._patch(
                TaskQueue, name, self.timed("threads.queue", TaskQueue.__dict__[name])
            )
        self._patch_tree(Application, "initial_tasks", "apps.initial_tasks")
        self._patch_tree(Application, "on_task_done", "apps.on_task_done")
        self._patch_tree(AllocationPolicy, "allocate", "core.allocate")
        # The default equal policy's decision path: the incremental filler.
        self._patch_tree(IncrementalWaterFiller, "targets", "core.allocate")
        self._patch_tree(IncrementalWaterFiller, "set_cap", "core.filler")
        self._patch_tree(IncrementalWaterFiller, "remove", "core.filler")
        self.gc.__enter__()

    def uninstall(self) -> None:
        self.gc.__exit__()
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def restored(self) -> bool:
        """True when no patch is outstanding and no wrapper is reachable
        from the patched classes (the self-test after a traced run)."""
        if self._patches or self.gc._callback in gc.callbacks:
            return False
        owners = (
            [Engine, Kernel, CacheModel, TaskQueue, IncrementalWaterFiller]
            + list(_class_tree(SchedulerPolicy))
            + list(_class_tree(Application))
            + list(_class_tree(AllocationPolicy))
        )
        return not any(
            getattr(value, "__qualname__", "").startswith("LayerTrace.")
            for owner in owners
            for value in vars(owner).values()
        )
