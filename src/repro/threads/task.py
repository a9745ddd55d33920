"""Tasks: the user-level threads multiplexed onto worker processes.

A :class:`Task` is "a small chunk of computation that may potentially
execute in parallel" (Section 1).  Its body is a generator factory: when a
worker process picks the task up, it instantiates the generator and
forwards every yielded kernel syscall, so a task may compute, take
application spinlocks, sleep, and so on.  A task may also yield
:class:`SpawnTask` to add new tasks to the application's queue -- "as the
result of executing a thread of control, that thread may decide to add new
threads to the task queue".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.kernel import syscalls as sc
from repro.sync import SpinLock

#: Type of a task body: a no-argument callable returning a fresh generator.
TaskBody = Callable[[], Generator[Any, Any, None]]


@dataclass
class SpawnTask:
    """Yielded *by a task body* to enqueue a new task dynamically."""

    task: "Task"


@dataclass(slots=True)
class Task:
    """One user-level thread.

    Attributes:
        name: label for traces and debugging.
        body: generator factory executed by whichever worker dequeues the
            task.
        phase: optional phase index (used by phased applications).
        meta: free-form application payload.
        urgent: enqueue at the *front* of the task queue instead of the
            back.  Service applications mark their dispatcher segments
            urgent so request admission keeps pace with the arrival clock
            instead of queueing behind a backlog of stage work -- the
            task-queue analogue of the elevated priority every real
            server gives its accept loop.
    """

    name: str
    body: TaskBody
    phase: int = 0
    meta: dict = field(default_factory=dict)
    urgent: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name!r} phase={self.phase}>"


@dataclass(slots=True)
class ComputeBody:
    """The body of a :func:`compute_task`: a slotted callable, not a closure.

    A closure would cost every task a function, a tuple and three cells,
    all tracked by the cyclic collector while the task waits in a queue;
    this is one object.  Each call returns a fresh generator.
    """

    cost: int
    lock: Optional[SpinLock]
    critical_cost: int

    def __call__(self) -> Generator[Any, Any, None]:
        if self.cost:
            yield sc.Compute(self.cost)
        lock = self.lock
        if lock is not None and self.critical_cost:
            yield sc.SpinAcquire(lock)
            yield sc.Compute(self.critical_cost)
            yield sc.SpinRelease(lock)


def compute_task(
    name: str,
    cost: int,
    lock: Optional[SpinLock] = None,
    critical_cost: int = 0,
    phase: int = 0,
) -> Task:
    """A common task shape: compute, then optionally a short critical section.

    This mirrors how the paper's applications behave: the bulk of a task is
    independent computation, followed by a brief spinlock-protected update
    of shared state (accumulating a result row, merging a partial sum).
    The critical section is what makes untimely preemption expensive.
    """
    if cost < 0 or critical_cost < 0:
        raise ValueError("task costs must be >= 0")
    return Task(name=name, body=ComputeBody(cost, lock, critical_cost), phase=phase)
