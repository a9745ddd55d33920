"""Scheduler policy interface.

The kernel owns all mechanism (dispatch, preemption, accounting); a policy
decides *which* process runs *where* and for how long.  The interface is
deliberately small:

* :meth:`enqueue` -- a process became runnable (new / preempted /
  unblocked / yielded).
* :meth:`dequeue` -- the kernel has an idle processor; return the process
  to run there, or ``None`` to leave it idle.
* :meth:`has_waiting` -- would a preemption of the current process on this
  processor let someone else run?  (Consulted at quantum expiry; if nothing
  is waiting the kernel just extends the current process's quantum.)
* :meth:`quantum_for` -- per-dispatch quantum, default the machine's.

Policies may also keep per-process state via the spawn/exit notifications
(:meth:`discard` is the only call that asks a policy to drop a queued
process) and may schedule their own events through ``self.kernel.engine``
(the gang scheduler uses this for its epoch ticks).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process


class SchedulerPolicy(ABC):
    """Base class for kernel scheduling policies."""

    #: True when :meth:`dequeue` ignores *cpu* entirely AND is free of
    #: observable side effects when it returns ``None`` -- i.e. one
    #: ``None`` proves every other processor would get ``None`` too.  The
    #: kernel's dispatch pass then stops at the first empty pull instead
    #: of polling all (up to 1024) idle processors.  Per-processor
    #: policies (partition, strict affinity) and policies whose failed
    #: pulls mutate state (gang rotation, miss counters) must leave this
    #: False.
    shared_queue = False

    def __init__(self) -> None:
        self.kernel: Optional["Kernel"] = None

    def attach(self, kernel: "Kernel") -> None:
        """Bind the policy to a kernel.  Called once by the kernel ctor."""
        if self.kernel is not None:
            raise RuntimeError("scheduler policy is already attached to a kernel")
        self.kernel = kernel

    @abstractmethod
    def enqueue(self, process: "Process", reason: str) -> None:
        """Add a runnable process to the policy's queue(s).

        *reason* is one of ``"new"``, ``"preempted"``, ``"unblocked"``,
        ``"yield"`` -- policies may treat them differently (e.g. decay
        scheduling boosts unblocked processes).
        """

    @abstractmethod
    def dequeue(self, cpu: int) -> Optional["Process"]:
        """Pick the next process to run on processor *cpu*, removing it
        from the queue.  ``None`` leaves the processor idle."""

    @abstractmethod
    def has_waiting(self, cpu: int) -> bool:
        """True if some queued process could run on processor *cpu* now."""

    def quantum_for(self, process: "Process", cpu: int) -> int:
        """Quantum for this dispatch; defaults to the machine-wide value."""
        assert self.kernel is not None, "policy used before attach()"
        return self.kernel.machine.config.quantum

    def on_process_spawn(self, process: "Process") -> None:
        """Notification: a process entered the system (before enqueue)."""

    def on_process_exit(self, process: "Process") -> None:
        """Notification: a process terminated.

        Per-process cleanup only: a process that exits on a processor was
        dequeued when it was dispatched, so it holds no run-queue entry
        here and the hot exit path must not search for one.
        """

    def discard(self, process: "Process") -> None:
        """Drop the run-queue entry of a READY *process* being killed.

        Called only when a process is terminated while queued (the kernel's
        kill path), before :meth:`on_process_exit`.  Policies whose queues
        would otherwise hand the corpse out, or count it in
        :meth:`queued_census`, remove it here.
        """

    def on_cpu_offline(self, cpu: int) -> None:
        """Notification: the kernel took *cpu* out of service (hot-unplug).

        The kernel stops offering the processor to :meth:`dequeue`, so
        queue-per-machine policies need no action; policies that bind work
        to specific processors (space partitioning) rebalance here.
        """

    def on_cpu_online(self, cpu: int) -> None:
        """Notification: *cpu* rejoined the machine."""

    def queued_census(self) -> Optional[Dict[int, int]]:
        """Live run-queue entries per pid, for the sanitizer's cross-checks.

        Returns a mapping ``pid -> number of live queue entries`` (stale
        lazily-dropped entries excluded), or ``None`` if the policy does
        not support introspection.  Only consulted by
        :mod:`repro.sanitize`; never on the dispatch hot path.
        """
        return None
