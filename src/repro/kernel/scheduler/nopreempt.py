"""Zahorjan-style spinlock-aware scheduling (Section 3).

Two ingredients, both from the University of Washington proposal the paper
discusses:

1. **Preemption avoidance** -- a process inside a critical section sets a
   flag (our kernel's ``SetNoPreempt`` syscall) and the scheduler will not
   preempt it until the flag is cleared.  The kernel mechanism enforces a
   configurable grace bound so a malicious process cannot hog a processor
   forever (the paper's protection criticism of the scheme).

2. **Spinner avoidance** -- the scheduler "avoids rescheduling busy-waiting
   processes while a process inside a lock is suspended": ``dequeue`` skips
   processes whose next action is to spin on a lock whose holder is not
   currently running, since dispatching them would burn a quantum.

The flag itself is set by the threads package around its critical sections
when this policy is selected (see
:class:`repro.threads.package.ThreadsPackageConfig.use_no_preempt_flags`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.kernel.process import Process, ProcessState
from repro.kernel import syscalls as sc
from repro.kernel.scheduler.base import SchedulerPolicy


class NoPreemptAwareScheduler(SchedulerPolicy):
    """FIFO queue that skips doomed spinners; pairs with no-preempt flags."""

    shared_queue = True

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque[Process] = deque()
        self.skipped_spinners = 0

    def _would_spin_uselessly(self, process: Process) -> bool:
        """True if dispatching *process* would have it spin on a lock whose
        holder is off-processor."""
        syscall = process.pending_syscall
        if not isinstance(syscall, sc.SpinAcquire):
            return False
        lock = syscall.lock
        if not lock.held:
            return False
        holder = self.kernel.processes.get(lock.holder_pid)
        return holder is None or holder.state is not ProcessState.RUNNING

    def enqueue(self, process: Process, reason: str) -> None:
        if process.state is not ProcessState.READY:
            raise ValueError(
                f"enqueue of process {process.pid} in state {process.state.name}"
            )
        self._queue.append(process)

    def dequeue(self, cpu: int) -> Optional[Process]:
        chosen: Optional[Process] = None
        for process in self._queue:
            if process.state is not ProcessState.READY:
                continue
            if self._would_spin_uselessly(process):
                self.skipped_spinners += 1
                continue
            chosen = process
            break
        if chosen is None:
            # Everyone runnable would spin uselessly (or queue is empty):
            # fall back to plain FIFO rather than idling the machine.
            for process in self._queue:
                if process.state is ProcessState.READY:
                    chosen = process
                    break
        if chosen is not None:
            self._queue.remove(chosen)
        return chosen

    def has_waiting(self, cpu: int) -> bool:
        return any(p.state is ProcessState.READY for p in self._queue)

    def queued_census(self):
        census = {}
        for process in self._queue:
            census[process.pid] = census.get(process.pid, 0) + 1
        return census

    def discard(self, process: Process) -> None:
        self._queue.remove(process)
