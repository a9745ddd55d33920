"""Cache-affinity scheduling (Lazowska & Squillante; Section 3).

"A process should be scheduled on the processor on which it last executed
(before being preempted), where hopefully a large fraction of its working
set is still present in the processor's cache.  However, if this policy is
strictly followed it can lead to load imbalance ..."

We implement the *bounded* affinity variant the authors propose evaluating:
``dequeue`` scans a window at the head of the FIFO queue and picks the
process with the highest cache warmth on the requesting processor, provided
its warmth beats a threshold; otherwise the head of the queue runs (plain
FIFO), which preserves load balance.  A strict variant (``strict=True``)
only accepts processes whose last processor was this one, demonstrating the
imbalance problem in the ablation benchmarks.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.kernel.process import Process, ProcessState
from repro.kernel.scheduler.base import SchedulerPolicy


class AffinityScheduler(SchedulerPolicy):
    """FIFO queue with a cache-affinity selection window."""

    def __init__(
        self,
        scan_depth: int = 8,
        warmth_threshold: float = 0.10,
        strict: bool = False,
    ) -> None:
        super().__init__()
        if scan_depth < 1:
            raise ValueError("scan_depth must be >= 1")
        if not 0.0 <= warmth_threshold <= 1.0:
            raise ValueError("warmth_threshold must be within [0, 1]")
        self.scan_depth = scan_depth
        self.warmth_threshold = warmth_threshold
        self.strict = strict
        self._queue: Deque[Process] = deque()
        self.affinity_hits = 0
        self.affinity_misses = 0

    def enqueue(self, process: Process, reason: str) -> None:
        if process.state is not ProcessState.READY:
            raise ValueError(
                f"enqueue of process {process.pid} in state {process.state.name}"
            )
        self._queue.append(process)

    def dequeue(self, cpu: int) -> Optional[Process]:
        cache = self.kernel.machine.cache
        best: Optional[Process] = None
        best_warmth = -1.0
        head: Optional[Process] = None
        scanned = 0
        for process in self._queue:
            if process.state is not ProcessState.READY:
                continue
            if head is None:
                head = process
            scanned += 1
            if scanned > self.scan_depth:
                break
            warmth = cache.warmth(cpu, process.pid)
            if warmth > best_warmth:
                best, best_warmth = process, warmth
        if self.strict:
            # Strict affinity: only run processes that last ran here (or
            # have never run anywhere).  Demonstrates load imbalance.
            for process in self._queue:
                if process.state is not ProcessState.READY:
                    continue
                if process.last_cpu in (None, cpu):
                    self._queue.remove(process)
                    return process
            return None
        if best is not None and best_warmth >= self.warmth_threshold:
            self.affinity_hits += 1
            self._queue.remove(best)
            return best
        self.affinity_misses += 1
        if head is not None:
            self._queue.remove(head)
        return head

    def has_waiting(self, cpu: int) -> bool:
        if self.strict:
            return any(
                p.state is ProcessState.READY and p.last_cpu in (None, cpu)
                for p in self._queue
            )
        return any(p.state is ProcessState.READY for p in self._queue)

    def queued_census(self):
        census = {}
        for process in self._queue:
            census[process.pid] = census.get(process.pid, 0) + 1
        return census

    def discard(self, process: Process) -> None:
        self._queue.remove(process)
