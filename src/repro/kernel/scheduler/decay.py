"""UMAX/BSD-style priority-decay scheduling.

4.2 BSD (and UMAX, its Multimax derivative) relates priority to recent CPU
usage: the more CPU a process has consumed lately, the worse its priority.
The paper leans on this to explain Figure 4: "processes just starting up may
have higher priority than slightly older processes due to the relation of
priority to past CPU use" -- which is why the freshly started, uncontrolled
matmul was barely hurt.

Model: each process carries a usage estimate.  When a process is enqueued,
its usage is decayed exponentially by the time since its last update and
incremented by the CPU it just consumed.  ``dequeue`` picks the READY
process with the *lowest* usage (best priority); ties go to FIFO order.

Implementation: dequeue is O(log n) via a min-heap of *epoch-normalized*
keys, not an O(n) rescan.  A READY process consumes no CPU while queued,
so between enqueue (time ``t``) and any later dequeue (time ``now``) its
usage evolves purely multiplicatively::

    usage(now) = usage(t) * 0.5 ** ((now - t) / half_life)

Dividing every queued process's usage by the common factor
``0.5 ** ((now - epoch) / half_life)`` yields the time-independent key

    key = usage(t) * 2.0 ** ((t - epoch) / half_life)

which preserves the ordering of the decayed usages at every future
instant -- so the heap never needs re-keying.  ``epoch`` is rebased
(all keys rebuilt) long before ``2.0 ** ((t - epoch) / half_life)`` can
overflow a double; rebasing happens at deterministic simulated times, so
traces stay reproducible.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.kernel.process import Process, ProcessState
from repro.kernel.scheduler.base import SchedulerPolicy
from repro.sim import units

#: Rebase the key epoch once the exponent exceeds this many half-lives.
#: 2.0**512 ~ 1.3e154: far from double overflow (~1.8e308) even after
#: multiplying by microsecond-scale usage values.
_REBASE_HALF_LIVES = 512.0


class PriorityDecayScheduler(SchedulerPolicy):
    """Priority run queue with exponential usage decay.

    Attributes:
        half_life: usage halves every this many microseconds of wall time.
    """

    shared_queue = True

    def __init__(self, half_life: int = units.seconds(15)) -> None:
        super().__init__()
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.half_life = half_life
        # usage bookkeeping: pid -> (usage_estimate, last_update, cpu_time_then)
        self._usage: Dict[int, Tuple[float, int, int]] = {}
        # run queue: heap of (normalized_key, seq, process); stale entries
        # (re-enqueued or exited processes) are skipped lazily on pop.
        self._heap: List[Tuple[float, int, Process]] = []
        # pid -> seq of its live heap entry (also the READY-census for
        # has_waiting); a pid absent here has no live entry.
        self._queued: Dict[int, int] = {}
        self._next_seq = 0
        self._epoch = 0

    def _decayed_usage(self, process: Process) -> float:
        """Materialize *process*'s usage estimate at the current time."""
        now = self.kernel.engine.now
        # Spin time is real processor consumption: without it, a process
        # busy-waiting on a preempted lock holder would keep a *better*
        # priority than the holder and could starve it indefinitely.
        stats = process.stats
        consumed = stats.cpu_time + stats.spin_time
        pid = process.pid
        try:
            usage, last_update, consumed_then = self._usage[pid]
        except KeyError:
            usage, last_update, consumed_then = 0.0, now, consumed
        new_cpu = consumed - consumed_then
        elapsed = now - last_update
        decay = 0.5 ** (elapsed / self.half_life) if elapsed > 0 else 1.0
        usage = usage * decay + new_cpu
        self._usage[pid] = (usage, now, consumed)
        process.priority = usage
        return usage

    def _normalized_key(self, usage: float, now: int) -> float:
        """Usage rescaled so keys minted at different times stay comparable."""
        exponent = (now - self._epoch) / self.half_life
        if exponent > _REBASE_HALF_LIVES:
            self._rebase(now)
            exponent = 0.0
        return usage * 2.0 ** exponent

    def _rebase(self, now: int) -> None:
        """Move the key epoch to *now*, rebuilding every live heap entry."""
        self._epoch = now
        live: List[Tuple[float, int, Process]] = []
        for _key, seq, process in self._heap:
            if self._queued.get(process.pid) != seq:
                continue  # stale entry: drop during the rebuild
            usage = self._decayed_usage(process)  # exponent is now zero
            live.append((usage, seq, process))
        heapq.heapify(live)
        self._heap = live

    def enqueue(self, process: Process, reason: str) -> None:
        if process.state is not ProcessState.READY:
            raise ValueError(
                f"enqueue of process {process.pid} in state {process.state.name}"
            )
        usage = self._decayed_usage(process)
        key = self._normalized_key(usage, self.kernel.engine.now)
        seq = self._next_seq
        self._next_seq += 1
        self._queued[process.pid] = seq
        heapq.heappush(self._heap, (key, seq, process))

    def dequeue(self, cpu: int) -> Optional[Process]:
        heap = self._heap
        queued = self._queued
        while heap:
            _key, seq, process = heapq.heappop(heap)
            if queued.get(process.pid) != seq:
                continue  # re-enqueued or exited since this entry was minted
            del queued[process.pid]
            if process.state is not ProcessState.READY:
                continue  # defensive: never hand out a non-READY process
            # Materialize usage at dispatch time so the estimate picked up
            # by the next enqueue has decayed across the queue wait.
            self._decayed_usage(process)
            return process
        return None

    def has_waiting(self, cpu: int) -> bool:
        return bool(self._queued)

    def queued_census(self):
        # ``_queued`` holds exactly the live entries; stale heap entries
        # (superseded seqs) are not part of the logical queue.
        return {pid: 1 for pid in self._queued}

    def discard(self, process: Process) -> None:
        # Its heap entry goes stale and is skipped lazily on pop.
        del self._queued[process.pid]

    def on_process_exit(self, process: Process) -> None:
        self._usage.pop(process.pid, None)
