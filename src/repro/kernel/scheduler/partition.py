"""Space partitioning with processor groups (the paper's Section 7).

The paper's future-work design: "dynamically partitioning processors in a
machine into processor groups ... usually one processor group per parallel
application ... a separate processor group for single-process applications
... managed by a high level policy module", with per-group run queues and
ordinary scheduling inside each group.

Two pieces:

* :func:`compute_partitions` -- the **policy module**: given the set of
  active applications and the count of stand-alone (single-process /
  daemon) processes, decide how many processors each group gets and which
  ones.  Pure function, separately unit-tested.
* :class:`SpacePartitionScheduler` -- the mechanism: one FIFO queue per
  group; a processor only runs processes of the group it belongs to.
  Partitions are recomputed when applications arrive or depart.

Combined with process control this removes the unfair-hogging problem the
paper describes (an uncontrolled application can no longer steal the whole
machine from a controlled one) and keeps each processor's cache populated
by a single application.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.kernel.process import Process, ProcessState
from repro.kernel.scheduler.base import SchedulerPolicy

#: Group key for processes that belong to no application.
SYSTEM_GROUP = "<system>"


def compute_partitions(
    n_processors: int,
    app_ids: Sequence[str],
    n_system_processes: int,
    app_process_counts: Optional[Dict[str, int]] = None,
) -> Dict[str, List[int]]:
    """The policy module: assign processors to groups.

    Rules (following Section 7's sketch):

    * if any stand-alone/system processes exist, the system group gets
      processors proportional to its share of the total *process* load
      (one compiler among two 16-process applications deserves about one
      processor, not a third of the machine), but always at least one;
    * the remaining processors are divided equally among applications,
      remainder going to the earliest-arrived applications;
    * every application group gets at least one processor; if there are
      more applications than processors, applications share groups
      round-robin (the paper: "multiple applications may have to be
      assigned to the same processor group").

    *app_process_counts* gives each application's process count for the
    load weighting; when omitted, each application is assumed to be
    machine-sized (i.e. the system share is computed against
    ``n_processors`` processes per application).

    Returns a mapping from group key (application id or
    :data:`SYSTEM_GROUP`) to the list of processor ids it owns.  Every
    processor appears in exactly one group.
    """
    if n_processors < 1:
        raise ValueError("n_processors must be >= 1")
    if n_system_processes < 0:
        raise ValueError("n_system_processes must be >= 0")
    apps = list(app_ids)
    partitions: Dict[str, List[int]] = {}
    cursor = 0

    n_system_cpus = 0
    if n_system_processes > 0:
        if not apps:
            n_system_cpus = n_processors
        else:
            if app_process_counts is None:
                app_load = n_processors * len(apps)
            else:
                app_load = sum(
                    app_process_counts.get(app_id, n_processors)
                    for app_id in apps
                )
            total_load = n_system_processes + max(app_load, 1)
            share = round(n_processors * n_system_processes / total_load)
            n_system_cpus = max(1, min(share, n_processors - 1))
        partitions[SYSTEM_GROUP] = list(range(cursor, cursor + n_system_cpus))
        cursor += n_system_cpus

    remaining = n_processors - cursor
    if apps:
        if remaining == 0:
            # Degenerate: give applications the last system processor.
            remaining = 1
            cursor -= 1
            partitions[SYSTEM_GROUP] = partitions[SYSTEM_GROUP][:-1]
        if len(apps) <= remaining:
            base = remaining // len(apps)
            extra = remaining % len(apps)
            for index, app_id in enumerate(apps):
                width = base + (1 if index < extra else 0)
                partitions[app_id] = list(range(cursor, cursor + width))
                cursor += width
        else:
            # More applications than processors: share groups round-robin.
            for index in range(remaining):
                partitions[apps[index]] = [cursor + index]
            for index in range(remaining, len(apps)):
                partitions[apps[index]] = partitions[apps[index % remaining]]
    return partitions


class SpacePartitionScheduler(SchedulerPolicy):
    """Per-group run queues over a dynamic processor partition."""

    def __init__(self) -> None:
        super().__init__()
        self._queues: Dict[str, Deque[Process]] = {}
        self._cpu_owner: Dict[int, str] = {}
        self._partitions: Dict[str, List[int]] = {}
        self._active_apps: List[str] = []  # arrival order
        self._app_process_count: Dict[str, int] = {}
        self._system_process_count = 0
        self.repartitions = 0

    # -- group helpers -----------------------------------------------------

    @staticmethod
    def _group_key(process: Process) -> str:
        return process.app_id if process.app_id is not None else SYSTEM_GROUP

    def partition_of(self, group: str) -> List[int]:
        """Processors currently owned by *group* (diagnostics/tests)."""
        return list(self._partitions.get(group, []))

    def _queue_for(self, group: str) -> Deque[Process]:
        queue = self._queues.get(group)
        if queue is None:
            queue = deque()
            self._queues[group] = queue
        return queue

    def _repartition(self) -> None:
        self.repartitions += 1
        # Partition only the processors that are actually online; positions
        # returned by the pure policy function map through the online list,
        # so a hot-unplugged cpu simply vanishes from every group.
        online = self.kernel.online_cpus()
        slots = compute_partitions(
            len(online),
            self._active_apps,
            self._system_process_count,
            app_process_counts=dict(self._app_process_count),
        )
        self._partitions = {
            group: [online[index] for index in indices]
            for group, indices in slots.items()
        }
        self._cpu_owner = {}
        for group, cpus in self._partitions.items():
            for cpu in cpus:
                self._cpu_owner[cpu] = group
        # Processors whose owner changed pick up the right work at their
        # next quantum expiry (has_waiting consults the new owner); idle
        # ones can act immediately.
        if self.kernel is not None:
            self.kernel.request_dispatch()

    # -- policy interface -----------------------------------------------------

    def on_process_spawn(self, process: Process) -> None:
        group = self._group_key(process)
        if group == SYSTEM_GROUP:
            self._system_process_count += 1
            if self._system_process_count == 1:
                self._repartition()
        else:
            count = self._app_process_count.get(group, 0)
            self._app_process_count[group] = count + 1
            if count == 0:
                self._active_apps.append(group)
                self._repartition()

    def discard(self, process: Process) -> None:
        self._queues[self._group_key(process)].remove(process)

    def on_process_exit(self, process: Process) -> None:
        group = self._group_key(process)
        if group == SYSTEM_GROUP:
            self._system_process_count -= 1
            if self._system_process_count == 0:
                self._repartition()
        else:
            self._app_process_count[group] -= 1
            if self._app_process_count[group] == 0:
                del self._app_process_count[group]
                self._active_apps.remove(group)
                self._repartition()

    def on_cpu_offline(self, cpu: int) -> None:
        self._repartition()

    def on_cpu_online(self, cpu: int) -> None:
        self._repartition()

    def enqueue(self, process: Process, reason: str) -> None:
        if process.state is not ProcessState.READY:
            raise ValueError(
                f"enqueue of process {process.pid} in state {process.state.name}"
            )
        self._queue_for(self._group_key(process)).append(process)

    def dequeue(self, cpu: int) -> Optional[Process]:
        owner = self._cpu_owner.get(cpu)
        if owner is None:
            return None
        queue = self._queues.get(owner)
        if not queue:
            return None
        for _ in range(len(queue)):
            process = queue.popleft()
            if process.state is ProcessState.READY:
                return process
            if process.state is not ProcessState.TERMINATED:
                queue.append(process)
        return None

    def has_waiting(self, cpu: int) -> bool:
        owner = self._cpu_owner.get(cpu)
        if owner is None:
            return False
        queue = self._queues.get(owner)
        if not queue:
            return False
        return any(p.state is ProcessState.READY for p in queue)

    def queued_census(self):
        census = {}
        for queue in self._queues.values():
            for process in queue:
                census[process.pid] = census.get(process.pid, 0) + 1
        return census
