"""Process groups with per-group scheduling policies (Edler et al., NYU
Ultracomputer; Section 3 of the paper).

"Processes can be formed into groups.  The scheduling policy of a group of
processes can be set so that either the processes are scheduled and
preempted normally, or all processes in the same group are scheduled and
preempted simultaneously (as in coscheduling), or processes in the group are
never preempted."

Groups are keyed by application id.  Each group carries a
:class:`GroupPolicy`:

* ``NORMAL`` -- members are ordinary FIFO citizens.
* ``GANG`` -- members are coscheduled: gang groups take round-robin turns
  as the *active* gang each epoch; the active gang's members are preferred
  by ``dequeue`` and are not preempted mid-epoch.
* ``NO_PREEMPT`` -- members are never preempted at quantum expiry (an
  individual process can still get the same effect in any group via the
  ``SetNoPreempt`` syscall, which is the Ultracomputer's per-process knob).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from enum import Enum, auto
from typing import Deque, Dict, Optional

from repro.kernel.process import Process, ProcessState
from repro.kernel.scheduler.base import SchedulerPolicy


class GroupPolicy(Enum):
    """Scheduling treatment of one process group."""

    NORMAL = auto()
    GANG = auto()
    NO_PREEMPT = auto()


class ProcessGroupScheduler(SchedulerPolicy):
    """Scheduler with per-application group policies."""

    def __init__(self, default_policy: GroupPolicy = GroupPolicy.NORMAL) -> None:
        super().__init__()
        self.default_policy = default_policy
        self._group_policy: Dict[str, GroupPolicy] = {}
        self._queue: Deque[Process] = deque()
        self._gang_rotation: "OrderedDict[str, None]" = OrderedDict()
        self._active_gang: Optional[str] = None
        self._epoch_armed = False

    # -- group administration -----------------------------------------------

    @staticmethod
    def _group_key(process: Process) -> str:
        return process.app_id if process.app_id is not None else f"pid:{process.pid}"

    def set_group_policy(self, group: str, policy: GroupPolicy) -> None:
        """Assign *policy* to the group named *group* (an application id)."""
        self._group_policy[group] = policy
        if policy is GroupPolicy.GANG:
            self._gang_rotation.setdefault(group, None)
            self._arm_epoch()
        else:
            self._gang_rotation.pop(group, None)

    def group_policy_of(self, process: Process) -> GroupPolicy:
        return self._group_policy.get(self._group_key(process), self.default_policy)

    @property
    def epoch(self) -> int:
        return self.kernel.machine.config.quantum

    # -- policy interface -----------------------------------------------------

    def enqueue(self, process: Process, reason: str) -> None:
        if process.state is not ProcessState.READY:
            raise ValueError(
                f"enqueue of process {process.pid} in state {process.state.name}"
            )
        if self.group_policy_of(process) is GroupPolicy.GANG:
            self._gang_rotation.setdefault(self._group_key(process), None)
            self._arm_epoch()
        self._queue.append(process)

    def dequeue(self, cpu: int) -> Optional[Process]:
        chosen: Optional[Process] = None
        if self._active_gang is not None:
            for process in self._queue:
                if (
                    process.state is ProcessState.READY
                    and self._group_key(process) == self._active_gang
                ):
                    chosen = process
                    break
        if chosen is None:
            for process in self._queue:
                if process.state is ProcessState.READY:
                    chosen = process
                    break
        if chosen is not None:
            self._queue.remove(chosen)
        return chosen

    def has_waiting(self, cpu: int) -> bool:
        current = self.kernel.machine.processors[cpu].current
        if current is not None:
            policy = self.group_policy_of(current)
            if policy is GroupPolicy.NO_PREEMPT:
                return False
            if (
                policy is GroupPolicy.GANG
                and self._group_key(current) == self._active_gang
            ):
                return False
        return any(p.state is ProcessState.READY for p in self._queue)

    def queued_census(self):
        census = {}
        for process in self._queue:
            census[process.pid] = census.get(process.pid, 0) + 1
        return census

    def discard(self, process: Process) -> None:
        self._queue.remove(process)

    # -- gang epochs ------------------------------------------------------------

    def _arm_epoch(self) -> None:
        if not self._epoch_armed and self.kernel is not None:
            self._epoch_armed = True
            self.kernel.engine.schedule(self.epoch, self._epoch_tick, "group-epoch")

    def _epoch_tick(self) -> None:
        kernel = self.kernel
        if self._gang_rotation:
            keys = list(self._gang_rotation.keys())
            if self._active_gang in keys:
                index = (keys.index(self._active_gang) + 1) % len(keys)
            else:
                index = 0
            self._active_gang = keys[index]
            for processor in kernel.machine.processors:
                current = processor.current
                if current is None:
                    continue
                if (
                    self.group_policy_of(current) is GroupPolicy.GANG
                    and self._group_key(current) != self._active_gang
                ):
                    kernel.force_preempt(processor.cpu_id)
            kernel.request_dispatch()
        else:
            self._active_gang = None
        kernel.engine.schedule(self.epoch, self._epoch_tick, "group-epoch")
