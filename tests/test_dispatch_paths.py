"""The kernel's dispatch pass and process-exit path.

Shared-queue policies take idle processors from a lazily cleaned min-heap
instead of sorting the idle set on every pass; these tests pin that the
placement is exactly what the sorted walk gave, with hot-plug, forced
preemption and kills leaving stale and duplicate heap entries behind.
Run-queue entries are dropped only when a READY process is killed, so a
process exiting on a processor never searches the queue.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.kernel import syscalls as sc
from repro.kernel.process import Process, ProcessState
from repro.kernel.scheduler import (
    AffinityScheduler,
    FifoScheduler,
    NoPreemptAwareScheduler,
    PriorityDecayScheduler,
    ProcessGroupScheduler,
    SpacePartitionScheduler,
)
from repro.sanitize import SchedSanitizer
from repro.sim import SimulationError, TraceLog, units

from tests.conftest import make_kernel
from tests.test_core_server import cpu_bound

SHARED_QUEUE_POLICIES = {
    "fifo": FifoScheduler,
    "decay": partial(PriorityDecayScheduler, half_life=units.ms(50)),
    "nopreempt": NoPreemptAwareScheduler,
}

DISCARDING_POLICIES = {
    "fifo": FifoScheduler,
    "decay": PriorityDecayScheduler,
    "nopreempt": NoPreemptAwareScheduler,
    "groups": ProcessGroupScheduler,
    "affinity": AffinityScheduler,
    "partition": SpacePartitionScheduler,
}


def sorted_scan_pass(kernel) -> None:
    """The dispatch pass as it was before the idle heap: walk the idle set
    in ascending order, stopping at a shared queue's first empty pull."""
    kernel._dispatch_scheduled = False
    idle = kernel._idle_cpus
    if not idle:
        return
    cpus = (
        kernel._dispatch_cpus
        if len(idle) == len(kernel._dispatch_cpus)
        else sorted(idle)
    )
    shared = kernel.policy.shared_queue
    for cpu in cpus:
        if kernel._processors[cpu].current is None:
            process = kernel._policy_dequeue(cpu)
            if process is not None:
                kernel._dispatch(cpu, process)
            elif shared:
                return


def bursty(rng: random.Random):
    """Compute bursts separated by sleeps, so processors keep going idle."""
    bursts = [
        (rng.randint(1, 40) * 250, rng.randint(0, 12) * 500)
        for _ in range(rng.randint(3, 10))
    ]

    def program():
        for compute, sleep in bursts:
            yield sc.Compute(compute)
            if sleep:
                yield sc.Sleep(sleep)

    return program()


def run_churn(policy_name: str, sorted_scan: bool, seed: int = 7):
    """A 64-CPU machine under hot-plug, forced preemption and kills.

    Returns the dispatch trace as ``(time, pid, cpu)`` triples and the
    observations of the idle heap made after each fault."""
    trace = TraceLog(categories=["kernel.dispatch"])
    kernel = make_kernel(
        n_processors=64,
        quantum=units.ms(2),
        policy=SHARED_QUEUE_POLICIES[policy_name](),
        trace=trace,
    )
    if sorted_scan:
        kernel._dispatch_pass = partial(sorted_scan_pass, kernel)
    else:
        SchedSanitizer(kernel, mode="strict", deep_period=8).attach()
    rng = random.Random(seed)
    n_processes = 120
    for i in range(n_processes):
        kernel.spawn(bursty(rng), name=f"p{i}")
    heap_seen = {"stale": False, "duplicate": False}

    def note_heap():
        heap = kernel._idle_heap
        if heap is None:
            return
        if any(cpu not in kernel._idle_cpus for cpu in heap):
            heap_seen["stale"] = True
        if len(heap) != len(set(heap)):
            heap_seen["duplicate"] = True

    def fault(kind: str, arg: int) -> None:
        if kind == "offline":
            kernel.cpu_offline(arg)
        elif kind == "online":
            kernel.cpu_online(arg)
        elif kind == "preempt":
            kernel.force_preempt(arg)
        else:
            kernel.kill(arg)
        note_heap()

    # Every unplug is followed by a replug of the same cpu, which pushes a
    # second entry if the first has not yet surfaced and been dropped.
    schedule = kernel.engine.schedule
    for _ in range(300):
        kind = rng.choice(("offline", "preempt", "kill"))
        at = rng.randint(0, units.ms(60))
        arg = rng.randrange(1, n_processes + 1) if kind == "kill" else rng.randrange(64)
        schedule(at, partial(fault, kind, arg), kind)
        if kind == "offline":
            replug = at + rng.randint(0, units.ms(2))
            schedule(replug, partial(fault, "online", arg), "online")
    kernel.run_until_quiescent()
    dispatches = [(r.time, r.data["pid"], r.data["cpu"]) for r in trace.records()]
    return dispatches, heap_seen


class TestIdleHeapPlacement:
    @pytest.mark.parametrize("policy_name", sorted(SHARED_QUEUE_POLICIES))
    def test_heap_pass_matches_sorted_scan(self, policy_name):
        heap_trace, heap_seen = run_churn(policy_name, sorted_scan=False)
        scan_trace, _ = run_churn(policy_name, sorted_scan=True)
        assert len(heap_trace) > 500
        assert heap_trace == scan_trace
        # The churn really exercised the lazy cleanup.
        assert heap_seen == {"stale": True, "duplicate": True}

    def test_per_cpu_policies_keep_no_heap(self):
        for policy in (AffinityScheduler(), SpacePartitionScheduler()):
            assert make_kernel(n_processors=4, policy=policy)._idle_heap is None

    def test_sanitizer_catches_a_missing_heap_entry(self):
        kernel = make_kernel(n_processors=4)
        SchedSanitizer(kernel, mode="strict").attach()
        kernel._idle_heap.remove(2)
        kernel.spawn(bursty(random.Random(1)), name="w")
        with pytest.raises(SimulationError, match=r"idle cpus \[2\] have no"):
            kernel.run_until_quiescent()


class TestKillWhileReady:
    @pytest.mark.parametrize("policy_name", sorted(DISCARDING_POLICIES))
    def test_killed_ready_process_leaves_the_queue(self, policy_name):
        trace = TraceLog(categories=["kernel.dispatch"])
        kernel = make_kernel(
            n_processors=1,
            quantum=units.ms(10),
            policy=DISCARDING_POLICIES[policy_name](),
            trace=trace,
        )
        sanitizer = SchedSanitizer(kernel, mode="strict", deep_period=1).attach()
        procs = [
            kernel.spawn(cpu_bound(units.ms(30)), name=f"p{i}") for i in range(4)
        ]
        victim = procs[2]
        seen = {}

        def kill_victim():
            seen["state"] = victim.state
            assert kernel.kill(victim.pid)
            seen["census"] = kernel.policy.queued_census()

        kernel.engine.schedule(units.ms(15), kill_victim, "kill")
        kernel.run_until_quiescent()
        sanitizer.finish()

        assert seen["state"] is ProcessState.READY
        assert victim.pid not in seen["census"]
        assert set(seen["census"]) == {procs[0].pid, procs[3].pid}
        assert victim.pid not in {r.data["pid"] for r in trace.records()}
        assert victim.state is ProcessState.TERMINATED
        assert all(p.state is ProcessState.TERMINATED for p in procs)
        assert sanitizer.ok, sanitizer.violations


class TestRunningExitSkipsQueue:
    def test_running_exit_compares_no_queued_entry(self, monkeypatch):
        n_queued = 50
        kernel = make_kernel(n_processors=1, quantum=units.ms(10))
        kernel.spawn(cpu_bound(units.ms(1)), name="short")
        for i in range(n_queued):
            kernel.spawn(cpu_bound(units.ms(5)), name=f"q{i}")
        queued_at_exit = []
        kernel.exit_listeners.append(
            lambda process: queued_at_exit.append(kernel.policy.queue_length())
        )
        comparisons = []

        def counting_eq(self, other):
            comparisons.append((self.pid, getattr(other, "pid", None)))
            return NotImplemented

        monkeypatch.setattr(Process, "__eq__", counting_eq)
        kernel.run_until_quiescent()
        assert queued_at_exit[0] == n_queued
        assert comparisons == []


def test_compute_subclass_is_an_unknown_syscall():
    class TimedCompute(sc.Compute):
        pass

    kernel = make_kernel(n_processors=1)

    def program():
        yield TimedCompute(units.ms(1))

    kernel.spawn(program(), name="sub")
    with pytest.raises(SimulationError, match="unknown syscall TimedCompute"):
        kernel.run_until_quiescent()
