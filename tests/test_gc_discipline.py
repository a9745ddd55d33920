"""The cyclic collector stays off the simulator's live graph.

Two rules keep the collector from re-walking objects it can never free:
``run_scenario`` pauses automatic collection while it builds a run and
freezes a large built graph for the event loop (``repro.sim.collector_scope``),
and ``compute_task`` builds no closure per task.  These tests pin both;
that a scope which froze frees, when it closes, the garbage its freeze
held, so serial runs do not accumulate; and that the collector is always
handed back in the state it was found in.
"""

import gc
import inspect
import weakref
from contextlib import contextmanager

import pytest

from repro.apps.synthetic import UniformApp
from repro.kernel import Kernel, syscalls as sc
from repro.sim import SimulationError, collector_scope, units
from repro.sync import SpinLock
from repro.threads import compute_task
from repro.workloads import run_scenario, runner
from repro.workloads.scenario import AppSpec, Scenario


def uniform_scenario(n_apps=2, **kwargs):
    return Scenario(
        apps=[
            AppSpec(
                factory=lambda i=i: UniformApp(
                    app_id=f"u{i}", n_tasks=4, task_cost=units.ms(1), seed=i
                ),
                n_processes=2,
                arrival=i * 10,
            )
            for i in range(n_apps)
        ],
        control="centralized",
        **kwargs,
    )


@pytest.fixture
def collector():
    """Start each test with the collector on and nothing frozen; restore
    the interpreter's default state whatever the test did."""
    threshold = gc.get_threshold()
    gc.enable()
    assert gc.get_freeze_count() == 0
    yield
    gc.unfreeze()
    gc.enable()
    gc.set_threshold(*threshold)


@pytest.fixture
def eager(collector):
    """Shrink the full-collection cadence so a small build is frozen."""
    gc.set_threshold(10, 2, 2)


class LoopEntry(Exception):
    """Raised in place of the event loop, after the build."""


def assert_handed_back():
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def freeze_at_loop_entry(monkeypatch):
    """Make the event loop record the collector's state, then raise."""
    seen = []

    def entry(kernel, *args, **kwargs):
        seen.append((gc.isenabled(), gc.get_freeze_count()))
        raise LoopEntry

    monkeypatch.setattr(Kernel, "run_until_quiescent", entry)
    return seen


@pytest.mark.parametrize("fixture", ["collector", "eager"])
def test_normal_return_restores_collector(fixture, request):
    request.getfixturevalue(fixture)
    result = run_scenario(uniform_scenario())
    assert result.apps
    assert_handed_back()


def test_simulation_error_restores_collector(eager):
    with pytest.raises(SimulationError):
        run_scenario(uniform_scenario(), max_events=10)
    assert_handed_back()


def test_build_error_restores_collector(collector):
    def broken():
        assert not gc.isenabled()  # the build runs with the collector paused
        raise RuntimeError("factory failed")

    scenario = uniform_scenario()
    scenario.apps.append(AppSpec(factory=broken, n_processes=1))
    with pytest.raises(RuntimeError, match="factory failed"):
        run_scenario(scenario)
    assert_handed_back()


def test_loop_entry_error_restores_collector(eager, monkeypatch):
    seen = freeze_at_loop_entry(monkeypatch)
    with pytest.raises(LoopEntry):
        run_scenario(uniform_scenario())
    [(enabled, frozen)] = seen
    assert enabled and frozen > 0  # the loop runs on a frozen build
    assert_handed_back()


def test_small_build_is_left_to_the_collector(collector, monkeypatch):
    seen = freeze_at_loop_entry(monkeypatch)
    with pytest.raises(LoopEntry):
        run_scenario(uniform_scenario())
    assert seen == [(True, 0)]


def test_disabled_collector_stays_disabled(eager):
    gc.disable()
    run_scenario(uniform_scenario())
    assert not gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_callers_freeze_is_not_thawed(eager):
    gc.freeze()
    count = gc.get_freeze_count()
    assert count > 0
    run_scenario(uniform_scenario())
    assert gc.get_freeze_count() == count
    assert gc.isenabled()


def test_nested_scope_is_a_no_op(eager):
    with collector_scope() as enter_outer:
        assert not gc.isenabled()
        with collector_scope() as enter_inner:
            enter_inner()
            assert not gc.isenabled()
            assert gc.get_freeze_count() == 0
        assert not gc.isenabled()
        built = [[] for _ in range(100)]  # a build past the cadence
        enter_outer()
        assert gc.isenabled()
        frozen = gc.get_freeze_count()
        assert frozen > 0
        with collector_scope() as enter_inner:
            enter_inner()  # frozen objects can die, but none is added
            assert 0 < gc.get_freeze_count() <= frozen
        assert 0 < gc.get_freeze_count() <= frozen
        del built
    assert_handed_back()


class Node:
    """A self-referencing object: only the cyclic collector frees it."""

    def __init__(self):
        self.me = self


def test_closing_collection_frees_garbage_the_freeze_held(eager):
    node = Node()
    left_over = weakref.ref(node)
    with collector_scope() as enter_loop:
        del node  # the caller's garbage, e.g. a past run
        graph = [Node() for _ in range(100)]
        built = weakref.ref(graph[0])
        enter_loop()
        assert gc.get_freeze_count() > 0
        gc.collect()  # a full collection cannot reach frozen garbage
        assert left_over() is not None
        del graph  # the run is over: its graph is unreachable
    assert left_over() is None and built() is None


def test_serial_runs_do_not_accumulate_garbage(eager):
    tracked = []
    for _ in range(4):
        run_scenario(uniform_scenario())
        tracked.append(len(gc.get_objects()))
    assert tracked[-1] <= tracked[1]


def test_build_triggers_no_collection(collector, monkeypatch):
    collections = []

    def watch(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    def unwatch():
        if watch in gc.callbacks:
            gc.callbacks.remove(watch)

    @contextmanager
    def watched_scope():
        # Stop watching at loop entry: a small build's young collection,
        # deferred to the loop, is the loop's.
        with collector_scope() as enter_loop:
            yield lambda: (unwatch(), enter_loop())

    def entry(kernel, *args, **kwargs):
        unwatch()
        raise LoopEntry

    scenario = uniform_scenario(n_apps=500)
    monkeypatch.setattr(runner, "collector_scope", watched_scope, raising=False)
    monkeypatch.setattr(Kernel, "run_until_quiescent", entry)
    gc.collect()  # so no collection is due before run_scenario starts
    gc.callbacks.append(watch)
    try:
        with pytest.raises(LoopEntry):
            run_scenario(scenario)
    finally:
        unwatch()
    assert collections == []


LOCK = SpinLock("grid.lock")

#: (cost, lock, critical_cost) -> the syscalls the old closure yielded.
BODY_GRID = [
    (0, None, 0, []),
    (0, None, 3, []),
    (0, LOCK, 0, []),
    (0, LOCK, 3, [sc.SpinAcquire(LOCK), sc.Compute(3), sc.SpinRelease(LOCK)]),
    (5, None, 0, [sc.Compute(5)]),
    (5, None, 3, [sc.Compute(5)]),
    (5, LOCK, 0, [sc.Compute(5)]),
    (
        5,
        LOCK,
        3,
        [sc.Compute(5), sc.SpinAcquire(LOCK), sc.Compute(3), sc.SpinRelease(LOCK)],
    ),
]


@pytest.mark.parametrize("cost,lock,critical_cost,expected", BODY_GRID)
def test_compute_task_body_syscalls(cost, lock, critical_cost, expected):
    task = compute_task("t", cost, lock=lock, critical_cost=critical_cost, phase=2)
    assert task.phase == 2
    assert list(task.body()) == expected


def test_compute_task_body_is_a_fresh_generator_per_call():
    task = compute_task("t", 5, lock=LOCK, critical_cost=3)
    first, second = task.body(), task.body()
    assert inspect.isgenerator(first) and inspect.isgenerator(second)
    assert first is not second
    assert list(first) == list(second) == BODY_GRID[-1][-1]
    assert list(task.body()) == BODY_GRID[-1][-1]


def test_compute_task_rejects_negative_costs():
    with pytest.raises(ValueError):
        compute_task("t", -1)
    with pytest.raises(ValueError):
        compute_task("t", 1, lock=LOCK, critical_cost=-1)


def test_tasks_are_cheap_for_the_collector(collector):
    app = UniformApp(n_tasks=1000, critical_fraction=0.1)
    gc.collect()
    gc.disable()
    before = len(gc.get_objects())
    tasks = app.initial_tasks()
    added = len(gc.get_objects()) - before - 1  # less the list itself
    assert len(tasks) == 1000
    assert added / len(tasks) <= 2
