"""Tests for the 1024-CPU/10k-app scale machinery.

Covers the pieces the scale tier leans on: the sparse (journal-replay)
server scan under the sanitizer's table-walk oracles, the sparse control
board, the kernel's idle-cpu set and per-app process index, the
weight-table CLI plumbing, and the timeline exporter's ``watchdog.*``
surfacing.
"""

import os

import pytest

from repro.config import RunConfig, configured
from repro.core.allocation import parse_weights
from repro.core.server import ProcessControlServer
from repro.kernel import Kernel
from repro.kernel.ipc import ControlBoard
from repro.sanitize import invariants
from repro.sim import SimulationError, TraceLog, units
from repro.sim.export import dump_timeline, timeline_events
from repro.workloads import Scenario, run_scenario
from repro.workloads.scenario import AppSpec

from tests.conftest import make_kernel
from tests.test_core_server import cpu_bound


class TestFastScanEquivalence:
    """The sparse scan (journal replay + incremental filler) must see what
    a process-table walk at the syscall instant sees.  Under the strict
    sanitizer the kernel census oracle walks the table at every
    ``GetLoadSummary`` and the server scan oracle re-derives every round
    from the journal, so a clean run proves it scan by scan."""

    @staticmethod
    def _scenario(shards=1):
        from repro.apps.synthetic import UniformApp

        apps = [
            AppSpec(
                factory=lambda i=i: UniformApp(
                    app_id=f"app{i}",
                    n_tasks=6,
                    task_cost=units.ms(30),
                    seed=i,
                ),
                n_processes=2 + (i % 3),
                arrival=i * units.ms(40),
            )
            for i in range(6)
        ]
        return Scenario(
            apps=apps,
            control="centralized",
            shards=shards,
            server_interval=units.ms(60),
            poll_interval=units.ms(60),
        )

    @pytest.mark.parametrize(
        "shards,policy", [(1, "equal"), (3, "equal"), (1, "demand")]
    )
    def test_scan_matches_table_walk(self, shards, policy, monkeypatch):
        calls = {"census": 0, "scans": 0}
        census = Kernel._verify_census
        scan = invariants.check_server_scan

        def counted_census(kernel, *args):
            calls["census"] += 1
            return census(kernel, *args)

        def counted_scan(*args):
            calls["scans"] += 1
            return scan(*args)

        monkeypatch.setattr(Kernel, "_verify_census", counted_census)
        monkeypatch.setattr(invariants, "check_server_scan", counted_scan)
        scenario = self._scenario(shards).with_(policy=policy)
        checked = run_scenario(scenario, config=RunConfig(sanitize="strict"))
        plain = run_scenario(scenario, config=RunConfig())
        updates = [
            (r.time, r.data["targets"])
            for r in checked.trace.records("server.update")
        ]
        # Every scan was proved against the table walk and the journal...
        assert calls["census"] == calls["scans"] == len(updates) > 0
        # ...and checking perturbed nothing.
        assert checked.events_fired == plain.events_fired
        assert updates == [
            (r.time, r.data["targets"])
            for r in plain.trace.records("server.update")
        ]

    def test_fast_scan_under_sanitizer_runs_both_oracles(self):
        # The sanitizer arms the scan oracle inside the server and the
        # census walk inside the kernel; a clean run is the assertion.
        result = run_scenario(
            self._scenario(shards=3), config=RunConfig(sanitize="strict")
        )
        assert result.events_fired > 0


class TestSparseScanOraclesCatchDrift:
    """Each sanitizer-armed oracle fails a strict run on the drift it
    guards against."""

    @staticmethod
    def _run(corrupt, shards=1):
        from repro.core.plane import ControlPlane
        from repro.sanitize import SchedSanitizer

        kernel = make_kernel(n_processors=4)
        plane = ControlPlane(kernel, shards=shards, interval=units.ms(10))
        plane.start()
        for app_id in ("a", "b", "c"):
            plane.shard_of(app_id)
            for i in range(2):
                kernel.spawn(
                    cpu_bound(units.ms(100)),
                    name=f"{app_id}{i}",
                    app_id=app_id,
                    controllable=True,
                )
        sanitizer = SchedSanitizer(kernel, mode="strict").attach()
        # Raw processes never obey targets: keep the share check's
        # compliance window past the end of the run.
        sanitizer.watch_server(
            plane, poll_interval=units.ms(10), compliance_factor=100
        )
        kernel.engine.schedule_at(
            units.ms(25), lambda: corrupt(kernel, plane), "corrupt"
        )
        kernel.run_until_quiescent()

    def test_clean_run_passes(self):
        self._run(lambda kernel, plane: None, shards=2)

    def test_census_oracle_checks_runnable_by_app(self):
        def corrupt(kernel, plane):
            kernel._runnable_per_app["a"] += 1

        with pytest.raises(SimulationError, match="sparse census diverged"):
            self._run(corrupt)

    def test_scan_oracle_checks_replayed_view(self):
        def corrupt(kernel, plane):
            plane.servers[0]._alive_view["a"] += 1

        with pytest.raises(SimulationError, match="replayed census view"):
            self._run(corrupt)

    def test_scan_oracle_checks_shard_routing(self):
        def corrupt(kernel, plane):
            server = plane.servers[0]
            stray = next(
                app_id
                for app_id, shard in plane.assignment.items()
                if shard != 0
            )
            server._my_apps[stray] = server._alive_view[stray]
            server._filler.set_cap(stray, server._alive_view[stray])

        with pytest.raises(SimulationError, match="shard view diverged"):
            self._run(corrupt, shards=2)


class TestSparseBoard:
    def test_post_tracks_per_app_dirty_versions(self):
        board = ControlBoard()
        board.post({"a": 2, "b": 3}, now=10)
        assert board.targets == {"a": 2, "b": 3}
        assert board.version == 1
        assert board.target_posted_at == {"a": 10, "b": 10}
        # Re-posting an unchanged entry does not restamp it.
        board.post({"a": 2, "b": 4}, now=20)
        assert board.targets == {"a": 2, "b": 4}
        assert board.version == 2
        assert board.target_posted_at == {"a": 10, "b": 20}
        assert board.posted_at("missing") is None
        # A full post drops the entries it no longer names.
        board.post({"b": 4}, now=30)
        assert board.targets == {"b": 4}
        assert board.target_posted_at == {"b": 20}

    def test_post_delta_patches_in_place(self):
        board = ControlBoard()
        board.post({"a": 2, "b": 3, "c": 1}, now=10)
        board.post_delta({"b": 5}, removals=("c",), now=25)
        assert board.targets == {"a": 2, "b": 5}
        assert board.version == 2
        assert board.updated_at == 25
        assert board.target_posted_at == {"a": 10, "b": 25}

    def test_post_delta_noop_change_stays_clean(self):
        board = ControlBoard()
        board.post({"a": 2}, now=10)
        board.post_delta({"a": 2}, removals=(), now=20)
        assert board.target_posted_at == {"a": 10}
        assert board.version == 2  # the scan happened...
        assert board.targets == {"a": 2}  # ...but nothing moved

    def test_post_delta_rejects_negative_targets(self):
        board = ControlBoard()
        with pytest.raises(ValueError):
            board.post_delta({"a": -1}, removals=(), now=0)

    def test_post_delta_clears_crash_stamp(self):
        board = ControlBoard()
        board.post({"a": 1}, now=5)
        board.mark_crashed(9)
        board.post_delta({"a": 2}, removals=(), now=12)
        assert board.crashed_at is None


class TestKernelSparseStructures:
    def test_processes_of_app_matches_table_scan(self):
        kernel = make_kernel(n_processors=4)
        for i in range(3):
            kernel.spawn(
                cpu_bound(units.ms(50)),
                name=f"w{i}",
                app_id="app" if i < 2 else "other",
                controllable=True,
            )
        kernel.run_until_quiescent()
        for app_id in ("app", "other", "ghost"):
            indexed = kernel.processes_of_app(app_id)
            scanned = [
                p for p in kernel.processes.values() if p.app_id == app_id
            ]
            assert indexed == scanned

    def test_idle_cpu_set_tracks_processors(self):
        kernel = make_kernel(n_processors=4)
        assert kernel._idle_cpus == {0, 1, 2, 3}
        kernel.spawn(cpu_bound(units.ms(30)), name="w")
        kernel.run_until_quiescent()
        assert kernel._idle_cpus == {0, 1, 2, 3}

    def test_idle_cpu_set_respects_hotplug(self):
        kernel = make_kernel(n_processors=4)
        assert kernel.cpu_offline(2)
        assert kernel._idle_cpus == {0, 1, 3}
        assert kernel.cpu_online(2)
        assert kernel._idle_cpus == {0, 1, 2, 3}


class TestWeightsPlumbing:
    def test_parse_weights(self):
        assert parse_weights("a=2,b=0.5") == {"a": 2.0, "b": 0.5}
        assert parse_weights(" a = 2 , ") == {"a": 2.0}

    @pytest.mark.parametrize(
        "spec", ["", "a", "a=", "a=x", "a=0", "a=-1", "a=1,a=2"]
    )
    def test_parse_weights_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_weights(spec)

    def test_env_weights_reach_the_control_plane(self, monkeypatch):
        from repro.apps.synthetic import UniformApp
        from repro.scenarios.builders import small_machine

        monkeypatch.setenv("REPRO_WEIGHTS", "app0=3")
        scenario = Scenario(
            apps=[
                AppSpec(
                    factory=lambda i=i: UniformApp(
                        app_id=f"app{i}", n_tasks=16, task_cost=units.ms(20)
                    ),
                    n_processes=4,
                )
                for i in range(2)
            ],
            control="centralized",
            machine=small_machine(4),
            server_interval=units.ms(50),
            poll_interval=units.ms(50),
        )

        def first_targets(result):
            return next(
                record.data["targets"]
                for record in result.trace.records("server.update")
                if len(record.data["targets"]) == 2
            )

        with configured(RunConfig.from_env()):
            weighted = run_scenario(scenario)
            # An explicit policy wins the resolution, so the table is unused.
            pinned = run_scenario(scenario.with_(policy="equal"))
        plain = run_scenario(scenario)
        assert first_targets(plain) == {"app0": 2, "app1": 2}
        assert first_targets(weighted) == {"app0": 3, "app1": 1}
        assert first_targets(pinned) == first_targets(plain)


class TestTimelineExport:
    @staticmethod
    def _trace():
        trace = TraceLog()
        trace.emit(0, "server.update", targets={"a": 2})
        trace.emit(5, "kernel.runnable", total=3, per_app={"a": 3})  # bulk
        trace.emit(10, "watchdog.suspect", shard=0)
        trace.emit(12, "watchdog.failover", shard=0, to=1)
        trace.emit(20, "plane.rebalance", moves=1)
        return trace

    def test_watchdog_events_always_surface(self):
        rows = timeline_events(self._trace())
        cats = [row["cat"] for row in rows]
        assert "watchdog.suspect" in cats
        assert "watchdog.failover" in cats
        assert "kernel.runnable" not in cats  # bulk series stays out
        lanes = {row["cat"]: row["lane"] for row in rows}
        assert lanes["watchdog.failover"] == "watchdog"
        assert lanes["plane.rebalance"] == "plane"
        assert [row["t"] for row in rows] == sorted(row["t"] for row in rows)

    def test_watchdog_surfaces_even_with_custom_categories(self):
        rows = timeline_events(self._trace(), categories={"server.update"})
        cats = {row["cat"] for row in rows}
        assert cats == {"server.update", "watchdog.suspect", "watchdog.failover"}

    def test_dump_timeline_round_trip(self, tmp_path):
        import json

        path = tmp_path / "timeline.jsonl"
        count = dump_timeline(self._trace(), path)
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        assert len(lines) == count == 4
        assert lines[1]["lane"] == "watchdog"
