"""Tests for the 1024-CPU/10k-app scale machinery.

Covers the pieces the scale tier leans on: the fast (journal-replay)
server scan against the legacy full-table scan, the sparse dirty-set
control board, the kernel's idle-cpu set and per-app process index, the
weight-table CLI plumbing, and the timeline exporter's ``watchdog.*``
surfacing.
"""

import os

import pytest

from repro.config import RunConfig, configured
from repro.core.allocation import parse_weights
from repro.core.server import ProcessControlServer
from repro.kernel.ipc import ControlBoard
from repro.sim import TraceLog, units
from repro.sim.export import dump_timeline, timeline_events
from repro.workloads import Scenario, run_scenario
from repro.workloads.scenario import AppSpec

from tests.conftest import make_kernel
from tests.test_core_server import cpu_bound


class TestFastScanEquivalence:
    """fast_scan=True (journal replay + incremental filler) must reproduce
    the legacy full-table scan's published targets, update times, and
    event counts exactly."""

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

    @pytest.mark.parametrize("shards", [1, 3])
    def test_fast_and_legacy_scans_agree(self, shards, monkeypatch):
        fast = run_scenario(self._scenario(shards))
        monkeypatch.setattr(ProcessControlServer, "fast_scan", False, raising=False)
        legacy = run_scenario(self._scenario(shards))
        assert fast.events_fired == legacy.events_fired
        fast_updates = [
            (r.time, r.data["targets"])
            for r in fast.trace.records("server.update")
        ]
        legacy_updates = [
            (r.time, r.data["targets"])
            for r in legacy.trace.records("server.update")
        ]
        assert fast_updates == legacy_updates

    def test_fast_scan_is_the_default(self):
        kernel = make_kernel(n_processors=4)
        server = ProcessControlServer(kernel, interval=units.ms(100))
        assert server.fast_scan is True

    def test_fast_scan_under_sanitizer_runs_both_oracles(self):
        # The sanitizer arms the incremental-vs-batch check inside the
        # server and the census walk inside the kernel; a clean run is
        # the assertion.
        result = run_scenario(
            self._scenario(shards=3), config=RunConfig(sanitize="strict")
        )
        assert result.events_fired > 0


class TestSparseBoard:
    def test_post_tracks_per_app_dirty_versions(self):
        board = ControlBoard()
        board.post({"a": 2, "b": 3}, now=10)
        assert board.read_app("a") == (2, 1)
        assert board.read_app("b") == (3, 1)
        # Re-posting an unchanged entry does not dirty it.
        board.post({"a": 2, "b": 4}, now=20)
        assert board.read_app("a") == (2, 1)
        assert board.read_app("b") == (4, 2)
        assert board.read_app("missing") == (None, 0)

    def test_post_delta_patches_in_place(self):
        board = ControlBoard()
        board.post({"a": 2, "b": 3, "c": 1}, now=10)
        board.post_delta({"b": 5}, removals=("c",), now=25)
        assert board.targets == {"a": 2, "b": 5}
        assert board.version == 2
        assert board.updated_at == 25
        assert board.read_app("a") == (2, 1)
        assert board.read_app("b") == (5, 2)
        assert board.read_app("c") == (None, 0)

    def test_post_delta_noop_change_stays_clean(self):
        board = ControlBoard()
        board.post({"a": 2}, now=10)
        board.post_delta({"a": 2}, removals=(), now=20)
        assert board.read_app("a") == (2, 1)
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
