"""RunConfig: the one resolution path for every ``REPRO_*`` run knob.

Covers parsing and validation (:meth:`RunConfig.from_env` names the knob
in every error), the active-config plumbing (``configured``, the sweep
pool initializer, the CLI start-up line), the sanitizer as the only
switch of the kernel census and server scan oracles, and env immunity:
with every knob set to a non-default value in the environment, pinned
corpus cases and golden traces do not move.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import ENV_VARS, RunConfig, active_config, configured
from repro.core.server import ProcessControlServer
from repro.experiments.parallel import parallel_map
from repro.kernel import Kernel
from repro.sanitize import invariants
from repro.scenarios import all_cases, run_catalog
from repro.scenarios.runner import open_golden_store
from repro.sim import units
from repro.workloads import AppSpec, Scenario, run_scenario

from tests.conftest import make_kernel, small_machine, uniform
from tests.test_golden_traces import CASES as GOLDEN_CASES
from tests.test_golden_traces import GOLDEN_DIR, _measure

#: Every run knob at a valid, non-default value.
KNOBS_SET = {
    "REPRO_SANITIZE": "record",
    "REPRO_FAULTS": "server-crash:at=20ms,down=60ms",
    "REPRO_POLICY": "demand",
    "REPRO_WEIGHTS": "app0=3",
    "REPRO_SHARDS": "2",
    "REPRO_SUPERVISE": "1",
    "REPRO_LOCK_ADMISSION": "1",
    "REPRO_JOBS": "1",
}

#: One malformed value per knob.
MALFORMED = {
    "REPRO_SANITIZE": "maybe",
    "REPRO_FAULTS": "no-such-fault:at=1ms",
    "REPRO_POLICY": "fastest",
    "REPRO_WEIGHTS": "app0=-1",
    "REPRO_SHARDS": "two",
    "REPRO_SUPERVISE": "yes please",
    "REPRO_LOCK_ADMISSION": "-3",
    "REPRO_JOBS": "many",
}


@pytest.fixture
def knobs_set(monkeypatch):
    for name, value in KNOBS_SET.items():
        monkeypatch.setenv(name, value)


def _controlled_scenario():
    return Scenario(
        apps=[AppSpec(uniform(name, n_tasks=24), 4) for name in ("a", "b")],
        control="centralized",
        machine=small_machine(4),
        server_interval=units.ms(20),
        poll_interval=units.ms(20),
    )


class TestParsing:
    def test_empty_environment_is_the_default(self):
        assert RunConfig.from_env({}) == RunConfig()
        assert RunConfig.from_env({name: "" for name in KNOBS_SET}) == RunConfig()

    def test_every_knob_is_covered_once(self):
        assert set(ENV_VARS.values()) == set(KNOBS_SET) == set(MALFORMED)

    def test_every_knob_parses_to_a_non_default_value(self):
        config = RunConfig.from_env(KNOBS_SET)
        assert config == RunConfig(
            sanitize="record",
            faults="server-crash:at=20ms,down=60ms",
            policy="demand",
            weights="app0=3",
            shards=2,
            supervise=True,
            lock_admission=1,
            jobs=1,
        )
        default = RunConfig()
        for name in ENV_VARS:
            assert getattr(config, name) != getattr(default, name), name

    def test_zero_admission_in_the_environment_means_unrestricted(self):
        assert RunConfig.from_env({"REPRO_LOCK_ADMISSION": "0"}).lock_admission is None

    @pytest.mark.parametrize("var", sorted(MALFORMED))
    def test_malformed_value_is_rejected_naming_the_knob(self, var):
        with pytest.raises(ValueError, match=var):
            RunConfig.from_env({**KNOBS_SET, var: MALFORMED[var]})

    @pytest.mark.parametrize(
        "overrides, var",
        [
            ({"shards": 0}, "REPRO_SHARDS"),
            ({"lock_admission": 0}, "REPRO_LOCK_ADMISSION"),
            ({"jobs": 0}, "REPRO_JOBS"),
            ({"sanitize": "loose"}, "REPRO_SANITIZE"),
            ({"supervise": 1}, "REPRO_SUPERVISE"),
        ],
    )
    def test_direct_construction_validates_too(self, overrides, var):
        with pytest.raises(ValueError, match=var):
            RunConfig(**overrides)

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            RunConfig().shards = 2


class TestActiveConfig:
    def test_configured_nests_and_restores(self):
        outer, inner = RunConfig(shards=2), RunConfig(shards=3)
        assert active_config() == RunConfig()
        with configured(outer):
            with configured(inner):
                assert active_config() is inner
            assert active_config() is outer
        assert active_config() == RunConfig()

    def test_parallel_workers_see_the_active_config(self):
        config = RunConfig(policy="demand", shards=2, jobs=2)
        with configured(config):
            seen = parallel_map(_worker_view, range(4))
        assert [view[0] for view in seen] == [config] * 4
        # The cells really ran in pool workers, not the serial fallback.
        assert all(pid != os.getpid() for _, pid in seen)


def _worker_view(_):
    return active_config(), os.getpid()


class TestOracleArming:
    """The sanitizer is the only switch of the kernel census oracle and
    the server scan oracle (no environment reads below the entry point)."""

    @staticmethod
    def _count_oracle_calls(monkeypatch):
        calls = {"census": 0, "scans": 0}
        census = Kernel._verify_census
        scans = invariants.check_server_scan

        def counted_census(self, *args):
            calls["census"] += 1
            return census(self, *args)

        def counted_scans(*args):
            calls["scans"] += 1
            return scans(*args)

        monkeypatch.setattr(Kernel, "_verify_census", counted_census)
        monkeypatch.setattr(invariants, "check_server_scan", counted_scans)
        return calls

    def test_sanitize_zero_arms_neither_oracle(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        calls = self._count_oracle_calls(monkeypatch)
        kernel = make_kernel()
        server = ProcessControlServer(kernel, interval=units.ms(20))
        assert not kernel._check_census and server._scan_check is None
        with configured(RunConfig.from_env()) as config:
            assert config.sanitize is None
            run_scenario(_controlled_scenario())
        assert calls == {"census": 0, "scans": 0}

    def test_sanitize_config_arms_both_oracles_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        calls = self._count_oracle_calls(monkeypatch)
        result = run_scenario(
            _controlled_scenario(), config=RunConfig(sanitize="record")
        )
        assert result.sanitizer_violations == 0
        assert calls["census"] > 0 and calls["scans"] > 0


class TestEnvImmunity:
    def test_pinned_corpus_cases_are_unchanged(self, knobs_set):
        # Every case passes, and every digest-pinned one matches its pin.
        with configured(RunConfig.from_env()):
            report = run_catalog(all_cases(), golden=open_golden_store())
        report.assert_clean()
        assert sum(outcome.digest is not None for outcome in report.outcomes) >= 80

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_traces_are_unchanged(self, knobs_set, name):
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert _measure(name) == golden


class TestEntryPoints:
    @staticmethod
    def _run(*args, **env):
        return subprocess.run(
            [sys.executable, "-m", *args],
            capture_output=True,
            text=True,
            timeout=300.0,
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": "src", **env},
        )

    def test_experiments_cli_overlays_flags_on_the_environment(self):
        result = self._run(
            "repro.experiments", "figure2", "--policy", "equal", REPRO_SHARDS="2"
        )
        assert result.returncode == 0, result.stderr
        first = result.stdout.splitlines()[0]
        assert first.startswith("run config: RunConfig(")
        assert "policy='equal'" in first and "shards=2" in first

    def test_experiments_cli_rejects_a_malformed_knob(self):
        result = self._run("repro.experiments", "figure2", REPRO_SHARDS="two")
        assert result.returncode != 0
        assert "REPRO_SHARDS" in result.stderr

    def test_scenarios_run_prints_the_resolved_config(self):
        result = self._run(
            "repro", "scenarios", "run", "--sanitize", "--filter",
            "locks-collapse-unrestricted", REPRO_JOBS="1",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        first = result.stdout.splitlines()[0]
        assert first.startswith("run config: RunConfig(sanitize='record'")
        assert "jobs=1" in first
