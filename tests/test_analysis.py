"""Tests for the analysis layer."""

import pytest
from hypothesis import example, given, strategies as st

from repro.analysis import (
    cpu_shares,
    jain_fairness,
    pressure_summary,
    waste_breakdown,
)
from repro.sim import units
from repro.workloads import AppSpec, Scenario, run_scenario

from tests.conftest import scenario_machine, uniform


def run_small(control=None, n_processes=4):
    return run_scenario(
        Scenario(
            apps=[
                AppSpec(uniform("a", n_tasks=40), n_processes),
                AppSpec(uniform("b", n_tasks=40), n_processes),
            ],
            control=control,
            machine=scenario_machine(),
            poll_interval=units.ms(50),
            server_interval=units.ms(50),
        )
    )


class TestWasteBreakdown:
    def test_buckets_sum_to_capacity(self):
        result = run_small()
        breakdown = waste_breakdown(result)
        total = (
            breakdown.useful
            + breakdown.idle_poll
            + breakdown.spin
            + breakdown.overhead
            + breakdown.idle
        )
        assert total == breakdown.capacity
        assert breakdown.capacity == 4 * result.sim_time

    def test_useful_close_to_app_work(self):
        result = run_small()
        breakdown = waste_breakdown(result)
        # Two apps x 40 tasks x 5ms plus package overheads.
        expected = 2 * 40 * units.ms(5)
        assert breakdown.useful >= expected
        assert breakdown.useful < expected * 1.5

    def test_percentages(self):
        result = run_small()
        pct = waste_breakdown(result).as_percentages()
        assert set(pct) == {"useful", "idle_poll", "spin", "overhead", "idle"}
        assert abs(sum(pct.values()) - 100.0) < 0.5

    def test_oversubscription_increases_waste(self):
        fitting = waste_breakdown(run_small(n_processes=2))
        oversub = waste_breakdown(run_small(n_processes=8))
        assert oversub.fraction("overhead") > fitting.fraction("overhead")


class TestShares:
    def test_equal_apps_near_equal_shares(self):
        result = run_small()
        shares = cpu_shares(result)
        assert shares["a"] == pytest.approx(0.5, abs=0.1)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_jain_bounds(self):
        assert jain_fairness({"a": 0.5, "b": 0.5}) == pytest.approx(1.0)
        assert jain_fairness({"a": 1.0, "b": 0.0}) == pytest.approx(0.5)
        assert jain_fairness({}) == 1.0

    @given(
        st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=2),
            st.floats(min_value=0.0, max_value=1.0),
            min_size=1,
            max_size=6,
        )
    )
    # Squaring tiny shares underflows to a subnormal; the unscaled formula
    # returned 1.0000004 for the second input.
    @example({"a": 1.81e-159, "b": 1.81e-159})
    @example({"a": 1.8e-159, "b": 1.8e-159})
    def test_jain_always_in_range(self, shares):
        index = jain_fairness(shares)
        assert 0.0 < index <= 1.0 + 1e-9


class TestPressure:
    def test_summary_fields(self):
        result = run_small(n_processes=8)
        summary = pressure_summary(result)
        assert summary.dispatches > 0
        assert summary.preemptions >= 0
        assert 0.0 <= summary.cs_preemption_ratio <= 1.0
        assert summary.preemptions_per_sim_second >= 0

    def test_control_reduces_pressure(self):
        off = pressure_summary(run_small(None, n_processes=8))
        on = pressure_summary(run_small("centralized", n_processes=8))
        assert on.preemptions <= off.preemptions
