"""Shared experiment configuration: the calibrated machine and workloads.

The *paper* preset reproduces the evaluation platform: a 16-processor
machine under a UMAX-like priority-decay scheduler, with applications sized
so single-process runs take a few simulated minutes and multiprogrammed
runs line up with Figure 4's tens of seconds.

The *quick* preset keeps every structural property (phase counts relative
to processor counts, critical-section fractions, arrival staggering) but
shrinks task counts, so benchmarks run in seconds of host time while
preserving the figures' shapes.

Calibration notes (also summarized in DESIGN.md section 6):

* quantum 50 ms, context switch 200 us -- era-plausible UMAX values;
* cache cold reload 40 ms/full working set -- deliberately at the high end
  the paper's Section 2 projects for scalable shared-memory machines; this
  is the main driver of the beyond-16-process collapse in Figures 1/3;
* per-application critical sections sized so speedups at 16 processes are
  sub-linear exactly as in Figure 3 (fft ~ 13, gauss ~ 11, sort ~ 5,
  matmul ~ 16 on our machine vs the paper's 7/10/6.5/13.5);
* the priority-decay half-life (15 s) reproduces the paper's observation
  that freshly started applications are favoured by UMAX.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.apps import FFT, Gauss, MatMul, MergeSort
from repro.machine import MachineConfig
from repro.sim import units
from repro.workloads import AppSpec, Scenario, run_scenario
from repro.workloads.generator import GeneratedWorkloadConfig

#: Process counts swept by Figures 1 and 3 (paper: 1 through 24).
PAPER_PROCESS_COUNTS = (1, 2, 4, 8, 12, 16, 20, 24)

#: The default kernel scheduler for the paper experiments (UMAX-like).
PAPER_SCHEDULER = "decay"


@dataclass(frozen=True)
class Preset:
    """Every size that differs between the ``paper`` and ``quick`` runs.

    One row per preset in :data:`PRESETS`; every experiment reads its
    sizes from here through :func:`get_preset`, so an unknown preset name
    fails the same way everywhere.
    """

    #: The four paper applications: name -> (seed -> fresh instance).
    apps: Dict[str, Callable[[int], object]]
    #: Processes-per-application points of Figures 1 and 3.
    process_counts: Tuple[int, ...]
    #: Server/application polling period: the paper's 6 s, shrunk for
    #: the quick preset in proportion to its shorter runs.
    poll_interval: int
    #: Figure 4's arrival stagger: the paper's 10 s, shrunk for the quick
    #: preset so the (smaller) quick applications still overlap.
    figure4_stagger: int
    #: Seeds of the chaos campaign and the recovery sweep CLIs.
    fault_seeds: Tuple[int, ...]
    #: The steady-state experiment's random arrival process.
    steady_state: GeneratedWorkloadConfig
    #: Offered request rates (per second) and stream length of the
    #: service sweep.
    service_rates: Tuple[float, ...]
    service_requests: int
    #: Lock-collapse sizes: tasks in the lock app, saturation-sweep
    #: thread counts, head-to-head thread count.
    lock_tasks: int
    lock_threads: Tuple[int, ...]
    lock_head_to_head_threads: int
    #: Mixed-runtime sizes: (tq tasks, fj phases, pipe items, tasks per
    #: greedy wave).
    mixed_runtime: Tuple[int, int, int, int]
    #: Phases per application in the policies experiment's overload mix.
    overload_phases: int
    #: Tasks of the greedy application in the fairness ablation.
    greedy_tasks: int


PRESETS: Dict[str, Preset] = {
    "paper": Preset(
        apps={
            "matmul": lambda seed: MatMul(seed=seed),
            "fft": lambda seed: FFT(seed=seed),
            "gauss": lambda seed: Gauss(seed=seed),
            "sort": lambda seed: MergeSort(seed=seed),
        },
        process_counts=PAPER_PROCESS_COUNTS,
        poll_interval=units.seconds(6),
        figure4_stagger=units.seconds(10),
        fault_seeds=(0, 1, 2, 3, 4),
        steady_state=GeneratedWorkloadConfig(
            window=units.seconds(90),
            arrival_rate_per_s=0.08,
            scale_range=(0.3, 0.8),
            min_apps=4,
        ),
        service_rates=(180.0, 250.0, 300.0),
        service_requests=160,
        lock_tasks=192,
        lock_threads=(2, 3, 4, 5, 6, 8, 10, 12, 14, 16),
        lock_head_to_head_threads=32,
        mixed_runtime=(300, 10, 80, 48),
        overload_phases=40,
        greedy_tasks=6000,
    ),
    "quick": Preset(
        apps={
            "matmul": lambda seed: MatMul(n_tasks=400, seed=seed),
            "fft": lambda seed: FFT(phases=8, tasks_per_phase=32, seed=seed),
            "gauss": lambda seed: Gauss(n_steps=24, seed=seed),
            "sort": lambda seed: MergeSort(n_lists=32, seed=seed),
        },
        process_counts=(1, 4, 8, 16, 24),
        poll_interval=units.seconds(2),
        figure4_stagger=units.seconds(3),
        fault_seeds=(0, 1, 2),
        steady_state=GeneratedWorkloadConfig(
            window=units.seconds(20),
            arrival_rate_per_s=0.25,
            scale_range=(0.15, 0.35),
            min_apps=3,
        ),
        service_rates=(250.0,),
        service_requests=120,
        lock_tasks=96,
        lock_threads=(2, 4, 6, 8, 10, 12, 14),
        lock_head_to_head_threads=24,
        mixed_runtime=(150, 5, 40, 24),
        overload_phases=12,
        greedy_tasks=1500,
    ),
}


def get_preset(name: str) -> Preset:
    """The sizes of preset *name*; ``ValueError`` for an unknown name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r} (use 'paper' or 'quick')"
        ) from None


def paper_machine(n_processors: int = 16) -> MachineConfig:
    """The calibrated 16-processor Multimax stand-in."""
    return MachineConfig(
        n_processors=n_processors,
        quantum=units.ms(50),
        context_switch_cost=units.us(200),
        dispatch_latency=units.us(50),
        cache_cold_penalty=units.ms(40),
        cache_warmup_time=units.ms(20),
        cache_purge_time=units.ms(30),
    )


def app_factories(
    preset: str = "paper", seed: int = 0
) -> Dict[str, Callable[[], object]]:
    """Factories for the four paper applications, by name.

    Each call to a factory builds a fresh application instance (fresh locks
    and jitter streams), as the scenario runner requires.
    """
    return {
        name: partial(build, seed) for name, build in get_preset(preset).apps.items()
    }


def single_app_scenario(
    app: str,
    n_processes: int,
    control: Optional[str] = None,
    preset: str = "paper",
    seed: int = 0,
    machine: Optional[MachineConfig] = None,
    poll_interval: Optional[int] = None,
    idle_spin: bool = True,
    scheduler: str = PAPER_SCHEDULER,
) -> Scenario:
    """One paper application alone on the paper machine.

    *machine* defaults to :func:`paper_machine`, *poll_interval* (which
    also sets the server interval) to the preset's.
    """
    sizes = get_preset(preset)
    interval = sizes.poll_interval if poll_interval is None else poll_interval
    return Scenario(
        apps=[AppSpec(partial(sizes.apps[app], seed), n_processes)],
        control=control,
        machine=paper_machine() if machine is None else machine,
        scheduler=scheduler,
        idle_spin=idle_spin,
        poll_interval=interval,
        server_interval=interval,
        seed=seed,
    )


@dataclass(frozen=True)
class SingleAppRun:
    """A :func:`single_app_scenario` run reduced to plain data."""

    wall_time: int
    polls: int
    suspensions: int
    preemptions: int
    server_updates: int


def single_app_cell(kwargs: Dict[str, object]) -> SingleAppRun:
    """Sweep cell: run ``single_app_scenario(**kwargs)``.

    Module-level and plain-data in and out, so it pickles for
    :func:`repro.experiments.parallel.parallel_map`.
    """
    result = run_scenario(single_app_scenario(**kwargs))
    app = result.apps[kwargs["app"]]
    return SingleAppRun(
        wall_time=app.wall_time,
        polls=app.polls,
        suspensions=app.suspensions,
        preemptions=result.total_preemptions,
        server_updates=result.server_updates,
    )
