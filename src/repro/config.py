"""Run configuration: every ``REPRO_*`` run knob, resolved once.

A frozen :class:`RunConfig` holds the eight knobs that change how a run
executes without changing what it describes.  :meth:`RunConfig.from_env`
is their only parser, and only entry points call it (the experiments CLI,
``python -m repro``, the perf harness).  Everything below reads the
*active* config, installed for a ``with`` body by :func:`configured`
(default: ``RunConfig()``, the paper's configuration).  A
:class:`~repro.workloads.scenario.Scenario` field that is set wins over
the config.  The knob table is in docs/INTERNALS.md (section 15).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping, Optional

#: RunConfig field -> the environment variable that sets it.
ENV_VARS = {
    "sanitize": "REPRO_SANITIZE",
    "faults": "REPRO_FAULTS",
    "policy": "REPRO_POLICY",
    "weights": "REPRO_WEIGHTS",
    "shards": "REPRO_SHARDS",
    "supervise": "REPRO_SUPERVISE",
    "lock_admission": "REPRO_LOCK_ADMISSION",
    "jobs": "REPRO_JOBS",
}

_SANITIZE_WORDS = {
    **dict.fromkeys(("", "0", "off", "false", "no", "none")),
    **dict.fromkeys(("1", "on", "true", "yes", "strict"), "strict"),
    **dict.fromkeys(("record", "warn"), "record"),
}


def _invalid(name: str, value: Any, why: str) -> ValueError:
    return ValueError(f"invalid {ENV_VARS[name]} ({name}={value!r}): {why}")


@dataclass(frozen=True)
class RunConfig:
    """The run knobs of one process.

    Attributes:
        sanitize: ``None`` (off), ``"strict"`` (raise at the first
            invariant violation) or ``"record"`` (tally and continue).
        faults: fault-plan spec for scenarios that name none.
        policy: allocation-policy name for scenarios that name none.
        weights: weight-table spec (``"fft=2,sort=0.5"``); engages only
            when no policy wins the resolution.
        shards: control-server shard count for scenarios that set none.
        supervise: arm the watchdog for scenarios that set nothing.
        lock_admission: lock admission limit for scenarios that set none
            (``None`` = unrestricted).
        jobs: sweep worker processes (``None`` = the CPU count).
    """

    sanitize: Optional[str] = None
    faults: Optional[str] = None
    policy: Optional[str] = None
    weights: Optional[str] = None
    shards: int = 1
    supervise: bool = False
    lock_admission: Optional[int] = None
    jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sanitize not in (None, "strict", "record"):
            raise _invalid("sanitize", self.sanitize, "use strict, record or off")
        if type(self.supervise) is not bool:
            raise _invalid("supervise", self.supervise, "must be a bool")
        for name in ("shards", "lock_admission", "jobs"):
            value = getattr(self, name)
            if (value is not None or name == "shards") and (
                type(value) is not int or value < 1
            ):
                raise _invalid(name, value, "must be an integer >= 1")
        # Imported here: these packages import this module.
        from repro.core.allocation import POLICY_NAMES, parse_weights
        from repro.faults.plan import parse_spec

        if self.policy is not None and self.policy not in (*POLICY_NAMES, "space"):
            raise _invalid("policy", self.policy, f"one of {[*POLICY_NAMES, 'space']}")
        for name, parse in (("faults", parse_spec), ("weights", parse_weights)):
            spec = getattr(self, name)
            if spec is not None:
                try:
                    parse(spec)
                except ValueError as exc:
                    raise _invalid(name, spec, str(exc)) from None

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ) -> "RunConfig":
        """Parse every knob from *environ* (unset or empty = default);
        raises ``ValueError`` naming the knob on a malformed value."""
        raw = {name: environ.get(var, "").strip() for name, var in ENV_VARS.items()}
        if raw["sanitize"].lower() not in _SANITIZE_WORDS:
            raise _invalid("sanitize", raw["sanitize"], "use 1/strict, record, or 0")
        values: dict = {"sanitize": _SANITIZE_WORDS[raw["sanitize"].lower()]}
        for name in ("faults", "policy", "weights"):
            values[name] = raw[name] or None
        for name in ("shards", "supervise", "lock_admission", "jobs"):
            if raw[name]:
                try:
                    values[name] = int(raw[name])
                except ValueError:
                    raise _invalid(name, raw[name], "not an integer") from None
        if "supervise" in values:
            values["supervise"] = bool(values["supervise"])
        if values.get("lock_admission") == 0:
            del values["lock_admission"]  # the env spelling of "off"
        return cls(**values)

    def with_(self, **overrides: Any) -> "RunConfig":
        """A copy with knobs replaced (re-validated)."""
        return replace(self, **overrides)


_active = RunConfig()


def active_config() -> RunConfig:
    """The config installed by the innermost :func:`configured` block."""
    return _active


def activate(config: RunConfig) -> None:
    """Install *config* for the rest of the process (the sweep pool's
    worker initializer; everything else uses :func:`configured`)."""
    global _active
    _active = config


@contextmanager
def configured(config: RunConfig) -> Iterator[RunConfig]:
    """Make *config* the active config for the ``with`` body."""
    previous = _active
    activate(config)
    try:
        yield config
    finally:
        activate(previous)
