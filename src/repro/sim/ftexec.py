"""Fault-tolerance vocabulary of the grid executor: retry, time, report.

The executor itself lives in :mod:`repro.sim.parallel`; this module
holds the pieces it is configured and observed with:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter. :meth:`RetryPolicy.delay` is a pure function of
  (seed, cell, attempt), so scheduling is reproducible and
  unit-testable. A cell that fails ``max_attempts`` times is
  **quarantined**: the sweep completes without it and reports the
  partial result instead of aborting (the Heterogeneous-Reliability
  stance — degrade, don't die).
* :class:`MonotonicClock` / :class:`FakeClock` — injectable time. The
  executor reads the clock and blocks on its workers only through
  ``now()`` and ``wait(handles, timeout)``, so backoff and timeouts are
  tested against :class:`FakeClock` with zero wall-clock sleeps.
* :class:`FaultToleranceReport` — what a sweep survived: retries,
  timeouts, worker crashes and errors, and the quarantined cells.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_handles
from typing import List, Optional, Sequence

from ..errors import ConfigError


# ----------------------------------------------------------------------
# Injectable time
# ----------------------------------------------------------------------
class MonotonicClock:
    """Wall time for production: ``time.monotonic`` + a real wait."""

    def now(self) -> float:
        return time.monotonic()

    def wait(self, handles: Sequence, timeout: Optional[float]) -> list:
        """Block until a handle is ready or ``timeout`` seconds pass."""
        return _wait_handles(handles, timeout)


class FakeClock:
    """Deterministic time for tests: sleeping *is* advancing.

    Records every sleep so tests can assert the executor's pacing
    (backoff waits) without a single wall-clock stall. :meth:`wait`
    polls the handles; if none is ready and a timeout was asked for,
    the timeout is slept on fake time instead of real time.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self.sleeps: List[float] = []

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self._now += max(0.0, seconds)

    def advance(self, seconds: float) -> None:
        self._now += seconds

    def wait(self, handles: Sequence, timeout: Optional[float]) -> list:
        if timeout is None:
            return _wait_handles(handles)  # nothing to time: wait for work
        ready = _wait_handles(handles, 0)
        if not ready:
            self.sleep(timeout)
        return ready


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Attempt numbering starts at 1; the delay *before* attempt ``n`` is
    ``base * 2**(n-2)`` capped at ``max_delay_s``, then jittered by a
    factor drawn from ``[1 - jitter, 1 + jitter]``. The draw is a pure
    function of (seed, cell index, attempt) — two runs of the same
    sweep back off identically, and no two cells thundering-herd on the
    same schedule.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.5
    max_delay_s: float = 8.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigError("delays must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError("jitter must be in [0, 1)")

    def delay(self, cell_index: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (>= 2) of ``cell_index``."""
        if attempt < 2:
            return 0.0
        base = min(self.max_delay_s, self.base_delay_s * 2 ** (attempt - 2))
        rng = random.Random((self.seed << 32) ^ (cell_index << 8) ^ attempt)
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class QuarantinedCell:
    """A cell the sweep gave up on, with its full failure history."""

    index: int
    workload: str
    description: str
    attempts: int
    failures: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "workload": self.workload,
            "config": self.description,
            "attempts": self.attempts,
            "failures": list(self.failures),
        }


@dataclass
class FaultToleranceReport:
    """What the executor survived during one sweep."""

    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    worker_errors: int = 0
    quarantined: List[QuarantinedCell] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.retries == 0
            and self.timeouts == 0
            and self.worker_crashes == 0
            and self.worker_errors == 0
            and not self.quarantined
        )

    def merge(self, other: "FaultToleranceReport") -> None:
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.worker_crashes += other.worker_crashes
        self.worker_errors += other.worker_errors
        self.quarantined.extend(other.quarantined)

    def to_dict(self) -> dict:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "worker_errors": self.worker_errors,
            "quarantined": [cell.to_dict() for cell in self.quarantined],
        }
