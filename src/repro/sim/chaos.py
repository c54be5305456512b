"""Deterministic fault injection for sweep workers (the chaos harness).

The grid executor (:func:`repro.sim.parallel.run_cells`) promises that
a sweep with a retry policy survives worker deaths; this module
manufactures those deaths on demand so the promise is testable — in
unit tests and in the CI chaos-smoke job — without ever touching
production code paths.

Injection is **deterministic**: whether attempt ``a`` of cell ``i``
dies is a pure function of (seed, i, a). Retried attempts therefore
see independent draws and a sweep with injection probability < 1
always terminates the same way for the same seed, which is what lets
the chaos tests assert *bit-identical results* rather than "usually
works".

Activation is explicit only: either a :class:`ChaosConfig` handed to
the executor, or the ``REPRO_CHAOS`` environment variable (read once a
retry policy is in force), formatted ``mode:probability[:seed]`` — e.g.
``kill:0.4`` or ``raise:0.25:7``. Unset means fully disabled.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass
from typing import Mapping, Optional

from ..errors import ChaosError, ConfigError

#: Environment variable that arms the harness in worker processes.
CHAOS_ENV = "REPRO_CHAOS"

#: Supported failure modes: die without a word, or die loudly.
CHAOS_MODES = ("kill", "raise")


@dataclass(frozen=True)
class ChaosConfig:
    """One armed failure mode.

    ``kill`` sends the worker SIGKILL — the harshest death, no cleanup,
    no traceback, exactly what an OOM-killer or a yanked node does.
    ``raise`` throws :class:`~repro.errors.ChaosError` inside the cell,
    modelling a crashing (but still talkative) worker.
    """

    mode: str
    probability: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in CHAOS_MODES:
            raise ConfigError(
                f"unknown chaos mode {self.mode!r}; choose from {CHAOS_MODES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError("chaos probability must be in [0, 1]")

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Parse ``mode:probability[:seed]`` (the ``REPRO_CHAOS`` format)."""
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"bad chaos spec {spec!r}; expected mode:probability[:seed]"
            )
        try:
            probability = float(parts[1])
            seed = int(parts[2]) if len(parts) == 3 else 0
        except ValueError as exc:
            raise ConfigError(f"bad chaos spec {spec!r}: {exc}") from exc
        return cls(mode=parts[0], probability=probability, seed=seed)

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["ChaosConfig"]:
        """The armed config, or None when ``REPRO_CHAOS`` is unset/empty."""
        spec = (environ if environ is not None else os.environ).get(CHAOS_ENV, "")
        return cls.parse(spec) if spec else None

    # ------------------------------------------------------------------
    def should_injure(self, cell_index: int, attempt: int) -> bool:
        """Deterministic per-(cell, attempt) draw against ``probability``."""
        rng = random.Random((self.seed << 24) ^ (cell_index << 8) ^ attempt)
        return rng.random() < self.probability

    def injure(self, cell_index: int, attempt: int) -> None:
        """Die now, in the configured mode. Only call from a worker."""
        if self.mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise ChaosError(
            f"injected failure in cell {cell_index} attempt {attempt} "
            f"(mode={self.mode}, p={self.probability}, seed={self.seed})"
        )


def maybe_injure(
    chaos: Optional[ChaosConfig], cell_index: int, attempt: int
) -> None:
    """Worker-side hook: die iff the harness is armed and the draw says so."""
    if chaos is not None and chaos.should_injure(cell_index, attempt):
        chaos.injure(cell_index, attempt)
