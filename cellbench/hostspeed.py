"""Host-speed probe: scales host times to a reference machine speed.

Host speed on a shared machine can swing by up to 2x over tens of
seconds, uniformly for pure-Python code. A pass therefore times a fixed
pure-Python kernel between its cells, and divides each cell's host time
by the mean slowdown measured just before and just after it. The result
is host time at reference speed: :data:`REFERENCE_KERNEL_S` is the
kernel's time on the quiet reference host.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Tuple

#: Fastest best-of-five time of :func:`_kernel` seen on the reference
#: host (a shared 2-core x86 VM with Python 3.11).
REFERENCE_KERNEL_S = 0.0125


class _Node:
    __slots__ = ("key", "size", "refs")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size
        self.refs: list = []


def _kernel() -> int:
    """A fixed allocate/link/index loop, shaped like the simulator's."""
    rng = random.Random(7)
    live: dict = {}
    kept: list = []
    for i in range(20000):
        node = _Node(i, rng.randrange(64))
        live[i & 1023] = node
        if i % 7 == 0:
            kept.append(node)
        node.refs.append(kept[-1] if kept else None)
    return len(live)


def slowdown() -> Tuple[float, float]:
    """(current slowdown vs the reference host, seconds the probe took).

    2.0 means the host currently runs pure Python at half the reference
    speed. The cyclic GC is off while timing, so the caller's live heap
    does not leak into the probe.
    """
    began = time.perf_counter()
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best / REFERENCE_KERNEL_S, time.perf_counter() - began
