"""Calibrated time: op times scaled to a reference machine speed.

On a shared machine the speed of one process drifts by a third or more within
seconds, so raw times of identical work differ from run to run by as much.
Between blocks of ops the benchmark times a fixed reference task of the same
kind as the ops, and scales the block's times by the reference's nominal time
over its measured one.  Library ops are pure-Python work, referenced by a
Python loop; a CLI op is mostly interpreter start-up, referenced by a bare
interpreter start.  Neither reference runs any fanojet code.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter_ns

BLOCK_NS = 25_000_000  # op time between two reference timings
LOOP_REFERENCE_NS = 1_000_000  # nominal time of one `loop()`
SPAWN_REFERENCE_NS = 10_000_000  # nominal time of one `python -S -c pass`


def loop() -> int:
    """Fixed pure-Python work of the library's kind: tuple-keyed dict updates on big ints."""
    acc: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * 12345678901234567890
    return len(acc)


def _best_ns(task, repeats: int) -> int:
    best = None
    for _ in range(repeats):
        t0 = perf_counter_ns()
        task()
        ns = perf_counter_ns() - t0
        best = ns if best is None else min(best, ns)
    return best


def loop_scale() -> float:
    """LOOP_REFERENCE_NS over the best of three timings of `loop()`, taken now."""
    return LOOP_REFERENCE_NS / _best_ns(loop, 3)


def spawn_scale() -> float:
    """SPAWN_REFERENCE_NS over the best of two bare interpreter starts without `site`."""
    return SPAWN_REFERENCE_NS / _best_ns(
        lambda: subprocess.run([sys.executable, "-S", "-c", "pass"], check=True), 2)


class Calibration:
    """Gives each op record, as its last element, the scale of its block.

    Ops are grouped into blocks of at least BLOCK_NS of op time; a block's
    scale is the mean of the scales measured just before and just after it.
    """

    def __init__(self, scale=loop_scale):
        self.scale = scale
        self.block: list[list] = []
        self.block_ns = 0
        self.before = scale()

    def add(self, record: list, ns: int) -> None:
        self.block.append(record)
        self.block_ns += ns
        if self.block_ns >= BLOCK_NS:
            self.flush()

    def flush(self) -> None:
        if self.block:
            after = self.scale()
            for record in self.block:
                record[-1] = (self.before + after) / 2
            self.before = after
        self.block, self.block_ns = [], 0
