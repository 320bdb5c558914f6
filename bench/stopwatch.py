"""Segment timing that divides out drift in the host's speed.

The machines this benchmark runs on share their cores: the same fixed
Python loop can take anywhere from 1x to 2x its best time depending on
what else the host is running, and that speed drifts over seconds. A run
therefore times a short fixed probe (a small reverse-mode tape over
small-matrix numpy work, the mix paracap spends its time on, and none of
paracap's code) after every measured segment, and rescales the segment by
the mean of the probes just before and after it:

    adjusted = measured * (PROBE_REF_S / probe) ** HOST_EXPONENT

so a segment reads what it would take on a host running the probe in
``PROBE_REF_S``. Paracap's segments do not slow down quite as much as the
probe does when the host is busy: interleaving the two for 200 s on a
2-core host, a least-squares fit of log segment time on log probe time
gave slopes of 0.6-0.7 (biased low by the probe's own jitter), and the
adjusted times varied least with an exponent of 0.75 for all four kinds
of segment tried: a training step of each workload's world and one greedy
decode of a 6-event video. A change
to paracap cannot move the probe, so every program change shows in full;
only the host's speed is divided out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REF_S = 0.010
HOST_EXPONENT = 0.75
_PROBE_ROUNDS = 120


def _probe_tape(x: np.ndarray, w: np.ndarray):
    """A small reverse-mode tape: matmul/tanh nodes with backward closures,
    walked in reverse. Object churn, closures and small-matrix numpy calls,
    like paracap's own tape."""
    tape, h = [], x
    for _ in range(6):
        y = h @ w
        t = np.tanh(y)
        tape.append(lambda g, w=w: g @ w.T)
        tape.append(lambda g, t=t: g * (1.0 - t * t))
        h = t
    g = np.ones_like(h)
    for back in reversed(tape):
        g = back(g)
    return float(g.sum())


class Stopwatch:
    """Times segments with ``start``/``stop``; ``stop`` returns adjusted (wall, cpu)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(16, 32))
        self._w = rng.normal(size=(32, 32)) * 0.1
        self.probes = []     # wall seconds of every probe
        self._prev = self._probe()

    def _probe(self) -> tuple:
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(_PROBE_ROUNDS):
            _probe_tape(self._x, self._w)
        probe = time.perf_counter() - wall, max(time.process_time() - cpu, 1e-9)
        self.probes.append(probe[0])
        return probe

    def start(self):
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def stop(self) -> tuple:
        """End the segment begun by ``start``, then probe the host."""
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        probe = self._probe()
        scale = [(PROBE_REF_S * 2.0 / (a + b)) ** HOST_EXPONENT
                 for a, b in zip(self._prev, probe)]
        self._prev = probe
        return wall * scale[0], cpu * scale[1]

    def slowdown(self) -> float:
        """Median probe time over the reference: how slow the host ran."""
        return statistics.median(self.probes) / PROBE_REF_S
