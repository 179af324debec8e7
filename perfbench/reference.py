"""A fixed reference kernel that measures the machine's current speed.

The benchmark's host is a share of a larger machine, and its speed drifts:
the same deterministic computation can take twice as long a few minutes
later, and its speed swings by ±15% from one ten-second stretch to the
next, in interpreter-bound and memory-bound code alike. ``kernel`` does a
fixed amount of work of the kinds the toolkit does (interpreted loops,
ufunc calls on small arrays, FFTs along the long axis of a space-time
array, and temporaries that are mapped and faulted in fresh), so its time
moves with the machine as the toolkit's time does.

The slowdowns need not hit both CPUs alike: a round can run 15% slow on
one while the kernel runs at full speed on the other. So ``run.py`` pins
itself and its workers to one CPU, and ``Sampler`` times the kernel over and
over in a background thread of ``run.py`` while a worker runs a round. It
measures each sample in the thread's CPU time, which leaves out the slices
the worker had, and idles five times as long between samples, so the
samples cover the same stretch of time on the same CPU as the round and
take about a sixth of it. ``run.py`` divides the round's CPU time by their
median to get the machine-independent ``cpu_ref``.

The kernel imports nothing from ``sbe`` and never changes, so a change to
the program cannot move it.
"""

from __future__ import annotations

import threading
import time

import numpy as np

IDLE_RATIO = 5.0


def _interpreted(n: int = 100_000) -> float:
    s = 0.0
    for i in range(n):
        s += (i % 7) * 0.5
    return s


def _small_ufuncs(rows: int = 4, m: int = 128, steps: int = 300) -> float:
    x = np.linspace(-1.0, 1.0, rows * m).reshape(rows, m)
    for _ in range(steps):
        x = 0.49 * (np.roll(x, 1, axis=-1) + np.roll(x, -1, axis=-1)) + 0.01 * x * np.abs(x)
    return float(x.sum())


def _long_axis_fft(nt: int = 1_024, m: int = 64, n: int = 2_048) -> float:
    a = np.cos(np.arange(nt * m, dtype=np.float64).reshape(nt, m) * 1e-3)
    w = np.fft.fft(np.hanning(65)[::-1], n=n)
    return float(np.fft.ifft(np.fft.fft(a, n=n, axis=0) * w[:, None], axis=0).real[0, 0])


def _fresh_temporaries(cells: int = 2_000_000, times: int = 4) -> float:
    s = 0.0
    for _ in range(times):
        t = np.empty(cells)
        t.fill(1.0)
        s += float(t[::4096].sum())
    return s


def kernel(clock=time.thread_time) -> float:
    """Seconds of ``clock`` the fixed reference work took just now."""
    t0 = clock()
    _interpreted()
    _small_ufuncs()
    _long_axis_fft()
    _fresh_temporaries()
    return clock() - t0


class Sampler:
    """Context manager: reference-kernel CPU times taken while its block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            dt = kernel()
            self.samples.append(dt)
            self._stop.wait(IDLE_RATIO * dt)

    def __enter__(self) -> Sampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
