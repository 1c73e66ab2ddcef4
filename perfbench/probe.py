"""CPU-speed probe sampled during the benchmark's timed passes.

On shared machines the speed of one core drifts by up to 1.6x in episodes
of a few seconds: contention from other tenants, not time taken from the
process (its CPU time tracks its wall time).  A pass lasts 4 to 11 s, so
the drift moves raw pass times by 15 to 25% between runs.

``timed`` runs a fixed probe loop from SIGALRM every ``INTERVAL_S`` while
a pass is timed, and once before and after it.  The probe touches no code
of the program, so a change to the program cannot move it; it only tells
how fast the machine was while the pass ran.  The pass's normalised time
is its wall time minus the probe time spent inside it, scaled by the
kind's nominal time over the mean probe time.

Contention slows small-array, interpreter-bound code and large-array,
memory-bound code by different factors, so each workload names the kind
of probe that matches its hot loops: ``small`` (arrays of 10^3 elements,
like the solver's line search) or ``large`` (arrays of 10^5 elements, like
the dense kernel rows of the audit).  Normalising the audit by the small
probe left more spread than no normalisation at all.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

INTERVAL_S = 0.2
# Normalised times are stated as if every probe took this long: about the
# median probe time on the machine the baseline was taken on (Intel Xeon,
# 2 vCPUs; small probes took 0.36 to 0.78 ms).
NOMINAL_S = {"small": 0.0005, "large": 0.0035}

_rng = np.random.default_rng(0)
_VALUES = _rng.random(1024) + 0.5
_PAIRS = _rng.random((1024, 2))


def _small_step() -> float:
    q = np.maximum((_VALUES * 0.5 + _VALUES) * 0.3 + _VALUES, 0.0)
    acc = float(np.sum(np.exp(1.5 * np.log(q))))
    acc += float(np.sum(_PAIRS * _PAIRS, axis=1).sum())
    for j in range(20):
        acc += j * 0.5
    return acc


def _large_step(values, rows) -> float:
    q = np.maximum((values * 0.5 + values) * 0.3 + values, 0.0)
    acc = float(np.sum(np.exp(1.5 * np.log(q))))
    return acc + float(np.sum(rows * rows, axis=1).sum())


def probe() -> float:
    """Wall seconds of ten small probe steps (about 0.5 ms).

    One untimed step first brings the probe's arrays back into cache, so
    the reading does not depend on what the pass touched last.
    """
    acc = _small_step()
    t0 = time.perf_counter()
    for _ in range(10):
        acc += _small_step()
    return _checked(time.perf_counter() - t0, acc)


def _large_probe():
    """A reader timing two steps over arrays of 65536 elements (1.3 MB).

    The arrays live as long as the reader, one timed block, so they stay
    out of the resident set of the solve workloads.  Between readings the
    pass evicts them from cache, as it evicts its own rows.
    """
    values = np.linspace(0.5, 1.5, 1 << 16)
    rows = np.linspace(0.0, 1.0, 3 << 15).reshape(-1, 3)

    def read() -> float:
        t0 = time.perf_counter()
        acc = _large_step(values, rows) + _large_step(values, rows)
        return _checked(time.perf_counter() - t0, acc)

    return read


def _checked(seconds: float, acc: float) -> float:
    if not acc > 0.0:
        raise RuntimeError("probe loop produced no result")
    return seconds


class Timing:
    """Wall seconds of one timed block and the probes taken during it."""

    def __init__(self, kind: str):
        self.kind = kind
        self.seconds = 0.0
        self.inside: list[float] = []
        self.around: list[float] = []

    def normalised(self) -> float:
        """Seconds the block would take at the probe's nominal speed."""
        probes = self.inside + self.around
        speed = sum(probes) / len(probes)
        return (self.seconds - sum(self.inside)) / speed * NOMINAL_S[self.kind]


@contextlib.contextmanager
def timed(kind: str = "small"):
    """Time a block while probing the machine's speed.

    Yields a ``Timing`` whose ``seconds`` is set when the block ends.
    Only for the main thread, which owns SIGALRM.
    """
    read = probe if kind == "small" else _large_probe()
    t = Timing(kind)
    t.around.append(read())
    old = signal.signal(signal.SIGALRM, lambda signum, frame: t.inside.append(read()))
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        yield t
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        t.seconds = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, old)
        t.around.append(read())
