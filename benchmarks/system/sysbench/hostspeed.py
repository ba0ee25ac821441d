"""How fast the host was while a time was taken, so it can be taken out.

The benchmark runs on a few cores of a shared host.  What else runs on
the same silicon changes from second to second and from minute to
minute, and with it the CPU time of the very same requests, by a factor
of up to 1.6: ten runs of unchanged code spread 0.15-0.35 (quartile
distance over median) on every raw timing, more than any bound a
benchmark may state.  So every time the benchmark reports is divided by
how slow the host was while it was taken.

The yardstick is :func:`unit`: a fixed piece of work of about 80 us
made of what the program's requests are made of (interpreter loop,
small-array numpy, JSON, cache-missing reads).  It is timed by the very
thread that times the program, on the one CPU the whole benchmark is
pinned to, right after each operation, while the program idles.  A
time's *factor* is the unit's time around it over :data:`REFERENCE_S`,
the unit's time on the host the benchmark was defined on when that host
is quiet; reported milliseconds are measured milliseconds over the
factor, which is to say milliseconds of that quiet host.  Over runs
whose raw medians lay 1.2-1.8 times apart the corrected ones stayed
within 1.04-1.12 of each other.
"""

from __future__ import annotations

import json
import threading
import time
from typing import List, Sequence

import numpy as np

#: Seconds one :func:`sample` takes on the reference host when quiet.
REFERENCE_S = 77e-6
#: A factor is the median of this many samples either side of its own:
#: 20 ms of the fastest workload and 0.3 s of the slowest, inside which
#: the host's speed does not change much.
NEIGHBOURS = 4
#: How often the sampler thread takes a sample: 0.5% of the CPU.
_SAMPLER_PERIOD_S = 0.05

_SMALL = np.arange(4096, dtype=np.float64)
_FLOATS = (_SMALL[:64] * 0.37).tolist()
#: 8 MB, twice the level-2 cache, read at 4096 scattered places.
_LARGE = np.arange(1 << 20, dtype=np.float64)
_PLACES = np.random.default_rng(7).integers(0, len(_LARGE), 4096)


def unit() -> float:
    """Seconds the fixed unit of work took just now."""
    started = time.perf_counter()
    total = 0
    table = {}
    for step in range(300):
        table[step] = (step * 3) % 7
        total += table[step]
    scaled = _SMALL * 1.0001 + 0.5
    scaled[scaled <= 2000.0].sum()
    json.loads(json.dumps(_FLOATS))
    _LARGE.take(_PLACES).sum()
    return time.perf_counter() - started


def sample() -> float:
    """The fastest of three units in a row.

    Right after a response the program may still be tidying up on the
    same CPU, and the answer just read has pushed the unit's data out of
    the cache; by the third unit both are over.
    """
    return min(unit(), unit(), unit())


def factors(samples: Sequence[float]) -> np.ndarray:
    """For each sample, how many times slower than the reference the
    host was around it."""
    values = np.asarray(samples, dtype=np.float64)
    smooth = np.array([
        np.median(values[max(0, at - NEIGHBOURS):at + NEIGHBOURS + 1])
        for at in range(len(values))])
    return smooth / REFERENCE_S


class Sampler:
    """Samples from a thread of this process while it waits for another.

    Used around set-up, which runs in a child process on the same CPU
    and answers only when done.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self.samples.append(sample())
        while not self._done.wait(_SAMPLER_PERIOD_S):
            self.samples.append(sample())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._done.set()
        self._thread.join()

    def factor(self) -> float:
        """How many times slower than the reference the host was, over
        the whole time sampled."""
        return float(np.median(self.samples)) / REFERENCE_S
