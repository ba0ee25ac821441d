"""CPU time and resident memory of a process and its children, from /proc."""

from __future__ import annotations

import os
import time
from typing import List, Tuple

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> Tuple[int, float]:
    """``(parent pid, user+system CPU seconds)`` of one process."""
    with open("/proc/%d/stat" % pid) as handle:
        # The command name may hold spaces; fields resume after its ")".
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[1]), (int(fields[11]) + int(fields[12])) * _TICK_S


def children(pid: int) -> List[int]:
    """Live direct children of ``pid`` (the engine's worker processes)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent, __ = _stat(int(entry))
        except (OSError, IndexError, ValueError):
            continue                        # exited while we were looking
        if parent == pid:
            found.append(int(entry))
    return found


def serving_cpu_seconds() -> float:
    """CPU seconds used so far by this process and its live children.

    This process reads its own clock (nanoseconds, every thread); the
    worker processes' time comes from ``/proc`` in 10 ms ticks.
    """
    total = time.process_time()
    for child in children(os.getpid()):
        try:
            total += _stat(child)[1]
        except (OSError, IndexError, ValueError):
            pass
    return total


def peak_rss_mb(pid: int = 0) -> float:
    """Peak resident set size (``VmHWM``) of a process, this one by default."""
    with open("/proc/%s/status" % (pid or "self")) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/%s/status" % (pid or "self"))
