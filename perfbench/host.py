"""Host fingerprint and process readers (peak RSS, CPU time) from ``/proc``."""

from __future__ import annotations

import ctypes
import gc
import os
import platform

import numpy as np

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_TICKS = os.sysconf("SC_CLK_TCK")


def openblas_version():
    """The BLAS numpy was built against, as ``"<name> <version>"``."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def fingerprint(available_cpus):
    """What a number depends on: CPUs, versions, thread env vars, load."""
    return {
        "nproc": os.cpu_count(),
        "available_cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas_version(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "loadavg_1m": os.getloadavg()[0],
    }


def cpu_seconds(pid):
    """User + system CPU seconds of ``pid`` (every thread; 0 once gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


def trim_heap():
    """Collect garbage and hand the allocator's free pages back to the OS.

    Run before a peak-RSS window of a process that did other work first, so
    the window starts from live memory rather than from freed blocks the
    allocator kept (glibc's ``malloc_trim``; elsewhere only the collection).
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _status_kib(pid, field):
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class PeakRss:
    """Exact peak RSS of the serving processes over a ``with`` block.

    On entry each process's high-water mark is reset to its current RSS
    (``/proc/<pid>/clear_refs``); on exit the marks are read back.  The peak
    is the parent's plus the largest child's.  ``reset`` is false when a
    mark could not be reset, and the peak then covers the process lifetime.
    """

    def __init__(self, parent, children=()):
        self._pids = [parent, *children]
        self.reset = True
        self.parent_kib = 0
        self.child_kib = 0

    def __enter__(self):
        for pid in self._pids:
            try:
                with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
                    handle.write("5")
            except OSError:
                self.reset = False
        return self

    def __exit__(self, *exc):
        marks = [_status_kib(pid, "VmHWM") for pid in self._pids]
        self.parent_kib = marks[0]
        self.child_kib = max(marks[1:], default=0)
        return False

    def mib(self):
        return (self.parent_kib + self.child_kib) / 1024
