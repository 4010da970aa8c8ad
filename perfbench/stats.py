"""Percentiles, the tail-percentile selector and the metric-name rules."""

from __future__ import annotations

import math
import re
import statistics

import numpy as np

#: Metric and workload names: a letter or digit, then up to 63 more of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Units: up to 16 of letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Tail percentiles, highest first.  A percentile is only used when at least
#: ``MIN_BEYOND`` samples lie beyond it; p75 and p50 are the fallbacks for
#: samples too small to support p90 (fewer than 100).
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(samples, q):
    """The ``q``-th percentile (linear interpolation) of a non-empty sample."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(values, q))


def samples_beyond(count, q):
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def tail_percentile(samples):
    """The highest tail percentile the sample supports.

    Returns ``(value, q, count, beyond)``: the value of the highest
    percentile in :data:`TAIL_PERCENTILES` with at least :data:`MIN_BEYOND`
    samples beyond it, that percentile, the sample count and how many
    samples lie beyond it.  A sample of fewer than 20 supports none; it gets
    the median, and ``beyond`` says how thin that is.
    """
    count = len(samples)
    if count == 0:
        raise ValueError("tail percentile of an empty sample")
    for q in TAIL_PERCENTILES:
        if samples_beyond(count, q) >= MIN_BEYOND:
            break
    return percentile(samples, q), q, count, samples_beyond(count, q)


def check_name(name):
    """Raise ``ValueError`` unless ``name`` is a valid metric or workload name."""
    if not NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit):
    """Raise ``ValueError`` unless ``unit`` is a valid unit string."""
    if not UNIT_RE.match(unit):
        raise ValueError(f"invalid unit {unit!r}")
    return unit


def quartile_spread(values):
    """``(q1, median, q3, (q3 - q1) / median)`` as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return q1, median, q3, spread
