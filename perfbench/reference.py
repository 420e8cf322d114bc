"""A fixed reference computation, timed between requests to gauge host speed.

The benchmark runs on a few vCPUs of a shared machine whose speed moves
with its neighbours' load: a fixed numpy task there takes anywhere from
1x to 2x its fastest time, in phases of seconds to minutes, with process
CPU time equal to wall time.  Request times in milliseconds therefore
move with the host as much as with the code.  So every untimed gap
between requests runs this kernel, which never calls ddi, and each
request's time is divided by the kernel's mean time within
``WINDOW_S`` of it: the request's cost in "ref", multiples of the
kernel's time on the same host at the same moment.  A change to ddi
moves that cost; a change in host speed moves both parts of the ratio.
Set-up samples are divided the same way, and ``setup_s``, which must be
in seconds, is their median cost times ``NOMINAL_S``: set-up time on a
host where the kernel takes ``NOMINAL_S``.

The kernel mixes what a request does: small dense products and an
inverse on a 300 x 8 cloud in a Python loop (forty coordinate-ascent
steps of an enclosing-ellipsoid solver), and a JSON round trip.  It
takes about 3-4 ms on a 2.1 GHz Xeon vCPU.
"""

from __future__ import annotations

import bisect
import json
import time

import numpy as np

WINDOW_S = 0.5  # reference timings this close to a request gauge its host speed
# Seconds per ref where a metric must be in seconds (setup_s): about the
# kernel's median time over the baseline's runs on a 2.1 GHz Xeon vCPU.
NOMINAL_S = 0.0035

_CLOUD = np.random.default_rng(20230426).dirichlet(np.ones(8), size=300)
_DOCUMENT = json.dumps({"n": 8, "distributions": _CLOUD[:40].tolist()})


def kernel() -> float:
    """Run the reference computation once and return its result's checksum."""
    m, n = _CLOUD.shape
    weights = np.full(m, 1.0 / m)
    for _ in range(40):
        shape = _CLOUD.T @ (weights[:, None] * _CLOUD)
        spread = np.einsum("ij,jk,ik->i", _CLOUD, np.linalg.inv(shape), _CLOUD)
        j = int(np.argmax(spread))
        step = (spread[j] / n - 1.0) / (spread[j] - 1.0)
        weights *= 1.0 - step
        weights[j] += step
    return float(weights @ np.arange(m)) + len(json.loads(_DOCUMENT)["distributions"])


def timed() -> tuple[float, float]:
    """Run the kernel once; return (time it ended, seconds it took)."""
    start = time.perf_counter()
    kernel()
    end = time.perf_counter()
    return end, end - start


def in_ref(intervals: list[tuple[float, float]], refs: list[tuple[float, float]]) -> list[float]:
    """Each request's time in ref: its seconds over the local kernel time.

    ``intervals`` are (start, end) of the requests and ``refs`` the
    (end, seconds) of the kernel runs, both in ``time.perf_counter``
    seconds and ``refs`` in time order.  The local kernel time is the
    mean of the runs that ended within ``WINDOW_S`` of the request, or
    of the nearest run where none did.
    """
    ends = [end for end, _ in refs]
    costs = []
    for start, end in intervals:
        lo = bisect.bisect_left(ends, start - WINDOW_S)
        hi = bisect.bisect_right(ends, end + WINDOW_S)
        if lo == hi:
            nearest = min(range(len(ends)), key=lambda i: min(abs(ends[i] - start),
                                                              abs(ends[i] - end)))
            lo, hi = nearest, nearest + 1
        local = sum(seconds for _, seconds in refs[lo:hi]) / (hi - lo)
        costs.append((end - start) / local)
    return costs
