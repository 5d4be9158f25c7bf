"""Host speed probe: how fast this host runs Python right now.

On a shared host the speed drifts by tens of percent within seconds, and
every timing drifts with it.  The probe times three short fixed workloads
that use only the standard library and stand for what the program does:
JSON encoding of floats, tuple/set/dict churn, and Fraction arithmetic.
Each time is taken against the probe's time on the reference host, and the
geometric mean of the three ratios is the host factor: 1 at the reference
speed, 1.3 when the host runs 30% slower.  Dividing a measured time by the
factor of the moment gives the time at the reference speed.

The probe never calls the program, so a change to the program cannot move
the factor.  It runs in the benchmark's own process, right around each job:
on a host with several virtual CPUs only the CPU the job ran on tells how
fast the job ran.  The collector is off while it runs, so garbage the
program left behind does not land in it.  It takes about 5 ms.
"""

from __future__ import annotations

import gc
import json
import math
import random
import time
from fractions import Fraction

# Median probe times on the reference host: a 2-vCPU Intel Xeon VM at
# 2.0 GHz, Python 3.11.7.
REFERENCE_S = {
    "json": 0.00160,
    "containers": 0.00090,
    "fractions": 0.00150,
}

_FLOATS = [[random.Random(i).random() for _ in range(50)] for i in range(30)]


def _encode():
    json.dumps(_FLOATS)


def _containers():
    seen, index = set(), {}
    for i in range(1_500):
        key = (i % 97, i % 89, i)
        seen.add(key)
        index[key] = i
    sorted(index)


def _fractions():
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 17 + 1, i % 13 + 1)


PROBES = {"json": _encode, "containers": _containers, "fractions": _fractions}


def probe_times() -> dict:
    """Wall time of each probe workload, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = {}
        for name, work in PROBES.items():
            begin = time.perf_counter()
            work()
            times[name] = time.perf_counter() - begin
        return times
    finally:
        if enabled:
            gc.enable()


def host_factor() -> float:
    """The host's slowdown against the reference host, probed right now."""
    times = probe_times()
    return math.prod(times[n] / REFERENCE_S[n] for n in REFERENCE_S) ** (1 / len(REFERENCE_S))
