"""A fixed reference computation that times the machine, not the program.

On a small share of a shared host the speed a process gets drifts by a
quarter or more within minutes, so two runs of the same solves a few
minutes apart can differ by that much.  The ``offline-fig2`` workload
therefore runs this probe next to every timed step and reports each step
in units of the probe's time, scaled by :data:`NOMINAL_S`: a step that
took as long as 30 probes reads ``30 * NOMINAL_S`` seconds.  The probe
uses no code of the program, so a change to the program moves the
figures by its full amount; only the host's moment is divided out.  The
raw times are kept in the report.

The probe mixes the three kinds of work the solvers do: whole-array
NumPy code, a Python loop over small NumPy operations, and plain
interpreted Python.  It uses NumPy only, so it adds no library to the
process whose peak memory ``rss_mb`` reads.
"""

from __future__ import annotations

import time

import numpy as np

#: The probe's median time on the 2-vCPU virtual machine the benchmark was
#: tuned on, so normalized figures read close to seconds there.
NOMINAL_S = 0.033

_MATRIX = np.random.default_rng(0).random((400, 400))


def _compiled() -> None:
    for _ in range(2):
        np.sort(_MATRIX, axis=None)
        np.minimum.accumulate(_MATRIX, axis=0)
        np.argsort(_MATRIX, axis=1)


def _vectorized() -> None:
    a = np.vstack([_MATRIX, _MATRIX])
    v = np.zeros(a.shape[1])
    for i in range(len(a)):
        row = a[i] - v
        j = int(np.argmin(row))
        v += 0.001 * np.minimum(a[:, j], row[j]).mean()
        a[i] += row[j]


def _interpreted() -> None:
    counts: dict = {}
    for i in range(40000):
        counts[i % 997] = counts.get(i % 997, 0) + i * 1.5


def run() -> "tuple[float, float]":
    """Run the probe once; return its (wall, CPU) seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    _compiled()
    _vectorized()
    _interpreted()
    return time.perf_counter() - wall, time.process_time() - cpu
