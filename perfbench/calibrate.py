"""Host-speed reference: fixed work that never touches the package.

The reference host is a shared 2-core VM whose speed drifts by up to 1.8x
between consecutive seconds and settles for minutes in faster or slower
states, and not by the same factor for all code (see README, Steadiness).
The benchmark times a reference kernel between experiments and reports
times scaled to a host on which the kernel takes its nominal time, printing
the raw times beside them.  Each workload has its own kernel, built from
the operations that dominate it, because interpreted loops, calls on tiny
arrays and FFTs over large grids slow down by different factors.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
from time import perf_counter

import numpy as np

_ALPHA = np.array([(math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0])


def lattice_scan() -> float:
    """Interpreted loop over 2D windings with numpy calls on scalars, like
    the Diophantine and classification scans."""
    best = 1.0
    for k in itertools.product(range(-30, 31), repeat=2):
        v = float(np.dot(np.asarray(k, dtype=float), _ALPHA))
        d = float(np.abs(v - np.rint(v)))
        if 0.0 < d < best:
            best = d
    return best


def small_arrays() -> float:
    """Many calls on tiny arrays and one indented JSON encoding, like a
    1D experiment with its report."""
    axis = np.arange(40) / 40.0
    q = np.stack([np.cos(axis), np.sin(axis), 0.0 * axis, 0.0 * axis], axis=-1)
    total = 0.0
    for i in range(200):
        spectrum = np.fft.ifft(np.exp(2j * np.pi * (i + 1) * axis))
        r = np.stack([q[:, 0] * q[:, 0] - q[:, 1] * q[:, 1], 2.0 * q[:, 0] * q[:, 1],
                      q[:, 2], q[:, 3]], axis=-1)
        total += float(np.abs(spectrum).sum()) + float(np.linalg.norm(r))
    rows = [[i, j, math.sin(i + 0.1 * j), math.cos(i - j)] for i in range(30) for j in range(20)]
    text = json.dumps({"rows": rows, "total": total}, sort_keys=True, indent=1)
    return total + len(text)


def large_grids() -> float:
    """FFTs and elementwise products over fresh grids of a few MiB, like a
    2D experiment with a wide chain."""
    m = 384
    axis = np.arange(m) / m
    phase = 2.0 * np.pi * (axis[:, None] + 3.0 * axis[None, :])
    field = np.stack([np.cos(phase), np.sin(phase), np.cos(2.0 * phase), np.sin(3.0 * phase)],
                     axis=-1)
    hat = np.fft.fftn(field, axes=(0, 1))
    back = np.real(np.fft.ifftn(hat * 0.5, axes=(0, 1)))
    norm = np.sqrt(np.sum(back * back, axis=-1))
    return float(np.sum(norm * np.sin(norm)))


# kernel and its typical seconds on the reference host, a 2-core x86-64 VM
KERNELS = {
    "sweep-1d": (small_arrays, 0.008),
    "two-freq-2d": (lattice_scan, 0.008),
    "exp-2d": (large_grids, 0.06),
}


def sample(workload: str) -> float:
    """Seconds one run of the workload's kernel takes now."""
    kernel = KERNELS[workload][0]
    start = perf_counter()
    kernel()
    return perf_counter() - start


def host_factor(workload: str, samples: list) -> float:
    """How many times slower than the reference host the samples ran."""
    return statistics.median(samples) / KERNELS[workload][1]
