"""Machine-speed reference for normalising op times.

On a shared host the same op's wall time drifts by up to 2x over tens of
seconds as neighbours load the core.  The benchmark therefore times a fixed
kernel between ops - never facred code, so no change to the program can
move it - and scales each op's wall time by REF_KERNEL_S over the kernel's
mean time around that op.  The slowdown flips between states faster than an
op lasts, so the mean, not the median, tracks it.  The result is the op's
time on a machine where the kernel takes REF_KERNEL_S, which is what the
end-to-end metrics report.
The kernel mixes what facred spends its time on: Python-level loops over
small numpy slices (a Jacobi sweep) and small dense LAPACK calls.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_KERNEL_S = 0.002     # kernel time on the reference machine
TICK_EVERY_S = 0.25      # at most this much op time between kernel samples
WINDOW_S = 4.0           # samples within this distance of an op count

_MATRIX = np.random.default_rng(12345).normal(size=(8, 8))
_MATRIX = _MATRIX + _MATRIX.T


def kernel():
    """One timed pass of the reference kernel, in seconds."""
    a = _MATRIX.copy()
    shift = _MATRIX + 10.0 * np.eye(8)
    start = time.perf_counter()
    for _ in range(2):
        for p in range(7):
            for r in range(p + 1, 8):
                theta = 0.5 * np.arctan2(2.0 * a[p, r], a[r, r] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                a[:, p], a[:, r] = (c * a[:, p] - s * a[:, r],
                                    s * a[:, p] + c * a[:, r])
                a[p, :], a[r, :] = (c * a[p, :] - s * a[r, :],
                                    s * a[p, :] + c * a[r, :])
    for _ in range(20):
        np.linalg.eigh(_MATRIX)
        np.linalg.solve(shift, _MATRIX[0])
    return time.perf_counter() - start


class Speedometer:
    """Kernel samples over a run; ``scale`` converts a wall interval to
    reference seconds."""

    def __init__(self):
        self.times, self.durations = [], []
        self.last = -float("inf")

    def tick(self, force=False):
        now = time.perf_counter()
        if force or now - self.last >= TICK_EVERY_S:
            duration = kernel()
            self.times.append(now + duration / 2)
            self.durations.append(duration)
            self.last = time.perf_counter()

    def scale(self, start, end):
        """REF_KERNEL_S over the mean kernel time near [start, end], with
        the slowest and fastest tenth of the samples dropped."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = sorted(self.durations[lo:hi] or self.durations)
        cut = len(near) // 10
        return REF_KERNEL_S / statistics.fmean(near[cut:len(near) - cut])
