"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts by tens of percent
over tens of seconds, for every process alike.  A fixed kernel that does not
touch gpswf is timed between the benchmark's ops (every CALIB_EVERY_S, and
around every child process); each measured time is then also reported scaled
by REF_S / (kernel time around it), i.e. in seconds of a machine running at
reference speed.  That cancels the drift the kernel shares with the code under
test and leaves changes in that code visible.  Raw wall times are reported
next to the scaled ones.
"""

import bisect
import math
import statistics
import time

import numpy as np

REF_S = 0.0034         # kernel time on a quiet 2-core Xeon at 2.1 GHz
CALIB_EVERY_S = 0.25   # at most one sample per this much loop time
PAD_S = 3.0            # samples this close to a timed span scale it


_COLUMNS = np.eye(400)


def _kernel():
    # the mix the pure-NumPy kernels of gpswf spend their time in: scalar
    # recurrences in Python (Bessel ladders), small-array NumPy work (Clenshaw
    # sums) and rotations of strided matrix columns (the QL eigensolver)
    x, acc = 0.5, 0.0
    for i in range(1, 8000):
        x = (2.0 * i / 3.7) * x - acc * 1e-3
        acc = math.sqrt(abs(x) % 7.0 + i)
    v = np.linspace(0.0, 1.0, 256)
    for _ in range(300):
        v = np.cos(v) * 0.5 + v[::-1] * 0.25
    z = _COLUMNS.copy()
    for i in range(100):
        a, b = z[:, i].copy(), z[:, i + 1].copy()
        z[:, i + 1] = 0.6 * a + 0.8 * b
        z[:, i] = 0.8 * a - 0.6 * b
    return acc + float(v.sum()) + float(z[0, 0])


def sample(reps=3):
    """(time stamp, kernel seconds): the median of ``reps`` kernel runs."""
    runs = []
    for _ in range(reps):
        t = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - t)
    return time.perf_counter(), statistics.median(runs)


def scale(samples, start, end):
    """REF_S over the median kernel time of the samples taken within PAD_S of
    [start, end], or of the nearest sample on each side if none is; the
    samples are sorted by time stamp."""
    stamps = [t for t, _ in samples]
    lo = bisect.bisect_left(stamps, start - PAD_S)
    hi = bisect.bisect_right(stamps, end + PAD_S)
    near = [k for _, k in samples[lo:hi]]
    if not near:
        near = [samples[max(lo - 1, 0)][1], samples[min(hi, len(samples) - 1)][1]]
    return REF_S / statistics.median(near)
