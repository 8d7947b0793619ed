"""Speed probes: rescale measured times to one reference machine speed.

The benchmark runs on a shared virtual machine whose speed swings by up to
2x in blocks of ten to thirty seconds, often on one core and not the other.
Medians over runs of a minute do not average that out.  So every time the
benchmark reports is rescaled by how fast the machine ran, measured right
next to it by work of the same kind:

* ``wall_s``, ringlab's own computation, by a fixed kernel (``kernel``)
  timed in the worker's own thread before, during and after the timed part:

      scaled = measured * REF_S * mean(1 / kernel_time)

  The mean of the inverse kernel times is the machine's mean speed over the
  samples, relative to a kernel time of ``REF_S``.
* ``setup_s``, by the time ``python3 -I -c "import numpy"`` takes, started
  just before the worker.  Starting an interpreter and importing NumPy is
  about three quarters of a set-up, so it slows the way a set-up does:

      scaled = measured * START_REF_S / numpy_start_time

On an uncontended machine a scaled time reads about the same as the measured
one.

The kernel does nothing of ringlab's: a change to ringlab cannot change the
kernel's time, only the work that is rescaled.  It mixes the kinds of work
ringlab does, so a slowdown of the host slows both alike: elimination mod p
on small int64 NumPy arrays (as ``linalg.rref_modp``), elimination over
Fractions (as ``linalg.rref_frac``) and dict lookups keyed by tuples (as the
structure-constant tables).

During a timed run ``Sampler`` runs the kernel from a SIGALRM handler every
``INTERVAL_S`` seconds, in the worker's main thread, so it samples the speed
of the core the work is running on.  The time spent in the handler is
subtracted from the measured wall time.
"""

import signal
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# The kernel's time and ``numpy_start()`` on the machine the benchmark was
# written on (a 2-core KVM guest on an Intel Xeon at 2.1 GHz) when nothing
# else slowed it.
REF_S = 0.0026
START_REF_S = 0.10
INTERVAL_S = 0.2           # between two samples during a timed run
BRACKET = 5                # kernel runs right before and right after a timed part
WARM = 3                   # untimed runs first: a fresh interpreter runs new
                           # code slower until it has specialised it

_P = 7
_N = 10
_MAT = np.array([[(i * 31 + j * 17 + i * j) % _P for j in range(_N)]
                 for i in range(_N)], dtype=np.int64)
_FRAC = [[Fraction((i + 2) * (j + 1) % 11 - 5, j + 1) for j in range(6)]
         for i in range(6)]


def _eliminate_modp(A):
    r = 0
    for c in range(A.shape[1]):
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r] = (A[r] * pow(int(A[r, c]), _P - 2, _P)) % _P
        rows = np.nonzero(A[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            A[rows] = (A[rows] - np.outer(A[rows, c], A[r])) % _P
        r += 1
        if r == A.shape[0]:
            break
    return r


def _eliminate_frac(rows):
    A = [row[:] for row in rows]
    r = 0
    for c in range(len(A[0])):
        sel = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if sel is None:
            continue
        A[r], A[sel] = A[sel], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        r += 1
    return r


def kernel():
    """A fixed amount of work; returns a checksum so none of it is skipped."""
    acc = 0
    for k in range(24):
        acc += _eliminate_modp((_MAT + k) % _P)
    acc += _eliminate_frac(_FRAC) + _eliminate_frac(_FRAC[::-1])
    table = {}
    for i in range(5000):
        key = (i % 37, i % 11, i % 5)
        table[key] = table.get(key, 0) + i
    return acc + len(table)


def timed_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def bracket():
    """``BRACKET`` kernel times, taken back to back after ``WARM`` untimed
    runs."""
    for _ in range(WARM):
        kernel()
    return [timed_kernel() for _ in range(BRACKET)]


def scale(measured, samples):
    """``measured`` seconds of computation rescaled to the reference speed,
    from the kernel times ``samples`` (see above)."""
    return measured * REF_S * sum(1.0 / s for s in samples) / len(samples)


def numpy_start():
    """Seconds to start an interpreter that imports NumPy and stops."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    subprocess.run([sys.executable, "-I", "-c", "import numpy"], check=True)
    return time.clock_gettime(time.CLOCK_MONOTONIC) - t0


def scale_setup(measured, start):
    """``measured`` seconds of set-up rescaled to the reference speed, from
    the time ``start`` that ``numpy_start`` took (see above)."""
    return measured * START_REF_S / start


class Sampler:
    """Runs ``kernel`` every ``INTERVAL_S`` s of wall time while installed.
    ``samples`` collects the kernel times; ``spent`` the total time the
    handler took, kernel included, which the caller subtracts."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(timed_kernel())
        self.spent += time.perf_counter() - t0

    def install(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
