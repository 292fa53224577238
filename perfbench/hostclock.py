"""Wall time scaled to a fixed host speed.

On a shared host the speed of the same pure-Python code drifts by 20-40%
over tens of seconds, and a run-level median follows the drift.  So every
timed step is bracketed by a fixed calibration kernel, and the step's wall
seconds are scaled by REFERENCE_S over the mean of the two kernel times
around it: a "second" is the time the host needs for REFERENCE_S / kernel
time worth of work.  A step of the program that gets faster or slower
still moves the scaled time by the same share, since the kernel does not
depend on the program.

Stdlib only, so it can time the import of numpy and dpuc.
"""

import time

# kernel time that defines one second; the kernel takes 3-7 ms on a
# shared 2-vCPU Intel Xeon at 2.1 GHz with Python 3.11
REFERENCE_S = 0.005


def calibration_kernel():
    """Interval bookkeeping in plain lists: cut [lo, hi) out of every
    overlapping [lo, hi, owner] entry and append the new one, the kind of
    work that dominates dpuc's liveness pass and hazard check."""
    table = []
    for i in range(700):
        lo = (i * 37) % 4096
        hi = lo + 64
        out = []
        for e in table:
            if e[0] < hi and lo < e[1]:
                if e[0] < lo:
                    out.append([e[0], lo, e[2]])
                if hi < e[1]:
                    out.append([hi, e[1], e[2]])
            else:
                out.append(e)
        out.append([lo, hi, i])
        table = out
    return len(table)


def _kernel_seconds():
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


class Clock:
    """Accumulates scaled and wall seconds of the steps run through it."""

    def __init__(self):
        self._kernel = _kernel_seconds()
        self.scaled = 0.0
        self.wall = 0.0

    def run(self, fn, *args, **kwargs):
        """Call fn and add its time; the kernel runs after it, untimed."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        after = _kernel_seconds()
        self.wall += dt
        self.scaled += dt * 2 * REFERENCE_S / (self._kernel + after)
        self._kernel = after
        return out

    def mark(self):
        return self.scaled, self.wall

    def since(self, mark):
        """(scaled, wall) seconds added since mark()."""
        return self.scaled - mark[0], self.wall - mark[1]
