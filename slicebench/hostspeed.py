"""Host-speed normalisation of wall times.

The shared host this benchmark runs on changes speed for seconds to
minutes at a time, and the same work can take up to twice as long in a
slow spell.  Every timed piece of work is therefore bracketed by two runs
of a fixed reference kernel that does not touch the program, and its
wall time is scaled by ``REFERENCE_S / (mean kernel time)``.  The result
is the time the work would take on a host where the kernel takes
``REFERENCE_S``: a slow spell stretches the work and the kernel alike and
cancels out, while a change to the program moves only the work.

The kernel mixes the three kinds of code the program runs: a pure-Python
event loop (the simulator), small numpy array updates (the solvers) and
a small HiGHS linear program (the LP oracle and the game).
"""

from __future__ import annotations

import heapq
import random
import time

#: median time of one kernel run on the 2-vCPU host the benchmark was
#: defined on, in a fast spell; normalised times read as wall times there
REFERENCE_S = 0.004


class WallClock:
    """Plain wall time, for requests that are not normalised."""

    def restart(self) -> None:
        self.mark = time.perf_counter()

    def lap(self) -> float:
        """Seconds since the last lap or restart."""
        now = time.perf_counter()
        elapsed, self.mark = now - self.mark, now
        return elapsed


class HostClock(WallClock):
    """Wall time normalised to the reference host speed.  Each host-speed
    sample is ``repeats`` runs of the reference kernel, taken after every
    lap and never inside one."""

    def __init__(self, repeats: int = 1) -> None:
        import numpy as np

        self.repeats = repeats
        rng = np.random.default_rng(20200127)
        self._a = rng.random((12, 20))
        self._x0 = rng.random(20)
        self._c = -rng.random(30)
        self._a_ub = rng.random((15, 30))
        self._b_ub = 5.0 * rng.random(15)
        self._kernel()  # first calls into scipy are not timed
        self.last = self.sample()
        self.restart()

    def _kernel(self) -> None:
        import numpy as np
        from scipy.optimize import linprog

        rng = random.Random(7)
        heap = [(rng.random(), i) for i in range(8)]
        heapq.heapify(heap)
        busy = [0.0] * 8
        for _ in range(3000):
            t, i = heapq.heappop(heap)
            busy[i] += t * 0.5
            heapq.heappush(heap, (t + rng.expovariate(4.0), i))
        x = self._x0.copy()
        for _ in range(100):
            y = self._a @ x
            x = np.clip(x - 0.01 * (self._a.T @ y), 0.0, 1.0)
            x = np.sort(x)[::-1].copy()
        linprog(self._c, A_ub=self._a_ub, b_ub=self._b_ub, bounds=(0, 1), method="highs")

    def sample(self) -> float:
        """Seconds per kernel run, averaged over ``repeats`` runs."""
        start = time.perf_counter()
        for _ in range(self.repeats):
            self._kernel()
        return (time.perf_counter() - start) / self.repeats

    def lap(self) -> float:
        """Normalised seconds since the last lap or restart, scaled by the
        host speed sampled just before and just after them."""
        elapsed = time.perf_counter() - self.mark
        before, self.last = self.last, self.sample()
        self.restart()
        return elapsed * REFERENCE_S / (0.5 * (before + self.last))
