"""The machine's speed, sampled while the benchmark runs.

On a virtual machine shared with other work the same request can take a
third longer or shorter from one minute to the next, as the host's load and
clock change.  To keep those swings out of the reported times, the
benchmark spends a fixed share of its time on a reference loop that shares
no code with the library, run in between requests, and scales each time it
reports by ``REF_NS / mean reference time`` over the reference runs nearest
to it.  A time is then
given as it would read on a machine where the reference loop takes
``REF_NS``: work the library adds or removes still shows in full, while a
host that runs everything 20% slower leaves it unchanged.  The raw times
are printed beside the scaled ones.
"""

from __future__ import annotations

from time import perf_counter_ns

# typical reference time on the 2-vCPU, 2.1 GHz x86-64 VM the bounds were
# set on, so that scaled times there read close to raw ones
REF_NS = 280_000
SHARE = 0.05            # reference time per unit of measured time
WINDOW = 16             # reference runs taken on each side of a time


def reference_loop(n: int = 600) -> float:
    """Fixed interpreter-bound work: cross products over a list of pairs."""
    pts = [(i * 0.37 % 1.0, i * 0.61 % 1.0) for i in range(n)]
    s = 0.0
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        s += ax * by - ay * bx
    return s


class Pace:
    """Reference-loop times, run in between the measured work."""

    def __init__(self):
        self.ns: list[int] = []
        self._owed = 0

    def after(self, busy_ns: int) -> None:
        """Run the reference loop for SHARE of ``busy_ns``, carrying any
        remainder over to the next call."""
        self._owed += busy_ns * SHARE
        while self._owed > 0:
            t0 = perf_counter_ns()
            reference_loop()
            t = perf_counter_ns() - t0
            self.ns.append(t)
            self._owed -= t

    def mark(self) -> int:
        return len(self.ns)

    def scale(self, mark: int) -> float:
        """REF_NS over the mean of the WINDOW reference times on each side
        of ``mark()``; call it once the run's reference times are in."""
        near = self.ns[max(0, mark - WINDOW):mark + WINDOW]
        return REF_NS * len(near) / sum(near)
