"""Host speed, sampled inside a repetition.

The benchmark runs on shared virtual machines whose other tenants slow a
vCPU down, often to half speed, in bursts from milliseconds to minutes;
the guest kernel sees none of it (no steal time), and process CPU time
grows with wall time through it.  A timed region's wall time therefore
mixes the program's cost with the host's load.

:class:`Probe` separates the two.  A ``SIGALRM`` timer fires every
``PERIOD_S`` of wall time and its handler times a fixed piece of pure
Python work.  ``REFERENCE_S / sample`` is the host's speed at that
moment relative to the reference host, and since the samples are evenly
spaced in wall time, their mean is the region's mean speed.  A region's
*reference seconds* are its wall seconds (less the probes' own time)
times that mean speed: the time the region would take on the reference
host.  The probes cost about 0.8% of a region's wall time.

A sample taken right after the program ran pays to bring its own code
and data back into the CPU caches; that share is kept small (a few
percent of a sample) by making each sample a few tenths of a
millisecond long.
"""

from __future__ import annotations

import signal
import time
from typing import List

#: wall seconds between samples
PERIOD_S = 0.04
#: a sample's duration on the reference host, in a tight loop: an unloaded
#: 2-vCPU KVM guest of an Intel Xeon host, Python 3.11.  Fixed, so reference
#: seconds from different runs and hosts compare
REFERENCE_S = 0.0003
_ITERATIONS = 2000


def _work() -> int:
    table: dict = {}
    acc = 0
    for i in range(_ITERATIONS):
        key = (i & 255, (i * 7) & 63)
        seen = table.get(key)
        if seen is None:
            table[key] = i
        else:
            acc += seen ^ i
    return acc


class Probe:
    """Samples the host's speed until :meth:`stop`; one per process."""

    def __init__(self) -> None:
        #: the duration of every sample, in order
        self.samples: List[float] = []
        _work()  # let the interpreter specialise the loop before timing it
        self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self) -> None:
        start = time.perf_counter()
        _work()
        self.samples.append(time.perf_counter() - start)

    def _tick(self, signum: int, frame: object) -> None:
        self._sample()

    def mark(self) -> int:
        """A position in the samples, to delimit a region."""
        return len(self.samples)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, wall_s: float, since: int, until: int) -> float:
        """``wall_s`` seconds, sampled in ``samples[since:until]``, as
        reference seconds.  A region too short to hold a sample takes the
        speed of the last sample before its end."""
        inside = self.samples[since:until] or self.samples[until - 1 : until]
        speed = sum(REFERENCE_S / s for s in inside) / len(inside)
        return (wall_s - sum(self.samples[since:until])) * speed
