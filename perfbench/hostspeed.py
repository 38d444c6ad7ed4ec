"""Host-speed probes that turn wall seconds into reference seconds.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
a fifth or more over tens of seconds: a fixed pure-Python loop timed in
15-s windows spreads by about 12% (quartile distance over median), in
30-s windows by about 14%, and the process's CPU time drifts with its
wall time, so the vCPU itself runs slower rather than being descheduled.
No run length this benchmark can afford averages that out.

So the benchmark times a short fixed loop (the *probe*) between
requests, and reads every interval of a run in *reference seconds*: the
wall seconds it took, multiplied by ``REFERENCE_PROBE_S`` over the probe
time measured around it, raised to ``SPEED_EXPONENT``. A reference
second is the time the interval would have taken on a host where the
probe runs in ``REFERENCE_PROBE_S``, about the median on the 2-vCPU
development VM. The program never runs during a probe and cannot change
the probe's time, so a change to the program moves reference seconds as
it moves wall seconds. Only the drift the probe shares with the program
is divided out: the probe follows the host's slow swings over seconds,
not its swings within a fraction of a second. ``README.md`` has the
figures.
"""

import bisect
import os
import time

#: Iterations of the probe loop; one probe is the best of PROBE_REPEATS.
PROBE_LOOPS = 20_000
PROBE_REPEATS = 3

#: Probe time that defines a reference-speed host: the median over 110
#: runs of this benchmark on the development VM (deciles 1.31-1.83 ms).
REFERENCE_PROBE_S = 0.0016

#: How much faster the program runs when the probe runs faster, as a
#: power. The program slows more than the probe when the host is busy,
#: probably because the probe loop stays in the first-level cache and
#: the program does not. Over 74 repeated runs of a seed on the
#: development VM, the log of a run's wall-clock request rate moved with
#: the log of its probe speed by a factor of 1.25 (nia-portfolio), 1.47
#: (termination-rq3), 1.48 (termination-sessions) and 1.51
#: (serve-mixed), 1.42 pooled. At 1.4 the spread left between repeats of
#: a seed fell from 5.7% to 3.4% (standard deviation of the log rate).
SPEED_EXPONENT = 1.4

#: Each probe is read as the mean of all probes within this many wall
#: seconds of it. One probe is a snapshot of a speed that swings by about
#: 15% from one 0.2-s sample to the next; a request of a second or more
#: averages those swings out, and so must its probe. On the development
#: host, a window of +-1 to 2 s left the least spread between the
#: normalized times of one repeated request (CV 16% raw, 12% normalized
#: per 0.35-s request; 13% and 7% per 1.75 s); wider windows lose the
#: drift they are there to divide out.
SMOOTHING_S = 1.5


def _spin(loops):
    total = 0
    for i in range(loops):
        total += i * i % 7
    return total


def probe_seconds():
    """CPU seconds this thread needs for the probe loop, best of
    ``PROBE_REPEATS``. Thread CPU time is immune to the thread waiting
    for a vCPU (serve-mixed's client shares two with its pool), but not
    to the vCPU running slower, which is what is measured."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.thread_time()
        _spin(PROBE_LOOPS)
        best = min(best, time.thread_time() - start)
    return best


class HostClock:
    """Probes taken during a run, and the conversion of wall intervals
    of that run into reference seconds.

    Each probe is first averaged with its neighbours (``SMOOTHING_S``).
    Between two consecutive probes the host's speed is taken as the mean
    of the two; before the first and after the last, as the nearest one.

    The vCPUs of the development host speed up and slow down
    independently (their probe times correlate by 0.03 sample by sample,
    0.12 over 2-s windows). So a probe runs where the measured work runs:
    with ``cpus`` None, on the calling thread's own vCPU, where a
    single-threaded client does its work; otherwise once pinned to each
    vCPU in ``cpus``, whose mean is the speed of a pool spread over them.
    """

    def __init__(self, cpus=None):
        self.cpus = sorted(cpus) if cpus else None
        self.times = []  # perf_counter() at the start of each probe
        self.probes = []  # probe seconds, in the same order
        self._smoothed = []

    def probe(self):
        self.times.append(time.perf_counter())
        if self.cpus is None:
            self.probes.append(probe_seconds())
            return
        home = os.sched_getaffinity(0)
        seconds = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                seconds.append(probe_seconds())
        finally:
            os.sched_setaffinity(0, home)
        self.probes.append(sum(seconds) / len(seconds))

    def since_probe(self):
        """Wall seconds since the last probe began."""
        return time.perf_counter() - self.times[-1]

    def _smooth(self):
        if len(self._smoothed) != len(self.probes):
            times, probes = self.times, self.probes
            self._smoothed = []
            for when in times:
                low = bisect.bisect_left(times, when - SMOOTHING_S)
                high = bisect.bisect_right(times, when + SMOOTHING_S)
                self._smoothed.append(sum(probes[low:high]) / (high - low))
        return self._smoothed

    def reference(self, start, end):
        """Reference seconds of the wall interval [start, end]."""
        times, probes = self.times, self._smooth()
        last = len(times) - 1
        index = bisect.bisect_right(times, start)
        edge, total = start, 0.0
        while edge < end:
            boundary = min(times[index], end) if index <= last else end
            before = probes[max(index - 1, 0)]
            after = probes[min(index, last)]
            speed = 2 * REFERENCE_PROBE_S / (before + after)
            total += (boundary - edge) * speed**SPEED_EXPONENT
            edge = boundary
            index += 1
        return total
