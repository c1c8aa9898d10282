"""Machine-speed reference for the benchmark's timings.

On a shared 2-vCPU VM the same pure-Python work runs up to ~1.7x slower
for stretches from a fraction of a second to minutes, so raw medians of
identical runs differ by up to a third.  While ops run, a SIGALRM every
INTERVAL_S times one run of a small fixed task, and an op's time is scaled
by REFERENCE_S / (the mean of the task times sampled during the op).
Reported times are then seconds at the machine's reference speed: they
track the program's own work and drop most of the machine's drift.  This
module imports nothing from fairsplit.
"""

import signal
import statistics
import time

# Typical time of reference_task() on the benchmark machine (2-vCPU Xeon VM,
# 2.1 GHz, Python 3.11).  Only ratios matter, since parent and change run
# the same benchmark code; this constant just keeps values near wall time.
REFERENCE_S = 75e-6
INTERVAL_S = 0.005
MIN_SAMPLES = 24  # an op shorter than this many intervals uses the latest ones

_N = 12
_ADJ = [((1 << ((v + 1) % _N)) | (1 << ((v - 1) % _N)) | (1 << ((v + 3) % _N))
         | (1 << ((v - 3) % _N))) for v in range(_N)]


def _count(v, chosen):
    if v == _N:
        return 1
    total = _count(v + 1, chosen)
    if not _ADJ[v] & chosen:
        total += _count(v + 1, chosen | (1 << v))
    return total


def reference_task():
    """Count the independent sets of a fixed 12-vertex circulant graph by
    recursive bitmask search.  It allocates no container, so the garbage
    collector never runs inside a sample."""
    return _count(0, 0)


class Sampler:
    """Times reference_task() on every SIGALRM between start() and stop()."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_task()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        for _ in range(MIN_SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples)

    def factor(self, begin, end):
        """Reference-speed seconds per raw second for work done between
        marks begin and end: the samples taken meanwhile, or the latest
        MIN_SAMPLES if fewer fell in."""
        window = self.samples[max(0, min(begin, end - MIN_SAMPLES)):end]
        return REFERENCE_S / statistics.fmean(window)
