"""The machine's pace: a fixed reference work, timed through the run.

On a shared machine the same code runs up to half again as slow for
seconds or minutes at a time, as other tenants load the cores and their
caches.  A fixed piece of pure-Python work in the compiler's style
(small objects, dicts, lists, sorting) slows down with it.  `Pace` times
that work at most every PACE_EVERY_S: right before the benchmark's own
timed sections, and inside them, between the stages of the compile
path, the passes of the pipeline and the oracle's inputs.  The time it
takes inside a section is taken off that section.  A timed sample is
then divided by the pace around it: the median of the reference samples
within PACE_WINDOW_S of it, over REFERENCE_S.  It reads as the time on a
machine where the reference work takes REFERENCE_S.  The reference work
does not call the program under test, so a change to the program moves
the samples, not the pace.
"""

import bisect
import gc
import statistics
import time

# Seconds between pace samples, at least.
PACE_EVERY_S = 0.04
# A timed sample is put against the pace samples this close to it; at
# least PACE_MIN of them.
PACE_WINDOW_S = 1.0
PACE_MIN = 15
# Nominal time of one reference work.  On a 2-core x86-64 sandbox with
# CPython 3.11 its median was 2.0 to 3.3 ms.
REFERENCE_S = 0.002


class _Node:
    __slots__ = ("ident", "uses", "attrs")

    def __init__(self, ident, uses, attrs):
        self.ident = ident
        self.uses = uses
        self.attrs = attrs


def reference_work():
    table = {}
    for i in range(1300):
        table["v%d" % i] = _Node(i, [i, i + 1, i * 3], {"k": i, "w": i & 7})
    order = sorted(table.values(), key=lambda n: (n.attrs["w"], -n.ident))
    live = {n.ident for n in order if n.uses[-1] % 5}
    return len(live)


class Pace:
    def __init__(self):
        self.at = []            # perf_counter at the end of each sample
        self.samples = []       # seconds of each reference work
        self.spent = 0.0        # seconds spent in tick() in all
        self._last = float("-inf")

    def tick(self, inside=False):
        """Take a pace sample if PACE_EVERY_S have passed since the
        last one.  Call it right before a timed section, or `inside` one;
        the section then takes the growth of `spent` off its time.  Only
        outside ticks collect garbage first: inside, collecting would
        take the section's own garbage off its bill."""
        t0 = time.perf_counter()
        if t0 - self._last >= PACE_EVERY_S:
            self._sample(t0, inside)

    def burst(self, n):
        """Take `n` pace samples now, before or after a timed section."""
        for _ in range(n):
            self._sample(time.perf_counter(), False)

    def _sample(self, t0, inside):
        if not inside:
            gc.collect()
        gc.disable()
        t1 = time.perf_counter()
        reference_work()
        self._last = time.perf_counter()
        gc.enable()
        self.at.append(self._last)
        self.samples.append(self._last - t1)
        self.spent += time.perf_counter() - t0

    def paced(self, fn):
        """`fn`, with an inside tick before each call."""
        def paced(*args, **kwargs):
            self.tick(inside=True)
            return fn(*args, **kwargs)
        return paced

    def factor(self, start=None, end=None):
        """How much slower than nominal the machine ran from `start` to
        `end` (perf_counter times): the median of the samples within
        PACE_WINDOW_S of that span, widened until it holds PACE_MIN
        samples, over REFERENCE_S.  Without a span, over the whole run."""
        if start is None:
            return statistics.median(self.samples) / REFERENCE_S
        window = PACE_WINDOW_S
        while True:
            lo = bisect.bisect_left(self.at, start - window)
            hi = bisect.bisect_right(self.at, end + window)
            if hi - lo >= PACE_MIN or hi - lo == len(self.at):
                return statistics.median(self.samples[lo:hi]) / REFERENCE_S
            window *= 2
