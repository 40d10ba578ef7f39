"""Timing machinery of the benchmark: the calibration kernel, the span
tracer and the closed-loop pass runner.

Times are reported in calibration units ("ref"): an op's seconds divided by
the mean duration of a fixed pure-Python kernel run next to it and inside
it.  The per-core speed of a shared host switches between modes up to 2x
apart every few hundred milliseconds; the kernel slows down with the op it
interrupts, so the ratio stays put where raw seconds do not.
"""

from __future__ import annotations

import gc
import heapq
import math
import signal
import statistics
import time
import traceback
from bisect import bisect_left, bisect_right
from itertools import accumulate

CAL_ITERS = 1000      # one kernel run takes one to two ms
CAL_PERIOD_S = 0.02   # CPU time between kernel runs inside an op
CAL_WARMUP = 100

KNOWN_DEFECT = "known-defect: "   # prefix of a problem the notes document

perf_counter = time.perf_counter


def calibration_kernel(n=CAL_ITERS):
    """Fixed dict/tuple/heap loop: the unit every timing is expressed in."""
    d = {}
    h = []
    acc = 0
    for i in range(n):
        k = ((i * 7919) % 1021, i & 15)
        v = d.get(k, 0) + i
        d[k] = v
        heapq.heappush(h, (v, k))
        if len(h) > 64:
            acc += heapq.heappop(h)[0]
    return acc + len(d)


class Calibrator:
    """Kernel samples taken before every op and, from a profiling timer,
    every CAL_PERIOD_S of CPU time inside it.  Samples are kept in time
    order; their own time is taken out of the op and span times."""

    def __init__(self):
        self.starts = []
        self.secs = []
        self._cum = None

    def sample(self):
        # The kernel must not start a collection of the op's heap: that
        # would be op work timed as kernel work.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            calibration_kernel()
            t1 = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(t0)
        self.secs.append(t1 - t0)

    def _on_timer(self, signum, frame):
        self.sample()

    def warm(self):
        for _ in range(CAL_WARMUP):
            calibration_kernel()

    def arm(self):
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, CAL_PERIOD_S, CAL_PERIOD_S)

    @staticmethod
    def disarm():
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def inside(self, start, end):
        """Seconds of kernel samples that started within [start, end]."""
        if self._cum is None or len(self._cum) != len(self.secs) + 1:
            self._cum = [0.0, *accumulate(self.secs)]
        return (self._cum[bisect_left(self.starts, end)]
                - self._cum[bisect_left(self.starts, start)])

    def unit(self, start, end):
        """Mean kernel duration over the samples inside [start, end] and the
        nearest one on either side."""
        lo = max(0, bisect_left(self.starts, start) - 1)
        hi = min(len(self.secs), bisect_right(self.starts, end) + 1)
        return statistics.fmean(self.secs[lo:hi])

    def constant(self):
        return statistics.median(self.secs)


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else None
        tr.spans.append([self.name, perf_counter(), None, parent, tr.op])
        tr.stack.append(self.idx)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.idx][2] = perf_counter()
        tr.stack.pop()
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        pass

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Spans (name, start, end, parent index, op id) and counts recorded
    around the benchmark's calls into each layer, kept in memory.  A
    disabled tracer records nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.counts = {}
        self.op = None

    def span(self, name):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def count(self, name, n=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def self_seconds(self, excluded):
        """Per span: its duration less `excluded(start, end)` seconds,
        minus the same net time of its children."""
        net = [s[2] - s[1] - excluded(s[1], s[2]) for s in self.spans]
        own = list(net)
        for s, t in zip(self.spans, net):
            if s[3] is not None:
                own[s[3]] -= t
        return own


def execute(op, inst, tracer):
    """Run one op; its problems, or the exception it raised, as strings."""
    try:
        return op(inst, tracer)
    except Exception:
        return ["raised: " + traceback.format_exc(limit=4).strip()]


class PassResult:
    """Per-instance normalized latencies of whole passes over the list."""

    def __init__(self, n):
        self.ref = [[] for _ in range(n)]
        self.secs = [[] for _ in range(n)]
        self.units = [[] for _ in range(n)]
        self.pass_secs = []
        self.attempted = 0
        self.failures = []      # (pass, index, problems)
        self.spans = []         # (index, start, end) of every op run

    @property
    def passes(self):
        return len(self.pass_secs)

    @property
    def failed(self):
        return len(self.failures)

    def unexpected(self):
        return [f for f in self.failures
                if any(not p.startswith(KNOWN_DEFECT) for p in f[2])]

    def latencies(self):
        """Median normalized latency of each instance over the passes."""
        return [statistics.median(r) for r in self.ref]


def run_passes(instances, op, tracer, cal, seconds):
    """Closed loop over whole passes of the instance list: each op starts
    when the previous one ends; a further pass starts only if it is
    expected to end within `seconds` (the first always runs)."""
    res = PassResult(len(instances))
    t_begin = perf_counter()
    while True:
        t_pass = perf_counter()
        pno = res.passes
        for n, inst in enumerate(instances):
            gc.collect()
            cal.sample()
            tracer.op = (pno, n)
            with tracer.span("op"):
                cal.arm()
                t0 = perf_counter()
                problems = execute(op, inst, tracer)
                t1 = perf_counter()
                cal.disarm()
            res.spans.append((n, t0, t1))
            res.attempted += 1
            if problems:
                res.failures.append((pno, n, problems))
        cal.sample()
        t_end = perf_counter()
        res.pass_secs.append(t_end - t_pass)
        if t_end - t_begin + res.pass_secs[-1] > seconds:
            break
    for n, t0, t1 in res.spans:
        u = cal.unit(t0, t1)
        net = t1 - t0 - cal.inside(t0, t1)
        res.units[n].append(u)
        res.secs[n].append(net)
        res.ref[n].append(net / u)
    tracer.op = None
    return res


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of the
    order statistics.  Unlike a single order statistic it does not jump
    when a seed moves one instance across the rank."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail_percentile(n, beyond=10):
    """The highest whole percentile that leaves at least `beyond` of n ops
    above it, by nearest rank."""
    if n <= beyond:
        raise ValueError(f"need more than {beyond} ops for a tail, got {n}")
    pct = math.floor(100 * (n - beyond) / n)
    return pct, n - max(1, math.ceil(pct * n / 100))
