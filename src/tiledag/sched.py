"""Bounded-processor scheduling and performance bounds.

List scheduling with Backflow priorities (max/min/seeded-random policies),
barrier-synchronized Cholesky graphs, the ALAP-derived Lost-Area bound
and the Rooftop bound, the (2-1/p) list-scheduling guarantee, and the
search for the smallest processor count that still attains the critical
path.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import groupby

from . import cholesky
from .taskgraph import (
    BARRIER, GEMM, POTRF, SYRK, TRSM, Task, TaskGraph, WeightModel, alap_profile,
    annotate_cp, build_from_trace,
)

MAX_CP = "max"
MIN_CP = "min"
RANDOM_CP = "random"


@dataclass
class Schedule:
    """Processor/time assignment of every task of a graph."""

    assignment: dict        # task id -> (processor, start)
    makespan: int
    p: int

    def gantt_rows(self, graph: TaskGraph, weights: WeightModel):
        """(proc, start, end, kind, *indices) per task, by processor and start;
        indices are padded with "" to the widest index tuple (at least 3)."""
        width = max([3] + [len(t.indices) for t in graph.tasks])
        rows = []
        for t, w in zip(graph.tasks, graph.weight_list(weights)):
            proc, start = self.assignment[t.id]
            pad = [""] * (width - len(t.indices))
            rows.append((proc, start, start + w, t.kind, *t.indices, *pad))
        rows.sort(key=lambda r: (r[0], r[1], r[3]))
        return rows

    def to_csv(self, graph: TaskGraph, weights: WeightModel):
        rows = self.gantt_rows(graph, weights)
        width = len(rows[0]) - 4 if rows else 3
        names = [chr(ord("i") + n) for n in range(width)]   # i, j, k, l, ...
        lines = [",".join(["proc", "start", "end", "kind", *names])]
        for row in rows:
            lines.append(",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"


def check_schedule(graph: TaskGraph, weights: WeightModel, sched: Schedule):
    """Post-hoc validity: every task assigned and no id outside the graph,
    every task on a processor 0..p-1 and starting at 0 or later, no overlap
    of positive-weight tasks on a processor, every edge's source finishes
    before its sink starts, and the makespan is the largest finish.
    Positive-weight tasks are range-checked once per processor on the
    sorted spans, zero-weight ones one by one."""
    fin = {}
    per_proc = {}
    assignment = sched.assignment
    for t, w in zip(graph.tasks, graph.weight_list(weights)):
        try:
            proc, start = assignment[t.id]
        except KeyError:
            raise AssertionError(f"task {t.id} unassigned") from None
        fin[t.id] = start + w
        if w > 0:
            per_proc.setdefault(proc, []).append((start, start + w, t.id))
        elif not 0 <= proc < sched.p:
            raise AssertionError(f"task {t.id} on processor {proc}, outside 0..{sched.p - 1}")
        elif start < 0:
            raise AssertionError(f"task {t.id} starts at {start}, before 0")
    if len(assignment) != len(fin):
        stray = next(u for u in assignment if u not in fin)
        raise AssertionError(f"task {stray} assigned but not in the graph")
    for proc, spans in per_proc.items():
        spans.sort()
        start, _, first = spans[0]
        if not 0 <= proc < sched.p:
            raise AssertionError(f"task {first} on processor {proc}, outside 0..{sched.p - 1}")
        if start < 0:
            raise AssertionError(f"task {first} starts at {start}, before 0")
        for (s1, e1, a), (s2, e2, b) in zip(spans, spans[1:]):
            if s2 < e1:
                raise AssertionError(f"overlap on processor {proc}: tasks {a} and {b}")
    for u, v, _ in graph.edges:
        if fin[u] > assignment[v][1]:
            raise AssertionError(f"precedence violated on edge {u}->{v}")
    last = max(fin.values(), default=0)
    if sched.makespan != last:
        raise AssertionError(f"makespan {sched.makespan} is not the largest finish {last}")
    return True


def list_schedule(graph: TaskGraph, weights: WeightModel, p: int,
                  policy: str = MAX_CP, seed: int = 0,
                  annotation=None) -> Schedule:
    """Greedy list scheduling: whenever a processor is idle and tasks are
    ready, start one chosen by policy (highest priority, lowest priority,
    or seeded-uniform random); equal priorities break toward the lowest
    task id.  Zero-weight tasks complete at their ready time without
    occupying a processor.  `annotation` needs only `.priority`, integers
    keyed by task id; without it the graph's annotate_cp result for
    `weights`, computed once per graph and model, is used.
    """
    if p < 1:
        raise ValueError("need at least one processor")
    if policy not in (MAX_CP, MIN_CP, RANDOM_CP):
        raise ValueError(f"unknown policy {policy!r}")
    prio = (annotation or annotate_cp(graph, weights)).priority
    getrandbits = random.Random(seed).getrandbits
    ids, succ, _, indeg = graph.adjacency()
    indeg = list(indeg)
    w = graph.weight_list(weights)
    n = len(ids)
    heappush, heappop = heapq.heappush, heapq.heappop
    ready = []   # heap of keys, or the random pool of positions
    if policy == RANDOM_CP:
        key, heap, put = range(n), False, ready.append
    else:
        # ready key sign*priority*n + position: equal priorities go to the lowest id
        sign = -n if policy == MAX_CP else n
        key = [sign * prio[i] + u for u, i in enumerate(ids)]
        heap, put = True, partial(heappush, ready)

    zero_ready = []
    placed = [None] * n   # position -> (processor, start)
    running = []  # finish*p + proc, one task per processor in slot
    slot = [0] * p
    free = list(range(p))
    now = 0
    for v, d in enumerate(indeg):
        if d == 0:
            if w[v]:
                put(key[v])
            else:
                zero_ready.append(v)
    while True:
        # zero-weight tasks finish instantly and may release successors
        while zero_ready:
            u = zero_ready.pop()
            placed[u] = (0, now)
            for v in succ[u]:
                indeg[v] -= 1
                if not indeg[v]:
                    if w[v]:
                        put(key[v])
                    else:
                        zero_ready.append(v)
        while free and ready:
            if heap:
                u = heappop(ready) % n
            else:
                # Random(seed).randrange(len(ready)), drawn as CPython draws it
                m = len(ready)
                b = m.bit_length()
                k = getrandbits(b)
                while k >= m:
                    k = getrandbits(b)
                ready[k], ready[-1] = ready[-1], ready[k]
                u = ready.pop()
            proc = free.pop()
            placed[u] = (proc, now)
            slot[proc] = u
            heappush(running, (now + w[u]) * p + proc)
        if not running:
            break
        # the tasks that finish at now have keys in [now*p, now*p + p)
        now = running[0] // p
        base = now * p
        end = base + p
        while running and running[0] < end:
            proc = heappop(running) - base
            free.append(proc)
            for v in succ[slot[proc]]:
                indeg[v] -= 1
                if not indeg[v]:
                    if w[v]:
                        put(key[v])
                    else:
                        zero_ready.append(v)
        if len(free) > 1:
            free.sort()
    if None in placed:
        raise AssertionError("deadlock: no running task but work remains")
    # nothing runs or waits: the last finish ends the schedule
    return Schedule(dict(zip(ids, placed)), now, p)


def sync_chol_graph(t: int, variant: str = "relaxed"):
    """The right-looking Cholesky trace in phases, with its weight model:
    by column (a kernel's last index), then POTRF, TRSM, and GEMM then SYRK
    (grouped) or all updates in trace order (relaxed).  A barrier closes
    each phase but a relaxed update, so the next POTRF may run inside it.

    The max-priority list schedule of the relaxed graph attains the
    critical path 9t-10 on p >= floor((t-1)^2/2) + 1 processors and on no
    fewer: ceil((t-1)^2/2) packs the first update phase, and the POTRF that
    it enables takes the slot the ceiling rounds up for even t and one more
    processor for odd t (checked for 2 <= t <= 10)."""
    if variant not in ("grouped", "relaxed"):
        raise ValueError(f"unknown variant {variant!r}")
    rank = {POTRF: 0, TRSM: 1, GEMM: 2, SYRK: 3 if variant == "grouped" else 2}

    def phase(task):
        return task.indices[-1], rank[task.kind]

    out = []
    for (_, r), tasks in groupby(sorted(cholesky.gen_chol_fact(t, "right"), key=phase), phase):
        for task in tasks:
            out.append(Task(len(out), task.kind, task.indices, task.reads, task.writes))
        if variant == "grouped" or r < rank[GEMM]:   # the next POTRF overlaps relaxed updates
            out.append(Task(len(out), BARRIER))
    return build_from_trace(out), WeightModel.cholesky()


# ---------------------------------------------------------------------------
# bounds

def lost_area(profile, p: int) -> int:
    """Idle area of the ALAP tail for p processors.

    Stepping backwards from the end, stop at the latest instant where the
    profile needs more than p processors; the lost area is the idle area
    p - active(t) over the remaining tail (the whole timeline if p is
    never exceeded, which collapses the derived bound to the cp).
    """
    if p < 1:
        raise ValueError("need p >= 1")
    area, end = 0, profile.makespan
    for start, c in reversed(profile.steps):
        if c > p:
            break
        area += (p - c) * (end - start)
        end = start
    return area


def lower_bound_factor(makespan, p: int) -> Fraction:
    """Lower bound on the optimal makespan implied by any list schedule:
    observed / (2 - 1/p)."""
    if p < 1:
        raise ValueError("need p >= 1")
    return Fraction(makespan) / (2 - Fraction(1, p))


@dataclass
class BoundsRow:
    """Bounds on p processors: the ALAP-derived t_alap = max(cp, (T_seq +
    LA_p)/p), the Rooftop t_roof = max(cp, T_seq/p), speedup = T_seq/t_alap
    and efficiency = speedup/p.  A DAG of total weight 0 takes no time on
    any p, so its speedup is 1 (and its efficiency 1/p)."""

    p: int
    lost_area: int
    t_alap: Fraction
    t_roof: Fraction
    speedup: Fraction
    efficiency: Fraction


def bounds_table(graph: TaskGraph, weights: WeightModel, procs) -> list:
    """One BoundsRow per processor count, all read off one ALAP profile."""
    profile = alap_profile(graph, weights)
    t_seq = profile.t_seq
    cp = profile.makespan
    rows = []
    for p in procs:
        la = lost_area(profile, p)
        t_alap = max(Fraction(cp), Fraction(t_seq + la, p))
        t_roof = max(Fraction(cp), Fraction(t_seq, p))
        s = Fraction(t_seq) / t_alap if t_seq else Fraction(1)
        rows.append(BoundsRow(p, la, t_alap, t_roof, s, s / p))
    return rows


def alpha_min(t: int):
    """Smallest processor count whose max-priority list schedule attains
    the weighted critical path 9t-10; alpha = p_opt / t^2.

    The reference procedure is unstated; this ascending search over the
    CP-method schedule is one faithful reading.
    """
    if t < 3:
        raise ValueError("need t >= 3")
    trace = cholesky.gen_chol_fact(t, "right")
    graph = build_from_trace(trace)
    weights = WeightModel.cholesky()
    ann = annotate_cp(graph, weights)
    target = cholesky.chol_cp_oracle(t, "fact")
    if ann.cp_length != target:
        raise AssertionError(f"critical path {ann.cp_length} != 9t-10 = {target}")
    cap = (t - 1) ** 2
    for p in range(1, cap + 1):
        ms = list_schedule(graph, weights, p, MAX_CP, annotation=ann).makespan
        if ms == target:
            return p, Fraction(p, t * t)
    raise AssertionError(f"no processor count up to {cap} attains the critical path")
