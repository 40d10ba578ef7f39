"""Core task-DAG engine.

Tasks carry symbolic tile read/write sets.  A sequential trace is unfolded
into a DAG by data-hazard analysis (RAW, WAR, WAW), exactly the way a
dynamic tile scheduler would do it at runtime.  Only nearest-conflict edges
are materialized per tile; the transitive closure is implied.

On top of the DAG we compute Backflow priorities (remaining longest path),
the weighted critical path, earliest/latest start times on unbounded
processors, and the ALAP activity profile used by the Lost-Area bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MappingProxyType, SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

# Kernel tags.  BARRIER is a pure synchronization pseudo-task.
POTRF = "POTRF"
TRSM = "TRSM"
SYRK = "SYRK"
GEMM = "GEMM"
TRTRI = "TRTRI"
TRMM = "TRMM"
LAUUM = "LAUUM"
GEQRT = "GEQRT"
TSQRT = "TSQRT"
TTQRT = "TTQRT"
UNMQR = "UNMQR"
TSMQR = "TSMQR"
TTMQR = "TTMQR"
GEADD = "GEADD"
COPY = "COPY"
BARRIER = "BARRIER"

ALL_KINDS = frozenset(
    {POTRF, TRSM, SYRK, GEMM, TRTRI, TRMM, LAUUM, GEQRT, TSQRT, TTQRT,
     UNMQR, TSMQR, TTMQR, GEADD, COPY, BARRIER}
)

RAW = "RAW"
WAR = "WAR"
WAW = "WAW"
EXPLICIT = "EXPLICIT"


class TileRef(NamedTuple):
    """One tile of a symbolic matrix (inputs, results and temporaries get
    distinct matrix names; array renaming relies on that)."""

    matrix: str
    row: int
    col: int


class Task:
    """One kernel invocation on tiles.

    `id` is the ordinal position in the sequential trace; hazard analysis
    relies on ids being strictly increasing in trace order.
    """

    __slots__ = ("id", "kind", "indices", "reads", "writes")

    def __init__(self, id, kind, indices=(), reads=(), writes=()):
        self.id = id
        self.kind = kind
        self.indices = tuple(indices)
        self.reads = tuple(reads)
        self.writes = tuple(writes)

    def __repr__(self):
        idx = ",".join(str(i) for i in self.indices)
        return f"{self.kind}({idx})#{self.id}"


def trace_of(kernels: Iterable[tuple]) -> list:
    """Number a stream of (kind, indices, reads, writes) as one trace."""
    return [Task(n, *k) for n, k in enumerate(kernels)]


class WeightModel:
    """Maps kernel kinds to integer durations.

    One weight unit is n_b^3/3 flops for the Cholesky and QR models.
    BARRIER always weighs 0; COPY weighs 0 in the unit and Cholesky models
    (the reference critical-path counts include copies in neither).

    The table is read-only, and a model (one that overrides `of` too) must
    give each task one fixed weight for its lifetime: a TaskGraph caches
    what a model fixes (see TaskGraph.weight_list).
    """

    CHOLESKY = {
        POTRF: 1, TRSM: 3, SYRK: 3, GEMM: 6,
        # inversion kernels, same n_b^3/3 unit (TRTRI ~ nb^3/3, TRMM ~ nb^3)
        TRTRI: 1, TRMM: 3, LAUUM: 1,
        COPY: 0,
    }
    QR = {GEQRT: 4, TTQRT: 2, UNMQR: 6, TTMQR: 6, TSQRT: 6, TSMQR: 12}

    def __init__(self, table, name="custom"):
        """A model over a copy of `table` (kind -> nonnegative int weight);
        `name` labels it in the KeyError of a kind it has no weight for."""
        table = dict(table)
        for kind, w in table.items():
            if kind not in ALL_KINDS:
                raise ValueError(f"unknown kernel kind {kind!r}")
            if isinstance(w, bool) or not isinstance(w, int) or w < 0:
                raise ValueError(f"weight of {kind} must be a nonnegative integer")
        table[BARRIER] = 0
        self.name = name
        self.table = MappingProxyType(table)

    @classmethod
    def unit(cls):
        return cls({k: 0 if k == COPY else 1 for k in ALL_KINDS}, "unit")

    @classmethod
    def cholesky(cls):
        return cls(cls.CHOLESKY, "cholesky")

    @classmethod
    def qr_tt(cls):
        return cls(cls.QR, "qr-tt")

    def __getitem__(self, kind):
        try:
            return self.table[kind]
        except KeyError:
            raise KeyError(f"weight model {self.name!r} has no weight for {kind}") from None

    def of(self, task):
        return self[task.kind]


class TaskGraph:
    """An acyclic dependence graph over a task sequence.

    Edges are (from_id, to_id, cause) with cause in {RAW, WAR, WAW,
    EXPLICIT}.  Graphs built from a trace have from_id < to_id on every
    edge.
    """

    def __init__(self, tasks: Sequence[Task], edges):
        self.tasks = list(tasks)
        self.edges = list(edges)
        if len({t.id for t in self.tasks}) != len(self.tasks):
            raise ValueError("duplicate task ids")
        self._adj = self._rank = self._topo = self._facts = None

    def __len__(self):
        return len(self.tasks)

    def adjacency(self):
        """(ids, succ, pred, indeg) over task positions 0..n-1 in task order:
        ids[i] is the id at position i, succ[i]/pred[i] its neighbour
        positions in edge order; built once from a single pass over the edges."""
        if self._adj is None:
            ids = [t.id for t in self.tasks]
            at = {tid: i for i, tid in enumerate(ids)}
            succ = [[] for _ in ids]
            pred = [[] for _ in ids]
            for u, v, _ in self.edges:
                u, v = at[u], at[v]
                succ[u].append(v)
                pred[v].append(u)
            self._adj = ids, succ, pred, [len(p) for p in pred]
        return self._adj

    def id_rank(self):
        """(rank, by_rank): the rank of each position's id and its inverse;
        both are one list 0..n-1 when ids increase in task order (trace-built)."""
        if self._rank is None:
            ids = self.adjacency()[0]
            rank = by_rank = list(range(len(ids)))
            if ids != sorted(ids):
                by_rank = sorted(rank, key=ids.__getitem__)
                rank = sorted(rank, key=by_rank.__getitem__)
            self._rank = rank, by_rank
        return self._rank

    def topo_positions(self):
        """Positions in topological order, the lowest id first among ready
        tasks, computed once per graph; raises on cycles, naming one edge
        that closes a cycle.  Callers must not change the list."""
        if self._topo is None:
            self._topo = self._topo_sort()
        return self._topo

    def _topo_sort(self):
        ids, succ, _, indeg = self.adjacency()
        rank, by_rank = self.id_rank()
        if rank is by_rank and all(u < v for u, v, _ in self.edges):
            return by_rank  # trace-built graphs are already sorted
        indeg = list(indeg)
        ready = [rank[i] for i, d in enumerate(indeg) if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            u = by_rank[heapq.heappop(ready)]
            order.append(u)
            for v in succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(ready, rank[v])
        if len(order) != len(ids):
            left = {ids[i] for i, d in enumerate(indeg) if d > 0}
            u, v, _ = next(e for e in self.edges if e[0] in left and e[1] in left)
            raise ValueError(f"cycle detected, e.g. through edge {u}->{v}")
        return order

    def weight_list(self, weights):
        """Each task's weight under `weights`, by position, computed once per
        weight model.  Callers must not change the list."""
        return self._model_facts(weights).weights

    def _model_facts(self, weights):
        """The one cache slot of what a model fixes: the weight list, then the
        positional priority list with the annotate_cp result, then the
        alap_profile result.  Keyed by the model's identity, it holds the
        model, so the id cannot be reused; another model replaces it."""
        facts = self._facts
        if facts is None or facts.model is not weights:
            facts = self._facts = SimpleNamespace(
                model=weights, weights=list(map(weights.of, self.tasks)),
                priority=None, annotation=None, profile=None)
        return facts

    def topo_order(self):
        """Task ids in topological order (see topo_positions)."""
        return list(map(self.adjacency()[0].__getitem__, self.topo_positions()))

    def without_war_edges(self):
        return TaskGraph(self.tasks, [e for e in self.edges if e[2] != WAR])

    def transitive_redundant_edges(self):
        """Edges implied by a longer path (flagging only; O(V*E), use on
        small graphs)."""
        ids, succ, _, _ = self.adjacency()
        at = {tid: i for i, tid in enumerate(ids)}
        redundant = []
        for a, b, cause in self.edges:
            u, v = at[a], at[b]
            stack = [w for w in succ[u] if w != v]
            seen = set(stack)
            while stack:
                x = stack.pop()
                if x == v:
                    redundant.append((a, b, cause))
                    break
                for w in succ[x]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return redundant

    # -- text exports ------------------------------------------------------

    def to_text(self, weights: WeightModel):
        lines = []
        for t in self.tasks:
            idx = ",".join(str(i) for i in t.indices)
            lines.append(f"task {t.id} {t.kind} {idx} w={weights.of(t)}")
        for u, v, cause in self.edges:
            lines.append(f"edge {u} {v} {cause}")
        return "\n".join(lines) + "\n"

    def to_dot(self, weights: WeightModel = None):
        out = ["digraph taskgraph {"]
        for t in self.tasks:
            idx = ",".join(str(i) for i in t.indices)
            label = f"{t.kind}({idx})"
            if weights is not None:
                label += f" w={weights.of(t)}"
            out.append(f'  n{t.id} [label="{label}"];')
        for u, v, cause in self.edges:
            style = ' [style=dashed]' if cause in (WAR, WAW) else ""
            out.append(f"  n{u} -> n{v}{style};")
        out.append("}")
        return "\n".join(out) + "\n"


def build_from_trace(trace: Sequence[Task]) -> TaskGraph:
    """Unfold a sequential trace into a DAG using data hazards.

    Per tile, only adjacent conflicting accesses produce edges: RAW from the
    last writer to each subsequent reader, WAR from the readers since the
    last write to the next writer, WAW between consecutive writers with no
    read in between; a task that names a tile twice gets no edge to itself.
    A BARRIER task gets EXPLICIT edges from every prior task since the
    previous barrier (from that barrier itself if no task came between) and
    to every subsequent task up to the next one.
    """
    edges = []
    last_write = {}   # tile -> writer id
    readers = {}      # tile -> list of reader ids since last write
    prev = None
    barrier = None          # id of the most recent barrier
    since_barrier = []      # ids seen since that barrier
    for t in trace:
        if prev is not None and t.id <= prev:
            raise ValueError(f"task ids must be strictly increasing (got {t.id} after {prev})")
        prev = t.id
        if t.kind == BARRIER:
            if not since_barrier and barrier is not None:
                since_barrier = [barrier]
            for u in since_barrier:
                edges.append((u, t.id, EXPLICIT))
            barrier = t.id
            since_barrier = []
            # a barrier cuts every tile chain
            last_write.clear()
            readers.clear()
            continue
        if barrier is not None:
            edges.append((barrier, t.id, EXPLICIT))
        since_barrier.append(t.id)
        for tile in t.reads:
            w = last_write.get(tile)
            if w is not None:
                edges.append((w, t.id, RAW))
            readers.setdefault(tile, []).append(t.id)
        for tile in t.writes:
            rs = readers.get(tile)
            if rs:
                # the reader chain implies the write-write order transitively
                for r in rs:
                    if r != t.id:
                        edges.append((r, t.id, WAR))
            elif last_write.get(tile, t.id) != t.id:
                edges.append((last_write[tile], t.id, WAW))
            last_write[tile] = t.id
            readers[tile] = []
    # drop duplicate edges, keep first cause
    first = {}
    for e in edges:
        first.setdefault((e[0], e[1]), e)
    return TaskGraph(trace, list(first.values()))


@dataclass
class CpAnnotation:
    """Backflow priorities and slack information of a weighted DAG; a
    task's weight is graph.weight_list(weights) at its position."""

    priority: dict          # task id -> weight + max successor priority
    cp_length: int
    earliest: dict          # earliest start on unbounded processors

    def critical_ids(self):
        """Tasks with no slack: earliest start equals the ALAP start
        cp_length - priority."""
        cp = self.cp_length
        return [i for i, pr in self.priority.items() if self.earliest[i] == cp - pr]


def _longest_paths(order, nbrs, w):
    """Heaviest path through each position u along nbrs, u's own weight
    included: w[u] + the largest result over nbrs[u].  `order` must visit
    every neighbour of u before u."""
    dist = [0] * len(w)
    for u in order:
        best = 0
        for v in nbrs[u]:
            if dist[v] > best:
                best = dist[v]
        dist[u] = w[u] + best
    return dist


def annotate_cp(graph: TaskGraph, weights: WeightModel) -> CpAnnotation:
    """Backflow pass: each task's priority is its remaining longest path
    including its own weight; cp_length is the weighted critical path.  The
    same recurrence over predecessors gives finish times, and earliest
    start = finish - weight.  Computed once per graph and model; callers
    must not change it."""
    facts = graph._model_facts(weights)
    if facts.annotation is not None:
        return facts.annotation
    order = graph.topo_positions()
    ids, succ, pred, _ = graph.adjacency()
    w = facts.weights
    prio = facts.priority = _longest_paths(reversed(order), succ, w)
    fin = _longest_paths(order, pred, w)
    # insertion orders, which critical_ids() reads: reverse topological, topological
    facts.annotation = CpAnnotation(
        {ids[u]: prio[u] for u in reversed(order)}, max(prio, default=0),
        {ids[u]: fin[u] - w[u] for u in order})
    return facts.annotation


@dataclass
class AlapProfile:
    """Latest-start execution profile on unbounded processors.

    `steps` is the piecewise-constant active-task count as breakpoints
    [(time, count), ...] covering [0, makespan); `t_seq` is the total task
    weight, equal to the area under the profile.
    """

    steps: list
    makespan: int
    t_seq: int

    def area(self):
        total = 0
        for (t0, c), (t1, _) in zip(self.steps, self.steps[1:] + [(self.makespan, 0)]):
            total += c * (t1 - t0)
        return total


def alap_profile(graph: TaskGraph, weights: WeightModel) -> AlapProfile:
    """Profile of the execution where every task starts at its latest
    slack-free time.  Zero-weight tasks occupy no area.  Computed once per
    graph and model; callers must not change it."""
    facts = graph._model_facts(weights)
    if facts.profile is not None:
        return facts.profile
    makespan = annotate_cp(graph, weights).cp_length
    deltas = {}
    for pr, w in zip(facts.priority, facts.weights):
        if w:
            s = makespan - pr   # ALAP start
            deltas[s] = deltas.get(s, 0) + 1
            deltas[s + w] = deltas.get(s + w, 0) - 1
    steps = []
    count = 0
    for time in sorted(deltas):
        count += deltas[time]
        if steps and steps[-1][1] == count:
            continue
        steps.append((time, count))
    if steps and steps[-1][1] == 0 and steps[-1][0] == makespan:
        steps.pop()
    facts.profile = AlapProfile(steps, makespan, sum(facts.weights))
    return facts.profile


def asap_times(trace: Iterable[Task], weights: WeightModel):
    """(finish times by id, cp) of the hazard DAG of a trace on unbounded
    processors, computed in one pass without materializing edges.

    Matches build_from_trace + annotate_cp earliest times, including
    BARRIER semantics.
    """
    weight = weights.of
    write_fin = {}   # tile -> finish of last write
    read_fin = {}    # tile -> max reader finish since last write
    wget, rget = write_fin.get, read_fin.get
    floor = cp = 0   # barrier time, largest finish
    finish = {}
    for task in trace:
        if task.kind == BARRIER:
            write_fin.clear()
            read_fin.clear()
            floor = finish[task.id] = cp
            continue
        start = floor
        for tile in task.reads:
            f = wget(tile, 0)
            if f > start:
                start = f
        for tile in task.writes:
            f = wget(tile, 0)
            if f > start:
                start = f
            f = rget(tile, 0)
            if f > start:
                start = f
        fin = finish[task.id] = start + weight(task)
        for tile in task.reads:
            if rget(tile, 0) < fin:
                read_fin[tile] = fin
        for tile in task.writes:
            write_fin[tile] = fin
            read_fin[tile] = 0
        if fin > cp:
            cp = fin
    return finish, cp


def trace_cp(trace: Iterable[Task], weights: WeightModel) -> int:
    return asap_times(trace, weights)[1]


def t_seq(trace: Iterable[Task], weights: WeightModel) -> int:
    return sum(weights.of(t) for t in trace)
