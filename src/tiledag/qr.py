"""Tiled QR factorization under arbitrary elimination trees.

Coarse-grain schedulers (Sameh-Kuck/FlatTree, Fibonacci, Greedy) produce
per-tile time-step tables and elimination lists; any valid elimination list
translates into a tiled task graph over TT or TS kernels.  The tiled graphs
are timed straight from the list (unbounded-processor ASAP), which yields
the zeroed-time tables and critical paths of the reference tables; their
task traces are replays of the list.  Asap and GrASAP are event-driven
constructions where eliminations fire the instant two rows of a column
hold triangles.

Rows and columns are 1-based throughout, matching the reference tables.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from math import ceil
from typing import NamedTuple

from .taskgraph import (
    GEQRT, TSMQR, TSQRT, TTMQR, TTQRT, UNMQR,
    Task, TileRef, WeightModel,
)

TREE_ALGOS = ("flattree", "fibonacci", "greedy", "binarytree", "plasmatree",
              "asap", "grasap")


def _check_shape(p, q):
    """The shape rule of the QR layer: a tall or square p x q tile grid."""
    if not (p >= q >= 1):
        raise ValueError("need p >= q >= 1")


class ElimEntry(NamedTuple):
    """elim(i, piv, k): zero tile (i,k) by combining rows i and piv."""

    i: int
    piv: int
    k: int
    step: int = 0


# ElimEntry from a literal 4-tuple: the call the NamedTuple's own __new__
# makes, without its Python frame.  The list builders make entries here.
_entry = partial(tuple.__new__, ElimEntry)


class EliminationList:
    """Ordered eliminations zeroing every sub-diagonal tile of a p x q
    tiled matrix."""

    def __init__(self, p, q, entries):
        self.p = p
        self.q = q
        self.entries = list(entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def validate(self):
        """Raise ValueError citing the violated validity condition."""
        p, q = self.p, self.q
        _check_shape(p, q)
        zeroed = [0] * (p + 1)   # row r is zeroed in columns 1..zeroed[r]
        for n, e in enumerate(self.entries):
            if not (1 <= e.k <= q) or not (e.k < e.i <= p):
                raise ValueError(f"entry {n}: elim({e.i},{e.piv},{e.k}) out of range")
            if e.i == e.piv:
                raise ValueError(f"entry {n}: a row cannot annihilate itself")
            if not (e.k <= e.piv <= p):
                raise ValueError(f"entry {n}: pivot row {e.piv} invalid for column {e.k}")
            for row in (e.i, e.piv):
                if zeroed[row] < e.k - 1:
                    raise ValueError(
                        f"entry {n}: row {row} not ready for column {e.k} "
                        f"(tile ({row},{zeroed[row] + 1}) not yet zeroed)")
            if zeroed[e.piv] >= e.k:
                raise ValueError(
                    f"entry {n}: pivot row {e.piv} is not a potential annihilator "
                    f"(tile ({e.piv},{e.k}) already zeroed)")
            if zeroed[e.i] >= e.k:
                raise ValueError(f"entry {n}: tile ({e.i},{e.k}) zeroed twice")
            zeroed[e.i] = e.k
        want = sum(p - k for k in range(1, q + 1))
        if len(self) != want:
            raise ValueError(f"elimination list incomplete: {len(self)}/{want} tiles zeroed")
        return True

    def normalized(self):
        """Equivalent list with i > piv everywhere.

        Each reverse elimination elim(i1, i0, k), i1 < i0, is removed by
        exchanging the names i0 and i1 in it and in every later entry, of
        every column.  Up to that entry both rows were zeroed in exactly the
        columns before k, so the list stays valid; after it both were last
        used at the same step, so every entry keeps its with_steps() step.
        Columns are cleared left to right, each by its reverse entry with
        the largest pivot first.  Weighted tiled times are preserved
        wherever the exchanged rows carry the same update history into
        later columns, as when only the last column has reverse entries.
        """
        entries = list(self.entries)
        for k0 in range(1, min(self.p, self.q) + 1):
            while True:
                rev = [(n, e) for n, e in enumerate(entries)
                       if e.k == k0 and e.i < e.piv]
                if not rev:
                    break
                i0 = max(e.piv for _, e in rev)
                first = next(n for n, e in rev if e.piv == i0)
                i1 = entries[first].i
                swap = {i0: i1, i1: i0}
                entries[first:] = [e._replace(i=swap.get(e.i, e.i), piv=swap.get(e.piv, e.piv))
                                   for e in entries[first:]]
        return EliminationList(self.p, self.q, entries)

    def with_steps(self):
        """Recompute coarse time-steps: each elimination occupies both of
        its rows for one unit."""
        last = [0] * (self.p + 1)   # the step each row was last used
        out = []
        for i, piv, k, _ in self.entries:
            a, b = last[i], last[piv]
            s = last[i] = last[piv] = (a if a > b else b) + 1
            out.append(_entry((i, piv, k, s)))
        return EliminationList(self.p, self.q, out)

    def to_csv(self):
        lines = ["k,i,piv,step"]
        for e in self.entries:
            lines.append(f"{e.k},{e.i},{e.piv},{e.step}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, p, q, text):
        entries = []
        for line in text.strip().splitlines()[1:]:
            k, i, piv, step = (int(x) for x in line.split(","))
            entries.append(ElimEntry(i, piv, k, step))
        return cls(p, q, entries)


class CoarseTable:
    """Per-tile coarse time steps: coarse(i,k) is the unit-cost step at
    which tile (i,k) is zeroed."""

    def __init__(self, p, q, steps, algo=""):
        self.p = p
        self.q = q
        self.steps = dict(steps)
        self.algo = algo

    def __call__(self, i, k):
        return self.steps[(i, k)]

    def cp(self):
        return max(self.steps.values(), default=0)

    def validate(self, elim: EliminationList):
        """The dependency relations of the coarse model: a tile's own and
        its pivot's previous-column eliminations precede it, and the
        elimination order within a column follows the algorithm's sweep
        (downward for the panel scheme, bottom-up otherwise)."""
        for e in elim:
            s = self.steps[(e.i, e.k)]
            if e.k > 1:
                if self.steps[(e.i, e.k - 1)] >= s:
                    raise ValueError(f"coarse dependency violated: own row at ({e.i},{e.k})")
                if e.piv > e.k - 1 and self.steps[(e.piv, e.k - 1)] >= s:
                    raise ValueError(f"coarse dependency violated: pivot row at ({e.i},{e.k})")
        for k in range(1, min(self.p, self.q) + 1):
            col = [self.steps[(i, k)] for i in range(k + 1, self.p + 1)]
            if self.algo == "sameh-kuck":
                ok = all(a < b for a, b in zip(col, col[1:]))
            else:
                ok = all(a >= b for a, b in zip(col, col[1:]))
            if not ok:
                raise ValueError(f"column {k} violates the {self.algo} sweep order")
        return True

    def to_csv(self):
        return _grid_csv(self.p, self.q, self.steps)


def _grid_csv(p, q, cells):
    """Rows 1..p by columns 1..q of cells[(i, k)], blank where absent."""
    cols = range(1, q + 1)
    lines = ["i\\k," + ",".join(map(str, cols))]
    for i in range(1, p + 1):
        lines.append(f"{i}," + ",".join(str(cells.get((i, k), "")) for k in cols))
    return "\n".join(lines) + "\n"


def fibonacci_x(p):
    """Least x with x(x+1)/2 >= p-1."""
    x = 0
    while x * (x + 1) // 2 < p - 1:
        x += 1
    return x


def _pair_groups(col_rows_by_step):
    """Fibonacci/Greedy pairing: a bunch of z consecutive tiles zeroed at
    one step uses the z rows immediately above, paired in natural order."""
    entries = []
    for (s, k), rows in sorted(col_rows_by_step.items()):
        z = len(rows)
        if rows != list(range(rows[0], rows[0] + z)):
            raise AssertionError(f"step {s} column {k}: group {rows} not consecutive")
        for j, i in enumerate(rows):
            entries.append(_entry((i, rows[0] - z + j, k, s)))
    return entries


def _coarse_sameh_kuck(p, q):
    steps = {}
    entries = []
    for k in range(1, min(p, q) + 1):
        for i in range(k + 1, p + 1):
            prev_col = steps.get((i, k - 1), 0)
            above = steps.get((i - 1, k), 0)
            s = max(prev_col, above) + 1
            steps[(i, k)] = s
            entries.append(_entry((i, k, k, s)))
    entries.sort(key=lambda e: (e.step, e.k, e.i))
    return steps, entries


def _coarse_fibonacci(p, q):
    x = fibonacci_x(p)
    steps = {}
    for i in range(2, p + 1):
        y = 1
        while i > y * (y + 1) // 2 + 1:
            y += 1
        steps[(i, 1)] = x - y + 1
    for k in range(2, min(p, q) + 1):
        for i in range(k + 1, p + 1):
            steps[(i, k)] = steps[(i - 1, k - 1)] + 2
    groups = {}
    for (i, k), s in steps.items():
        groups.setdefault((s, k), []).append(i)
    return steps, _pair_groups({key: sorted(v) for key, v in groups.items()})


def _coarse_greedy(p, q):
    """At every step each column zeroes the bottom half of its available
    rows; a row zeroed at step s is available in the next column from
    step s+1."""
    qq = min(p, q)
    avail = [[] for _ in range(qq + 2)]   # column -> available rows, ascending
    avail[1] = list(range(1, p + 1))
    steps = {}
    groups = {}
    remaining = sum(p - k for k in range(1, qq + 1))
    s = 0
    while remaining:
        s += 1
        moved = []
        for k in range(1, qq + 1):
            rows = avail[k]
            z = len(rows) // 2
            if z == 0:
                continue
            done = groups[(s, k)] = rows[-z:]
            del rows[-z:]
            for i in done:
                steps[(i, k)] = s
            remaining -= z
            moved.append((k + 1, done))
        for k, done in moved:
            avail[k] = sorted(avail[k] + done)
    return steps, _pair_groups(groups)


def coarse_schedule(p, q, algo):
    """Coarse time-step table plus elimination list for one of the three
    classical schemes."""
    _check_shape(p, q)
    if algo == "sameh-kuck":
        steps, entries = _coarse_sameh_kuck(p, q)
    elif algo == "fibonacci":
        steps, entries = _coarse_fibonacci(p, q)
    elif algo == "greedy":
        steps, entries = _coarse_greedy(p, q)
    else:
        raise ValueError(f"unknown coarse algorithm {algo!r}")
    return CoarseTable(p, q, steps, algo), EliminationList(p, q, entries)


def eager_coarse(elim: EliminationList) -> CoarseTable:
    """Coarse table of the dependence-driven re-execution of a list: each
    elimination fires one step after the last use of either of its rows.
    Coincides with the scheduled tables of the busy algorithms (Sameh-Kuck,
    Greedy); Fibonacci's shifted pattern can idle on small instances."""
    steps = {(e.i, e.k): e.step for e in elim.with_steps()}
    return CoarseTable(elim.p, elim.q, steps, "eager")


def coarse_cp_oracle(p, q, algo):
    """Closed-form coarse critical paths (Greedy has none and is read off
    the constructed table)."""
    _check_shape(p, q)
    if algo == "sameh-kuck":
        return sk_coarse_closed_form(p, q)
    if algo == "fibonacci":
        x = fibonacci_x(p)
        if p == q:
            return x + 2 * q - 4 if q > 1 else 0
        return x + 2 * q - 2
    if algo == "greedy":
        return coarse_schedule(p, q, "greedy")[0].cp()
    raise ValueError(f"unknown coarse algorithm {algo!r}")


# ---------------------------------------------------------------------------
# fixed elimination trees beyond the coarse three

def plasmatree_list(p, q, bs):
    """PLASMA's parameterized tree: flat trees inside domains of bs
    consecutive rows (the bottom domain shrinks as columns advance), domain
    heads merged by a binary tree.  bs=1 is BinaryTree, bs=p is FlatTree."""
    _check_shape(p, q)
    if not (1 <= bs <= p):
        raise ValueError("domain size must satisfy 1 <= BS <= p")
    entries = []
    last = [0] * (p + 1)   # with_steps(): the coarse step each row was last used
    for k in range(1, q + 1):
        pairs = []   # (i, piv) in tree order
        rows = list(range(k, p + 1))
        heads = []
        for lo in range(0, len(rows), bs):
            dom = rows[lo:lo + bs]
            heads.append(dom[0])
            pairs += [(i, dom[0]) for i in dom[1:]]
        level = heads
        while len(level) > 1:
            pairs += [(level[a + 1], level[a]) for a in range(0, len(level) - 1, 2)]
            level = level[::2]
        col = []   # (step * (p + 1) + i, i, piv): sorts by step, then row
        for i, piv in pairs:
            a, b = last[i], last[piv]
            s = last[i] = last[piv] = (a if a > b else b) + 1
            col.append((s * (p + 1) + i, i, piv))
        col.sort()
        entries += [_entry((i, piv, k, key // (p + 1))) for key, i, piv in col]
    return EliminationList(p, q, entries)


def binary_tree_list(p, q):
    return plasmatree_list(p, q, 1)


# ---------------------------------------------------------------------------
# tiled builder

_T = TileRef

# The tiles each kernel reads and writes, keyed by kind and called with the
# kernel's indices; the trace is built from this table alone.  A tile both
# read and written is one object.
KERNEL_TILES = {
    GEQRT: lambda i, k: ((_T("D", i, k),), (_T("R", i, k), _T("V", i, k))),
    UNMQR: lambda i, k, j: ((_T("V", i, k), d := _T("D", i, j)), (d,)),
    TTQRT: lambda i, piv, k: ((_T("R", i, k), r := _T("R", piv, k)), (r, _T("T", i, k))),
    TSQRT: lambda i, piv, k: ((_T("D", i, k), r := _T("R", piv, k)), (r, _T("S", i, k))),
    TTMQR: lambda i, piv, k, j: ((_T("T", i, k), a := _T("D", i, j), b := _T("D", piv, j)),
                                 (a, b)),
    TSMQR: lambda i, piv, k, j: ((_T("S", i, k), a := _T("D", i, j), b := _T("D", piv, j)),
                                 (a, b)),
}


class _LazyWeights(dict):
    """kind -> weight, read from the model on first use, so a build reads
    the weights of the kernels it runs and no others."""

    def __init__(self, model):
        super().__init__()
        self.model = model

    def __missing__(self, kind):
        w = self[kind] = self.model[kind]
        return w


class QrBuild:
    """Tiled QR task graph with unbounded-processor ASAP times, computed
    from an elimination list without materializing the kernels.

    zeroed[(i,k)] is the finish time of the kernel annihilating tile (i,k)
    (the zeroed-time tables); cp is the overall critical path.
    With keep_trace the Task trace is rebuilt after timing by replaying
    `elim` (replay_trace).

    Times are kept per bundle (a factor kernel and its updates along the
    row): _data[i] is the finish of the last write to the data tiles of
    row i right of its last factored column, _tri[(i,k)] that of the
    triangle in tile (i,k).  One time per row is exact: those tiles all
    start at 0, and each update bundle writes one time to all of columns
    k+1..q of its rows, so they always share a finish; every data tile
    read later lies among them.  asap_times over the replayed trace (tiles
    from KERNEL_TILES) reproduces these times.
    """

    def __init__(self, p, q, family="TT", weights=None, keep_trace=True):
        _check_shape(p, q)
        if family not in ("TT", "TS"):
            raise ValueError("kernel family must be 'TT' or 'TS'")
        self.p = p
        self.q = q
        self.family = family
        self.weights = weights if weights is not None else WeightModel.qr_tt()
        self.keep_trace = keep_trace
        self.trace = None
        self.zeroed = {}
        self.cp = 0
        self.counts = {GEQRT: 0, TTQRT: 0, TSQRT: 0, UNMQR: 0, TTMQR: 0, TSMQR: 0}
        self.total_weight = 0
        self.elim = None
        self._data = [0] * (p + 1)
        self._tri = {}
        self._w = _LazyWeights(self.weights)

    def _geqrt_row(self, i, k):
        """GEQRT on tile (i,k) after the last write to row i, then UNMQR on
        columns k+1..q of the row; return the finish of the last."""
        counts, ws, q = self.counts, self._w, self.q
        counts[GEQRT] += 1
        fin = self._tri[(i, k)] = self._data[i] + ws[GEQRT]
        if k < q:
            counts[UNMQR] += q - k
            fin = self._data[i] = fin + ws[UNMQR]
        return fin

    def preprocess_tt(self):
        self.cp = max([self.cp] + [self._geqrt_row(i, 1) for i in range(1, self.p + 1)])

    def _run_tt(self, entries):
        """Time TT eliminations in order.  Entry (i, piv, k) runs TTQRT on
        tiles (i,k) and (piv,k), TTMQR on columns k+1..q of both rows, then
        moves row i into column k+1: GEQRT on (i,k+1) and UNMQR along the
        rest of the row.  One fused step per entry, on locals; weights are
        never negative, so each kernel of a chain finishes no earlier than
        the one before it."""
        if not entries:
            return
        q = self.q
        tri, data, zeroed = self._tri, self._data, self.zeroed
        ws = self._w
        wq = ws[TTQRT]
        if q > 1:
            wm, wg, wu = ws[TTMQR], ws[GEQRT], ws[UNMQR]
        cp = self.cp
        updates = moved = 0   # TTMQR kernels; rows moved into a next column
        for i, piv, k, _ in entries:
            a = tri[(i, k)]
            pk = (piv, k)
            b = tri[pk]
            fin = tri[pk] = zeroed[(i, k)] = (a if a > b else b) + wq
            if k < q:
                updates += q - k
                moved += 1
                d = data[i]
                if data[piv] > d:
                    d = data[piv]
                d = data[i] = data[piv] = (d if d > fin else fin) + wm
                fin = tri[(i, k + 1)] = d + wg
                if k + 1 < q:
                    fin = data[i] = fin + wu
            if fin > cp:
                cp = fin
        self.cp = cp
        counts = self.counts
        counts[TTQRT] += len(entries)
        if moved:
            counts[TTMQR] += updates
            counts[GEQRT] += moved
            counts[UNMQR] += updates - moved

    def _run_ts(self, elim):
        """Time a TS list in _factor_kernels order, one fused step per entry
        on locals: GEQRT and UNMQR on the pivot row at its first use, then
        TTQRT on tile (i,k) if it holds a triangle (an ex-pivot), else
        TSQRT, with its update on columns k+1..q of both rows.  Unused
        diagonal tiles are triangularized last."""
        q = self.q
        tri, data, zeroed = self._tri, self._data, self.zeroed
        ws = self._w
        cp = self.cp
        pivots = unmqr = tt = updates = tt_updates = 0
        for i, piv, k, _ in elim:
            pk = (piv, k)
            b = tri.get(pk)
            if b is None:   # _geqrt_row inline; the step below ends later
                b = tri[pk] = data[piv] + ws[GEQRT]
                pivots += 1
                if k < q:
                    unmqr += q - k
                    data[piv] = b + ws[UNMQR]
            a = tri.get((i, k))
            if a is None:
                kind, update, a = TSQRT, TSMQR, data[i]
            else:
                kind, update = TTQRT, TTMQR
                tt += 1
                tt_updates += q - k
            fin = tri[pk] = zeroed[(i, k)] = (a if a > b else b) + ws[kind]
            if k < q:
                updates += q - k
                d = data[i]
                if data[piv] > d:
                    d = data[piv]
                fin = data[i] = data[piv] = (d if d > fin else fin) + ws[update]
            if fin > cp:
                cp = fin
        self.cp = max([cp] + [self._geqrt_row(k, k) for k in range(1, q + 1)
                              if (k, k) not in tri])
        for kind, n in ((GEQRT, pivots), (UNMQR, unmqr), (TTQRT, tt), (TSQRT, len(elim) - tt),
                        (TTMQR, tt_updates), (TSMQR, updates - tt_updates)):
            self.counts[kind] += n

    def _finish(self, elim):
        """Keep the list that was run, the total weight of the kernels it
        ran and, under keep_trace, its trace."""
        self.elim = elim
        ws = self._w
        self.total_weight = sum(n * ws[kind] for kind, n in self.counts.items() if n)
        if self.keep_trace:
            self.trace = replay_trace(self.p, self.q, self.family, elim)
        return self

    def run_list(self, elim: EliminationList):
        if self.family == "TT":
            self.preprocess_tt()
            self._run_tt(elim)
        else:
            self._run_ts(elim)
        return self._finish(elim)


UPDATE_OF = {GEQRT: UNMQR, TTQRT: TTMQR, TSQRT: TSMQR}


def _factor_kernels(p, q, family, elim):
    """(kind, indices) of every factor kernel a build runs, in order; each
    is followed by its update kernel on columns k+1..q.

    TT: GEQRT on every row of column 1, then per entry TTQRT and GEQRT of
    the zeroed row on the next column.  TS: a pivot is triangularized on
    its first use, a target that holds a triangle (an ex-pivot) is zeroed
    by TTQRT, any other by TSQRT, and diagonal tiles never used as a pivot
    are triangularized last."""
    if family == "TT":
        for i in range(1, p + 1):
            yield GEQRT, (i, 1)
        for i, piv, k, _ in elim:
            yield TTQRT, (i, piv, k)
            if k < q:
                yield GEQRT, (i, k + 1)
        return
    tri = set()
    for i, piv, k, _ in elim:
        if (piv, k) not in tri:
            tri.add((piv, k))
            yield GEQRT, (piv, k)
        yield (TTQRT if (i, k) in tri else TSQRT), (i, piv, k)
    for k in range(1, q + 1):
        if (k, k) not in tri:
            yield GEQRT, (k, k)


def replay_trace(p, q, family, elim):
    """The Task trace of a build that ran `elim`: its kernels in timing
    order, each with the tiles KERNEL_TILES gives it."""
    trace = []
    for kind, idx in _factor_kernels(p, q, family, elim):
        trace.append(Task(len(trace), kind, idx, *KERNEL_TILES[kind](*idx)))
        update = UPDATE_OF[kind]
        tiles = KERNEL_TILES[update]
        for j in range(idx[-1] + 1, q + 1):
            ix = idx + (j,)
            trace.append(Task(len(trace), update, ix, *tiles(*ix)))
    return trace


def tiled_build(elim: EliminationList, family="TT", weights=None,
                keep_trace=True) -> QrBuild:
    """Validate an elimination list and build its tiled translation."""
    elim.validate()
    return QrBuild(elim.p, elim.q, family, weights, keep_trace).run_list(elim)


# ---------------------------------------------------------------------------
# event-driven Asap / GrASAP

def _run_asap_columns(build: QrBuild, first_col, prefix):
    """Fire eliminations on columns first_col..q the moment a column holds
    two ready triangles, after the timed entries `prefix`.

    Events are (time, col, row) availabilities, seeded by the triangles
    of column first_col, each kept as the int (time·(q+2) + col)·(p+1) +
    row, which orders as the tuple since times are nonnegative ints.  When
    s eliminations can start in a column, the bottom 2s ready rows pair up
    exactly as Fibonacci and Greedy pair them.  All pairs that fire at one
    time go to one _run_tt call, in column order.  That is exact: a row is
    ready in one column at a time, so the pairs touch disjoint rows, and
    their events are pushed after the call, so one at the same time fires
    in a later round at that time.  Each entry takes its with_steps() step
    as it fires, the steps of `prefix` being its with_steps() steps.
    """
    q, rows1 = build.q, build.p + 1
    last = [0] * rows1   # the coarse step each row was last used
    for i, piv, _, step in prefix:
        last[i] = last[piv] = step
    tri = build._tri
    stride = (q + 2) * rows1   # one unit of time
    avail = [[] for _ in range(q + 1)]   # column -> ready rows, ascending
    heap = [(tri[(r, first_col)] * (q + 2) + first_col) * rows1 + r
            for r in range(first_col, rows1)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    entries = []
    while heap:
        end = (heap[0] // stride + 1) * stride
        touched = []   # events leave the heap in column order
        while heap and heap[0] < end:
            k, row = divmod(pop(heap) % stride, rows1)
            insort(avail[k], row)
            if not touched or touched[-1] != k:
                touched.append(k)
        fired = []
        for k in touched:
            rows = avail[k]
            s = len(rows) // 2
            if s:
                part = rows[len(rows) - 2 * s:]
                del rows[len(rows) - 2 * s:]
                for piv, tgt in zip(part[:s], part[s:]):
                    a, b = last[tgt], last[piv]
                    step = last[tgt] = last[piv] = (a if a > b else b) + 1
                    fired.append(_entry((tgt, piv, k, step)))
        if fired:
            build._run_tt(fired)
            entries += fired
            for tgt, piv, k, _ in fired:
                push(heap, (tri[(piv, k)] * (q + 2) + k) * rows1 + piv)
                if k < q:
                    push(heap, (tri[(tgt, k + 1)] * (q + 2) + k + 1) * rows1 + tgt)
    return entries


def grasap_build(p, q, i=1, weights=None, keep_trace=True) -> QrBuild:
    """Greedy on the first q-i columns, Asap on the trailing i (Asap is
    i = q).  Greedy column k depends only on columns < k, so the greedy
    schedule of q-i columns is the prefix."""
    b = QrBuild(p, q, "TT", weights, keep_trace)
    if not (1 <= i <= q):
        raise ValueError("need 1 <= i <= q")
    b.preprocess_tt()
    static = _coarse_greedy(p, q - i)[1]
    b._run_tt(static)
    dyn = _run_asap_columns(b, q - i + 1, static)
    return b._finish(EliminationList(p, q, static + dyn))


def build_tree(p, q, algo, family="TT", bs=None, grasap_i=1, weights=None,
               keep_trace=True) -> QrBuild:
    """One-stop construction of any of the studied elimination trees."""
    if algo in ("asap", "grasap"):
        if family != "TT":
            name = "Asap" if algo == "asap" else "GrASAP"
            raise ValueError(f"{name} is defined over TT kernels")
        return grasap_build(p, q, q if algo == "asap" else grasap_i, weights, keep_trace)
    if algo in ("flattree", "fibonacci", "greedy"):
        elim = coarse_schedule(p, q, "sameh-kuck" if algo == "flattree" else algo)[1]
    elif algo == "binarytree":
        elim = binary_tree_list(p, q)
    elif algo == "plasmatree":
        if bs is None:
            raise ValueError("plasmatree needs a domain size bs")
        elim = plasmatree_list(p, q, bs)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return QrBuild(p, q, family, weights, keep_trace).run_list(elim)


def zeroed_table_csv(build: QrBuild):
    return _grid_csv(build.p, build.q, build.zeroed)


# ---------------------------------------------------------------------------
# closed forms and conservation

def total_weight(p, q):
    """Invariant total task weight of any tiled QR of a p x q matrix."""
    _check_shape(p, q)
    return 6 * p * q * q - 2 * q ** 3


def verify_weight(build: QrBuild):
    return build.total_weight == total_weight(build.p, build.q)


def elim_weight(q, k):
    """Flop weight attributable to one elimination in column k, identical
    for the TS and TT kernel bundles."""
    return 10 + 18 * (q - k)


def flattree_cp_oracle(p, q):
    _check_shape(p, q)
    if q == 1:
        return 2 * p + 2
    if p == q:
        return 22 * p - 24
    return 6 * p + 16 * q - 22


def sk_coarse_closed_form(p, q):
    """coarse(p,q) of Sameh-Kuck: 0 for q<1 and p=q=1, p+q-2 for p>q,
    2p-3 for p=q>1."""
    if q < 1 or (p == q == 1):
        return 0
    if p == q:
        return 2 * p - 3
    return p + q - 2


def flattree_cp_composed(p, q):
    c1 = sk_coarse_closed_form(p, q - 1)
    c2 = sk_coarse_closed_form(p, q)
    return 10 * (q - 1) + 6 * c1 + 4 + 2 * (c2 - c1)


def fibonacci_cp_bounds(p, q):
    """(low, high) with the simulated Fibonacci cp strictly inside."""
    _check_shape(p, q)
    low = 22 * q - 30
    high = 22 * q + 6 * ceil((2 * p) ** 0.5)
    return low, high


def tiled_translation(i, k, coarse: CoarseTable):
    """Completion time of every TTMQR update of the elimination of tile
    (i,k): 10k + 6*coarse(i,k).  Valid for all but the last column."""
    if k >= coarse.q:
        raise ValueError("translation excludes the last column (need k <= q-1)")
    if not (i > k >= 1):
        raise ValueError("need a sub-diagonal tile")
    return 10 * k + 6 * coarse(i, k)


# ---------------------------------------------------------------------------
# column calculus (weighted iterates)

@dataclass
class ColumnIter:
    """A column of nondecreasing ready times with the task weight used to
    iterate it."""

    values: list
    w: int = 1

    def __post_init__(self):
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("column values must be nondecreasing")
        if self.w <= 0:
            raise ValueError("task weight must be positive")

    def runs(self):
        return [(v, len(list(g))) for v, g in groupby(self.values)]


def optiter(a: ColumnIter) -> ColumnIter:
    """Smallest bottom-to-top iterate of a column: the Asap process on one
    column, eliminations proceeding strictly from the bottom up."""
    if not a.values:
        raise ValueError("empty column")
    w = a.w
    ready = list(a.values)       # surviving rows' ready times, bottom row first
    done = []
    while len(ready) > 1:
        # the two bottom rows and those above them ready by then; the bottom
        # half of this block is zeroed by the half above it
        now = max(ready[0], ready[1])
        n = 2
        while n < len(ready) and ready[n] <= now:
            n += 1
        s = n // 2
        done += [now + w] * s
        ready[:2 * s] = [now + w] * s
    return ColumnIter(sorted(done), w)


def column_asap_free(a: ColumnIter) -> ColumnIter:
    """Asap on one column without the bottom-to-top restriction: pair any
    available rows as soon as possible."""
    w = a.w
    avail = sorted(a.values)
    done = []
    while len(avail) > 1:
        now = avail[1]
        ready = [t for t in avail if t <= now]
        s = len(ready) // 2
        for _ in range(s):
            avail.pop(0)
            done.append(now + w)
        for n in range(s):
            avail[n] = now + w
        avail.sort()
    return ColumnIter(sorted(done), w)


def is_iterate(a: ColumnIter, c: ColumnIter) -> bool:
    """Validity conditions of a weighted iterate c of column a."""
    if c.w != a.w:
        return False
    n = len(a.values)
    if len(c.values) != n - 1:
        return False
    if any(y < x for x, y in zip(c.values, c.values[1:])):
        return False
    w = a.w
    aruns = a.runs()
    cruns = c.runs()
    qn = len(aruns)
    pn = len(cruns)
    if cruns and cruns[0][0] < aruns[0][0] + w:
        return False
    consumed = 0
    for h, (ch, mh) in enumerate(cruns):
        window = None
        for k in range(1, qn + 1):
            lo = aruns[k - 1][0] + w
            hi = aruns[k][0] if k < qn else None
            if lo <= ch and (hi is None or ch <= hi):
                window = k
                break
        if window is not None:
            arrived = sum(nk for _, nk in aruns[:window])
        else:
            j = min(pn + 1, qn)
            if aruns[j - 1][0] > ch:
                return False
            arrived = sum(nk for _, nk in aruns[:j])
        if mh > (arrived - consumed) // 2:
            return False
        consumed += mh
    return True
