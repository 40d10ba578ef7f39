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

from collections import deque
from functools import partial
from math import ceil, inf
from typing import NamedTuple

from .taskgraph import (
    GEQRT, TSMQR, TSQRT, TTMQR, TTQRT, UNMQR,
    Task, WeightModel, _tile,
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

    def __init__(self, p, q, steps):
        self.p = p
        self.q = q
        self.steps = dict(steps)

    @classmethod
    def of(cls, elim: EliminationList):
        """The table of a list's steps: (i,k) at the step that zeroes it."""
        return cls(elim.p, elim.q, {(i, k): s for i, _, k, s in elim.entries})

    def __call__(self, i, k):
        return self.steps[(i, k)]

    def cp(self):
        return max(self.steps.values(), default=0)

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


def _coarse_sameh_kuck(p, q):
    """Tile (i,k) is zeroed one step after both (i,k-1) and (i-1,k)."""
    order = []   # (step, k, i)
    last = [0] * (p + 1)   # the step of each row in the previous column
    for k in range(1, min(p, q) + 1):
        s = 0   # the step of the tile above
        for i in range(k + 1, p + 1):
            a = last[i]
            s = last[i] = (a if a > s else s) + 1
            order.append((s, k, i))
    order.sort()
    return [_entry((i, k, k, s)) for s, k, i in order]


# Fibonacci and Greedy zero a bunch of z consecutive tiles of a column at
# one step with the z rows right above them: elim(i, i - z, k).

def _coarse_fibonacci(p, q):
    """Column 1 is zeroed in bunches of 1, 2, 3, ... rows from row 2 down,
    bunch y at step x - y + 1; column k repeats it k - 1 rows lower and
    2(k - 1) steps later."""
    x = fibonacci_x(p)
    bunches = []   # (step, k, first row, last row + 1)
    for k in range(1, min(p, q) + 1):
        lo, y = k + 1, 1
        while lo <= p:
            hi = min(lo + y, p + 1)
            s = x - y + 2 * k - 1
            bunches.append((s, k, lo, hi))
            lo, y = hi, y + 1
    bunches.sort()
    entries = []
    for s, k, lo, hi in bunches:
        entries += [_entry((i, i - (hi - lo), k, s)) for i in range(lo, hi)]
    return entries


def _coarse_greedy(p, q):
    """At every step each column zeroes the bottom half of its available
    rows; a row zeroed at step s is available in the next column from
    step s+1.  A column's bottom rows move to the top of the next, so each
    column holds a block of consecutive rows right above the next one's,
    and its first row says which.  Columns before lo hold one row and are
    done; column k gets its first rows at the end of step k-1."""
    qq = min(p, q)
    top = [0, 1] + [p + 1] * qq   # top[k]: the first row of column k
    entries = []
    lo, s = 1, 0
    while True:
        while lo <= qq and top[lo + 1] - top[lo] < 2:
            lo += 1
        if lo > qq:
            return entries
        s += 1   # every size is read before a row moves, so a moved row waits a step
        for k, z in [(k, (top[k + 1] - top[k]) // 2) for k in range(lo, min(s, qq) + 1)]:
            if z:
                end = top[k + 1]
                top[k + 1] = first = end - z
                entries += [_entry((i, i - z, k, s)) for i in range(first, end)]


_COARSE = {"sameh-kuck": _coarse_sameh_kuck, "fibonacci": _coarse_fibonacci,
           "greedy": _coarse_greedy}


def coarse_schedule(p, q, algo):
    """Coarse time-step table plus elimination list for one of the three
    classical schemes."""
    _check_shape(p, q)
    schedule = _COARSE.get(algo)
    if schedule is None:
        raise ValueError(f"unknown coarse algorithm {algo!r}")
    elim = EliminationList(p, q, schedule(p, q))
    return CoarseTable.of(elim), elim


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
    rows1 = p + 1
    last = [0] * rows1   # with_steps(): the coarse step each row was last used
    pivot = [0] * rows1   # row -> its pivot in the current column
    for k in range(1, q + 1):
        # (i, piv) in tree order: each domain's rows against its head, then
        # the heads, a pair per two at each level of the binary tree
        pairs = [(i, i - (i - k) % bs) for i in range(k, rows1) if (i - k) % bs]
        level = range(k, rows1, bs)
        while len(level) > 1:
            pairs += zip(level[1::2], level[::2])
            level = level[::2]
        col = []   # step * (p + 1) + i: sorts by step, then row
        for i, piv in pairs:
            a, b = last[i], last[piv]
            s = last[i] = last[piv] = (a if a > b else b) + 1
            col.append(s * rows1 + i)
            pivot[i] = piv
        col.sort()
        entries += [_entry((key % rows1, pivot[key % rows1], k, key // rows1)) for key in col]
    return EliminationList(p, q, entries)


def binary_tree_list(p, q):
    return plasmatree_list(p, q, 1)


# ---------------------------------------------------------------------------
# tiled builder

# The tiles each kernel reads and writes, keyed by kind and called with the
# kernel's indices; the trace is built from this table alone.  A tile both
# read and written is one object.
KERNEL_TILES = {
    GEQRT: lambda i, k: ((_tile(("D", i, k)),), (_tile(("R", i, k)), _tile(("V", i, k)))),
    UNMQR: lambda i, k, j: ((_tile(("V", i, k)), d := _tile(("D", i, j))), (d,)),
    TTQRT: lambda i, piv, k: ((_tile(("R", i, k)), r := _tile(("R", piv, k))),
                              (r, _tile(("T", i, k)))),
    TSQRT: lambda i, piv, k: ((_tile(("D", i, k)), r := _tile(("R", piv, k))),
                              (r, _tile(("S", i, k)))),
    TTMQR: lambda i, piv, k, j: ((_tile(("T", i, k)), a := _tile(("D", i, j)),
                                  b := _tile(("D", piv, j))), (a, b)),
    TSMQR: lambda i, piv, k, j: ((_tile(("S", i, k)), a := _tile(("D", i, j)),
                                  b := _tile(("D", piv, j))), (a, b)),
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
    row i right of its last factored column, _tri[i] that of the triangle
    of row i in the column the row is in now.  One data time per row is
    exact: those tiles all start at 0, and each update bundle writes one
    time to all of columns k+1..q of its rows, so they always share a
    finish; every data tile read later lies among them.  One triangle time
    per row is exact on a valid list: entry (i, piv, k) reads the
    triangles of rows i and piv in column k, where neither is zeroed yet;
    under TT the zeroed row moves to column k+1 with a new triangle, and
    under TS a row holds a triangle in column k only once it has pivoted
    there.  run_list needs a valid list (tiled_build validates it).
    asap_times over the replayed trace (tiles from KERNEL_TILES)
    reproduces these times.
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
        self._tri = [0] * (p + 1)
        self._w = _LazyWeights(self.weights)

    def _geqrt_row(self, i, k):
        """GEQRT on tile (i,k) after the last write to row i, then UNMQR on
        columns k+1..q of the row; return the finish of the last."""
        counts, ws, q = self.counts, self._w, self.q
        counts[GEQRT] += 1
        fin = self._tri[i] = self._data[i] + ws[GEQRT]
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
            a, b = tri[i], tri[piv]
            fin = tri[piv] = zeroed[(i, k)] = (a if a > b else b) + wq
            if k < q:
                updates += q - k
                moved += 1
                d = data[i]
                if data[piv] > d:
                    d = data[piv]
                d = data[i] = data[piv] = (d if d > fin else fin) + wm
                fin = tri[i] = d + wg
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
        diagonal tiles are triangularized last.  col[r] is the column where
        row r last pivoted: the one where _tri[r] lies."""
        q = self.q
        tri, data, zeroed = self._tri, self._data, self.zeroed
        col = [0] * (self.p + 1)
        ws = self._w
        cp = self.cp
        pivots = unmqr = tt = updates = tt_updates = 0
        for i, piv, k, _ in elim:
            if col[piv] == k:
                b = tri[piv]
            else:   # _geqrt_row inline; the step below ends later
                b = data[piv] + ws[GEQRT]
                col[piv] = k
                pivots += 1
                if k < q:
                    unmqr += q - k
                    data[piv] = b + ws[UNMQR]
            if col[i] == k:
                a, kind, update = tri[i], TTQRT, TTMQR
                tt += 1
                tt_updates += q - k
            else:
                kind, update, a = TSQRT, TSMQR, data[i]
            fin = tri[piv] = zeroed[(i, k)] = (a if a > b else b) + ws[kind]
            if k < q:
                updates += q - k
                d = data[i]
                if data[piv] > d:
                    d = data[piv]
                fin = data[i] = data[piv] = (d if d > fin else fin) + ws[update]
            if fin > cp:
                cp = fin
        self.cp = max([cp] + [self._geqrt_row(k, k) for k in range(1, q + 1)
                              if col[k] != k])
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

    Columns run one at a time, left to right, which is exact: a row enters
    column k+1 only once it is zeroed in column k, so column k depends only
    on the rows it receives.  A column works in rounds keyed by (time,
    depth), depth counting the earlier rounds at that time, kept as the int
    time·span + depth (span exceeds the eliminations, so any depth): a row
    made ready at the time of the round that released it joins the next
    round at that time.  A round takes the rows arriving at its key and the
    one, if any, left waiting, and pairs its bottom 2s rows, the upper s
    pivoting for the lower s, as Fibonacci and Greedy pair them.  Each pair
    has a row arriving at the round's time and another no later, so every
    TTQRT of the round ends at that time plus the TTQRT weight: the pivots
    come back as one batch, in key order, and a column needs no heap.  One
    _run_tt call times the column's pairs in round order and leaves in _tri
    each target's arrival time in column k+1.  Each entry takes its
    with_steps() step as it fires, those of `prefix` being its with_steps()
    steps; entries return as a global event loop fires them: by round, then
    column, then pair.
    """
    p, q = build.p, build.q
    last = [0] * (p + 1)   # the coarse step each row was last used
    for i, piv, _, step in prefix:
        last[i] = last[piv] = step
    tri = build._tri
    span = (p + 1) * (q + 1)
    wq = build._w[TTQRT] * span
    arrive = sorted((tri[r] * span, r) for r in range(first_col, p + 1))
    out, keys = [], []   # entries column by column, and the round key of each
    for k in range(first_col, q + 1):
        start = len(out)
        arrive.append((inf, 0))   # a key after the last arrival
        ka, ra = arrive[0]
        a = 0
        wait = []   # the row left waiting, if any
        back = deque()   # (key, pivots) of each round that fired, in key order
        while True:
            if back and back[0][0] <= ka:
                key, rows = back.popleft()
                rows = wait + rows
                while back and back[0][0] == key:
                    rows += back.popleft()[1]
            elif ka == inf:
                break
            else:
                key, rows = ka, wait
            while ka == key:
                rows.append(ra)
                a += 1
                ka, ra = arrive[a]
            m = len(rows)
            if m < 2:
                wait = rows
                continue
            if m == 2:   # most rounds that fire fire one pair
                piv, tgt = rows
                if piv > tgt:
                    piv, tgt = tgt, piv
                pivs, wait = [piv], []
                x, y = last[tgt], last[piv]
                step = last[tgt] = last[piv] = (x if x > y else y) + 1
                out.append(_entry((tgt, piv, k, step)))
                keys.append(key)
            else:
                rows.sort()
                s = m // 2
                wait = rows[:m - 2 * s]
                pivs = rows[m - 2 * s:m - s]
                for piv, tgt in zip(pivs, rows[m - s:]):
                    x, y = last[tgt], last[piv]
                    step = last[tgt] = last[piv] = (x if x > y else y) + 1
                    out.append(_entry((tgt, piv, k, step)))
                keys += [key] * s
            back.append((key - key % span + wq if wq else key + 1, pivs))
        build._run_tt(out[start:])
        if k < q:
            arrive = []
            for e, key in zip(out[start:], keys[start:]):
                t = tri[e[0]] * span
                arrive.append((t if t > key else key + 1, e[0]))
            arrive.sort()
    return [out[n] for n in sorted(range(len(out)), key=keys.__getitem__)]


def grasap_build(p, q, i=1, weights=None, keep_trace=True) -> QrBuild:
    """Greedy on the first q-i columns, Asap on the trailing i (Asap is
    i = q).  Greedy column k depends only on columns < k, so the greedy
    schedule of q-i columns is the prefix, timed in one call.  An Asap
    column depends only on the rows it receives and when, so the Asap
    columns run one at a time, each in (time, depth) rounds whose pivots
    come back in one batch (_run_asap_columns)."""
    b = QrBuild(p, q, "TT", weights, keep_trace)
    if not (1 <= i <= q):
        raise ValueError("need 1 <= i <= q")
    b.preprocess_tt()
    static = _coarse_greedy(p, q - i)
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


def fibonacci_cp_bounds(p, q):
    """(low, high) with low <= the simulated Fibonacci cp < high (low at 4 x 4)."""
    _check_shape(p, q)
    low = 22 * q - 30
    high = 22 * q + 6 * ceil((2 * p) ** 0.5)
    return low, high
