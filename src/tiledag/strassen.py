"""Tiled matrix multiplication and recursive Strassen-Winograd traces.

The recursive algorithm splits the tile grid in half, forms 8 temporary
sums, 7 recursive products into fresh temporaries and 7 more sums into the
result quadrants; below the recursion cutoff the product is the plain
triple-loop tiled multiply with ascending-k accumulation.  Analytic
counters give the task count, flop count, critical path, task-minimizing
recursion depth and temporary-tile usage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

from .taskgraph import GEADD, GEMM, TileRef, WeightModel, trace_of


@dataclass(frozen=True)
class StrassenParams:
    """p: tiles per side (a power of two); r: recursion levels;
    n_b: tile order, giving m = 2 n_b^3 - n_b^2 flops per tile multiply
    and a = n_b^2 per tile add."""

    p: int
    r: int
    n_b: int = 200

    def __post_init__(self):
        if self.p < 1 or (self.p & (self.p - 1)):
            raise ValueError("p must be a power of two")
        if not (0 <= self.r <= int(math.log2(self.p))):
            raise ValueError("need 0 <= r <= log2(p)")
        if self.n_b < 1:
            raise ValueError("n_b must be positive")

    @property
    def m(self):
        return 2 * self.n_b ** 3 - self.n_b ** 2

    @property
    def a(self):
        return self.n_b ** 2


class _View:
    """A square window of a named tile array."""

    __slots__ = ("name", "r0", "c0", "n")

    def __init__(self, name, r0, c0, n):
        self.name = name
        self.r0 = r0
        self.c0 = c0
        self.n = n

    def tile(self, i, j):
        return TileRef(self.name, self.r0 + i, self.c0 + j)

    def quad(self, qi, qj):
        h = self.n // 2
        return _View(self.name, self.r0 + qi * h, self.c0 + qj * h, h)


def _tiled_gemm(A, B, C):
    n = A.n
    for i in range(n):
        for j in range(n):
            c = C.tile(i, j)
            for k in range(n):
                # ascending-k accumulation, serialized per output tile
                yield GEMM, (C.r0 + i, C.c0 + j, k), (A.tile(i, k), B.tile(k, j), c), (c,)


def _tiled_geadd(A, B, C):
    n = A.n
    for i in range(n):
        for j in range(n):
            yield GEADD, (C.r0 + i, C.c0 + j), (A.tile(i, j), B.tile(i, j)), (C.tile(i, j),)


def _gesw(A, B, C, r, fresh):
    """Kernels of C = A B with r recursion levels; fresh(label, n) makes
    each temporary."""
    if r == 0:
        yield from _tiled_gemm(A, B, C)
        return
    h = A.n // 2
    a11, a12, a21, a22 = A.quad(0, 0), A.quad(0, 1), A.quad(1, 0), A.quad(1, 1)
    b11, b12, b21, b22 = B.quad(0, 0), B.quad(0, 1), B.quad(1, 0), B.quad(1, 1)
    c11, c12, c21, c22 = C.quad(0, 0), C.quad(0, 1), C.quad(1, 0), C.quad(1, 1)
    t1, t2, t3, t4, t5, t6, t7, t8 = (fresh(f"T{n}", h) for n in range(1, 9))
    q1, q2, q3, q4, q5, q6, q7 = (fresh(f"Q{n}", h) for n in range(1, 8))
    u1, u2, u3 = (fresh(f"U{n}", h) for n in range(1, 4))
    # phase 1
    for x, y, z in ((a21, a22, t1), (t1, a11, t2), (a11, a21, t3), (a12, t2, t4),
                    (b12, b11, t5), (b22, t5, t6), (b22, b12, t7), (t6, b21, t8)):
        yield from _tiled_geadd(x, y, z)
    # phase 2: seven recursive products
    for x, y, z in ((t2, t6, q1), (a11, b11, q2), (a12, b21, q3), (t3, t7, q4),
                    (t1, t5, q5), (t4, b22, q6), (a22, t8, q7)):
        yield from _gesw(x, y, z, r - 1, fresh)
    # phase 3
    for x, y, z in ((q1, q2, u1), (u1, q4, u2), (q5, q6, u3), (q2, q3, c11),
                    (u1, u3, c12), (u2, q7, c21), (u2, q5, c22)):
        yield from _tiled_geadd(x, y, z)


def gen_tiled_gemm(n: int) -> list:
    """Triple-loop tiled product: n^3 GEMM tasks, ascending-k chains."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return trace_of(_tiled_gemm(*(_View(x, 0, 0, n) for x in "ABC")))


def gen_strassen(params: StrassenParams):
    """Recursive Strassen-Winograd trace; returns (trace, temp_tiles).
    Temporaries are named in creation order (T1#1, ...), and temp_tiles
    sums their tiles."""
    temps = 0
    uid = count(1)

    def fresh(label, n):
        nonlocal temps
        temps += n * n
        return _View(f"{label}#{next(uid)}", 0, 0, n)

    abc = (_View(x, 0, 0, params.p) for x in "ABC")
    return trace_of(_gesw(*abc, params.r, fresh)), temps


def _kernel_counts(p, r):
    """(GEMM, GEADD) task counts: 7^r leaf products of (p/2^r)^3 GEMMs, and
    15 adds of (p/2^(d+1))^2 tiles in each of the 7^d calls at depth d < r."""
    geadds = sum(15 * 7 ** d * (p >> d + 1) ** 2 for d in range(r))
    return 7 ** r * (p >> r) ** 3, geadds


def strassen_task_count(p, r):
    return sum(_kernel_counts(p, r))


def strassen_cp(p, r, weights: WeightModel):
    """Critical path of gen_strassen(StrassenParams(p, r)) under `weights`:
    (p/2^r) w[GEMM] + 5r w[GEADD], for every nonnegative weight pair.

    Proof.  No task writes A or B, and every temporary is fresh, so each
    tile is written once, except a leaf product's output tile, which its
    ascending-k GEMM chain rewrites, each write after the same task's read.
    So the hazard DAG has only last-writer-to-reader edges.  A product's
    inputs come from its call's inputs through phase-1 adds, never from a
    product, so a path runs down through phase-1 adds of nested calls,
    along one output tile's chain (at most p/2^r GEMMs), and back up
    through phase-3 adds of the same calls.  In each call it enters and
    leaves through one product Qk, so it takes at most d + u adds, with
    (d, u) the longest phase-1 chain into Qk and phase-3 chain out of it:
    Q1 (2, 3), Q2 (0, 3), Q3 (0, 1), Q4 (1, 2), Q5 (1, 2), Q6 (3, 2),
    Q7 (3, 1); at most 5.  Both maxima are met on one path: through Q1 at
    each level (T1 -> T2 down, U1 -> U2 -> C21 up, tile-wise at any
    position), from the A tile that reaches column 0 of a leaf's A, along
    that row's whole GEMM chain.
    """
    return (p >> r) * weights[GEMM] + 5 * r * weights[GEADD]


def strassen_flops(params: StrassenParams):
    gemms, geadds = _kernel_counts(params.p, params.r)
    return params.m * gemms + params.a * geadds


def gemm_flops(p, n_b=200):
    m = 2 * n_b ** 3 - n_b ** 2
    return m * p ** 3


def r_min(p):
    """Recursion level minimizing the task count (at least one level, as
    zero recursion is the plain tiled product)."""
    if p < 2 or (p & (p - 1)):
        raise ValueError("p must be a power of two >= 2")
    x = p * math.log(8 / 7) / (5 * math.log(7 / 4))
    return max(1, math.ceil(math.log2(x)))


def temp_tile_count(p, r):
    """18 temporaries of (p/2)^2 tiles per recursion level, recursively."""
    if r == 0:
        return 0
    h = p // 2
    return 18 * h * h + 7 * temp_tile_count(h, r - 1)


def strassen_weight_model(n_b=200) -> WeightModel:
    """Durations proportional to flops, normalized so the cheapest task
    (the tile add) weighs 1: GEMM = 2 n_b - 1, GEADD = 1."""
    return WeightModel({GEMM: 2 * n_b - 1, GEADD: 1})


def counters_csv(rows):
    lines = ["p,r,tasks,flops,cp,temp_tiles"]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
