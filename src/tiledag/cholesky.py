"""Trace generators for tiled Cholesky factorization and inversion.

The inversion is the classical three-step algorithm (factorize, invert the
triangular factor, multiply the transposed inverse by itself), emitted as a
sequential tile trace.  Loop reversal of the innermost GEMM loops, array
renaming (out-of-place temporaries B and C) and pipelining (barriers
between steps or not) are all configurable, and each has a closed-form
critical-path oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .taskgraph import (
    BARRIER, COPY, GEMM, LAUUM, POTRF, SYRK, TRMM, TRSM, TRTRI,
    Task, TileRef,
)

ASC = "U"   # ascending innermost GEMM loop
DESC = "D"  # descending


@dataclass(frozen=True)
class CholInvConfig:
    """Parameters of the inversion trace.

    loop_dirs gives the direction (U/D) of the innermost GEMM loop of each
    of the three steps; the reference setting is ("U", "D", "U").
    OutOfPlace copies the matrix into temporaries B (before step 2) and C
    (before step 3), removing all anti-dependences of those steps.
    """

    t: int
    out_of_place: bool = False
    loop_dirs: tuple = (ASC, DESC, ASC)
    pipelined: bool = True

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if len(self.loop_dirs) != 3 or any(d not in (ASC, DESC) for d in self.loop_dirs):
            raise ValueError("loop_dirs must be a triple of 'U'/'D'")


class _Emitter:
    def __init__(self):
        self.trace = []

    def emit(self, kind, indices, reads, writes):
        self.trace.append(Task(len(self.trace), kind, indices, reads, writes))

    def barrier(self):
        self.emit(BARRIER, (), (), ())


def _a(i, j):
    return TileRef("A", i, j)


def _krange(lo, hi, direction):
    r = range(lo, hi)
    return r if direction == ASC else reversed(r)


def _emit_fact_left(em, t, dir1=ASC):
    # Step 1 of the inversion algorithm: left-looking tile Cholesky.
    for j in range(t):
        for k in range(j):
            em.emit(SYRK, (j, k), [_a(j, k)], [_a(j, j)])
        em.emit(POTRF, (j,), [_a(j, j)], [_a(j, j)])
        for i in range(j + 1, t):
            for k in _krange(0, j, dir1):
                em.emit(GEMM, (i, j, k), [_a(i, k), _a(j, k)], [_a(i, j)])
        for i in range(j + 1, t):
            em.emit(TRSM, (i, j), [_a(j, j)], [_a(i, j)])


def _emit_fact_right(em, t):
    for k in range(t):
        em.emit(POTRF, (k,), [_a(k, k)], [_a(k, k)])
        for i in range(k + 1, t):
            em.emit(TRSM, (i, k), [_a(k, k)], [_a(i, k)])
        for i in range(k + 1, t):
            em.emit(SYRK, (i, k), [_a(i, k)], [_a(i, i)])
            for j in range(k + 1, i):
                em.emit(GEMM, (i, j, k), [_a(i, k), _a(j, k)], [_a(i, j)])


def _emit_fact_bordered(em, t):
    # row panel of j is brought up to date, then the diagonal tile
    for j in range(t):
        for k in range(j):
            for k2 in range(k):
                em.emit(GEMM, (j, k, k2), [_a(j, k2), _a(k, k2)], [_a(j, k)])
            em.emit(TRSM, (j, k), [_a(k, k)], [_a(j, k)])
        for k in range(j):
            em.emit(SYRK, (j, k), [_a(j, k)], [_a(j, j)])
        em.emit(POTRF, (j,), [_a(j, j)], [_a(j, j)])


def gen_chol_fact(t: int, variant: str = "right") -> list:
    """Tiled Cholesky factorization trace.

    All three variants produce the same task multiset (POTRF=t,
    TRSM=SYRK=t(t-1)/2, GEMM=t(t-1)(t-2)/6); only the trace order differs.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    em = _Emitter()
    if variant == "right":
        _emit_fact_right(em, t)
    elif variant == "left":
        _emit_fact_left(em, t)
    elif variant == "bordered":
        _emit_fact_bordered(em, t)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return em.trace


def _emit_trtri(em, t, direction, out_of_place):
    # Step 2: invert the triangular factor in place; reads of original L
    # entries go to B in the out-of-place variant.  The diagonal argument of
    # the leading TRMM differs between the variants: (j,j) in place, (i,i)
    # out of place.  This is the dependence structure that reproduces the
    # reference per-step and pipelined critical paths.
    if out_of_place:
        for i in range(t):
            for j in range(i + 1):
                em.emit(COPY, (i, j), [_a(i, j)], [TileRef("B", i, j)])

    def lref(i, j):
        return TileRef("B", i, j) if out_of_place else _a(i, j)

    for j in range(t - 1, -1, -1):
        em.emit(TRTRI, (j,), [_a(j, j)], [_a(j, j)])
        for i in range(t - 1, j, -1):
            diag = _a(i, i) if out_of_place else _a(j, j)
            em.emit(TRMM, (i, j), [diag], [_a(i, j)])
            for k in _krange(j + 1, i, direction):
                em.emit(GEMM, (i, j, k), [_a(i, k), lref(k, j)], [_a(i, j)])
            em.emit(TRMM, (i, j), [_a(i, i)], [_a(i, j)])


def _emit_lauum(em, t, direction, out_of_place):
    # Step 3: A^{-1} = L^{-T} L^{-1}; reads of L^{-1} go to C out of place.
    if out_of_place:
        for i in range(t):
            for j in range(i + 1):
                em.emit(COPY, (i, j), [_a(i, j)], [TileRef("C", i, j)])

    def lref(i, j):
        return TileRef("C", i, j) if out_of_place else _a(i, j)

    for i in range(t):
        for j in range(i):
            em.emit(TRMM, (i, j), [lref(i, i)], [_a(i, j)])
        em.emit(LAUUM, (i,), [_a(i, i)], [_a(i, i)])
        for j in range(i):
            for k in _krange(i + 1, t, direction):
                em.emit(GEMM, (i, j, k), [lref(k, i), lref(k, j)], [_a(i, j)])
        for k in range(i + 1, t):
            em.emit(SYRK, (i, k), [lref(k, i)], [_a(i, i)])


def gen_chol_inversion(cfg: CholInvConfig) -> list:
    """Three-step tile Cholesky inversion trace (steps separated by
    BARRIER tasks when cfg.pipelined is False)."""
    em = _Emitter()
    _emit_fact_left(em, cfg.t, cfg.loop_dirs[0])
    if not cfg.pipelined:
        em.barrier()
    _emit_trtri(em, cfg.t, cfg.loop_dirs[1], cfg.out_of_place)
    if not cfg.pipelined:
        em.barrier()
    _emit_lauum(em, cfg.t, cfg.loop_dirs[2], cfg.out_of_place)
    return em.trace


def inversion_steps(cfg: CholInvConfig):
    """The three per-step sub-traces of the inversion (task ids are
    reassigned so each sub-trace stands alone)."""
    cfg3 = CholInvConfig(cfg.t, cfg.out_of_place, cfg.loop_dirs, pipelined=False)
    trace = gen_chol_inversion(cfg3)
    steps, cur = [], []
    for task in trace:
        if task.kind == BARRIER:
            steps.append(cur)
            cur = []
        else:
            cur.append(task)
    steps.append(cur)
    out = []
    for sub in steps:
        out.append([Task(n, t.kind, t.indices, t.reads, t.writes) for n, t in enumerate(sub)])
    return out


_ORACLES = {
    "fact": lambda t: 9 * t - 10,
    "step1": lambda t: 3 * t - 2,
    "step2-in": lambda t: 3 * t - 3,
    "step2-out": lambda t: 2 * t - 1,
    "step3-in": lambda t: 3 * t - 2,
    "step3-out": lambda t: t,
    "pipe-in": lambda t: 9 * t - 9,
    "pipe-out": lambda t: 5 * t - 2,
    "nopipe-in": lambda t: 9 * t - 7,
    "nopipe-out": lambda t: 6 * t - 3,
    "trtri-uuu-in": lambda t: t * t - 2 * t + 3,
    "trtri-uuu-out": lambda t: (t * t - t) // 2 + 2,
}


def chol_cp_oracle(t: int, which: str) -> int:
    """Closed-form critical-path lengths: 9t-10 for the weighted
    factorization, the per-step/pipelined unit counts of the inversion, and
    the ascending-loop TRTRI penalties t^2-2t+3 and t^2/2-t/2+2."""
    if t < 2:
        raise ValueError("oracles are stated for t >= 2")
    try:
        f = _ORACLES[which]
    except KeyError:
        raise ValueError(f"unknown oracle {which!r}; one of {sorted(_ORACLES)}") from None
    return f(t)
