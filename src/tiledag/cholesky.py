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
from itertools import chain

from .taskgraph import (
    BARRIER, COPY, GEMM, LAUUM, POTRF, SYRK, TRMM, TRSM, TRTRI, _tile, trace_of,
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


def _a(i, j):
    return _tile(("A", i, j))


# kind -> tiles(indices) = (reads, writes) of each factorization kernel
FACT_TILES = {
    POTRF: lambda j: ((a := _a(j, j),), (a,)),
    TRSM: lambda i, j: ((_a(j, j),), (_a(i, j),)),
    SYRK: lambda i, k: ((_a(i, k),), (_a(i, i),)),
    GEMM: lambda i, j, k: ((_a(i, k), _a(j, k)), (_a(i, j),)),
}


def _krange(lo, hi, direction):
    r = range(lo, hi)
    return r if direction == ASC else reversed(r)


def _fact_left(t, dir1=ASC):
    # Step 1 of the inversion algorithm: left-looking tile Cholesky.
    for j in range(t):
        for k in range(j):
            yield SYRK, (j, k)
        yield POTRF, (j,)
        for i in range(j + 1, t):
            for k in _krange(0, j, dir1):
                yield GEMM, (i, j, k)
        for i in range(j + 1, t):
            yield TRSM, (i, j)


def _fact_right(t):
    for k in range(t):
        yield POTRF, (k,)
        for i in range(k + 1, t):
            yield TRSM, (i, k)
        for i in range(k + 1, t):
            yield SYRK, (i, k)
            for j in range(k + 1, i):
                yield GEMM, (i, j, k)


def _fact_bordered(t):
    # row panel of j is brought up to date, then the diagonal tile
    for j in range(t):
        for k in range(j):
            for k2 in range(k):
                yield GEMM, (j, k, k2)
            yield TRSM, (j, k)
        for k in range(j):
            yield SYRK, (j, k)
        yield POTRF, (j,)


_FACT_ORDERS = {"right": _fact_right, "left": _fact_left, "bordered": _fact_bordered}


def _with_tiles(kernels):
    """(kind, indices) -> (kind, indices, reads, writes) through FACT_TILES."""
    for kind, idx in kernels:
        yield (kind, idx, *FACT_TILES[kind](*idx))


def gen_chol_fact(t: int, variant: str = "right") -> list:
    """Tiled Cholesky factorization trace.

    All three variants produce the same task multiset (POTRF=t,
    TRSM=SYRK=t(t-1)/2, GEMM=t(t-1)(t-2)/6); only the trace order differs.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if variant not in _FACT_ORDERS:
        raise ValueError(f"unknown variant {variant!r}")
    return trace_of(_with_tiles(_FACT_ORDERS[variant](t)))


def _copies(t, dst):
    for i in range(t):
        for j in range(i + 1):
            yield COPY, (i, j), (_a(i, j),), (_tile((dst, i, j)),)


def _trtri(t, direction, out_of_place):
    # Step 2: invert the triangular factor in place; reads of original L
    # entries go to B in the out-of-place variant.  The diagonal argument of
    # the leading TRMM differs between the variants: (j,j) in place, (i,i)
    # out of place.  This is the dependence structure that reproduces the
    # reference per-step and pipelined critical paths.
    src = "B" if out_of_place else "A"
    if out_of_place:
        yield from _copies(t, src)
    for j in range(t - 1, -1, -1):
        yield TRTRI, (j,), (_a(j, j),), (_a(j, j),)
        for i in range(t - 1, j, -1):
            diag = _a(i, i) if out_of_place else _a(j, j)
            yield TRMM, (i, j), (diag,), (_a(i, j),)
            for k in _krange(j + 1, i, direction):
                yield GEMM, (i, j, k), (_a(i, k), _tile((src, k, j))), (_a(i, j),)
            yield TRMM, (i, j), (_a(i, i),), (_a(i, j),)


def _lauum(t, direction, out_of_place):
    # Step 3: A^{-1} = L^{-T} L^{-1}; reads of L^{-1} go to C out of place.
    src = "C" if out_of_place else "A"
    if out_of_place:
        yield from _copies(t, src)
    for i in range(t):
        for j in range(i):
            yield TRMM, (i, j), (_tile((src, i, i)),), (_a(i, j),)
        yield LAUUM, (i,), (_a(i, i),), (_a(i, i),)
        for j in range(i):
            for k in _krange(i + 1, t, direction):
                yield GEMM, (i, j, k), (_tile((src, k, i)), _tile((src, k, j))), (_a(i, j),)
        for k in range(i + 1, t):
            yield SYRK, (i, k), (_tile((src, k, i)),), (_a(i, i),)


def _inversion_streams(cfg):
    d1, d2, d3 = cfg.loop_dirs
    return (_with_tiles(_fact_left(cfg.t, d1)),
            _trtri(cfg.t, d2, cfg.out_of_place),
            _lauum(cfg.t, d3, cfg.out_of_place))


def gen_chol_inversion(cfg: CholInvConfig) -> list:
    """Three-step tile Cholesky inversion trace (steps separated by
    BARRIER tasks when cfg.pipelined is False)."""
    s1, s2, s3 = _inversion_streams(cfg)
    barrier = () if cfg.pipelined else [(BARRIER, (), (), ())]
    return trace_of(chain(s1, barrier, s2, barrier, s3))


def inversion_steps(cfg: CholInvConfig):
    """The three per-step sub-traces of the inversion, each numbered from
    0 so that it stands alone."""
    return [trace_of(s) for s in _inversion_streams(cfg)]


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
