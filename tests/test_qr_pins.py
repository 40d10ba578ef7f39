"""sha256 pins of what the QR layer constructs.

QR_SHA256 covers q <= p <= 8: coarse tables and lists with their CSVs,
eager tables, and every tree's build (each bs and grasap i, both kernel
families, two weight models, with and without a trace).  The digest was
taken before the builders were folded into one construction path, so a
refactor that changes any value, order or task fails here.

LARGE_SHA256 covers the trace-free builds of 9 <= p <= 20, where rows
carry data through many columns; it was taken before trace-free timing
kept one data finish time per row.

ASAP_ZERO_SHA256 covers Asap and GrASAP under models where TTQRT takes no
time, so that eliminations fire in cascades at one event time, and
TS_ONLY_SHA256 covers TS builds under models that hold only the kernels
they run."""

import hashlib

from tiledag import (
    GEQRT, TSMQR, TSQRT, TTMQR, TTQRT, UNMQR,
    CoarseTable, WeightModel, build_tree, coarse_cp_oracle, coarse_schedule,
    grasap_build, zeroed_table_csv,
)

SKEWED = WeightModel({GEQRT: 3, UNMQR: 5, TTQRT: 1, TTMQR: 7, TSQRT: 2, TSMQR: 11})
# GEQRT, UNMQR and TSMQR take no time, so finishes tie across rows
ZERO_FACTOR = WeightModel({GEQRT: 0, UNMQR: 0, TTQRT: 2, TTMQR: 6, TSQRT: 6, TSMQR: 0})


def _trees(p, q):
    for algo in ("flattree", "fibonacci", "greedy", "binarytree"):
        for family in ("TT", "TS"):
            yield algo, family, {}
    for bs in range(1, p + 1):
        for family in ("TT", "TS"):
            yield "plasmatree", family, {"bs": bs}
    yield "asap", "TT", {}
    for i in range(1, q + 1):
        yield "grasap", "TT", {"grasap_i": i}


def _digest(pmax):
    h = hashlib.sha256()

    def put(*xs):
        h.update(repr(xs).encode())

    for p in range(1, pmax + 1):
        for q in range(1, p + 1):
            for algo in ("sameh-kuck", "fibonacci", "greedy"):
                table, elim = coarse_schedule(p, q, algo)
                # algo twice: the digest was taken when tables carried their scheme
                put(p, q, algo, algo, sorted(table.steps.items()), table.cp(),
                    table.to_csv(), list(elim), elim.to_csv(),
                    CoarseTable.of(elim.with_steps()).to_csv(), coarse_cp_oracle(p, q, algo))
            for algo, family, kw in _trees(p, q):
                for weights in (None, SKEWED):
                    for keep_trace in (False, True):
                        b = build_tree(p, q, algo, family=family, weights=weights,
                                       keep_trace=keep_trace, **kw)
                        put(p, q, algo, family, kw, keep_trace, sorted(b.zeroed.items()),
                            b.cp, b.counts, b.total_weight, list(b.elim),
                            b.elim.to_csv(), zeroed_table_csv(b))
                        if keep_trace:
                            put([(t.id, t.kind, t.indices, t.reads, t.writes)
                                 for t in b.trace])
    return h.hexdigest()


QR_SHA256 = "a10814724dcc7023084dc9542f79f6d9dcc2c0320aaa034ddca4d5f93520ab34"


def test_qr_outputs_pinned():
    assert _digest(8) == QR_SHA256


def _large_digest(pmin, pmax):
    h = hashlib.sha256()
    for p in range(pmin, pmax + 1):
        for q in range(1, p + 1):
            for algo, family, kw in _trees(p, q):
                for weights in (None, ZERO_FACTOR):
                    b = build_tree(p, q, algo, family=family, weights=weights,
                                   keep_trace=False, **kw)
                    h.update(repr((p, q, algo, family, kw, sorted(b.zeroed.items()),
                                   b.cp, b.counts, b.total_weight)).encode())
    return h.hexdigest()


LARGE_SHA256 = "843b3dcf43e15481f50436c6d541b409dc51a80e7f534652c5835017704fd993"


def test_large_trace_free_builds_pinned():
    assert _large_digest(9, 20) == LARGE_SHA256


# TTQRT takes no time, so eliminations and their follow-up events cascade
# within one event time of the Asap process.
ASAP_ZERO_MODELS = [
    WeightModel(dict(zip((GEQRT, UNMQR, TTQRT, TTMQR), ws)))
    for ws in ((0, 0, 0, 0), (4, 6, 0, 6), (0, 6, 0, 0), (1, 0, 0, 1))]


def _asap_zero_digest(pmax):
    h = hashlib.sha256()
    for weights in ASAP_ZERO_MODELS:
        for p in range(1, pmax + 1):
            for q in range(1, p + 1):
                for i in range(1, q + 1):
                    b = grasap_build(p, q, i, weights=weights, keep_trace=False)
                    h.update(repr((b.elim.entries, sorted(b.zeroed.items()), b.cp,
                                   b.counts, b.total_weight)).encode())
    return h.hexdigest()


ASAP_ZERO_SHA256 = "575c1683480e33c333e5aa1b124edab719238a6fae9ad9d7099b48fd1a4c5f65"


def test_asap_same_time_cascades_pinned():
    assert _asap_zero_digest(14) == ASAP_ZERO_SHA256


# Models that hold only the kernels a TS build runs: a FlatTree TS build
# runs no TTQRT or TTMQR, and a single column runs no update at all.
TS_ONLY = WeightModel({GEQRT: 3, UNMQR: 5, TSQRT: 2, TSMQR: 11})
TS_FACTOR_ONLY = WeightModel({GEQRT: 3, TSQRT: 2})


def _ts_only_digest(pmax):
    h = hashlib.sha256()
    for p in range(1, pmax + 1):
        cases = [(q, TS_ONLY) for q in range(1, p + 1)] + [(1, TS_FACTOR_ONLY)]
        for q, weights in cases:
            b = build_tree(p, q, "flattree", family="TS", weights=weights, keep_trace=False)
            h.update(repr((p, q, sorted(b.zeroed.items()), b.cp, b.counts,
                           b.total_weight)).encode())
    return h.hexdigest()


TS_ONLY_SHA256 = "469fafa0fbd89f1b51a0fa50ea9ff5b0e71096a4698b516de206353b9fdb2b3d"


def test_ts_builds_read_only_the_weights_they_run():
    assert _ts_only_digest(16) == TS_ONLY_SHA256
