import hashlib
import random
from collections import Counter

import pytest

from tiledag import (
    GEQRT, TSMQR, TSQRT, TTMQR, TTQRT, UNMQR,
    ElimEntry, EliminationList, QrBuild, WeightModel, annotate_cp,
    asap_times, build_from_trace, build_tree, coarse_schedule, eager_coarse,
    elim_weight, fibonacci_cp_bounds, fibonacci_x, flattree_cp_composed,
    flattree_cp_oracle, plasmatree_list, tiled_build, tiled_translation,
    total_weight, verify_weight,
)

# Tiled zeroed-time tables for 15 x 6 (rows 2..15).
T23 = {
    "flattree": [[6], [8, 28], [10, 34, 50], [12, 40, 56, 72], [14, 46, 62, 78, 94],
                 [16, 52, 68, 84, 100, 116], [18, 58, 74, 90, 106, 122],
                 [20, 64, 80, 96, 112, 128], [22, 70, 86, 102, 118, 134],
                 [24, 76, 92, 108, 124, 140], [26, 82, 98, 114, 130, 146],
                 [28, 88, 104, 120, 136, 152], [30, 94, 110, 126, 142, 158],
                 [32, 100, 116, 132, 148, 164]],
    "fibonacci": [[14], [12, 48], [12, 46, 70], [10, 42, 68, 92], [10, 40, 64, 90, 114],
                  [10, 40, 62, 86, 112, 136], [8, 36, 62, 84, 108, 134],
                  [8, 34, 58, 84, 106, 130], [8, 34, 56, 80, 106, 128],
                  [8, 34, 56, 78, 102, 128], [6, 28, 56, 78, 100, 122],
                  [6, 28, 50, 78, 100, 122], [6, 28, 44, 72, 100, 122],
                  [6, 22, 44, 60, 94, 116]],
    "greedy": [[12], [10, 42], [10, 40, 64], [8, 36, 62, 86], [8, 34, 56, 84, 106],
               [8, 34, 56, 78, 102, 128], [8, 30, 52, 78, 100, 122],
               [6, 28, 50, 72, 100, 118], [6, 28, 50, 72, 94, 116],
               [6, 28, 50, 68, 94, 116], [6, 28, 44, 66, 88, 110],
               [6, 22, 44, 66, 88, 110], [6, 22, 44, 60, 82, 104],
               [6, 22, 38, 60, 76, 98]],
    "binarytree": [[6], [8, 28], [6, 36, 56], [10, 34, 70, 90], [6, 44, 68, 104, 124],
                   [8, 28, 78, 102, 138, 158], [6, 42, 62, 112, 136, 172],
                   [12, 40, 76, 96, 146, 170], [6, 46, 74, 110, 130, 180],
                   [8, 28, 80, 108, 144, 164], [6, 36, 56, 114, 142, 178],
                   [10, 34, 64, 84, 148, 176], [6, 38, 62, 92, 112, 182],
                   [8, 28, 66, 90, 114, 134]],
    "plasmatree5": [[6], [8, 28], [10, 34, 50], [12, 40, 56, 72], [14, 46, 62, 78, 94],
                    [6, 54, 74, 90, 106, 122], [8, 28, 82, 102, 118, 134],
                    [10, 34, 50, 110, 130, 146], [12, 40, 56, 72, 138, 158],
                    [16, 52, 68, 84, 100, 166], [6, 56, 80, 96, 112, 128],
                    [8, 28, 84, 108, 124, 140], [10, 34, 50, 112, 136, 152],
                    [12, 40, 56, 72, 140, 164]],
}

# Asap/Greedy zeroed times on 15 x 3 (reference comparison columns).
GREEDY_15x3 = {1: [12, 10, 10, 8, 8, 8, 8, 6, 6, 6, 6, 6, 6, 6],
               2: [42, 40, 36, 34, 34, 30, 28, 28, 28, 28, 22, 22, 22],
               3: [64, 62, 56, 56, 52, 50, 50, 50, 44, 44, 44, 38]}
ASAP_15x3 = {1: [12, 10, 10, 8, 8, 8, 8, 6, 6, 6, 6, 6, 6, 6],
             2: [40, 36, 34, 32, 30, 28, 28, 26, 24, 24, 22, 22, 22],
             3: [86, 80, 74, 68, 62, 56, 50, 46, 44, 44, 40, 38]}


@pytest.mark.parametrize("name", sorted(T23))
def test_zeroed_tables_15x6(name):
    algo, bs = (name, None) if name != "plasmatree5" else ("plasmatree", 5)
    b = build_tree(15, 6, algo, bs=bs)
    for r, row in enumerate(T23[name], start=2):
        got = [b.zeroed.get((r, k)) for k in range(1, min(r - 1, 6) + 1)]
        assert got == row, (name, r)
    assert verify_weight(b)


def test_flattree_cp_and_spec_cells():
    b = build_tree(15, 6, "flattree")
    assert b.zeroed[(2, 1)] == 6 and b.zeroed[(15, 6)] == 164 and b.cp == 164
    g = build_tree(15, 6, "greedy")
    assert g.zeroed[(15, 6)] == 98
    f = build_tree(15, 6, "fibonacci")
    assert f.zeroed[(15, 6)] == 116
    pt = build_tree(15, 6, "plasmatree", bs=5)
    assert pt.zeroed[(15, 6)] == 164 and pt.zeroed[(7, 1)] == 6


def test_single_tile():
    b = build_tree(1, 1, "flattree")
    assert len(b.trace) == 1 and b.trace[0].kind == "GEQRT"
    assert b.total_weight == 4 == total_weight(1, 1)
    bs = build_tree(1, 1, "greedy", family="TS")
    assert bs.total_weight == 4


def test_total_weight_formula_and_conservation():
    assert total_weight(5, 5) == 500
    assert total_weight(15, 6) == 2808
    for name in ("flattree", "greedy"):
        b = build_tree(15, 6, name)
        assert b.total_weight == 2808
    b = build_tree(15, 6, "flattree", family="TS")
    assert b.total_weight == 2808
    for p in range(1, 10):
        for q in range(1, p + 1):
            for algo in ("flattree", "fibonacci", "greedy", "binarytree", "asap", "grasap"):
                for family in (("TT", "TS") if algo not in ("asap", "grasap") else ("TT",)):
                    assert verify_weight(build_tree(p, q, algo, family=family,
                                                    keep_trace=False)), (p, q, algo, family)


def test_elim_weight_identity():
    for q in range(1, 8):
        for k in range(1, q + 1):
            ts_bundle = 4 + 6 + (6 + 12) * (q - k)
            tt_bundle = 2 * (4 + 6 * (q - k)) + 2 + 6 * (q - k)
            assert elim_weight(q, k) == ts_bundle == tt_bundle == 10 + 18 * (q - k)


def test_flattree_closed_form():
    assert flattree_cp_oracle(15, 6) == 164
    assert flattree_cp_oracle(40, 1) == 82
    assert flattree_cp_oracle(4, 4) == 64
    assert build_tree(4, 4, "flattree").cp == 64
    for p in range(2, 16):
        for q in range(1, p + 1):
            cp = build_tree(p, q, "flattree", keep_trace=False).cp
            assert cp == flattree_cp_oracle(p, q) == flattree_cp_composed(p, q)


def test_fibonacci_bounds():
    lo, hi = fibonacci_cp_bounds(40, 2)
    cp = build_tree(40, 2, "fibonacci", keep_trace=False).cp
    assert cp == 72 and lo < cp < hi and (lo, hi) == (14, 44 + 6 * 9)
    b156 = build_tree(15, 6, "fibonacci")
    lo2, hi2 = fibonacci_cp_bounds(15, 6)
    # the bottom-right zeroed time is 116; the cp runs through row 7's updates
    assert b156.zeroed[(15, 6)] == 116 and b156.cp == 136
    assert lo2 < b156.cp < hi2
    assert build_tree(2, 1, "fibonacci").cp == 6
    for p in (5, 12, 25, 40):
        for q in range(2, min(p, 7) + 1):
            cp = build_tree(p, q, "fibonacci", keep_trace=False).cp
            x = fibonacci_x(p)
            lo, hi = fibonacci_cp_bounds(p, q)
            assert lo < cp < hi
            # the sharper derivation bracket presumes the shifted pattern has
            # no slack against its own dependencies; upper side always holds
            assert cp < 10 * q + 6 * (x + 2 * q - 2)
    for p in (15, 25, 40):
        cp = build_tree(p, 2, "fibonacci", keep_trace=False).cp
        x = fibonacci_x(p)
        assert 10 + 6 * x + 4 <= cp < 20 + 6 * (x + 2)


def ttmqr_finishes(build):
    """(i, k, finish) of every TTMQR update of the elimination of tile
    (i, k) in a TT build, timed over its trace."""
    fins, _ = asap_times(build.trace, WeightModel.qr_tt())
    return [(t.indices[0], t.indices[2], fins[t.id])
            for t in build.trace if t.kind == TTMQR]


def test_translation_theorem_eager():
    for p in (3, 5, 9, 13):
        for q in range(2, p + 1):
            for algo in ("sameh-kuck", "fibonacci", "greedy"):
                table, elim = coarse_schedule(p, q, algo)
                eager = eager_coarse(elim)
                for i, k, fin in ttmqr_finishes(tiled_build(elim)):
                    assert fin == tiled_translation(i, k, eager), (algo, p, q, i, k)


def test_translation_theorem_scheduled_tables():
    # the busy algorithms' scheduled tables equal their dependence-driven
    # steps, so the translation holds against them directly; Fibonacci's
    # shifted pattern carries slack and only its eager steps translate
    for algo in ("sameh-kuck", "greedy"):
        for p in (4, 9, 15):
            for q in range(2, p + 1):
                table, elim = coarse_schedule(p, q, algo)
                for i, k, fin in ttmqr_finishes(tiled_build(elim)):
                    assert fin == tiled_translation(i, k, table)
    table, elim = coarse_schedule(15, 6, "fibonacci")
    eager = eager_coarse(elim)
    for i, k, fin in ttmqr_finishes(tiled_build(elim)):
        want = tiled_translation(i, k, eager)
        assert fin == want
        assert want <= 10 * k + 6 * table(i, k)


def test_translation_flattree_first_column():
    table, elim = coarse_schedule(4, 3, "sameh-kuck")
    b = tiled_build(elim)
    assert tiled_translation(2, 1, table) == 16
    assert [fin for i, k, fin in ttmqr_finishes(b) if (i, k) == (2, 1)] == [16, 16]
    assert b.zeroed[(2, 1)] == 6
    with pytest.raises(ValueError):
        tiled_translation(4, 3, table)


def test_cp_bracket_corollaries():
    for p in range(2, 13):
        for q in range(2, p + 1):
            for algo in ("sameh-kuck", "fibonacci", "greedy"):
                _, elim = coarse_schedule(p, q, algo)
                eager = eager_coarse(elim)
                cp = tiled_build(elim, keep_trace=False).cp
                cmax = lambda k: max(eager(i, k) for i in range(k + 1, p + 1))
                lo = 10 * (q - 1) + 6 * cmax(q - 1)
                if p == q:
                    assert cp == lo + 4, (algo, p, q)
                else:
                    assert lo + 6 <= cp < 10 * q + 6 * cmax(q), (algo, p, q)


def test_ts_graph_structure_and_cp():
    b = build_tree(15, 6, "flattree", family="TS")
    counts = Counter(t.kind for t in b.trace)
    assert counts["GEQRT"] == 6 and counts["TTQRT"] == 0
    assert counts["TSQRT"] == sum(15 - k for k in range(1, 7))
    for p in range(2, 11):
        for q in range(1, p + 1):
            for algo in ("flattree", "greedy", "fibonacci", "binarytree"):
                tt = build_tree(p, q, algo, family="TT", keep_trace=False)
                ts = build_tree(p, q, algo, family="TS", keep_trace=False)
                assert ts.cp >= tt.cp, (p, q, algo)


def test_plasmatree_degenerate_domains():
    for p, q in ((6, 3), (9, 4)):
        pt = sorted((e.i, e.piv, e.k) for e in plasmatree_list(p, q, p))
        ft = sorted((e.i, e.piv, e.k) for e in coarse_schedule(p, q, "sameh-kuck")[1])
        assert pt == ft
        b1 = build_tree(p, q, "plasmatree", bs=1, keep_trace=False)
        b2 = build_tree(p, q, "binarytree", keep_trace=False)
        assert b1.cp == b2.cp and b1.zeroed == b2.zeroed
    with pytest.raises(ValueError):
        plasmatree_list(5, 3, 0)
    with pytest.raises(ValueError):
        plasmatree_list(5, 3, 6)


def test_plasmatree_list_is_a_prefix_of_the_square_list():
    # qr-cp-table times the first q columns of one p x p list per domain size
    for p in range(1, 17):
        for bs in range(1, p + 1):
            full = plasmatree_list(p, p, bs).entries
            for q in range(1, p + 1):
                part = plasmatree_list(p, q, bs).entries
                assert part == full[:len(part)] == [e for e in full if e.k <= q], (p, q, bs)


def test_asap_spec_values():
    b2 = build_tree(15, 2, "asap")
    col2 = [b2.zeroed[(i, 2)] for i in range(3, 16)]
    assert max(col2) == 40
    g2 = build_tree(15, 2, "greedy")
    assert max(g2.zeroed[(i, 2)] for i in range(3, 16)) == 42
    b3 = build_tree(15, 3, "asap")
    assert b3.zeroed[(4, 3)] == 86
    assert build_tree(15, 3, "greedy").zeroed[(4, 3)] == 64
    for k, col in ASAP_15x3.items():
        assert [b3.zeroed[(i, k)] for i in range(k + 1, 16)] == col
    g3 = build_tree(15, 3, "greedy")
    for k, col in GREEDY_15x3.items():
        assert [g3.zeroed[(i, k)] for i in range(k + 1, 16)] == col


def test_asap_vs_greedy_cp_pairs():
    pairs = {(16, 16): (310, 310), (32, 16): (360, 402), (32, 32): (650, 656),
             (64, 16): (374, 588)}
    for (p, q), (g, a) in pairs.items():
        assert build_tree(p, q, "greedy", keep_trace=False).cp == g
        assert build_tree(p, q, "asap", keep_trace=False).cp == a


def test_grasap_values():
    assert build_tree(20, 6, "grasap", keep_trace=False).cp == 134
    assert build_tree(20, 6, "greedy", keep_trace=False).cp == 136
    b = build_tree(5, 5, "grasap", keep_trace=False)
    assert b.cp <= 80
    for p in range(1, 21):
        for q in range(1, p + 1):
            d = build_tree(p, q, "greedy", keep_trace=False).cp - \
                build_tree(p, q, "grasap", keep_trace=False).cp
            assert d in (0, 2), (p, q, d)


def test_grasap_i_parameter():
    for p, q in ((8, 4), (12, 5)):
        asap = build_tree(p, q, "asap", keep_trace=False)
        degenerate = build_tree(p, q, "grasap", grasap_i=q, keep_trace=False)
        assert asap.cp == degenerate.cp and asap.zeroed == degenerate.zeroed
    with pytest.raises(ValueError):
        build_tree(4, 3, "grasap", grasap_i=5)


def test_builder_times_match_hazard_graph():
    w = WeightModel.qr_tt()
    for p, q, algo in ((5, 3, "greedy"), (6, 4, "flattree"), (7, 3, "asap"),
                       (6, 3, "binarytree"), (5, 5, "grasap")):
        b = build_tree(p, q, algo)
        fins, cp = asap_times(b.trace, w)
        g = build_from_trace(b.trace)
        ann = annotate_cp(g, w)
        assert cp == ann.cp_length == b.cp
        for t in b.trace:
            assert fins[t.id] == ann.earliest[t.id] + w.of(t)


def test_ts_times_match_hazard_graph():
    w = WeightModel.qr_tt()
    for p, q in ((5, 3), (6, 4)):
        b = build_tree(p, q, "greedy", family="TS", weights=w)
        g = build_from_trace(b.trace)
        ann = annotate_cp(g, w)
        assert ann.cp_length == b.cp


def test_tiled_build_entry_point():
    _, elim = coarse_schedule(4, 3, "greedy")
    trace = tiled_build(elim, "TT").trace
    assert Counter(t.kind for t in trace)["TTQRT"] == len(elim)
    bad = type(elim)(4, 3, elim.entries[:2])
    with pytest.raises(ValueError, match="incomplete"):
        tiled_build(bad, "TT")


def random_elim_list(p, q, rng):
    """A random valid elimination list: any ready target below the column's
    diagonal against any other ready row, so reverse eliminations (pivot
    below target) and ex-pivot targets occur."""
    qq = min(p, q)
    ready = [[] for _ in range(qq + 2)]
    ready[1] = list(range(1, p + 1))
    entries = []
    while True:
        cols = [k for k in range(1, qq + 1) if len(ready[k]) >= 2]
        if not cols:
            return EliminationList(p, q, entries)
        k = rng.choice(cols)
        i = rng.choice([r for r in ready[k] if r > k])
        piv = rng.choice([r for r in ready[k] if r != i])
        ready[k].remove(i)
        ready[k + 1].append(i)
        entries.append(ElimEntry(i, piv, k))


# distinct weights, so that a kernel timed with another's weight shows
SKEWED = WeightModel({GEQRT: 3, UNMQR: 5, TTQRT: 1, TTMQR: 7, TSQRT: 2, TSMQR: 11})
TT_ONLY = WeightModel({GEQRT: 4, UNMQR: 6, TTQRT: 2, TTMQR: 6})
# only the pair kernels and TSQRT take time, so many finishes tie
ZERO_FACTOR = WeightModel({GEQRT: 0, UNMQR: 0, TTQRT: 2, TTMQR: 6, TSQRT: 6, TSMQR: 0})
FACTOR_ONLY = WeightModel({GEQRT: 4, TTQRT: 2})


def _engine_cases():
    rng = random.Random(2013)
    # the larger lists make rows carry data through many columns
    for ns, pmin, pmax, models in ((range(80), 1, 9, (None, SKEWED)),
                                   (range(80, 110), 10, 14, (None, SKEWED, ZERO_FACTOR))):
        for n in ns:
            p = rng.randint(pmin, pmax)
            q = rng.randint(1, p)
            elim = random_elim_list(p, q, rng)
            elim.validate()
            for family in ("TT", "TS"):
                w = models[n % len(models)]
                yield (f"random{n}-{family}", w,
                       lambda kt, p=p, q=q, f=family, w=w, e=elim:
                       QrBuild(p, q, f, w, kt).run_list(e))
    for p, q in ((9, 4), (7, 7), (8, 1)):
        for algo in ("flattree", "fibonacci", "greedy", "binarytree", "plasmatree",
                     "asap", "grasap"):
            families = ("TT",) if algo in ("asap", "grasap") else ("TT", "TS")
            for family in families:
                for w in (None, SKEWED, ZERO_FACTOR) + ((TT_ONLY,) if family == "TT" else ()):
                    yield (f"{algo}-{p}x{q}-{family}", w,
                           lambda kt, p=p, q=q, a=algo, f=family, w=w:
                           build_tree(p, q, a, family=f, bs=3, weights=w,
                                      keep_trace=kt))
    # a q = 1 build runs GEQRT and TTQRT only, so it may read no other weight
    for p in (1, 2, 5, 8):
        for algo in ("flattree", "fibonacci", "greedy", "binarytree", "plasmatree",
                     "asap", "grasap"):
            yield (f"{algo}-{p}x1-TT", FACTOR_ONLY,
                   lambda kt, p=p, a=algo:
                   build_tree(p, 1, a, bs=min(p, 2), weights=FACTOR_ONLY, keep_trace=kt))


def test_engine_trace_free_matches_traced_and_hazard_graph():
    for name, w, build in _engine_cases():
        fast, full = build(False), build(True)
        assert fast.trace is None
        for attr in ("zeroed", "cp", "counts", "total_weight"):
            assert getattr(fast, attr) == getattr(full, attr), (name, attr)
        assert Counter(t.kind for t in full.trace) == +Counter(full.counts), name
        w = w or WeightModel.qr_tt()
        fins, _ = asap_times(full.trace, w)
        for t in full.trace:
            if t.kind in (TTQRT, TSQRT):
                i, _, k = t.indices
                assert fins[t.id] == full.zeroed[(i, k)], (name, t)
        assert full.cp == annotate_cp(build_from_trace(full.trace), w).cp_length, name


# sha256 of (id, kind, indices, reads, writes) over every task: list
# schedules break ties on task ids and the IP names variables by indices,
# so traces must stay identical task for task.
TRACE_SHA256 = {
    (7, 4, "greedy", "TT"): "748b4c56395129de0485d9351eacad756b8e2ff8881fe779cf49531e943b30cf",
    (6, 3, "binarytree", "TS"): "2110fac97b99855b3339aaa9b1779a211730b1a3135cfbbdfe6edd3c83815281",
    (6, 4, "asap", "TT"): "b68ae2d6867340107f9aaeaa8eb149e83056aa4956c3ba4c8db0cb6f704fc15e",
    (6, 4, "grasap", "TT"): "81ea48e81b55c8358ebd09f104258676bc47a3a76a9cd46442c2d70902a243d8",
    (9, 5, "plasmatree", "TS"): "f81199b9fedc6457c6d45fe31eb072325d2cb2da9e493f1b3241c51fdbf12f13",
    (7, 4, "random", "TS"): "574fbe502f25bec89a44bb13cc5322f4f76c66b92a709c05b9cc252aeabdb093",
    (9, 6, "fibonacci", "TT"): "4b188e47f894287f26a301c313e82d7769adc993754b8a044a6d04bf959a1187",
}


def _pinned_build(p, q, algo, family):
    if algo == "random":
        # a seed whose list makes ex-pivots targets, where TS falls back to TT
        return QrBuild(p, q, family).run_list(random_elim_list(p, q, random.Random(2)))
    return build_tree(p, q, algo, family=family, bs=3 if algo == "plasmatree" else None)


@pytest.mark.parametrize("p,q,algo,family", sorted(TRACE_SHA256))
def test_trace_identity(p, q, algo, family):
    build = _pinned_build(p, q, algo, family)
    if algo == "random":
        assert build.counts[TSQRT] and build.counts[TTQRT]
    trace = build.trace
    rows = [(t.id, t.kind, t.indices, tuple(map(tuple, t.reads)),
             tuple(map(tuple, t.writes))) for t in trace]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == TRACE_SHA256[(p, q, algo, family)]
