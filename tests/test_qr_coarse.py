"""The coarse schemes and elimination lists, with the test-side oracles
they are checked against: the coarse model's dependency and sweep-order
relations (validate_coarse), the normalization of reverse eliminations
(normalized) and the column calculus of one Asap column (ColumnIter,
optiter, column_asap_free, is_iterate).  The 15x6 tables' values are
criterion 4's in test_acceptance.py, read from tiledag.golden."""

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby

import pytest

from tiledag import (
    GEQRT, TTMQR, TTQRT, UNMQR,
    CoarseTable, ElimEntry, EliminationList, QrBuild, WeightModel, binary_tree_list,
    build_tree, coarse_cp_oracle, coarse_schedule, emit_ip, fibonacci_cp_bounds,
    fibonacci_x, flattree_cp_oracle, golden, grasap_build, plasmatree_list, tiled_build,
    total_weight,
)


def validate_coarse(table, elim, algo):
    """The dependency relations of the coarse model: a tile's own and its
    pivot's previous-column eliminations precede it, and the elimination
    order within a column follows the scheme's sweep (downward for
    sameh-kuck, the panel scheme, bottom-up otherwise)."""
    for e in elim:
        s = table(e.i, e.k)
        if e.k > 1:
            if table(e.i, e.k - 1) >= s:
                raise ValueError(f"coarse dependency violated: own row at ({e.i},{e.k})")
            if e.piv > e.k - 1 and table(e.piv, e.k - 1) >= s:
                raise ValueError(f"coarse dependency violated: pivot row at ({e.i},{e.k})")
    for k in range(1, min(table.p, table.q) + 1):
        col = [table(i, k) for i in range(k + 1, table.p + 1)]
        if algo == "sameh-kuck":
            ok = all(a < b for a, b in zip(col, col[1:]))
        else:
            ok = all(a >= b for a, b in zip(col, col[1:]))
        if not ok:
            raise ValueError(f"column {k} violates the {algo} sweep order")


@pytest.mark.parametrize("algo,gold", [(algo, golden.coarse_table_cells(algo))
                                       for algo in ("sameh-kuck", "fibonacci", "greedy")])
def test_table_15x6(algo, gold):
    # the built table equals gold by criterion 4; here gold is a valid
    # coarse schedule of the scheme's own elimination list
    _, elim = coarse_schedule(15, 6, algo)
    elim.validate()
    validate_coarse(CoarseTable(15, 6, gold), elim, algo)


def test_spec_cells():
    # Greedy has no closed form; the other two tables peak at theirs
    for algo in ("sameh-kuck", "fibonacci"):
        assert max(golden.coarse_table_cells(algo).values()) == coarse_cp_oracle(15, 6, algo)


def test_oracles():
    assert coarse_cp_oracle(15, 6, "sameh-kuck") == 19
    assert coarse_cp_oracle(6, 6, "sameh-kuck") == 9
    assert fibonacci_x(15) == 5
    assert coarse_cp_oracle(15, 6, "fibonacci") == 15
    for p in (2, 5, 9, 16):
        for q in range(1, p + 1):
            for algo in ("sameh-kuck", "fibonacci"):
                assert coarse_schedule(p, q, algo)[0].cp() == coarse_cp_oracle(p, q, algo)
    # Greedy has no closed form; reading its own table back would check nothing
    with pytest.raises(ValueError, match="greedy has no closed-form"):
        coarse_cp_oracle(15, 6, "greedy")
    with pytest.raises(ValueError):
        coarse_schedule(3, 4, "greedy")
    with pytest.raises(ValueError):
        coarse_cp_oracle(4, 4, "nope")
    # one name per tree: FlatTree is "flattree" to build_tree and
    # "sameh-kuck" to the coarse functions, in lower case only
    for call, args in ((build_tree, (4, 3, "Greedy")), (coarse_schedule, (4, 3, "flattree")),
                       (coarse_schedule, (4, 3, "samehkuck")),
                       (coarse_cp_oracle, (4, 4, "flattree"))):
        with pytest.raises(ValueError, match="unknown"):
            call(*args)


@pytest.mark.parametrize("p,q", [(3, 5), (2, 4), (3, 0)])
def test_one_shape_rule(p, q):
    # every QR entry point refuses a wide or empty grid, the tree lists and
    # the validity check included
    calls = [lambda: coarse_schedule(p, q, "greedy"), lambda: coarse_cp_oracle(p, q, "greedy"),
             lambda: plasmatree_list(p, q, 1), lambda: binary_tree_list(p, q),
             lambda: QrBuild(p, q), lambda: total_weight(p, q),
             lambda: flattree_cp_oracle(p, q), lambda: fibonacci_cp_bounds(p, q),
             lambda: EliminationList(p, q, binary_tree_list(p, p).entries).validate(),
             lambda: emit_ip(p, q, 10)]
    for call in calls:
        with pytest.raises(ValueError, match=r"need p >= q >= 1"):
            call()


def test_greedy_matches_full_rescan():
    # reference: rescan every column at every step for its available rows
    def rescan(p, q):
        steps, s = {}, 0
        while len(steps) < sum(p - k for k in range(1, min(p, q) + 1)):
            s += 1
            for k in range(1, min(p, q) + 1):
                avail = [i for i in range(k, p + 1) if (i, k) not in steps
                         and (k == 1 or steps.get((i, k - 1), s) <= s - 1)]
                for i in avail[len(avail) - len(avail) // 2:]:
                    steps[(i, k)] = s
        return steps
    for p in range(1, 31):
        for q in range(1, p + 1, 2):
            assert coarse_schedule(p, q, "greedy")[0].steps == rescan(p, q), (p, q)


def test_elimination_lists_valid_and_normalized():
    for p in (2, 4, 7, 12, 15):
        for q in range(1, p + 1):
            for algo in ("sameh-kuck", "fibonacci", "greedy"):
                table, elim = coarse_schedule(p, q, algo)
                elim.validate()
                validate_coarse(table, elim, algo)
                assert all(e.i > e.piv for e in elim)
                assert len(elim) == sum(p - k for k in range(1, min(p, q) + 1))


def test_validity_rejections():
    # row not ready in an earlier column
    bad = EliminationList(3, 2, [ElimEntry(3, 2, 1), ElimEntry(3, 2, 2), ElimEntry(2, 1, 1)])
    with pytest.raises(ValueError, match="not ready"):
        bad.validate()
    # pivot already annihilated
    bad = EliminationList(3, 1, [ElimEntry(2, 1, 1), ElimEntry(3, 2, 1)])
    with pytest.raises(ValueError, match="potential annihilator"):
        bad.validate()
    # incomplete
    with pytest.raises(ValueError, match="incomplete"):
        EliminationList(3, 1, [ElimEntry(2, 1, 1)]).validate()
    # diagonal target
    with pytest.raises(ValueError, match="out of range"):
        EliminationList(3, 2, [ElimEntry(2, 3, 2)]).validate()


def test_not_ready_message_names_first_missing_tile():
    # row 3 is zeroed in column 1 but not 2 when it pivots in column 3
    entries = [ElimEntry(i, 1, 1) for i in (5, 4, 3, 2)]
    entries += [ElimEntry(5, 2, 2), ElimEntry(5, 3, 3)]
    with pytest.raises(ValueError) as err:
        EliminationList(5, 3, entries).validate()
    assert str(err.value) == "entry 5: row 3 not ready for column 3 (tile (3,2) not yet zeroed)"
    # the first missing tile, not the one left of the column
    entries = [ElimEntry(5, 1, 1), ElimEntry(4, 1, 1), ElimEntry(5, 4, 2), ElimEntry(5, 3, 3)]
    with pytest.raises(ValueError) as err:
        EliminationList(5, 3, entries).validate()
    assert str(err.value) == "entry 3: row 3 not ready for column 3 (tile (3,1) not yet zeroed)"
    # the target itself
    bad = EliminationList(3, 2, [ElimEntry(3, 2, 1), ElimEntry(3, 2, 2), ElimEntry(2, 1, 1)])
    with pytest.raises(ValueError) as err:
        bad.validate()
    assert str(err.value) == "entry 1: row 2 not ready for column 2 (tile (2,1) not yet zeroed)"


def interleaved_list(p, q, pick):
    """A valid elimination list whose columns interleave, with reverse and
    ex-pivot eliminations: pick(options) chooses, at each step, a column
    holding two ready rows, a ready target below its diagonal and any other
    ready row as pivot."""
    ready = [[] for _ in range(min(p, q) + 2)]
    ready[1] = list(range(1, p + 1))
    entries = []
    while cols := [k for k in range(1, min(p, q) + 1) if len(ready[k]) >= 2]:
        k = pick(cols)
        i = pick([r for r in ready[k] if r > k])
        piv = pick([r for r in ready[k] if r != i])
        ready[k].remove(i)
        ready[k + 1].append(i)
        entries.append(ElimEntry(i, piv, k))
    return EliminationList(p, q, entries)


def _random_list(p, q, rng):
    """A valid list, column by column, with reverse eliminations in the
    last column only."""
    entries = []
    for k in range(1, min(p, q) + 1):
        rows = list(range(k, p + 1))
        while len(rows) > 1:
            a, b = sorted(rng.sample(range(len(rows)), 2))
            lo, hi = rows[a], rows[b]
            if k == min(p, q) and lo > k and rng.random() < 0.5:
                entries.append(ElimEntry(lo, hi, k)); rows.remove(lo)
            else:
                entries.append(ElimEntry(hi, lo, k)); rows.remove(hi)
    return EliminationList(p, q, entries)


def normalized(elim):
    """An equivalent list with i > piv everywhere.

    Each reverse elimination elim(i1, i0, k), i1 < i0, is removed by
    exchanging the names i0 and i1 in it and in every later entry, of every
    column.  Up to that entry both rows were zeroed in exactly the columns
    before k, so the list stays valid; after it both were last used at the
    same step, so every entry keeps its with_steps() step.  Columns are
    cleared left to right, each by its reverse entry with the largest pivot
    first.  Weighted tiled times are preserved wherever the exchanged rows
    carry the same update history into later columns, as when only the last
    column has reverse entries."""
    entries = list(elim.entries)
    for k0 in range(1, min(elim.p, elim.q) + 1):
        while True:
            rev = [(n, e) for n, e in enumerate(entries) if e.k == k0 and e.i < e.piv]
            if not rev:
                break
            i0 = max(e.piv for _, e in rev)
            first = next(n for n, e in rev if e.piv == i0)
            i1 = entries[first].i
            swap = {i0: i1, i1: i0}
            entries[first:] = [e._replace(i=swap.get(e.i, e.i), piv=swap.get(e.piv, e.piv))
                               for e in entries[first:]]
    return EliminationList(elim.p, elim.q, entries)


def test_normalization_preserves_cp_symmetric_histories():
    # reverse eliminations confined to the last column exchange rows with
    # identical update histories; the weighted cp is then provably intact
    rng = random.Random(4)
    for _ in range(120):
        p = rng.randint(2, 8)
        q = rng.randint(1, p)
        lst = _random_list(p, q, rng)
        norm = normalized(lst)
        c1 = tiled_build(lst, keep_trace=False).cp
        c2 = tiled_build(norm, keep_trace=False).cp
        assert c1 == c2


def test_csv_round_trip():
    _, elim = coarse_schedule(6, 3, "greedy")
    text = elim.to_csv()
    assert text.splitlines()[0] == "k,i,piv,step"
    back = EliminationList.from_csv(6, 3, text)
    assert [(e.i, e.piv, e.k, e.step) for e in back] == \
           [(e.i, e.piv, e.k, e.step) for e in elim]


def test_eager_coarse_matches_busy_algorithms():
    # the busy schemes' tables equal their lists' dependence-driven
    # re-execution, each elimination one step after its rows' last use;
    # criterion 7 translates these tables to TTMQR finishes
    for p in range(2, 21):
        for q in range(1, p + 1):
            for algo in ("sameh-kuck", "greedy"):
                table, elim = coarse_schedule(p, q, algo)
                eager = CoarseTable.of(elim.with_steps())
                assert eager.steps == table.steps


# -- weighted column iterates -------------------------------------------------

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
    """Smallest bottom-to-top iterate of a column, eliminations proceeding
    strictly from the bottom up.  It gives the Asap process on one column
    (`column_asap_free`) when the arrivals are congruent modulo w, and
    need not otherwise: Asap may pair rows sooner, as [0, 0, 0, 1] with
    w = 2 gives [2, 3, 5] under Asap and [2, 4, 6] here."""
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
    """Validity conditions of a weighted iterate c of column a.  They
    accept Asap's column (`column_asap_free`) when a's values are congruent
    modulo w, and need not otherwise: they reject Asap's [2, 4, 6] for
    [0, 0, 1, 3] with w = 2."""
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


def test_optiter_reference_column():
    a = ColumnIter([3] * 7 + [6] * 4, w=2)
    b = optiter(a)
    assert b.values == [5, 5, 5, 7, 7, 9, 9, 9, 11, 13]
    assert max(b.values) == 13
    free = column_asap_free(a)
    assert max(free.values) == 12
    assert is_iterate(a, b)
    assert is_iterate(a, ColumnIter([5, 5, 5, 8, 8, 8, 8, 10, 10, 12], 2))
    assert not is_iterate(a, ColumnIter([4, 5, 5, 7, 7, 9, 9, 9, 11, 13], 2))


def test_optiter_singleton_column():
    assert optiter(ColumnIter([7], 3)).values == []


def test_optiter_reproduces_coarse_greedy_columns():
    table, _ = coarse_schedule(15, 6, "greedy")
    for k in range(1, 6):
        col = sorted(table(i, k) for i in range(k + 1, 16))
        nxt = sorted(table(i, k + 1) for i in range(k + 2, 16))
        assert optiter(ColumnIter(col, 1)).values == nxt


def test_optiter_minimality_and_monotonicity_unit_weight():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(2, 12)
        vals = sorted(rng.randint(0, 8) for _ in range(n))
        a = ColumnIter(vals, 1)
        b = optiter(a)
        assert is_iterate(a, b)
        free = column_asap_free(a)
        assert all(x <= y for x, y in zip(b.values, free.values))
        bigger = ColumnIter(sorted(v + rng.randint(0, 3) for v in vals), 1)
        assert all(x <= y for x, y in zip(b.values, optiter(bigger).values))


def test_optiter_minimality_integer_multiple_weights():
    # arrival gaps that are multiples of w keep bottom-to-top optimal
    rng = random.Random(1)
    for _ in range(150):
        w = rng.choice([1, 2, 3])
        n = rng.randint(2, 10)
        vals = sorted(w * rng.randint(0, 5) for _ in range(n))
        a = ColumnIter(vals, w)
        b = optiter(a)
        assert is_iterate(a, b)
        assert all(x <= y for x, y in zip(b.values, column_asap_free(a).values))


def test_optiter_and_is_iterate_need_congruent_arrivals():
    # arrivals not congruent modulo w: Asap pairs rows that optiter keeps
    # waiting, and is_iterate rejects Asap's column
    a = ColumnIter([0, 0, 0, 1], 2)
    assert (column_asap_free(a).values, optiter(a).values) == ([2, 3, 5], [2, 4, 6])
    a = ColumnIter([0, 0, 1, 3], 2)
    assert column_asap_free(a).values == [2, 4, 6]
    assert not is_iterate(a, ColumnIter([2, 4, 6], 2))
    # congruent arrivals: every column of 2-6 values in 0..6 for w in {2, 3}
    n = 0
    for w in (2, 3):
        for m in range(2, 7):
            for vals in combinations_with_replacement(range(7), m):
                if len({v % w for v in vals}) == 1:
                    a = ColumnIter(list(vals), w)
                    free = column_asap_free(a)
                    assert optiter(a).values == free.values and is_iterate(a, free), (w, vals)
                    n += 1
    assert n == 415


def asap_columns(p, q, i, weights):
    """(arrivals, zeroings) of each Asap column of GrASAP(p, q, i), read off
    its built list replayed one column at a time through the TT engine:
    the sorted triangle times of rows k..p before column k runs, and the
    sorted zeroed times of the column's entries."""
    entries = grasap_build(p, q, i, weights, keep_trace=False).elim.entries
    b = QrBuild(p, q, "TT", weights, keep_trace=False)
    b.preprocess_tt()
    for k in range(1, q + 1):
        arrivals = sorted(b._tri[r] for r in range(k, p + 1))
        col = [e for e in entries if e.k == k]
        b._run_tt(col)
        if k > q - i:
            yield arrivals, sorted(b.zeroed[(e.i, k)] for e in col)


def test_column_calculus_gives_the_engine_asap_columns():
    # every Asap column of every GrASAP(i), p <= 14, under the default
    # weights and under seeded random ones with TTQRT >= 1 (ColumnIter needs
    # w > 0): column_asap_free gives the zeroings from the arrivals alone;
    # optiter and is_iterate agree with it where the arrivals are congruent
    # modulo w: 2,380 columns per model family, 150 random ones not congruent
    rng = random.Random(34)
    seen = {}
    for p in range(1, 15):
        for q in range(1, p + 1):
            for i in range(1, q + 1):
                drawn = WeightModel({GEQRT: rng.choice((1, 2, 4)), UNMQR: rng.choice((0, 1, 6)),
                                     TTQRT: rng.choice((1, 2, 3)), TTMQR: rng.choice((0, 1, 6))})
                for name, weights in (("default", WeightModel.qr_tt()), ("random", drawn)):
                    w = weights[TTQRT]
                    for arrivals, zeroings in asap_columns(p, q, i, weights):
                        case = (p, q, i, dict(weights.table), arrivals)
                        a = ColumnIter(arrivals, w)
                        assert column_asap_free(a).values == zeroings, case
                        congruent = len({t % w for t in arrivals}) == 1
                        if congruent:
                            assert optiter(a).values == zeroings, case
                            assert is_iterate(a, ColumnIter(zeroings, w)), case
                        n, m = seen.get(name, (0, 0))
                        seen[name] = n + 1, m + congruent
    assert seen == {"default": (2380, 2380), "random": (2380, 2230)}


def test_column_validation():
    with pytest.raises(ValueError):
        ColumnIter([3, 2, 5], 1)
    with pytest.raises(ValueError):
        ColumnIter([1, 2], 0)
