import random

import pytest

from tiledag import (
    ColumnIter, ElimEntry, EliminationList, QrBuild, binary_tree_list, build_tree,
    coarse_cp_oracle, coarse_schedule, column_asap_free, eager_coarse,
    fibonacci_cp_bounds, fibonacci_x, flattree_cp_oracle, is_iterate, optiter,
    plasmatree_list, tiled_build, total_weight,
)

# Reference coarse time-step tables for a 15 x 6 matrix, rows 2..15.
SK_15x6 = [[1], [2, 3], [3, 4, 5], [4, 5, 6, 7], [5, 6, 7, 8, 9],
           [6, 7, 8, 9, 10, 11], [7, 8, 9, 10, 11, 12], [8, 9, 10, 11, 12, 13],
           [9, 10, 11, 12, 13, 14], [10, 11, 12, 13, 14, 15],
           [11, 12, 13, 14, 15, 16], [12, 13, 14, 15, 16, 17],
           [13, 14, 15, 16, 17, 18], [14, 15, 16, 17, 18, 19]]
FIB_15x6 = [[5], [4, 7], [4, 6, 9], [3, 6, 8, 11], [3, 5, 8, 10, 13],
            [3, 5, 7, 10, 12, 15], [2, 5, 7, 9, 12, 14], [2, 4, 7, 9, 11, 14],
            [2, 4, 6, 9, 11, 13], [2, 4, 6, 8, 11, 13], [1, 4, 6, 8, 10, 13],
            [1, 3, 6, 8, 10, 12], [1, 3, 5, 8, 10, 12], [1, 3, 5, 7, 10, 12]]
GRE_15x6 = [[4], [3, 6], [3, 5, 8], [2, 5, 7, 10], [2, 4, 7, 9, 12],
            [2, 4, 6, 9, 11, 14], [2, 4, 6, 8, 10, 13], [1, 3, 5, 8, 10, 12],
            [1, 3, 5, 7, 9, 11], [1, 3, 5, 7, 9, 11], [1, 3, 4, 6, 8, 10],
            [1, 2, 4, 6, 8, 10], [1, 2, 4, 5, 7, 9], [1, 2, 3, 5, 6, 8]]


@pytest.mark.parametrize("algo,gold", [
    ("sameh-kuck", SK_15x6), ("fibonacci", FIB_15x6), ("greedy", GRE_15x6)])
def test_table_15x6(algo, gold):
    table, elim = coarse_schedule(15, 6, algo)
    elim.validate()
    table.validate(elim)
    for r, row in enumerate(gold, start=2):
        got = [table(r, k) for k in range(1, min(r - 1, 6) + 1)]
        assert got == row, (algo, r)


def test_spec_cells():
    sk = coarse_schedule(15, 6, "sameh-kuck")[0]
    assert sk(3, 1) == 2 and sk(15, 6) == 19
    fib = coarse_schedule(15, 6, "fibonacci")[0]
    assert fib(2, 1) == 5 and fib(15, 6) == 12
    gre = coarse_schedule(15, 6, "greedy")[0]
    assert gre(15, 6) == 8 and gre(2, 1) == 4


def test_oracles():
    assert coarse_cp_oracle(15, 6, "sameh-kuck") == 19
    assert coarse_cp_oracle(6, 6, "sameh-kuck") == 9
    assert fibonacci_x(15) == 5
    assert coarse_cp_oracle(15, 6, "fibonacci") == 15
    assert coarse_cp_oracle(15, 6, "greedy") == 8 + 6  # max of the table
    for p in (2, 5, 9, 16):
        for q in range(1, p + 1):
            for algo in ("sameh-kuck", "fibonacci", "greedy"):
                assert coarse_schedule(p, q, algo)[0].cp() == coarse_cp_oracle(p, q, algo)
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
             lambda: EliminationList(p, q, binary_tree_list(p, p).entries).validate()]
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
                table.validate(elim)
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


def test_normalization_validity_everywhere():
    rng = random.Random(2)
    for _ in range(120):
        p = rng.randint(2, 8)
        q = rng.randint(1, p)
        lst = interleaved_list(p, q, rng.choice)
        lst.validate()
        norm = lst.normalized()
        norm.validate()
        assert all(e.i > e.piv for e in norm)


def test_normalization_preserves_cp_symmetric_histories():
    # reverse eliminations confined to the last column exchange rows with
    # identical update histories; the weighted cp is then provably intact
    rng = random.Random(4)
    for _ in range(120):
        p = rng.randint(2, 8)
        q = rng.randint(1, p)
        lst = _random_list(p, q, rng)
        norm = lst.normalized()
        c1 = tiled_build(lst, keep_trace=False).cp
        c2 = tiled_build(norm, keep_trace=False).cp
        assert c1 == c2


def test_normalization_preserves_coarse_step_multiset():
    rng = random.Random(9)
    for _ in range(80):
        p = rng.randint(2, 8)
        q = rng.randint(1, p)
        lst = _random_list(p, q, rng)
        a = sorted(e.step for e in lst.with_steps())
        b = sorted(e.step for e in lst.normalized().with_steps())
        assert a == b


def test_csv_round_trip():
    _, elim = coarse_schedule(6, 3, "greedy")
    text = elim.to_csv()
    assert text.splitlines()[0] == "k,i,piv,step"
    back = EliminationList.from_csv(6, 3, text)
    assert [(e.i, e.piv, e.k, e.step) for e in back] == \
           [(e.i, e.piv, e.k, e.step) for e in elim]


def test_eager_coarse_matches_busy_algorithms():
    for p in (4, 8, 13):
        for q in range(1, p + 1):
            for algo in ("sameh-kuck", "greedy"):
                table, elim = coarse_schedule(p, q, algo)
                eager = eager_coarse(elim)
                assert eager.steps == table.steps


# -- weighted column iterates -------------------------------------------------

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


def test_column_validation():
    with pytest.raises(ValueError):
        ColumnIter([3, 2, 5], 1)
    with pytest.raises(ValueError):
        ColumnIter([1, 2], 0)
