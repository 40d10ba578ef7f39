import hashlib
import random
from collections import Counter
from math import comb

import pytest

from tiledag import (
    WeightModel, build_from_trace, build_tree, check_feasible,
    complete_assignment, emit_ip, list_schedule, parse_assignment,
    schedule_to_assignment,
)
from tiledag.ipmodel import Constraint, DomainViolation, assignment_text

WQ = WeightModel.qr_tt()
ROTATED_TREES = ("flattree", "greedy", "binarytree", "grasap")   # one per shape
NAMED_TREES = ("flattree", "fibonacci", "greedy", "binarytree", "asap", "grasap")


def _schedule(p, q, algo, procs):
    b = build_tree(p, q, algo)
    g = build_from_trace(b.trace)
    return g, list_schedule(g, WQ, procs, "max")


def test_simulator_schedules_feasible():
    for (p, q) in ((1, 1), (2, 2), (3, 2), (4, 3), (5, 5)):
        for algo in ("flattree", "greedy", "grasap"):
            for procs in (1, 2, 5):
                g, s = _schedule(p, q, algo, procs)
                model = emit_ip(p, q, s.makespan // 2 + 4)
                assign = complete_assignment(model, schedule_to_assignment(g, s))
                ok, violated = check_feasible(model, assign)
                assert ok, (p, q, algo, procs, [(v.group, v.name) for v in violated[:5]])


def test_feasible_with_capacity():
    g, s = _schedule(5, 5, "grasap", 11)
    assert s.makespan == 80
    model = emit_ip(5, 5, 44, capacity=11)
    assign = complete_assignment(model, schedule_to_assignment(g, s))
    ok, violated = check_feasible(model, assign)
    assert ok, [(v.group, v.name) for v in violated[:5]]


def test_capacity_catches_overload():
    g, s = _schedule(4, 3, "greedy", 8)
    model = emit_ip(4, 3, s.makespan // 2 + 4, capacity=1)
    assign = complete_assignment(model, schedule_to_assignment(g, s))
    ok, violated = check_feasible(model, assign)
    assert not ok
    assert any(v.group == "capacity" for v in violated)


def test_mutation_violates_1biii():
    g, s = _schedule(4, 3, "grasap", 4)
    model = emit_ip(4, 3, s.makespan // 2 + 4)
    assign = schedule_to_assignment(g, s)
    victim = next(k for k in sorted(assign) if k.startswith("z_"))
    assign[victim] = 1   # the TTQRT now finishes before both GEQRTs
    assign = complete_assignment(model, assign)
    ok, violated = check_feasible(model, assign)
    assert not ok
    assert "1b-iii" in {v.group for v in violated}


def test_trivial_1x1():
    g, s = _schedule(1, 1, "flattree", 1)
    model = emit_ip(1, 1, 4)
    ok, _ = check_feasible(model, complete_assignment(model, schedule_to_assignment(g, s)))
    assert ok


def test_emission_deterministic_and_fixings():
    a = emit_ip(2, 2, 20).render()
    b = emit_ip(2, 2, 20).render()
    assert a == b
    assert not [line for line in a.splitlines() if line.startswith(" x_") and " = " in line]
    assert "Minimize" in a and a.rstrip().endswith("End")
    model = emit_ip(2, 2, 20)
    assert (1, 2) not in model.x
    nine = [c for c in model.constraints if c.group == "9"]
    assert len(nine) == 1 and nine[0].sense == "=" and nine[0].rhs == 1


def _action_counts(p, q):
    """(w, x, y, z) counts by direct enumeration."""
    w = sum(1 for k in range(2, q + 1) for l in range(1, k)
            for i in range(l, p + 1))
    x = sum(1 for k in range(1, q + 1) for i in range(k, p + 1))
    y = sum(1 for k in range(2, q + 1) for l in range(1, k)
            for i in range(l, p + 1) for j in range(l, p + 1) if i != j)
    z = sum(1 for k in range(1, q + 1) for i in range(k, p + 1)
            for j in range(k, p + 1) if i != j)
    return w, x, y, z


def test_variable_counts_match_enumeration():
    for p, q in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4)):
        model = emit_ip(p, q, 50)
        w, x, y, z = _action_counts(p, q)
        ints = {n for n in model.int_vars if n != "total_time"}
        assert len([n for n in ints if n.startswith("w_")]) == w
        assert len([n for n in ints if n.startswith("x_")]) == x
        assert len([n for n in ints if n.startswith("y_")]) == y
        assert len([n for n in ints if n.startswith("z_")]) == z
        yhat = [n for n in model.bin_vars if n.startswith("yhat_")]
        zhat = [n for n in model.bin_vars if n.startswith("zhat_")]
        assert len(yhat) == y and len(zhat) == z
        # obligation constraints: one per sub-diagonal tile
        nine = [c for c in model.constraints if c.group == "9"]
        assert len(nine) == sum(p - k for k in range(1, min(p, q) + 1))
        # the disjunction binaries are the only auxiliaries (no a1 ... f)
        assert all(n.startswith("dl") for n in model.aux)
        assert len(model.bin_vars) == y + z + len(model.aux)


def test_non_tt_graph_rejected():
    b = build_tree(3, 2, "flattree", family="TS")
    g = build_from_trace(b.trace)
    s = list_schedule(g, WeightModel.qr_tt(), 2, "max")
    with pytest.raises(ValueError, match="TT kernels"):
        schedule_to_assignment(g, s)


def test_assignment_round_trip():
    g, s = _schedule(3, 2, "greedy", 2)
    assign = schedule_to_assignment(g, s)
    text = assignment_text(assign)
    back = parse_assignment(text)
    assert back == assign


@pytest.mark.parametrize("text,no", [("bad", 1), ("# c\n\nx_1_1 2\nx_1_1 2.5", 4),
                                     ("x_1_1 2 3", 1), ("x_1_1 abc", 1)])
def test_parse_assignment_names_bad_line(text, no):
    with pytest.raises(ValueError, match=f"line {no} "):
        parse_assignment(text)


def test_bad_horizon():
    for bad in (0, True, 2.0, 2.5):
        for capacity in (None, 1):
            with pytest.raises(ValueError, match="horizon"):
                emit_ip(3, 2, bad, capacity=capacity)
    with pytest.raises(ValueError):
        emit_ip(2, 3, 10)


def test_bad_capacity():
    for bad in (0, -2, 1.5, "2", True):
        with pytest.raises(ValueError, match="capacity"):
            emit_ip(3, 2, 16, capacity=bad)


# sha256 of render(), taken before the pulse capacity block replaced the
# overlap-binary block: the uncapacitated model must not move.  Re-taken
# when the rows that kept rows imply were deleted, when the disjunction
# rows became <= 1, when 4b waited for its zeroing's end and 1c-iii lost
# its mirrored copies, and when the above-diagonal x_i_k = 0 bounds went.
# (8, 8, 1028), whose big-M coefficients have four digits, was added before
# the rows were built from shared term blocks.  These two pins were
# re-taken when the rows that sums of kept rows give (1a-i, 1a-ii and 1b-ii
# over non-consecutive panels, 1a-v, 1c-iv, most objective rows) were cut,
# and when each disjunction's b row took dl2 = 1 - dl1 and lost its _or row.
RENDER_SHA256 = {
    (3, 2, 16): "fb4a36c18965c4b21f31daea9277f2fad90830c1943b72eb8d45cd800941f70c",
    (4, 4, 40): "eabb5becc5e7623c34a9e99af0f8f93e742e6aa97276357d386f3fb0466eba78",
    (5, 3, 30): "2b25cdc4de078a6852c8d136552bd6178cd016c1828e75bc5e7ec7a4c2429499",
    (8, 8, 1028): "835f30365ef3f9133a04bac8e78c991b6e806b9e2109833e5fe10536d3d4f7c4",
}
NON_CAPACITY_ROWS_SHA256 = "345744e5043bb65ee598b714f2bb9e6c063e3117e4ff512549a9900e2402f830"
# sha256 of every row (name|group|terms|sense|rhs) and of list(model.aux)
# of each shape q <= p <= 7 at T = 12, taken before the rows were built
# from shared term blocks; re-taken when the rows that sums of kept rows
# give were cut (the new rows are the old ones minus the cut ones, in order),
# and when the _or rows and dl2/dl6 went (the b rows as
# test_b_rows_are_the_appendix_rows_with_dl2_substituted rebuilds them)
ROWS_SHA256 = {
    None: "f6fbea21f3756dff10caa1f5e832e5ff0cfc8f2c0937edd2014043ce0d91cbb4",
    2: "48853da8ec973f828eb22f23df37336637bf83c8940c7eacbae19a478ccdf776",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_uncapacitated_render_pinned():
    for args, digest in RENDER_SHA256.items():
        assert _sha(emit_ip(*args).render()) == digest, args


def test_capacity_leaves_other_rows_pinned():
    model = emit_ip(4, 3, 30, capacity=2)
    rows = "\n".join(f"{c.name}|{c.group}|{c.terms}|{c.sense}|{c.rhs}"
                     for c in model.constraints if c.group != "capacity")
    assert _sha(rows) == NON_CAPACITY_ROWS_SHA256


@pytest.mark.parametrize("capacity", [None, 2])
def test_rows_and_aux_pinned(capacity):
    digest = hashlib.sha256()
    for p in range(1, 8):
        for q in range(1, p + 1):
            model = emit_ip(p, q, 12, capacity=capacity)
            for c in model.constraints:
                digest.update(f"{c.name}|{c.group}|{c.terms}|{c.sense}|{c.rhs}\n".encode())
            digest.update(f"{list(model.aux)}\n".encode())
    assert digest.hexdigest() == ROWS_SHA256[capacity]


def test_capacity_block_closed_forms():
    for p, q, T in ((1, 1, 4), (2, 2, 20), (3, 2, 16), (4, 3, 30), (5, 5, 44)):
        w, x, y, z = _action_counts(p, q)
        base = emit_ip(p, q, T)
        model = emit_ip(p, q, T, capacity=2)
        cap = [c for c in model.constraints if c.group == "capacity"]
        assert len(cap) == 2 * (w + x + y + z) + T
        assert len(model.constraints) == len(base.constraints) + len(cap)
        pulses = model.bin_vars[len(base.bin_vars):]
        assert model.bin_vars[:len(base.bin_vars)] == base.bin_vars
        assert len(pulses) == (w + y) * (T - 2) + x * (T - 1) + z * T
        assert all(v.startswith("at_") for v in pulses)
        assert not any(v.startswith(("ge_", "le_", "u_")) for v in model.bin_vars)


def test_1ciii_closed_forms():
    # one disjunction per shared row s and unordered pair {h, o} of other
    # rows of a pair-update column: two rows and one dl1 binary each
    for p, q in ((2, 2), (3, 2), (4, 3), (5, 5), (8, 8)):
        model = emit_ip(p, q, 1028)
        rows = [c for c in model.constraints if c.group == "1c-iii"]
        n = 6 * sum(comb(p - l + 1, 3) for k in range(2, q + 1) for l in range(1, k))
        assert len(rows) == n, (p, q)
        assert len([v for v in model.aux if v.startswith("dl1")]) == n // 2, (p, q)
    assert (n, len(model.constraints), len(model.aux)) == (4536, 11195, 2646)   # 8x8


def _appendix_b_rows(model):
    """(name, terms, rhs, dl1, dl2) of the b row of each 1c-iii and 1d-case1
    disjunction as the appendix states it, with its own binary dl2 (dl6):
    y_hs + y_sh - y_os - y_so + T(yhat_os + yhat_so) - T dl2 <= T - 3, and
    z_hi - z_ji + T zhat_ji - T dl6 <= T - 1."""
    p, q, T = model.p, model.q, model.T
    y, yhat, z, zhat = model.y, model.yhat, model.z, model.zhat
    for k in range(2, q + 1):
        for l in range(1, k):
            for i in range(l, p + 1):
                for j in range(i + 1, p + 1):
                    for h in range(l, p + 1):
                        for s, o in ((i, j), (j, i)):
                            if h in (i, j) or h < o:
                                continue
                            key = f"_{h}_{s}_{o}_{k}_{l}"
                            terms = [(1, y[h, s, k, l]), (1, y[s, h, k, l]),
                                     (-1, y[o, s, k, l]), (-1, y[s, o, k, l]),
                                     (T, yhat[o, s, k, l]), (T, yhat[s, o, k, l]),
                                     (-T, "dl2" + key)]
                            yield "c1ciii_b" + key, terms, T - 3, "dl1" + key, "dl2" + key
    for k in range(1, q + 1):
        for i in range(k, p + 1):
            for j in range(k, p + 1):
                for h in range(j + 1, p + 1):
                    if i not in (j, h):
                        key = f"_{h}_{i}_{j}_{k}"
                        terms = [(1, z[h, i, k]), (-1, z[j, i, k]), (T, zhat[j, i, k]),
                                 (-T, "dl6" + key)]
                        yield "c1d1_b" + key, terms, T - 1, "dl5" + key, "dl6" + key


@pytest.mark.parametrize("capacity", [None, 2])
def test_b_rows_are_the_appendix_rows_with_dl2_substituted(capacity):
    """Each disjunction's emitted b row is its appendix row with dl2 :=
    1 - dl1 (dl6 := 1 - dl5), which the appendix's _or row dl1 + dl2 <= 1
    allows: same name and terms, (T, dl1) in place of (-T, dl2), right side
    + T.  No _or row and no dl2/dl6 binary is declared."""
    for p in range(1, 7):
        for q in range(1, p + 1):
            model = emit_ip(p, q, 30, capacity=capacity)
            T, rows = model.T, {c.name: c for c in model.constraints}
            expected = list(_appendix_b_rows(model))
            emitted = [n for n in rows if n.startswith(("c1ciii_b", "c1d1_b"))]
            assert sorted(emitted) == sorted(name for name, *_ in expected), (p, q)
            for name, terms, rhs, dl1, dl2 in expected:
                row = rows[name]
                assert row.terms == [(T, dl1) if t == (-T, dl2) else t for t in terms], name
                assert (row.sense, row.rhs) == ("<=", rhs + T), name
                assert model.aux[dl1].name == name.replace("_b_", "_a_"), name
            assert not [n for n in rows if "_or_" in n], (p, q)
            declared = [*model.int_vars, *model.bin_vars]   # rows read no other name
            assert not [v for v in declared if v.startswith(("dl2_", "dl6_"))], (p, q)


def test_kept_precedence_closed_forms():
    # 1a-i and 1a-ii over consecutive panels, 1b-ii over the last panel
    # only, and total_time >= v for x_i_q, w_i_k_i (i < k) and every z
    for p, q in ((1, 1), (2, 2), (3, 2), (4, 3), (5, 5), (6, 2), (8, 8)):
        model = emit_ip(p, q, 1028)
        counts = Counter(c.group for c in model.constraints)
        pairs = [(k, l) for k in range(2, q + 1) for l in range(2, k)]
        forms = {
            "1a-i": sum(p - l + 1 for _, l in pairs),
            "1a-ii": sum((p - l + 1) ** 2 for _, l in pairs),
            "1b-ii": sum((p - k + 1) ** 2 for k in range(2, q + 1)),
            "objective": (p - q + 1) + q * (q - 1) // 2
            + sum((p - k + 1) * (p - k) for k in range(1, q + 1)),
            "1a-v": 0,
            "1c-iv": 0,
        }
        assert {g: counts[g] for g in forms} == forms, (p, q)
    assert [forms[g] for g in ("1a-i", "1a-ii", "1b-ii", "objective")] == [112, 644, 140, 197]


def _p1_case():
    """A valid single-processor 3x2 schedule, its model and its completed
    assignment."""
    g, s = _schedule(3, 2, "greedy", 1)
    model = emit_ip(3, 2, s.makespan // 2 + 4, capacity=1)
    times = schedule_to_assignment(g, s)
    assign = complete_assignment(model, times)
    ok, violated = check_feasible(model, assign)
    assert ok, [v.name for v in violated[:5]]
    return model, times, assign


def _violated(model, assign):
    ok, violated = check_feasible(model, assign)
    assert not ok
    return {v.name for v in violated}


def test_capacity_overlap_violates_slot_row():
    model, times, _ = _p1_case()
    first = min((v for v in times if v.split("_")[0] in ("w", "x", "y", "z")), key=times.get)
    times = {**times, first: times[first] + 1}   # now overlaps the next kernel
    names = _violated(model, complete_assignment(model, times))
    assert f"cap_{times[first]}" in names


def test_capacity_pulse_in_wrong_slot_violates_capfin():
    model, times, assign = _p1_case()
    var = "x_1_1"
    del assign[f"at_{var}_{times[var]}"]
    assign[f"at_{var}_{times[var] + 1}"] = 1
    assert f"capfin_{var}" in _violated(model, assign)


def test_capacity_two_pulses_violate_capone():
    model, _, assign = _p1_case()
    var = "w_2_2_1"
    assign[f"at_{var}_{model.T}"] = 1
    assert f"capone_{var}" in _violated(model, assign)


def test_capacity_pulse_on_unperformed_action_violates_capone():
    model, _, assign = _p1_case()
    var = next(f"z_{i}_{j}_{k}" for i, j, k in model.z_tuples()
               if f"zhat_{i}_{j}_{k}" not in assign)
    assign[f"at_{var}_{model.T}"] = 1
    assert f"capone_{var}" in _violated(model, assign)


def test_completion_drops_stale_pulses():
    model, times, assign = _p1_case()
    stale = {**times, f"at_x_1_1_{times['x_1_1'] + 1}": 1}
    assert complete_assignment(model, stale) == assign


@pytest.mark.parametrize("early", [True, False])
def test_completion_sets_only_declared_pulses(early):
    # a finish before the kernel's duration or past T has no pulse: the
    # capacity rows report it, not an undeclared pulse name
    model, times, _ = _p1_case()
    var = "x_1_1"
    done = complete_assignment(model, {**times, var: 1 if early else model.T + 1})
    assert not any(v.startswith(f"at_{var}_") for v in done)
    ok, violated = check_feasible(model, done)
    assert not ok and f"capone_{var}" in {v.name for v in violated}
    assert [v.name for v in violated if v.group == "domain"] == ([] if early else [var])


def _minimizer(model, integral=True):
    """A function from (coef, var) terms to their minimum over the model by
    scipy's HiGHS, over its integer points or (integral=False) its LP
    relaxation; None if the model is infeasible.  The matrix is built once,
    from the Constraint rows."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    names = sorted(model.int_vars) + model.bin_vars
    col = {n: i for i, n in enumerate(names)}
    rows, cols, vals, lo, hi = [], [], [], [], []
    for r, con in enumerate(model.constraints):
        for coef, var in con.terms:
            rows.append(r)
            cols.append(col[var])
            vals.append(coef)
        lo.append(-np.inf if con.sense == "<=" else con.rhs)
        hi.append(np.inf if con.sense == ">=" else con.rhs)
    a = sparse.coo_array((vals, (rows, cols)), shape=(len(model.constraints), len(names)))
    rows = optimize.LinearConstraint(a, lo, hi)
    bounds = optimize.Bounds(0, [model.int_vars.get(n, 1) for n in names])
    integrality = np.full(len(names), int(integral))

    def minimize(terms):
        cost = np.zeros(len(names))
        for coef, var in terms:
            cost[col[var]] += coef
        res = optimize.milp(cost, constraints=rows, integrality=integrality, bounds=bounds)
        assert res.status in (0, 2), res.message
        return res.fun if res.status == 0 else None
    return minimize


def _milp_optimum(model):
    """Minimal total_time of the model by scipy's MILP solver, or None if it
    is infeasible."""
    fun = _minimizer(model)([(1, "total_time")])
    return None if fun is None else round(fun)


# optima of the overlap-binary capacity block this formulation replaced,
# except 3x2 P=2: 16, the best list-schedule makespan (that block's 15 came
# from disjunction rows that let both sides be relaxed), and 3x3 P=2: 30,
# the exact 2-processor optimum of every named 3x3 tree (that block's 29
# came from a 4b row that let a pair update run alongside its zeroing)
@pytest.mark.parametrize("p,q,procs,T,optimum", [
    (2, 2, 1, 24, 16),
    (3, 2, 1, 32, 28),
    (3, 2, 2, 24, 16),
    (3, 3, 2, 36, 30),
    (3, 2, 1, 22, None),
])
def test_capacity_optimum_matches_solver(p, q, procs, T, optimum):
    pytest.importorskip("scipy")
    assert _milp_optimum(emit_ip(p, q, T, capacity=procs)) == optimum


# uncapacitated optima: the smallest critical path over the named trees
@pytest.mark.parametrize("p,q,T,optimum", [(3, 2, 24, 14), (4, 3, 36, 22)])
def test_uncapacitated_optimum_matches_solver(p, q, T, optimum):
    pytest.importorskip("scipy")
    assert min(build_tree(p, q, tree).cp for tree in NAMED_TREES) == 2 * optimum
    assert _milp_optimum(emit_ip(p, q, T)) == optimum


def _moved(model, times, var, other):
    """The rows that an assignment breaks once action var is moved to
    finish with action other."""
    assert times[var] != times[other]
    ok, violated = check_feasible(model, complete_assignment(model, {**times, var: times[other]}))
    assert not ok
    return violated


def _overlap_violations(p, q, var, other):
    """The rows that a valid flat-tree schedule breaks once action var is
    moved to finish with action other."""
    g, s = _schedule(p, q, "flattree", 1000)
    model = emit_ip(p, q, s.makespan // 2 + 4)
    return {v.name for v in _moved(model, schedule_to_assignment(g, s), var, other)}


def test_pair_updates_sharing_a_row_overlap_rejected():
    # both pair updates of column 2 by panel 1 pivot on row 1; dl1 relaxes
    # row a, so only row b, which 1 - dl1 would relax, sees the overlap
    assert _overlap_violations(3, 2, "y_3_1_2_1", "y_2_1_2_1") == {"c1ciii_b_3_1_2_2_1"}


def test_zeroings_sharing_a_pivot_overlap_rejected():
    assert _overlap_violations(3, 1, "z_3_1_1", "z_2_1_1") == {"c1d1_b_3_1_2_1"}


def test_every_overlap_of_a_shared_row_or_pivot_rejected():
    # in list schedules of four trees, move each performed pair update to
    # finish with another of its (column, panel) that shares a row, and each
    # zeroing with another of its column that shares the pivot: a row of the
    # disjunction's group must break, so no lost disjunction passes unseen
    moves = 0
    for p in range(1, 6):
        for q in range(1, p + 1):
            for algo in ("flattree", "greedy", "binarytree", "fibonacci"):
                g, s = _schedule(p, q, algo, 3)
                model = emit_ip(p, q, s.makespan // 2 + 4)
                times = schedule_to_assignment(g, s)
                done = [(v, tuple(map(int, v.split("_")[1:]))) for v in times
                        if v[:2] in ("y_", "z_")]
                for var, (i, j, *col) in done:
                    for other, (h, o, *ocol) in done:
                        if var[0] != other[0] or col != ocol or var == other:
                            continue
                        if var[0] == "y" and {i, j} & {h, o}:
                            group = "1c-iii"
                        elif var[0] == "z" and j == o:
                            group = "1d-case1"
                        else:
                            continue
                        violated = _moved(model, times, var, other)
                        assert any(v.group == group for v in violated), (algo, var, other)
                        moves += 1
    assert moves == 862


def test_pair_update_before_its_zeroing_ends_rejected():
    # the 2x2 flat tree on one processor finishes z_2_1_1 at 11 and the
    # pair update applying its transform at 14; finishing that at 13 starts
    # it at 10, while the transform is still being made
    g, s = _schedule(2, 2, "flattree", 1)
    model = emit_ip(2, 2, s.makespan // 2 + 4)
    times = schedule_to_assignment(g, s)
    assert (times["z_2_1_1"], times["y_2_1_2_1"]) == (11, 14)
    times["y_2_1_2_1"] = 13
    assert _violated(model, complete_assignment(model, times)) == {"c4b_1_2_1_2"}


# sha256 pins taken before the variable-name tables replaced per-call name
# formatting: full renders of capacity models, completed assignments of one
# uncapacitated and one capacitated schedule.  Re-taken when the rows that
# kept rows imply were deleted, when the disjunction rows became <= 1, when
# 4b waited for its zeroing's end and 1c-iii lost its mirrored copies, and
# (the renders only) when the above-diagonal x_i_k = 0 bounds went.
# (5, 4, 60, 2) was added before the rows were built from shared term blocks.
# The renders alone were re-taken when the rows that sums of kept rows give
# were cut; the completed assignments did not move.  Both were re-taken when
# the _or rows went: the renders lost them and dl2/dl6, and the completed
# assignments are the old ones without their dl2/dl6 entries.
CAPACITY_RENDER_SHA256 = {
    (3, 2, 16, 1): "2ceaebc9160984f6662d8e4547a3d51cc8c1732fca24402ce5e887636b7600a3",
    (4, 3, 30, 2): "64f51c7dc4b29ff378cfff39c9477f6b0d35a97f8dc1f7121e358d89c4a0fa02",
    (5, 5, 44, 4): "0f76aa8c7b5c0f51d8c59ecb7aee373978c3440fd9bb0c46abfab82b071aafe0",
    (5, 4, 60, 2): "df5ad3e81ba41ab061c9a77fab2339828deb36a097fee9e13fae31b52649b81b",
}
COMPLETED_SHA256 = {
    False: "7298b7e2eb92e599a1cfd8d483ebc38aef53e4831127bdb4fd973fb97e330a1d",
    True: "17eadb04706ececbfb4c7a26ff2d7f1826ac1408a1c6663b4dc5e2d501830e4b",
}


def test_capacity_render_pinned():
    for (p, q, T, procs), digest in CAPACITY_RENDER_SHA256.items():
        assert _sha(emit_ip(p, q, T, capacity=procs).render()) == digest, (p, q, T, procs)


@pytest.mark.parametrize("capacitated", [False, True])
def test_completed_assignment_pinned(capacitated):
    if capacitated:
        g, s = _schedule(5, 5, "grasap", 11)
        model = emit_ip(5, 5, 44, capacity=11)
    else:
        g, s = _schedule(4, 3, "greedy", 2)
        model = emit_ip(4, 3, s.makespan // 2 + 4)
    assign = complete_assignment(model, schedule_to_assignment(g, s))
    assert check_feasible(model, assign)[0]
    assert _sha(assignment_text(assign)) == COMPLETED_SHA256[capacitated]


def test_greedy_7x5_feasible():
    """The valid 7x5 greedy schedule once violated plink_4_6_7_2_4, a row
    that linked column 2's zeroing order to column 4's update order."""
    g, s = _schedule(7, 5, "greedy", 1)
    model = emit_ip(7, 5, s.makespan // 2 + 4)
    ok, violated = check_feasible(model, complete_assignment(model, schedule_to_assignment(g, s)))
    assert ok, [v.name for v in violated]


def test_named_tree_round_trip_p8():
    """Every named tree's list schedule on 1 and 1000 processors, q <= p <= 8,
    is feasible; one model per shape, its horizon past the longest schedule."""
    for p in range(1, 9):
        for q in range(1, p + 1):
            cases = [_schedule(p, q, tree, procs) for tree in NAMED_TREES for procs in (1, 1000)]
            model = emit_ip(p, q, max(s.makespan for _, s in cases) // 2 + 4)
            for n, (g, s) in enumerate(cases):
                assign = complete_assignment(model, schedule_to_assignment(g, s))
                ok, violated = check_feasible(model, assign)
                assert ok, (p, q, NAMED_TREES[n // 2], [v.name for v in violated[:3]])


def test_domain_violations_reported():
    g, s = _schedule(3, 2, "greedy", 2)
    model = emit_ip(3, 2, 32)
    assign = complete_assignment(model, schedule_to_assignment(g, s))
    assert check_feasible(model, assign)[0]
    bad = {"total_time": 10 ** 6, "x_9_9": 5, "y_1_2_2_1": -1, "zhat_2_1_1": 2,
           "x_1_2": 3, "at_x_1_1_5": 1}
    ok, violated = check_feasible(model, {**assign, **bad})
    assert not ok
    assert {v.name for v in violated if v.group == "domain"} == set(bad)
    assert check_feasible(model, {**assign, "zhat_2_1_1": 1, "total_time": 32})[0]
    # an above-diagonal triangularization is not declared, even at 0
    ok, violated = check_feasible(model, {**assign, "x_1_2": 0})
    assert not ok and violated == [DomainViolation("x_1_2")]


@pytest.mark.parametrize("capacity", [None, 2])
def test_model_structure(capacity):
    for p in range(1, 8):
        for q in range(1, p + 1):
            model = emit_ip(p, q, 12, capacity=capacity)
            names = [c.name for c in model.constraints]
            assert len(set(names)) == len(names), (p, q)
            assert not set(model.int_vars) & set(model.bin_vars), (p, q)
            assert len(set(model.bin_vars)) == len(model.bin_vars), (p, q)
            declared = set(model.int_vars) | set(model.bin_vars)
            # rows may share term tuples, never a terms list
            assert len({id(c.terms) for c in model.constraints}) == len(model.constraints)
            for con in model.constraints:
                assert con.terms, (p, q, con.name)
                assert {v for _, v in con.terms} <= declared, (p, q, con.name)
            # every auxiliary binary is recorded, in emission order, with the
            # one row that bounds it from below and holds no later auxiliary
            assert list(model.aux) == [v for v in model.bin_vars
                                       if not v.startswith(("yhat_", "zhat_", "at_"))]
            emitted = {id(c) for c in model.constraints}
            seen = set()
            for var, row in model.aux.items():
                assert isinstance(row, Constraint) and id(row) in emitted, (p, q, var)
                coef = {v: c for c, v in row.terms}
                assert row.sense in ("<=", ">="), row.name
                assert coef[var] > 0 if row.sense == ">=" else coef[var] < 0, row.name
                assert {v for v in coef if v in model.aux} <= seen | {var}, row.name
                seen.add(var)


@pytest.mark.parametrize("capacity", [None, 2])
def test_no_redundant_rows(capacity):
    """No inequality row has a twin with the same left side (>= rows
    negated): of two such rows, the one with the looser right side would
    follow from the other.  Nor has it a twin once every auxiliary binary
    reads as one marker (rows of auxiliaries alone keep their names): the
    two would state one separation twice, relaxed by different binaries."""
    for p in range(1, 7):
        for q in range(1, p + 1):
            model = emit_ip(p, q, 30, capacity=capacity)
            seen = {}
            for con in model.constraints:
                if con.sense == "=":
                    continue
                sign = 1 if con.sense == "<=" else -1
                only_aux = all(v in model.aux for _, v in con.terms)
                lhs = tuple(sorted((v if only_aux or v not in model.aux else "aux", sign * c)
                                   for c, v in con.terms))
                assert lhs not in seen, (p, q, seen[lhs], con.name)
                seen[lhs] = con.name


def test_double_orientation_rejected():
    """A pair update run in both orientations (both hats set, one finish
    time) breaks a 1a-ii, 1a-iii or 1b-ii row, so no row of its own is
    needed to forbid it."""
    for p in range(1, 6):
        for q in range(1, p + 1):
            g, s = _schedule(p, q, ROTATED_TREES[(p + q) % 4], 3)
            model = emit_ip(p, q, s.makespan // 2 + 4)
            times = schedule_to_assignment(g, s)
            for (i, j, k, l), var in model.y.items():
                if var not in times:
                    continue
                twin = {**times, model.y[j, i, k, l]: times[var], model.yhat[j, i, k, l]: 1}
                ok, violated = check_feasible(model, complete_assignment(model, twin))
                groups = {v.group for v in violated}
                assert not ok and groups & {"1a-ii", "1a-iii", "1b-ii"}, (p, q, var, groups)


# sha256 of the completed assignments, verdicts and violated rows of one
# named-tree schedule per shape q <= p <= 6 and four seeded in-domain
# mutations of each (times redrawn in [0, T], hats in {0, 1}); re-taken when
# the rows that sums of kept rows give were cut, as the cut rows' names left
# the violated lists (VERDICT_SHA256 below did not move), and when the _or
# rows went: the completions lost dl2/dl6, and each violated _or row now
# reads as its b row
MUTATION_SHA256 = {
    False: "02d57984d7a885742e6ead438ae2b30b07b05888ed8b263ab0633678d386edc2",
    True: "87c7e161f8c147ec356c257ddb69adaa399bcf969c2a2dd1b6b2641c896e7e5d",
}


def _mutants(model, times, rng, n):
    names = [v for t in (model.w, model.x, model.y, model.z) for v in t.values()]
    hats = [*model.yhat.values(), *model.zhat.values()]
    for _ in range(n):
        m = dict(times)
        for v in rng.sample(names, min(3, len(names))):
            m[v] = rng.randint(0, model.T)
        for v in rng.sample(hats, min(2, len(hats))):
            m[v] = rng.randint(0, 1)
        yield m


def _mutation_cases(capacitated):
    """(model, completed assignment) of one named-tree schedule per shape
    q <= p <= 6 and four seeded in-domain mutations of each."""
    rng = random.Random(20261018)
    procs = 2 if capacitated else 3
    for p in range(1, 7):
        for q in range(1, p + 1):
            g, s = _schedule(p, q, ROTATED_TREES[(p + q) % 4], procs)
            model = emit_ip(p, q, s.makespan // 2 + 4, capacity=procs if capacitated else None)
            times = schedule_to_assignment(g, s)
            for assign in [times, *_mutants(model, times, rng, 4)]:
                yield model, complete_assignment(model, assign)


@pytest.mark.parametrize("capacitated", [False, True])
def test_in_domain_mutations_pinned(capacitated):
    digest = hashlib.sha256()
    for model, done in _mutation_cases(capacitated):
        ok, violated = check_feasible(model, done)
        digest.update(assignment_text(done).encode())
        digest.update(f"{ok} {[v.name for v in violated]}\n".encode())
    assert digest.hexdigest() == MUTATION_SHA256[capacitated]


# sha256 of the verdicts alone (no row names, no auxiliary values): the list
# schedules of the six named trees on 1 and 3 processors, q <= p <= 6, and
# the mutants above.  Deleting implied rows or fixing a row that cuts no
# valid schedule must leave every verdict where it is.
VERDICT_SHA256 = {
    False: "fb2ed390892213db217e6f1bdb3879bfd0bdcac79bb7048b2a55f6e2eee057ac",
    True: "51b5b21b04395d80d5959cf1055d09f0257d1b7934faa666db425f5214fbbeab",
}


@pytest.mark.parametrize("capacitated", [False, True])
def test_verdicts_pinned(capacitated):
    digest = hashlib.sha256()
    for p in range(1, 7):
        for q in range(1, p + 1):
            cases = [_schedule(p, q, tree, procs) for tree in NAMED_TREES for procs in (1, 3)]
            model = emit_ip(p, q, max(s.makespan for _, s in cases) // 2 + 4,
                            capacity=2 if capacitated else None)
            for g, s in cases:
                done = complete_assignment(model, schedule_to_assignment(g, s))
                digest.update(b"1" if check_feasible(model, done)[0] else b"0")
    for model, done in _mutation_cases(capacitated):
        digest.update(b"1" if check_feasible(model, done)[0] else b"0")
    assert digest.hexdigest() == VERDICT_SHA256[capacitated]


def _parse_rows(text):
    """(name, terms, sense, rhs) of each row of render()'s Subject To
    section, read back from the LP text alone."""
    lines = text.splitlines()
    rows = []
    for line in lines[lines.index("Subject To") + 1:lines.index("Bounds")]:
        name, *tokens, sense, rhs = line.split()
        terms, sign, coef = [], 1, 1
        for tok in tokens:
            if tok in ("+", "-"):
                sign = 1 if tok == "+" else -1
            elif tok.isdigit():
                coef = int(tok)
            else:
                terms.append((sign * coef, tok))
                sign, coef = 1, 1
        rows.append((name.removesuffix(":"), terms, sense, int(rhs)))
    return rows


_SENSE = {"<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b, "=": lambda a, b: a == b}


@pytest.mark.parametrize("p,q,procs", [(8, 8, None), (5, 4, 2)])
def test_rendered_rows_judge_like_check_feasible(p, q, procs):
    """The rows read back from render() are the model's rows, and evaluated
    on their own they break exactly the rows check_feasible reports, on
    seeded in-domain assignments: a schedule, its mutants, and draws of
    every declared variable."""
    g, s = _schedule(p, q, "greedy", procs or 3)
    model = emit_ip(p, q, s.makespan // 2 + 4, capacity=procs)
    rows = _parse_rows(model.render())
    assert rows == [(c.name, c.terms, c.sense, c.rhs) for c in model.constraints]
    rng = random.Random(20261019)
    times = schedule_to_assignment(g, s)
    cases = [complete_assignment(model, m) for m in [times, *_mutants(model, times, rng, 4)]]
    for _ in range(2):
        draw = {v: rng.randint(0, ub) for v, ub in model.int_vars.items()}
        cases.append({**draw, **{v: rng.randint(0, 1) for v in model.bin_vars}})
    for assign in cases:
        broken = [name for name, terms, sense, rhs in rows
                  if not _SENSE[sense](sum(c * assign.get(v, 0) for c, v in terms), rhs)]
        ok, violated = check_feasible(model, assign)
        assert [v.name for v in violated] == broken and ok == (not broken)


def _cut_rows(model):
    """(name, terms, sense, rhs) of the appendix rows that the model leaves
    out as sums of kept rows, built from the appendix definitions: 1a-i and
    1a-ii over non-consecutive panels, 1b-ii below the last panel, all of
    1a-v and 1c-iv, and total_time >= v for every action but x_i_q,
    w_i_k_i (i < k) and the zeroings."""
    p, q, T = model.p, model.q, model.T
    w, x, y, z, zhat = model.w, model.x, model.y, model.z, model.zhat

    def zoff(i, j, k):
        return [(-1, z[i, j, k]), (-1, z[j, i, k]), (T, zhat[i, j, k]), (T, zhat[j, i, k])]

    for (i, k, l), v in w.items():
        for l1 in range(1, l - 1):
            yield "1a-i", [(1, v), (-1, w[i, k, l1])], ">=", 3
            for j in range(l1, p + 1):
                if j != i:
                    yield "1a-ii", [(1, v), (-1, y[i, j, k, l1]), (-1, y[j, i, k, l1])], ">=", 3
    for (i, j, k, l), v in y.items():
        for r in (i, j):
            if i < j and r >= k and l < k - 1:
                yield "1b-ii", [(1, x[r, k]), (-1, v), (-1, y[j, i, k, l])], ">=", 2
            if r >= k:
                for h in range(k, p + 1):
                    if h != r and (r != j or h != i):   # {r, h} = {i, j} once
                        yield "1c-iv", [(1, v), *zoff(h, r, k)], "<=", T - 3
    for (i, j, k) in z:
        if i < j:
            for r in (i, j):
                for l in range(1, k):
                    yield "1a-v", [(1, w[r, k, l]), *zoff(i, j, k)], "<=", T - 1
    kept = {*[v for (i, k, l), v in w.items() if i == l], *z.values(),
            *[v for (i, k), v in x.items() if k == q]}
    for v in [*w.values(), *x.values(), *y.values()]:
        if v not in kept:
            yield "objective", [(1, "total_time"), (-1, v)], ">=", 0


def test_cut_rows_are_lp_implied():
    """Each row the model leaves out holds on the LP relaxation of the rows
    it keeps: the left side's maximum (<= rows) or minimum (>= rows) within
    the declared bounds respects the right side."""
    pytest.importorskip("scipy")
    seen = Counter()
    for p in range(1, 5):
        for q in range(1, p + 1):
            model = emit_ip(p, q, 60)
            minimize = _minimizer(model, integral=False)
            for group, terms, sense, rhs in _cut_rows(model):
                sign = -1 if sense == "<=" else 1
                fun = minimize([(sign * c, v) for c, v in terms])
                assert fun is not None, (p, q, group, terms)   # LP status 0
                assert sign * fun >= sign * rhs - 1e-6, (p, q, group, terms, sign * fun)
                seen[group] += 1
    assert sorted(seen) == ["1a-i", "1a-ii", "1a-v", "1b-ii", "1c-iv", "objective"]
