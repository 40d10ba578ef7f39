import hashlib
import itertools
import random

import pytest

from tiledag import (
    WeightModel, build_from_trace, build_tree, check_feasible,
    complete_assignment, emit_ip, list_schedule, parse_assignment,
    schedule_to_assignment,
)
from tiledag.ipmodel import assignment_text

WQ = WeightModel.qr_tt()


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


def test_mutation_violates_group3():
    g, s = _schedule(4, 3, "grasap", 4)
    model = emit_ip(4, 3, s.makespan // 2 + 4)
    assign = schedule_to_assignment(g, s)
    victim = next(k for k in sorted(assign) if k.startswith("z_"))
    assign[victim] = 1   # the TTQRT now finishes before both GEQRTs
    assign = complete_assignment(model, assign)
    ok, violated = check_feasible(model, assign)
    assert not ok
    assert "3" in {v.group for v in violated}


def test_trivial_1x1():
    g, s = _schedule(1, 1, "flattree", 1)
    model = emit_ip(1, 1, 4)
    assert model.fixed == {}
    ok, _ = check_feasible(model, complete_assignment(model, schedule_to_assignment(g, s)))
    assert ok


def test_emission_deterministic_and_fixings():
    a = emit_ip(2, 2, 20).render()
    b = emit_ip(2, 2, 20).render()
    assert a == b
    assert " x_1_2 = 0" in a
    assert "Minimize" in a and a.rstrip().endswith("End")
    model = emit_ip(2, 2, 20)
    nine = [c for c in model.constraints if c.group == "9"]
    assert len(nine) == 1 and nine[0].sense == "=" and nine[0].rhs == 1


def _action_counts(p, q):
    """(w, free x, fixed x, y, z) counts by direct enumeration."""
    w = sum(1 for k in range(2, q + 1) for l in range(1, k)
            for i in range(l, p + 1))
    x_free = sum(1 for k in range(1, q + 1) for i in range(k, p + 1))
    x_fixed = sum(1 for k in range(1, q + 1) for i in range(1, k))
    y = sum(1 for k in range(2, q + 1) for l in range(1, k)
            for i in range(l, p + 1) for j in range(l, p + 1) if i != j)
    z = sum(1 for k in range(1, q + 1) for i in range(k, p + 1)
            for j in range(k, p + 1) if i != j)
    return w, x_free, x_fixed, y, z


def test_variable_counts_match_enumeration():
    for p, q in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4)):
        model = emit_ip(p, q, 50)
        w, x_free, x_fixed, y, z = _action_counts(p, q)
        ints = {n for n in model.int_vars if n != "total_time"}
        assert len([n for n in ints if n.startswith("w_")]) == w
        assert len([n for n in ints if n.startswith("x_")]) == x_free
        assert len(model.fixed) == x_fixed
        assert len([n for n in ints if n.startswith("y_")]) == y
        assert len([n for n in ints if n.startswith("z_")]) == z
        yhat = [n for n in model.bin_vars if n.startswith("yhat_")]
        zhat = [n for n in model.bin_vars if n.startswith("zhat_")]
        assert len(yhat) == y and len(zhat) == z
        # obligation constraints: one per sub-diagonal tile
        nine = [c for c in model.constraints if c.group == "9"]
        assert len(nine) == sum(p - k for k in range(1, min(p, q) + 1))
        # precedence tuples: ordered distinct row triples at or below k
        prec = sum(1 for k in range(1, q + 1)
                   for h, i, j in itertools.permutations(range(k, p + 1), 3))
        assert len([n for n in model.bin_vars if n.startswith("a1_")]) == prec


def test_non_tt_graph_rejected():
    b = build_tree(3, 2, "flattree", family="TS")
    g = build_from_trace(b.trace)
    s = list_schedule(g, WeightModel.qr_tt(), 2, "max")
    with pytest.raises(ValueError, match="TT kernels"):
        schedule_to_assignment(g, s, WeightModel.qr_tt())


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
    with pytest.raises(ValueError):
        emit_ip(3, 2, 0)
    with pytest.raises(ValueError):
        emit_ip(2, 3, 10)


def test_bad_capacity():
    for bad in (0, -2, 1.5, "2", True):
        with pytest.raises(ValueError, match="capacity"):
            emit_ip(3, 2, 16, capacity=bad)


# sha256 of render(), taken before the pulse capacity block replaced the
# overlap-binary block: the uncapacitated model must not move.  (5, 3, 30)
# was re-taken when the prec-link rows were limited to consecutive columns.
RENDER_SHA256 = {
    (3, 2, 16): "4a9bef4595c4b2fc3f9dbd979dfb967115b66f55b86bc08ca7b87880e2aa33d2",
    (4, 4, 40): "b389502efc9a5f3f2f75622fe441cb68dc030f82dfc568cf1db17c0c60ce8962",
    (5, 3, 30): "eea1ddfa6f05417e862b6757ae62f096cc1b834b53f5ccf2b0e4036f320e8391",
}
NON_CAPACITY_ROWS_SHA256 = "0d52f8a8017961f8275804980defa1e73a6a2243db292bd271427f13d8f1cf49"


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


def test_capacity_block_closed_forms():
    for p, q, T in ((1, 1, 4), (2, 2, 20), (3, 2, 16), (4, 3, 30), (5, 5, 44)):
        w, x, _, y, z = _action_counts(p, q)
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


def _milp_optimum(model):
    """Minimal total_time of the model by scipy's MILP solver, or None if it
    is infeasible; the matrix is built from the Constraint rows."""
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
    cost = np.zeros(len(names))
    cost[col["total_time"]] = 1
    res = optimize.milp(cost, constraints=optimize.LinearConstraint(a, lo, hi),
                        integrality=np.ones(len(names)),
                        bounds=optimize.Bounds(0, [model.int_vars.get(n, 1) for n in names]))
    assert res.status in (0, 2), res.message
    return round(res.fun) if res.status == 0 else None


# optima of the overlap-binary capacity block this formulation replaced
@pytest.mark.parametrize("p,q,procs,T,optimum", [
    (2, 2, 1, 24, 16),
    (3, 2, 1, 32, 28),
    (3, 2, 2, 24, 15),
    (3, 3, 2, 36, 29),
    (3, 2, 1, 22, None),
])
def test_capacity_optimum_matches_solver(p, q, procs, T, optimum):
    pytest.importorskip("scipy")
    assert _milp_optimum(emit_ip(p, q, T, capacity=procs)) == optimum


# sha256 pins taken before the variable-name tables replaced per-call name
# formatting: full renders of capacity models, completed assignments of one
# uncapacitated and one capacitated schedule.  (5, 5, 44, 4) was re-taken
# when the prec-link rows were limited to consecutive columns.
CAPACITY_RENDER_SHA256 = {
    (3, 2, 16, 1): "fa64c74c20d87781dd3ca1e7a9a0698980f1fc7a10183e5f25c0fb5b4e9b6134",
    (4, 3, 30, 2): "7f2f2e220d2820b3c273e640c409e2e014be4ea329f63440f51aac9d9b1ce5cc",
    (5, 5, 44, 4): "fc0fe4105a30369bdae0658e278765e422c1847db66ffb56a203dad6f093abb9",
}
COMPLETED_SHA256 = {
    False: "58c987fe2e13a143ae14b95891031eccc86e93d2c7fa47d2f0a2ebbc6c48e314",
    True: "1805e81e70c7ce0c6e0cdd4c9fd967852c47cdf251f905126e2fe89f9ab4c088",
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
    links = [c.name.split("_")[4:] for c in model.constraints if c.group == "prec-link"]
    assert links and all(int(l) == int(k) + 1 for k, l in links)


def test_named_tree_round_trip_p8():
    """Every named tree's list schedule on 1 and 1000 processors, q <= p <= 8,
    is feasible; one model per shape, its horizon past the longest schedule."""
    trees = ("flattree", "fibonacci", "greedy", "binarytree", "asap", "grasap")
    for p in range(1, 9):
        for q in range(1, p + 1):
            cases = [_schedule(p, q, tree, procs) for tree in trees for procs in (1, 1000)]
            model = emit_ip(p, q, max(s.makespan for _, s in cases) // 2 + 4)
            for n, (g, s) in enumerate(cases):
                assign = complete_assignment(model, schedule_to_assignment(g, s))
                ok, violated = check_feasible(model, assign)
                assert ok, (p, q, trees[n // 2], [v.name for v in violated[:3]])


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
    assert check_feasible(model, {**assign, "x_1_2": 0, "zhat_2_1_1": 1, "total_time": 32})[0]


def test_fixed_variable_moves_to_rhs():
    model = emit_ip(3, 2, 16)
    assert model.fixed == {"x_1_2": 0} and model.x[1, 2] == "x_1_2"
    model.fixed["x_1_2"] = 2        # a nonzero fixing shows the substitution
    model._con("t", "test", [(3, "x_1_2"), (1, "x_2_2")], "<=", 10)
    row = model.constraints[-1]
    assert row.terms == [(1, "x_2_2")] and row.rhs == 4


@pytest.mark.parametrize("capacity", [None, 2])
def test_model_structure(capacity):
    for p in range(1, 8):
        for q in range(1, p + 1):
            model = emit_ip(p, q, 12, capacity=capacity)
            names = [c.name for c in model.constraints]
            assert len(set(names)) == len(names), (p, q)
            assert not set(model.int_vars) & set(model.bin_vars), (p, q)
            assert len(set(model.bin_vars)) == len(model.bin_vars), (p, q)
            declared = set(model.int_vars) | set(model.bin_vars) | set(model.fixed)
            for con in model.constraints:
                assert con.terms, (p, q, con.name)
                assert {v for _, v in con.terms} <= declared, (p, q, con.name)
            # every auxiliary binary is recorded, in emission order, with rows
            # that bound it from below and hold no later auxiliary
            assert list(model.aux) == [v for v in model.bin_vars
                                       if not v.startswith(("yhat_", "zhat_", "at_"))]
            seen = set()
            for var, rows in model.aux.items():
                assert rows, (p, q, var)
                for row in rows:
                    coef = {v: c for c, v in row.terms}
                    assert row.sense in ("<=", ">="), row.name
                    assert coef[var] > 0 if row.sense == ">=" else coef[var] < 0, row.name
                    assert {v for v in coef if v in model.aux} <= seen | {var}, row.name
                seen.add(var)


# sha256 of the completed assignments, verdicts and violated rows of one
# named-tree schedule per shape q <= p <= 6 and four seeded in-domain
# mutations of each (times redrawn in [0, T], hats in {0, 1})
MUTATION_SHA256 = {
    False: "758547b757827cf98640b7d45b000cdc4926f75f4ac8451558246b24ff4b579f",
    True: "e1dfb56a7ebc087deac1869f4fa98080cf1f4158e0abc8a0b25f2d677ec95ee6",
}


def _mutants(model, times, rng, n):
    names = [v for t in (model.w, model.x, model.y, model.z) for v in t.values()
             if v not in model.fixed]
    hats = [*model.yhat.values(), *model.zhat.values()]
    for _ in range(n):
        m = dict(times)
        for v in rng.sample(names, min(3, len(names))):
            m[v] = rng.randint(0, model.T)
        for v in rng.sample(hats, min(2, len(hats))):
            m[v] = rng.randint(0, 1)
        yield m


@pytest.mark.parametrize("capacitated", [False, True])
def test_in_domain_mutations_pinned(capacitated):
    rng = random.Random(20261018)
    trees = ("flattree", "greedy", "binarytree", "grasap")
    procs = 2 if capacitated else 3
    digest = hashlib.sha256()
    for p in range(1, 7):
        for q in range(1, p + 1):
            g, s = _schedule(p, q, trees[(p + q) % len(trees)], procs)
            model = emit_ip(p, q, s.makespan // 2 + 4, capacity=procs if capacitated else None)
            times = schedule_to_assignment(g, s)
            for assign in [times, *_mutants(model, times, rng, 4)]:
                done = complete_assignment(model, assign)
                ok, violated = check_feasible(model, done)
                digest.update(assignment_text(done).encode())
                digest.update(f"{ok} {[v.name for v in violated]}\n".encode())
    assert digest.hexdigest() == MUTATION_SHA256[capacitated]
