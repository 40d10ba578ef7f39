import ast
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tiledag import (
    Schedule, Task, TaskGraph, TileRef, WeightModel, alap_profile, alpha_min,
    annotate_cp, bounds_table, build_from_trace, build_tree, check_schedule,
    gamma_ub, gen_chol_fact, list_schedule, lost_area, lower_bound_factor,
    sync_chol_graph,
)

WC = WeightModel.cholesky()
WQ = WeightModel.qr_tt()


def chol_graph(t):
    return build_from_trace(gen_chol_fact(t, "right"))


def test_serialization_p1():
    g = chol_graph(4)
    s = list_schedule(g, WC, 1)
    assert s.makespan == sum(WC.of(t) for t in g.tasks)
    check_schedule(g, WC, s)


def test_cp_toy_nonoptimal():
    # A,B,C,D weights 3,3,1,1 with C before D: MaxCP gives 5, optimum is 4
    trace = [
        Task(0, "GEMM", ("A",), [], [TileRef("X", 0, 0)]),
        Task(1, "GEMM", ("B",), [], [TileRef("X", 1, 1)]),
        Task(2, "POTRF", ("C",), [], [TileRef("X", 2, 2)]),
        Task(3, "POTRF", ("D",), [TileRef("X", 2, 2)], [TileRef("X", 3, 3)]),
    ]

    class Toy(WeightModel):
        def __init__(self):
            self.name = "toy"
            self.table = {}

        def of(self, task):
            return {"A": 3, "B": 3, "C": 1, "D": 1}[task.indices[0]]

    wm = Toy()
    g = build_from_trace(trace)
    ann = annotate_cp(g, wm)
    assert [ann.priority[i] for i in range(4)] == [3, 3, 2, 1]
    assert list_schedule(g, wm, 2, "max").makespan == 5
    # exhaustive search over priority orders certifies the optimum of 4
    best = min(_forced_order_makespan(g, wm, 2, perm)
               for perm in itertools.permutations(range(4)))
    assert best == 4 == max(ann.cp_length, math.ceil(8 / 2))


def _forced_order_makespan(graph, wm, p, perm):
    class Forced:
        priority = {tid: -perm.index(tid) for tid in range(len(graph.tasks))}
        cp_length = 0

    return list_schedule(graph, wm, p, "max", annotation=Forced).makespan


def test_policies_and_determinism():
    g = chol_graph(6)
    ann = annotate_cp(g, WC)
    for p in (2, 4, 7):
        ms_max = list_schedule(g, WC, p, "max", annotation=ann).makespan
        ms_min = list_schedule(g, WC, p, "min", annotation=ann).makespan
        assert ms_max >= ann.cp_length
        assert ms_max >= math.ceil(sum(WC.of(t) for t in g.tasks) / p)
        r1 = list_schedule(g, WC, p, "random", seed=42, annotation=ann)
        r2 = list_schedule(g, WC, p, "random", seed=42, annotation=ann)
        assert r1.assignment == r2.assignment
        for seed in range(8):
            s = list_schedule(g, WC, p, "random", seed=seed, annotation=ann)
            check_schedule(g, WC, s)
        assert ms_min >= ann.cp_length
    with pytest.raises(ValueError):
        list_schedule(g, WC, 0)
    with pytest.raises(ValueError):
        list_schedule(g, WC, 2, "sideways")


def test_random_graph_schedule_validity():
    rng = random.Random(1)
    for _ in range(25):
        trace = []
        for i in range(rng.randint(5, 40)):
            reads = [TileRef("A", rng.randrange(6), 0) for _ in range(rng.randint(0, 2))]
            writes = [TileRef("A", rng.randrange(6), 0)]
            trace.append(Task(i, rng.choice(["GEMM", "SYRK", "POTRF"]), (), reads, writes))
        g = build_from_trace(trace)
        for p in (1, 2, 3):
            for policy in ("max", "min", "random"):
                s = list_schedule(g, WC, p, policy, seed=3)
                check_schedule(g, WC, s)


def _checked(assignment, makespan=7):
    """check_schedule on a fixed graph on 2 processors: GEMM 0 (weight 6)
    -> POTRF 1 (weight 1), with two zero-weight tasks, BARRIER 2 and COPY 3,
    that carry no edges."""
    g = TaskGraph([Task(0, "GEMM"), Task(1, "POTRF"), Task(2, "BARRIER"), Task(3, "COPY")],
                  [(0, 1, "RAW")])
    return check_schedule(g, WC, Schedule(assignment, makespan, 2))


def test_check_schedule_rejects_unassigned_task():
    with pytest.raises(AssertionError, match="task 3 unassigned"):
        _checked({0: (0, 0), 1: (0, 6), 2: (0, 0)})


def test_check_schedule_rejects_overlap_on_a_processor():
    with pytest.raises(AssertionError, match="overlap on processor 1: tasks 0 and 1"):
        _checked({0: (1, 0), 1: (1, 5), 2: (0, 0), 3: (0, 0)})


def test_check_schedule_rejects_violated_edge():
    with pytest.raises(AssertionError, match="precedence violated on edge 0->1"):
        _checked({0: (0, 0), 1: (1, 5), 2: (0, 0), 3: (0, 0)})


def test_check_schedule_rejects_processor_out_of_range():
    with pytest.raises(AssertionError, match="task 1 on processor 7, outside 0..1"):
        _checked({0: (0, 0), 1: (7, 6), 2: (0, 0), 3: (0, 0)})


def test_check_schedule_rejects_negative_start():
    with pytest.raises(AssertionError, match="task 0 starts at -3, before 0"):
        _checked({0: (0, -3), 1: (1, 6), 2: (0, 0), 3: (0, 0)})


def test_check_schedule_rejects_makespan_other_than_last_finish():
    with pytest.raises(AssertionError, match="makespan 1 is not the largest finish 7"):
        _checked({0: (0, 0), 1: (0, 6), 2: (0, 0), 3: (0, 0)}, makespan=1)


def test_check_schedule_rejects_zero_weight_task_out_of_range():
    with pytest.raises(AssertionError, match="task 2 on processor 99, outside 0..1"):
        _checked({0: (0, 0), 1: (0, 6), 2: (99, 0), 3: (0, 0)})


def test_check_schedule_rejects_zero_weight_task_before_0():
    with pytest.raises(AssertionError, match="task 3 starts at -5, before 0"):
        _checked({0: (0, 0), 1: (0, 6), 2: (0, 0), 3: (1, -5)})


def test_check_schedule_accepts_zero_weight_tasks_sharing_a_start():
    assert _checked({0: (0, 0), 1: (0, 6), 2: (0, 6), 3: (0, 6)})
    assert _checked({0: (0, 0), 1: (1, 6), 2: (0, 3), 3: (0, 3)})


def test_lost_area_pairs_and_table42():
    g = chol_graph(5)
    prof = alap_profile(g, WC)
    assert prof.t_seq == 125 and prof.makespan == 35
    assert [(p, lost_area(prof, p)) for p in range(1, 6)] == \
        [(1, 0), (2, 4), (3, 11), (4, 24), (5, 45)]
    rows = bounds_table(g, WC, range(1, 11))
    t_vals = [float(r.t_alap) for r in rows]
    assert t_vals[:5] == [125.0, 64.5, pytest.approx(45.3333, abs=1e-3), 37.25, 35.0]
    assert all(v == 35.0 for v in t_vals[4:])
    assert rows[1].speedup == Fraction(125, Fraction(129, 2)) == Fraction(250, 129)


def test_lost_area_singleton():
    trace = [Task(0, "GEQRT", (), [], [TileRef("A", 0, 0)])]
    g = build_from_trace(trace)
    prof = alap_profile(g, WQ)
    assert lost_area(prof, 3) == 8
    assert bounds_table(g, WQ, [3])[0].t_alap == 4


def test_zero_weight_dag_bounds():
    # nothing to run: every bound is 0 and the speedup is defined as 1
    g = build_from_trace([Task(0, "COPY", (), [], [TileRef("A", 0, 0)]),
                          Task(1, "BARRIER")])
    wu = WeightModel.unit()
    rows = bounds_table(g, wu, [1, 4])
    assert [(r.lost_area, r.t_alap, r.t_roof, r.speedup, r.efficiency) for r in rows] \
        == [(0, 0, 0, 1, 1), (0, 0, 0, 1, Fraction(1, 4))]
    with pytest.raises(ValueError, match="p >= 1"):
        bounds_table(g, wu, [0])


def test_alap_bound_monotone_and_converges():
    for graph, wm in ((chol_graph(6), WC),
                      (build_from_trace(build_tree(8, 4, "greedy").trace), WQ)):
        ann = annotate_cp(graph, wm)
        rows = bounds_table(graph, wm, range(1, 40))
        vals = [r.t_alap for r in rows]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == ann.cp_length
        assert all(r.t_alap >= r.t_roof for r in rows)


def test_rooftop_and_lower_bound():
    g = chol_graph(5)
    p1, p3, p4 = bounds_table(g, WC, [1, 3, 4])
    assert p3.t_roof == Fraction(125, 3)
    assert p3.t_roof < p3.t_alap == Fraction(136, 3)
    assert p1.t_roof == 125
    assert lower_bound_factor(100, 1) == 100
    assert lower_bound_factor(90, 3) == Fraction(90, Fraction(5, 3)) == 54
    ms = list_schedule(g, WC, 4, "max").makespan
    assert lower_bound_factor(ms, 4) <= p4.t_alap


def test_makespan_vs_bounds():
    g = chol_graph(6)
    ann = annotate_cp(g, WC)
    tseq = sum(WC.of(t) for t in g.tasks)
    for row in bounds_table(g, WC, range(1, 12)):
        p = row.p
        ms = list_schedule(g, WC, p, "max", annotation=ann).makespan
        assert ms >= row.t_roof >= ann.cp_length
        assert ms >= Fraction(tseq, p)


def test_gamma_ub():
    assert gamma_ub(10, 1000, 50, 4) == Fraction(10 * 1000, 250)
    # compute-bound regime: T/P >= cp gives gamma_seq * P
    assert gamma_ub(7, 800, 100, 4) == 7 * 4
    assert gamma_ub(7, 800, 300, 4) == Fraction(7 * 800, 300)


def test_sync_grouped_serial():
    assert list_schedule(*sync_chol_graph(5, "grouped"), 1, "max").makespan == 125


def test_sync_relaxed_attains_cp():
    # ceil((t-1)^2/2) packs the first update phase exactly; the extra POTRF
    # needs one more slot when (t-1)^2 is even, none when the ceiling rounds up
    for t in range(3, 9):
        graph, wc = sync_chol_graph(t, "relaxed")
        cap = math.ceil((t - 1) ** 2 / 2)
        pmin = cap if t % 2 == 0 else cap + 1
        assert pmin == (t - 1) ** 2 // 2 + 1   # the sync_chol_graph docstring's form
        assert list_schedule(graph, wc, pmin, "max").makespan == 9 * t - 10
        assert list_schedule(graph, wc, pmin - 1, "max").makespan > 9 * t - 10


def test_sync_ordering():
    for t, p in ((5, 4), (6, 6), (4, 2)):
        grouped = list_schedule(*sync_chol_graph(t, "grouped"), p, "max").makespan
        relaxed = list_schedule(*sync_chol_graph(t, "relaxed"), p, "max").makespan
        g = chol_graph(t)
        listed = list_schedule(g, WC, p, "max").makespan
        assert grouped >= relaxed >= listed
    g, wm = sync_chol_graph(5, "relaxed")
    s = list_schedule(g, wm, 8, "max")
    check_schedule(g, wm, s)
    with pytest.raises(ValueError):
        sync_chol_graph(5, "loose")


def test_alpha_min():
    p3, a3 = alpha_min(3)
    assert p3 == 2 and a3 == Fraction(2, 9)
    g = chol_graph(3)
    assert list_schedule(g, WC, p3, "max").makespan == 17
    for t in range(3, 8):
        p_opt, alpha = alpha_min(t)
        assert p_opt <= math.ceil((t - 1) ** 2 / 2)
        assert alpha <= Fraction(1, 2)
    with pytest.raises(ValueError):
        alpha_min(2)


def test_alpha_min_cp_check_survives_optimize():
    # python -O strips assert statements; the critical-path check must still fire
    import tiledag
    code = ("import tiledag.sched as s\n"
            "s.annotate_cp = lambda g, w: type('A', (), {'cp_length': 0})()\n"
            "try:\n    s.alpha_min(3)\nexcept AssertionError as e:\n    print('raised:', e)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(tiledag.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.startswith("raised:"), out.stdout + out.stderr


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check in the package may be one
    import tiledag
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(tiledag.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_random_policy_spread():
    g = chol_graph(5)
    ann = annotate_cp(g, WC)
    maxcp = list_schedule(g, WC, 4, "max", annotation=ann).makespan
    spans = [list_schedule(g, WC, 4, "random", seed=s, annotation=ann).makespan
             for s in range(40)]
    assert all(s >= ann.cp_length for s in spans)
    assert maxcp <= max(spans)
    # where MaxCP sits inside the random spread is reported, not asserted
    print(f"t=5 p=4: MaxCP {maxcp}, random min/median/max "
          f"{min(spans)}/{sorted(spans)[len(spans) // 2]}/{max(spans)}")
