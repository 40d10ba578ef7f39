import random

import pytest

from tiledag import (
    BARRIER, GEMM, POTRF, TRSM,
    Task, TaskGraph, TileRef, WeightModel,
    alap_profile, annotate_cp, build_from_trace, check_schedule,
    list_schedule, trace_cp,
)


def T(i, kind="GEMM", reads=(), writes=(), idx=()):
    return Task(i, kind, idx, [TileRef(*r) for r in reads], [TileRef(*w) for w in writes])


def _rows(trace):
    """A trace as the trace pins hash it: (id, kind, indices, reads, writes)
    of every task, tiles as plain tuples."""
    return [(t.id, t.kind, t.indices, tuple(map(tuple, t.reads)),
             tuple(map(tuple, t.writes))) for t in trace]


def test_empty_trace():
    g = build_from_trace([])
    assert len(g) == 0 and g.edges == []


def test_single_raw_edge():
    trace = [T(0, "POTRF", writes=[("A", 0, 0)], reads=[("A", 0, 0)]),
             T(1, "TRSM", reads=[("A", 0, 0)], writes=[("A", 1, 0)])]
    g = build_from_trace(trace)
    assert g.edges == [(0, 1, "RAW")]


def test_war_waw_nearest_conflict():
    trace = [T(0, writes=[("A", 0, 0)]),
             T(1, reads=[("A", 0, 0)], writes=[("B", 0, 0)]),
             T(2, reads=[("A", 0, 0)], writes=[("B", 1, 1)]),
             T(3, writes=[("A", 0, 0)]),     # WAR from both readers, no WAW
             T(4, writes=[("A", 0, 0)])]     # WAW from 3 (no reads in between)
    g = build_from_trace(trace)
    assert (1, 3, "WAR") in g.edges and (2, 3, "WAR") in g.edges
    assert (0, 3, "WAW") not in g.edges
    assert (3, 4, "WAW") in g.edges


def test_barrier_explicit_edges():
    trace = [T(0, writes=[("A", 0, 0)]), T(1, writes=[("B", 0, 0)]),
             T(2, "BARRIER"),
             T(3, reads=[("C", 9, 9)], writes=[("C", 0, 0)])]
    g = build_from_trace(trace)
    assert (0, 2, "EXPLICIT") in g.edges and (1, 2, "EXPLICIT") in g.edges
    assert (2, 3, "EXPLICIT") in g.edges


def test_back_to_back_barriers_stay_ordered():
    trace = [T(0, "POTRF", writes=[("A", 0, 0)]), T(1, "BARRIER"), T(2, "BARRIER"),
             T(3, "POTRF", writes=[("A", 0, 0)])]
    g = build_from_trace(trace)
    assert g.edges == [(0, 1, "EXPLICIT"), (1, 2, "EXPLICIT"), (2, 3, "EXPLICIT")]
    wm = WeightModel.cholesky()
    assert annotate_cp(g, wm).cp_length == trace_cp(trace, wm) == 2


def test_repeated_write_makes_no_self_loop():
    x = ("A", 0, 0)
    g = build_from_trace([T(0, writes=[x, x]), T(1, writes=[x, x])])
    assert g.edges == [(0, 1, "WAW")]
    wm = WeightModel({GEMM: 3})
    assert annotate_cp(g, wm).cp_length == trace_cp(g.tasks, wm) == 6


def test_backflow_toy_priorities():
    # A and B (weight 3) both sit atop chains whose best continuation is 13
    w = {"A": 3, "B": 3, "C": 4, "D": 3, "E": 4, "F": 9}
    tiles = {n: ("X", i, 0) for i, n in enumerate(w)}
    trace = [
        T(0, writes=[tiles["A"]]),
        T(1, writes=[tiles["B"]]),
        T(2, reads=[tiles["A"]], writes=[tiles["C"]]),
        T(3, reads=[tiles["A"], tiles["B"]], writes=[tiles["D"]]),
        T(4, reads=[tiles["B"]], writes=[tiles["E"]]),
        T(5, reads=[tiles["C"], tiles["D"], tiles["E"]], writes=[tiles["F"]]),
    ]
    names = ["A", "B", "C", "D", "E", "F"]

    class PerTask(WeightModel):
        def __init__(self):
            self.name = "per-task"
            self.table = {}

        def of(self, task):
            return w[names[task.id]]

    g = build_from_trace(trace)
    ann = annotate_cp(g, PerTask())
    assert ann.priority[0] == 16 and ann.priority[1] == 16
    assert ann.cp_length == 16


def test_singleton_and_cycle():
    g = build_from_trace([T(0, "POTRF", writes=[("A", 0, 0)])])
    ann = annotate_cp(g, WeightModel.cholesky())
    assert ann.cp_length == 1
    # a cycle needs a backward edge, which the constructor refuses
    with pytest.raises(ValueError, match="edge 1->0 does not run forward"):
        TaskGraph([T(0), T(1)], [(0, 1, "RAW"), (1, 0, "RAW")])
    with pytest.raises(ValueError, match="edge 1->0 does not run forward"):
        TaskGraph([T(0), T(1), T(2)], [(1, 2, "RAW"), (0, 1, "RAW"), (1, 0, "RAW")])


def test_duplicate_and_decreasing_ids_rejected():
    # a trace's ids reach TaskGraph's check through build_from_trace
    with pytest.raises(ValueError, match=r"strictly increasing \(got 0 after 0\)"):
        build_from_trace([T(0), T(0)])
    with pytest.raises(ValueError, match=r"strictly increasing \(got 0 after 1\)"):
        build_from_trace([T(1), T(0)])


def test_duplicate_task_ids_rejected():
    with pytest.raises(ValueError, match=r"strictly increasing \(got 1 after 1\)"):
        TaskGraph([T(0), T(1), T(1)], [])
    assert len(TaskGraph([T(0), T(2), T(5)], [])) == 3


def test_edge_to_unknown_id_rejected():
    with pytest.raises(ValueError, match="edge 1->5 names a task id not in the graph"):
        TaskGraph([T(0), T(1)], [(0, 1, "RAW"), (1, 5, "RAW")])


def test_alap_profile_examples():
    wm = WeightModel({GEMM: 4})
    g = build_from_trace([T(0, writes=[("A", 0, 0)])])
    prof = alap_profile(g, wm)
    assert prof.steps == [(0, 1)] and prof.makespan == 4 and prof.t_seq == 4
    # two independent tasks of weights 2 and 5 both end at t=5 under ALAP
    class PerTask(WeightModel):
        def __init__(self):
            self.name = "per-task"
            self.table = {}

        def of(self, task):
            return [2, 5][task.id]

    g2 = build_from_trace([T(0, writes=[("A", 0, 0)]), T(1, writes=[("B", 0, 0)])])
    prof2 = alap_profile(g2, PerTask())
    assert prof2.steps == [(0, 1), (3, 2)] and prof2.makespan == 5
    assert prof2.area() == prof2.t_seq == 7


def _chain_and_one():
    """POTRF -> GEMM on one tile, and an independent TRSM."""
    return build_from_trace([T(0, "POTRF", writes=[("A", 0, 0)]),
                             T(1, GEMM, reads=[("A", 0, 0)], writes=[("B", 0, 0)]),
                             T(2, TRSM, writes=[("C", 0, 0)])])


def test_weight_model_facts_computed_once_per_model():
    g = _chain_and_one()
    chol, unit = WeightModel.cholesky(), WeightModel.unit()
    assert annotate_cp(g, chol) is annotate_cp(g, chol)
    assert alap_profile(g, chol) is alap_profile(g, chol)
    assert g.weight_list(chol) is g.weight_list(chol)
    want = {chol: ([1, 6, 3], {0: 7, 1: 6, 2: 3}, [(0, 1), (4, 2)], 7, 10),
            unit: ([1, 1, 1], {0: 2, 1: 1, 2: 1}, [(0, 1), (1, 2)], 2, 3)}
    # alternating models each get their own facts, never the other's
    for wm in (chol, unit, chol, unit):
        weights, prio, steps, cp, seq = want[wm]
        assert g.weight_list(wm) == weights
        assert annotate_cp(g, wm).priority == prio
        prof = alap_profile(g, wm)
        assert (prof.steps, prof.makespan, prof.t_seq) == (steps, cp, seq)
        assert list_schedule(g, wm, 1).makespan == seq


def test_per_task_weights_honoured_through_the_cache():
    class PerTask(WeightModel):
        def __init__(self, weights):
            self.name = "per-task"
            self.table = {}
            self.weights = weights

        def of(self, task):
            return self.weights[task.id]

    g = _chain_and_one()
    for weights, cp in (([1, 1, 5], 5), ([2, 2, 1], 4)):
        wm = PerTask(weights)
        assert g.weight_list(wm) == weights
        assert annotate_cp(g, wm).cp_length == cp
        s = list_schedule(g, wm, 2)
        assert check_schedule(g, wm, s) and s.makespan == cp


def test_weight_table_read_only():
    wm = WeightModel({GEMM: 6})
    with pytest.raises(TypeError):
        wm.table[GEMM] = 1
    assert wm[GEMM] == 6


def _random_trace(rng, n=40, tiles=8):
    trace = []
    for i in range(n):
        reads = {("A", rng.randrange(tiles), 0) for _ in range(rng.randint(0, 2))}
        writes = {("A", rng.randrange(tiles), 0)}
        kind = rng.choice(["GEMM", "SYRK", "TRSM"])
        trace.append(T(i, kind, reads=sorted(reads), writes=sorted(writes)))
    return trace


def test_war_removal_never_increases_cp():
    rng = random.Random(3)
    wm = WeightModel.unit()
    for _ in range(30):
        g = build_from_trace(_random_trace(rng))
        full = annotate_cp(g, wm).cp_length
        nowar = annotate_cp(TaskGraph(g.tasks, [e for e in g.edges if e[2] != "WAR"]),
                            wm).cp_length
        assert nowar <= full


def test_unit_cp_lower_bounds_weighted():
    rng = random.Random(11)
    heavier = WeightModel({GEMM: 6, "SYRK": 3, "TRSM": 2})
    for _ in range(20):
        trace = _random_trace(rng)
        assert trace_cp(trace, WeightModel.unit()) <= trace_cp(trace, heavier)


def test_est_lst_and_critical_tasks():
    rng = random.Random(5)
    wm = WeightModel.unit()
    for _ in range(20):
        g = build_from_trace(_random_trace(rng))
        ann = annotate_cp(g, wm)
        crit = set(ann.critical_ids())
        assert crit, "some critical task must exist"
        for tid in ann.priority:
            assert ann.earliest[tid] <= ann.cp_length - ann.priority[tid]
            assert (ann.earliest[tid] + ann.priority[tid] == ann.cp_length) == (tid in crit)


def test_adjacency_in_edge_order():
    g = TaskGraph([T(0), T(2), T(5)], [(0, 5, "RAW"), (2, 5, "WAR"), (0, 2, "WAW")])
    ids, succ, pred, indeg = g.adjacency()   # positions 0, 1, 2 hold ids 0, 2, 5
    assert ids == [0, 2, 5]
    assert succ == [[2, 1], [2], []]
    assert pred == [[], [0], [0, 1]]
    assert indeg == [0, 1, 2]
    assert g.adjacency() is g.adjacency()


def test_forward_edges_with_ids_out_of_task_order():
    # every edge runs from a lower id to a higher one, but a task list out
    # of id order is refused: task order must be a topological order
    with pytest.raises(ValueError, match=r"strictly increasing \(got 0 after 2\)"):
        TaskGraph([T(2), T(0), T(1)], [(0, 2, "RAW")])


@pytest.mark.parametrize("table,needle", [
    ({"NOPE": 1}, "unknown kernel kind 'NOPE'"),
    ({GEMM: -1}, "weight of GEMM"),
    ({GEMM: 1.0}, "weight of GEMM"),
    ({GEMM: True}, "weight of GEMM"),
    ({GEMM: 1, BARRIER: 5}, "weight of BARRIER must be 0, not 5"),
])
def test_weight_table_checks(table, needle):
    with pytest.raises(ValueError, match=needle):
        WeightModel(table)


def test_weight_model_table_and_name():
    table = {GEMM: 5}
    wm = WeightModel(table)
    table[GEMM] = 7   # the model keeps its own copy
    assert dict(wm.table) == {GEMM: 5, BARRIER: 0}
    with pytest.raises(KeyError, match="weight model 'custom' has no weight for POTRF"):
        wm[POTRF]
    with pytest.raises(KeyError, match="weight model 'qr-tt' has no weight for GEMM"):
        WeightModel.qr_tt()[GEMM]
    assert WeightModel({GEMM: 0}, "mine")[GEMM] == 0
    with pytest.raises(KeyError, match="'mine'"):
        WeightModel({GEMM: 0}, "mine")[TRSM]


def test_weight_model_validation():
    wm = WeightModel.cholesky()
    assert wm[POTRF] == 1 and wm[TRSM] == 3 and wm["SYRK"] == 3 and wm[GEMM] == 6
    q = WeightModel.qr_tt()
    assert (q["GEQRT"], q["TTQRT"], q["UNMQR"], q["TTMQR"]) == (4, 2, 6, 6)
    assert (q["TSQRT"], q["TSMQR"]) == (6, 12)
    assert WeightModel.unit()[BARRIER] == 0 and WeightModel.unit()["COPY"] == 0
