"""Generated-input properties of the hazard DAG and of elimination lists.

Random traces mix barriers (consecutive ones included), zero-weight COPYs
and tasks that name a tile more than once.  On each, the streaming
asap_times must agree with build_from_trace + annotate_cp, and every list
schedule must be valid and no shorter than the ALAP and Rooftop bounds.
On those traces and on small graphs built directly with shuffled ids,
annotate_cp's priorities and earliest starts must equal the heaviest
paths found by enumerating every path.

Random valid elimination lists interleave their columns and contain
reverse and ex-pivot eliminations; normalizing one must give a valid list
with i > piv everywhere and the same coarse step for every entry.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from tiledag import (  # noqa: E402
    BARRIER, COPY, GEMM, POTRF, SYRK, TRSM, ElimEntry, EliminationList, Task,
    TaskGraph, TileRef, WeightModel, annotate_cp, asap_times, bounds_table,
    build_from_trace, check_schedule, list_schedule,
)
from tiledag.taskgraph import EXPLICIT  # noqa: E402
from test_qr_coarse import interleaved_list  # noqa: E402

WM = WeightModel({GEMM: 6, SYRK: 3, TRSM: 2, POTRF: 1, COPY: 0})
TILES = st.sampled_from([TileRef("A", i, 0) for i in range(4)])
STEPS = st.lists(st.tuples(st.sampled_from([GEMM, SYRK, TRSM, POTRF, COPY, BARRIER]),
                           st.lists(TILES, max_size=3), st.lists(TILES, max_size=2)),
                 max_size=12)
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _trace(steps):
    return [Task(i, kind, (), reads, writes) if kind != BARRIER else Task(i, kind)
            for i, (kind, reads, writes) in enumerate(steps)]


X = TileRef("A", 0, 0)


@SETTINGS
@given(STEPS)
@example([(POTRF, [], [X]), (BARRIER, [], []), (BARRIER, [], []), (POTRF, [], [X])])
@example([(GEMM, [], [X, X])])
def test_timer_matches_hazard_dag(steps):
    trace = _trace(steps)
    finish, cp = asap_times(trace, WM)
    graph = build_from_trace(trace)
    ann = annotate_cp(graph, WM)
    w = graph.weight_list(WM)   # ids are positions here
    assert finish == {i: ann.earliest[i] + w[i] for i in ann.earliest}
    assert cp == ann.cp_length


@settings(SETTINGS, max_examples=150)
@given(STEPS, st.integers(1, 4), st.integers(0, 3))
def test_schedules_valid_and_bounded(steps, p, seed):
    graph = build_from_trace(_trace(steps))
    assert graph.weight_list(WM) == [WM.of(t) for t in graph.tasks]
    (row,) = bounds_table(graph, WM, [p])
    bound = row.t_alap
    assert bound >= row.t_roof
    equal = WeightModel(WM.table)   # another model object: the cache must not mix them
    for policy in ("max", "min", "random"):
        s = list_schedule(graph, WM, p, policy, seed=seed)
        check_schedule(graph, WM, s)
        assert s.makespan >= bound
        again = list_schedule(graph, equal, p, policy, seed=seed)
        check_schedule(graph, equal, again)
        assert (again.assignment, again.makespan) == (s.assignment, s.makespan)


@st.composite
def shuffled_graphs(draw):
    """Small graphs built directly: ids shuffled against task order, edges
    along a hidden topological order, zero-weight COPYs among the tasks."""
    n = draw(st.integers(1, 8))
    ids = draw(st.permutations(range(10, 10 + n)))
    topo = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    kinds = draw(st.lists(st.sampled_from([GEMM, SYRK, TRSM, POTRF, COPY]),
                          min_size=n, max_size=n))
    edges = {(ids[topo[a]], ids[topo[b]], EXPLICIT) for a, b in pairs if a < b}
    return TaskGraph([Task(i, kind) for i, kind in zip(ids, kinds)], sorted(edges))


def _heaviest_paths(graph, weights):
    """Per task id, the heaviest path starting at it and the heaviest path
    ending at it, own weight included, found by enumerating every path
    over graph.edges."""
    w = {t.id: weights.of(t) for t in graph.tasks}
    out = {u: [] for u in w}
    for u, v, _ in graph.edges:
        out[u].append(v)
    start, end = dict.fromkeys(w, 0), dict.fromkeys(w, 0)

    def walk(first, last, length):
        start[first] = max(start[first], length)
        end[last] = max(end[last], length)
        for v in out[last]:
            walk(first, v, length + w[v])

    for u in w:
        walk(u, u, w[u])
    return start, end


@SETTINGS
@given(st.one_of(STEPS.map(lambda steps: build_from_trace(_trace(steps))), shuffled_graphs()))
def test_annotation_matches_path_enumeration(graph):
    start, end = _heaviest_paths(graph, WM)
    ann = annotate_cp(graph, WM)
    assert ann.priority == start
    assert ann.earliest == {t.id: end[t.id] - WM.of(t) for t in graph.tasks}
    assert ann.cp_length == max(start.values(), default=0)


@st.composite
def elim_lists(draw):
    p = draw(st.integers(1, 8))
    q = draw(st.integers(1, p))
    return interleaved_list(p, q, lambda options: draw(st.sampled_from(options)))


@SETTINGS
@given(elim_lists())
@example(EliminationList(4, 2, [ElimEntry(4, 2, 1), ElimEntry(2, 3, 1), ElimEntry(4, 2, 2),
                                ElimEntry(3, 1, 1), ElimEntry(3, 2, 2)]))
def test_normalized_stays_valid_and_keeps_steps(elim):
    elim.validate()
    norm = elim.normalized()
    norm.validate()
    assert all(e.i > e.piv for e in norm)
    assert [e.step for e in norm.with_steps()] == [e.step for e in elim.with_steps()]
