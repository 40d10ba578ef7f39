"""Generated-input properties of the hazard DAG and of elimination lists.

Random traces mix barriers (consecutive ones included), zero-weight COPYs
and tasks that name a tile more than once.  On each, the streaming
asap_times must agree with build_from_trace + annotate_cp, and every list
schedule must be valid and no shorter than the ALAP and Rooftop bounds.
On those traces and on small graphs built directly with gapped ids and
forward edges in shuffled order, annotate_cp's priorities and earliest
starts must equal the heaviest paths found by enumerating every path, and
every list schedule on 1-16 processors must keep its policy's rule, read
off its start times alone.

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
from test_qr_coarse import interleaved_list, normalized  # noqa: E402

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
def direct_graphs(draw):
    """Small graphs built directly: gapped increasing ids, forward edges in
    the drawn (shuffled) order, zero-weight COPYs among the tasks."""
    n = draw(st.integers(1, 8))
    ids = sorted(draw(st.lists(st.integers(0, 3 * n), min_size=n, max_size=n, unique=True)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    kinds = draw(st.lists(st.sampled_from([GEMM, SYRK, TRSM, POTRF, COPY]),
                          min_size=n, max_size=n))
    edges = [(ids[a], ids[b], EXPLICIT) for a, b in pairs if a < b]
    return TaskGraph([Task(i, kind) for i, kind in zip(ids, kinds)], edges)


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
@given(st.one_of(STEPS.map(lambda steps: build_from_trace(_trace(steps))), direct_graphs()))
def test_annotation_matches_path_enumeration(graph):
    start, end = _heaviest_paths(graph, WM)
    ann = annotate_cp(graph, WM)
    assert ann.priority == start
    assert ann.earliest == {t.id: end[t.id] - WM.of(t) for t in graph.tasks}
    assert ann.cp_length == max(start.values(), default=0)


def _assert_follows_policy(graph, weights, s, policy, priority):
    """The list rule read off start and finish times alone.  With ready(v)
    the latest finish among v's predecessors: a zero-weight task starts at
    ready(v); while a positive-weight task waits in [ready(v), start(v)),
    all p processors are busy at every integer instant; and under max and
    min, a positive-weight task that starts at s while v is ready and
    unstarted has a better key than v (+-priority, then the lower id)."""
    w = {t.id: weights.of(t) for t in graph.tasks}
    start = {u: s.assignment[u][1] for u in w}
    ready = dict.fromkeys(w, 0)
    for u, v, _ in graph.edges:
        ready[v] = max(ready[v], start[u] + w[u])
    timed = [u for u in w if w[u] > 0]
    sign = {"max": -1, "min": 1}.get(policy)
    for v in w:
        if not w[v]:
            assert start[v] == ready[v], f"zero-weight task {v} delayed"
            continue
        for t in range(ready[v], start[v]):
            busy = sum(start[u] <= t < start[u] + w[u] for u in timed)
            assert busy == s.p, f"task {v} waits at {t} with {busy} of {s.p} busy"
        if sign:
            for u in timed:
                if ready[v] <= start[u] < start[v]:
                    assert (sign * priority[u], u) < (sign * priority[v], v), \
                        f"task {u} started at {start[u]} ahead of ready task {v}"


# Tasks 0 and 1 end together at 1, and only 1 releases work (3 and 4): both
# must be ready before the low-priority task 2 may take a processor at 1.
TWO_FINISH = TaskGraph([Task(0, POTRF), Task(1, POTRF), Task(2, POTRF), Task(3, GEMM),
                        Task(4, GEMM)], [(1, 3, EXPLICIT), (1, 4, EXPLICIT)])


@settings(SETTINGS, max_examples=200)
@given(st.one_of(STEPS.map(lambda steps: build_from_trace(_trace(steps))), direct_graphs()),
       st.integers(1, 16), st.integers(0, 3))
@example(TWO_FINISH, 2, 0)
def test_list_schedules_follow_their_policy(graph, p, seed):
    priority = annotate_cp(graph, WM).priority
    for policy in ("max", "min", "random"):
        s = list_schedule(graph, WM, p, policy, seed=seed)
        _assert_follows_policy(graph, WM, s, policy, priority)


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
    norm = normalized(elim)
    norm.validate()
    assert all(e.i > e.piv for e in norm)
    assert [e.step for e in norm.with_steps()] == [e.step for e in elim.with_steps()]
