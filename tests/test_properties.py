"""Generated-input properties of the hazard DAG and of elimination lists.

Random traces mix barriers (consecutive ones included), zero-weight COPYs
and tasks that name a tile more than once.  On each, the streaming
TraceTimer must agree with build_from_trace + annotate_cp, and every list
schedule must be valid and no shorter than the ALAP and Rooftop bounds.

Random valid elimination lists interleave their columns and contain
reverse and ex-pivot eliminations; normalizing one must give a valid list
with i > piv everywhere and the same coarse step for every entry.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from tiledag import (  # noqa: E402
    BARRIER, COPY, GEMM, POTRF, SYRK, TRSM, ElimEntry, EliminationList, Task,
    TileRef, TraceTimer, WeightModel, alap_bound, annotate_cp,
    build_from_trace, check_schedule, list_schedule, rooftop_bound,
)
from test_qr_coarse import interleaved_list  # noqa: E402

WM = WeightModel.custom({GEMM: 6, SYRK: 3, TRSM: 2, POTRF: 1, COPY: 0})
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
    timer = TraceTimer(WM)
    for t in trace:
        timer.add(t)
    ann = annotate_cp(build_from_trace(trace), WM)
    assert timer.finish == {i: ann.earliest[i] + ann.weight[i] for i in ann.earliest}
    assert timer.max_fin == ann.cp_length


@settings(SETTINGS, max_examples=150)
@given(STEPS, st.integers(1, 4), st.integers(0, 3))
def test_schedules_valid_and_bounded(steps, p, seed):
    graph = build_from_trace(_trace(steps))
    assert graph.weight_list(WM) == [WM.of(t) for t in graph.tasks]
    bound = alap_bound(graph, WM, p)
    assert bound >= rooftop_bound(graph, WM, p)
    equal = WeightModel.custom(WM.table)   # another model object: the cache must not mix them
    for policy in ("max", "min", "random"):
        s = list_schedule(graph, WM, p, policy, seed=seed)
        check_schedule(graph, WM, s)
        assert s.makespan >= bound
        again = list_schedule(graph, equal, p, policy, seed=seed)
        check_schedule(graph, equal, again)
        assert (again.assignment, again.makespan) == (s.assignment, s.makespan)


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
