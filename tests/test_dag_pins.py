"""sha256 pins of everything the weighted-DAG core computes on the generated
families: annotations, ALAP profiles, bounds and list schedules under every
policy (the random policy pins its rng call order).  Each digest was taken
before the core was refactored, so a refactor that changes any output or
ordering fails here."""

import hashlib
import random

import pytest

from tiledag import (
    CholInvConfig, StrassenParams, Task, TaskGraph, WeightModel, alap_profile,
    annotate_cp, bounds_table, build_from_trace, build_tree, gen_chol_fact,
    gen_chol_inversion, gen_strassen, list_schedule, lost_area, sync_chol_graph,
)

PROCS = (1, 2, 3, 8, 1000)
RUNS = (("max", 0), ("min", 0), ("random", 0), ("random", 7))


def _direct_graphs():
    """Graphs built directly, not from a trace: ids increase with gaps, edges
    run forward but come in shuffled order, and a zero-weight COPY (and above
    two tasks a BARRIER) sits among the kernels."""
    rng = random.Random(2013)
    kinds = ("POTRF", "TRSM", "SYRK", "GEMM", "TRTRI", "TRMM")
    for n in (2, 7, 16, 40):
        for g in range(4):
            ids = sorted(rng.sample(range(3 * n), n))
            kind = [rng.choice(kinds) for _ in range(n)]
            kind[n // 2] = "BARRIER"
            kind[-1] = "COPY"
            tasks = [Task(ids[i], kind[i], (i % 5, g, n)) for i in range(n)]
            edges = [(ids[a], ids[b], "RAW")
                     for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 3 / n]
            rng.shuffle(edges)
            weights = WeightModel.cholesky() if g % 2 else WeightModel.unit()
            yield TaskGraph(tasks, edges), weights


def _graphs(family):
    if family == "direct":
        yield from _direct_graphs()
    elif family == "cholesky":
        for variant in ("right", "left", "bordered"):
            for t in (1, 3, 6, 9):
                yield build_from_trace(gen_chol_fact(t, variant)), WeightModel.cholesky()
    elif family == "inversion":
        for oop in (False, True):
            for pipelined in (False, True):
                for t in (2, 4, 6):
                    cfg = CholInvConfig(t, out_of_place=oop, pipelined=pipelined)
                    yield build_from_trace(gen_chol_inversion(cfg)), WeightModel.unit()
    elif family == "qr":
        for tree, bs in (("flattree", None), ("fibonacci", None), ("greedy", None),
                         ("binarytree", None), ("plasmatree", 2), ("asap", None),
                         ("grasap", None)):
            for p, q in ((4, 2), (6, 4), (9, 5)):
                build = build_tree(p, q, tree, bs=bs)
                yield build_from_trace(build.trace), WeightModel.qr_tt()
    elif family == "strassen":
        for p, r in ((2, 1), (4, 1), (4, 2)):
            trace, _ = gen_strassen(StrassenParams(p, r))
            yield build_from_trace(trace), WeightModel.unit()
    else:
        for variant in ("grouped", "relaxed"):
            for t in (2, 5, 7):
                yield sync_chol_graph(t, variant)


def _digest(family):
    h = hashlib.sha256()

    def put(*xs):
        h.update(repr(xs).encode())

    for graph, weights in _graphs(family):
        ann = annotate_cp(graph, weights)
        put(list(graph.adjacency()[0]),
            ann.cp_length, sorted(ann.priority.items()), sorted(ann.earliest.items()),
            sorted((u, ann.cp_length - pr) for u, pr in ann.priority.items()),
            ann.critical_ids())
        prof = alap_profile(graph, weights)
        put(prof.steps, prof.makespan, prof.t_seq)
        rows = bounds_table(graph, weights, PROCS)
        put(rows)
        for p, row in zip(PROCS, rows):
            put(p, lost_area(prof, p), row.t_alap, row.t_roof)
            for policy, seed in RUNS:
                s = list_schedule(graph, weights, p, policy, seed=seed)
                put(policy, seed, sorted(s.assignment.items()), s.makespan,
                    s.to_csv(graph, weights))
    return h.hexdigest()


DAG_SHA256 = {
    "cholesky": "cb4bdd9cf60e08542adc2d6d6c0f0195d38afbd8bb54fa0502bda62bee0c27d3",
    "direct": "65343826b8e15ea733587908a14077c061a07d449bd775db662b447a34a22454",
    "inversion": "8faeac3a491fd52ed0778689b4135018ac208a59775b4bfc7a483732f15ceb1d",
    "qr": "1ec95c59c0d936267d9b7e8f6a70c3034fa189e3b6a4f9cd8521617302f856c5",
    "strassen": "323204ca3f735f112015d32a854a6f6ec16b9e2b61dede09005366af09fb63e3",
    "sync": "bd9f8e97968c9696cff77f936e38b1274fb17f84dd404c757f3d5be4aff6823a",
}


@pytest.mark.parametrize("family", sorted(DAG_SHA256))
def test_dag_outputs_pinned(family):
    assert _digest(family) == DAG_SHA256[family]
