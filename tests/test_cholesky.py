import hashlib
from collections import Counter
from itertools import product

import pytest

from tiledag import (
    CholInvConfig, WeightModel, build_from_trace, chol_cp_oracle,
    gen_chol_fact, gen_chol_inversion, inversion_steps, t_seq, trace_cp,
)

WU = WeightModel.unit()
WC = WeightModel.cholesky()


def test_factorization_task_counts():
    for t in (1, 2, 3, 5, 8):
        for variant in ("right", "left", "bordered"):
            counts = Counter(task.kind for task in gen_chol_fact(t, variant))
            assert counts["POTRF"] == t
            assert counts["TRSM"] == t * (t - 1) // 2
            assert counts["SYRK"] == t * (t - 1) // 2
            assert counts["GEMM"] == t * (t - 1) * (t - 2) // 6
    with pytest.raises(ValueError):
        gen_chol_fact(0)
    for variant in ("sideways", "right-looking", "left-looking"):
        with pytest.raises(ValueError):
            gen_chol_fact(3, variant)


def test_lower_triangular_references_only():
    for task in gen_chol_fact(6):
        for tile in list(task.reads) + list(task.writes):
            assert tile.row >= tile.col


def test_weighted_cp_9t_minus_10():
    for t in range(2, 21):
        for variant in ("right", "left", "bordered"):
            assert trace_cp(gen_chol_fact(t, variant), WC) == 9 * t - 10


def test_variant_cp_ordering_unit():
    for t in range(3, 12):
        r = trace_cp(gen_chol_fact(t, "right"), WU)
        l = trace_cp(gen_chol_fact(t, "left"), WU)
        b = trace_cp(gen_chol_fact(t, "bordered"), WU)
        assert r <= l <= b


def test_t_seq_125():
    assert t_seq(gen_chol_fact(5), WC) == 125


def test_t1_single_potrf():
    trace = gen_chol_fact(1)
    assert len(trace) == 1 and trace[0].kind == "POTRF"
    assert trace_cp(trace, WC) == 1


def test_inversion_table_small():
    for t in (2, 3, 4, 6, 10, 12):
        cps_in = [trace_cp(s, WU) for s in inversion_steps(CholInvConfig(t))]
        cps_out = [trace_cp(s, WU) for s in inversion_steps(CholInvConfig(t, out_of_place=True))]
        assert cps_in == [3 * t - 2, 3 * t - 3, 3 * t - 2]
        assert cps_out == [3 * t - 2, 2 * t - 1, t]


def test_pipelining_gains():
    for t in (2, 4, 7, 10):
        pi = trace_cp(gen_chol_inversion(CholInvConfig(t)), WU)
        po = trace_cp(gen_chol_inversion(CholInvConfig(t, out_of_place=True)), WU)
        ni = trace_cp(gen_chol_inversion(CholInvConfig(t, pipelined=False)), WU)
        no = trace_cp(gen_chol_inversion(CholInvConfig(t, out_of_place=True, pipelined=False)), WU)
        assert (pi, ni) == (9 * t - 9, 9 * t - 7)
        assert (po, no) == (5 * t - 2, 6 * t - 3)
        assert pi <= ni and po <= no


def test_ascending_loop_penalty():
    for t in (4, 6, 9):
        s2 = inversion_steps(CholInvConfig(t, loop_dirs=("U", "U", "U")))[1]
        assert trace_cp(s2, WU) == t * t - 2 * t + 3
        s2o = inversion_steps(CholInvConfig(t, out_of_place=True, loop_dirs=("U", "U", "U")))[1]
        assert trace_cp(s2o, WU) == (t * t - t) // 2 + 2
    # t=6 example in a single call
    sub = inversion_steps(CholInvConfig(6, loop_dirs=("U", "U", "U")))[1]
    assert trace_cp(sub, WU) == 27


def test_step3_war_example():
    trace = gen_chol_inversion(CholInvConfig(4))
    g = build_from_trace(trace)
    byid = {t.id: t for t in trace}
    hits = [(u, v) for (u, v, c) in g.edges if c == "WAR"
            and byid[u].kind == "SYRK" and byid[u].indices == (0, 1)
            and byid[v].kind == "TRMM" and byid[v].indices == (1, 0)]
    assert hits, "the step-3 anti-dependence SYRK(0,1)->TRMM(1,0) must exist"


def test_out_of_place_has_no_war_in_steps_2_3():
    for t in (3, 5, 7):
        steps = inversion_steps(CholInvConfig(t, out_of_place=True))
        for sub in steps[1:]:
            g = build_from_trace(sub)
            byid = {task.id: task for task in sub}
            for u, v, cause in g.edges:
                if cause == "WAR":
                    assert byid[u].kind == "COPY" or byid[v].kind == "COPY"


def test_trmm_pairs_distinct():
    sub = inversion_steps(CholInvConfig(4))[1]
    trmms = [task for task in sub if task.kind == "TRMM" and task.indices == (2, 1)]
    assert len(trmms) == 2


def test_oracle_values():
    assert chol_cp_oracle(4, "pipe-in") == 27
    assert chol_cp_oracle(4, "nopipe-out") == 21
    assert chol_cp_oracle(10, "fact") == 80
    assert chol_cp_oracle(6, "trtri-uuu-in") == 27
    with pytest.raises(ValueError):
        chol_cp_oracle(1, "fact")
    with pytest.raises(ValueError):
        chol_cp_oracle(5, "bogus")


def test_copy_counts_and_weights():
    trace = gen_chol_inversion(CholInvConfig(4, out_of_place=True))
    copies = [t for t in trace if t.kind == "COPY"]
    assert len(copies) == 2 * 4 * 5 // 2   # lower triangle of B and of C
    assert all(WU.of(c) == 0 and WC.of(c) == 0 for c in copies)


def test_invalid_config():
    with pytest.raises(ValueError):
        CholInvConfig(0)
    with pytest.raises(ValueError):
        CholInvConfig(3, loop_dirs=("U", "X", "U"))


# sha256 of (id, kind, indices, reads, writes) over every task: list
# schedules break ties on task ids and the hazard DAG follows the tiles,
# so the traces must stay identical task for task.
CHOL_TRACE_SHA256 = {
    ("fact", "right"):
        "c20f58a996871531f932f538c5cf260b7a65fb8228aab5320314afa49699bc7e",
    ("fact", "left"):
        "b4899004a31bb5bbf56c20a884affb63bc41eaedb95cb7b6ac2ec5dc62ce9507",
    ("fact", "bordered"):
        "6a5ebfa2f0cae40b949bdc81b340ebeb5fe029682bf5fbe0e0106a9a19f10e79",
    ("inversion", False, False):
        "0937c525672d4dde5e572d514bea388568684e98b2b19e4d4b99b14ca0e83520",
    ("inversion", False, True):
        "52c671f68f86ff9c6306ff0670d8ed453cc84e5702ab38d419183cd07fc5999f",
    ("inversion", True, False):
        "4a9a616d6711117162301a81ce1ea5e6d638edbfde1861db2cdfbc0fdc9e6461",
    ("inversion", True, True):
        "1f7aa919fbe90bd61cbd1d6ceb614fba93483180fcd6bc3028d8bdc150faa0f3",
}


def _rows(trace):
    return [(t.id, t.kind, t.indices, tuple(map(tuple, t.reads)),
             tuple(map(tuple, t.writes))) for t in trace]


def _pinned_traces(key):
    if key[0] == "fact":
        return [gen_chol_fact(t, key[1]) for t in range(1, 8)]
    out = []
    for t, dirs in product(range(1, 5), product("UD", repeat=3)):
        cfg = CholInvConfig(t, out_of_place=key[1], loop_dirs=dirs, pipelined=key[2])
        out.append(gen_chol_inversion(cfg))
        out.extend(inversion_steps(cfg))
    return out


@pytest.mark.parametrize("key", sorted(CHOL_TRACE_SHA256, key=repr))
def test_trace_identity(key):
    rows = [_rows(trace) for trace in _pinned_traces(key)]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == CHOL_TRACE_SHA256[key]
