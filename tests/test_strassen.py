import hashlib
import math
from collections import Counter

import pytest

from tiledag import (
    GEADD, GEMM, StrassenParams, WeightModel, build_from_trace,
    gen_strassen, gen_tiled_gemm, r_min, strassen_cp, strassen_flops,
    strassen_task_count, temp_tile_count, trace_cp,
)
from test_taskgraph import _rows

WU = WeightModel.unit()

COUNTS_128 = {1: 1896448, 2: 1774592, 3: 1762048, 4: 1915712,
              5: 2338288, 6: 3212252, 7: 4859338}


def trunc3(x):
    e = math.floor(math.log10(abs(x)))
    f = 10 ** (e - 2)
    return math.floor(x / f) * f


def test_task_count_table():
    for r, want in COUNTS_128.items():
        assert strassen_task_count(128, r) == want


def test_generator_matches_closed_form():
    for p in (4, 8, 16, 32):
        for r in range(0, min(5, int(math.log2(p))) + 1):
            trace, temps = gen_strassen(StrassenParams(p, r))
            assert len(trace) == strassen_task_count(p, r)
            assert temps == temp_tile_count(p, r)
    assert temp_tile_count(16, 2) == 18 * 64 + 7 * 18 * 16
    trace, temps = gen_strassen(StrassenParams(64, 3))
    assert len(trace) == 264896


def test_tiled_gemm():
    assert len(gen_tiled_gemm(4)) == 64
    assert len(gen_tiled_gemm(1)) == 1
    trace = gen_tiled_gemm(8)
    assert len(trace) == 512
    assert trace_cp(trace, WU) == 8  # ascending-k chain per output tile
    with pytest.raises(ValueError):
        gen_tiled_gemm(0)


def test_phase_structure():
    trace, _ = gen_strassen(StrassenParams(4, 1))
    counts = Counter(t.kind for t in trace)
    assert counts["GEADD"] == 15 * 4 and counts["GEMM"] == 7 * 8
    # one level of recursion on 4x4 tiles: cp matches the reference value 7
    assert trace_cp(trace, WU) == 7
    g = build_from_trace(trace)
    byid = {t.id: t for t in trace}
    for u, v, _ in g.edges:
        for tile in byid[u].writes:
            if tile.matrix.startswith("Q") and tile in byid[v].reads \
                    and tile not in byid[v].writes:
                assert byid[v].kind == "GEADD"


# (1, 0) and (0, 1) isolate the GEMM chain and the GEADD levels, so a
# closed form that is exact under both and under (1, 5) has both terms right.
# (399, 1) makes durations proportional to flops at n_b = 200, normalized so
# the cheapest task (the tile add) weighs 1: GEMM = 2 n_b - 1, GEADD = 1.
CP_MODELS = [WU, WeightModel({GEMM: 399, GEADD: 1}), WeightModel({GEMM: 1, GEADD: 5}),
             WeightModel({GEMM: 1, GEADD: 0}), WeightModel({GEMM: 0, GEADD: 1})]


@pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
def test_cp_closed_form(p):
    for r in range(int(math.log2(p)) + 1):
        trace, _ = gen_strassen(StrassenParams(p, r))
        for wm in CP_MODELS:
            assert trace_cp(trace, wm) == strassen_cp(p, r, wm), (p, r, wm.table)


def test_cp_closed_form_p32_r5():
    trace, _ = gen_strassen(StrassenParams(32, 5))
    assert trace_cp(trace, WU) == strassen_cp(32, 5, WU) == 1 + 25


def test_r_min_table_and_formula_floor():
    with pytest.raises(ValueError):
        r_min(12)


def test_gflop_columns():
    f = strassen_flops(StrassenParams(128, 1)) / 1e9
    assert abs(trunc3(f) - 2.92e4) / 2.92e4 < 0.005


def test_flops_strictly_decrease_with_recursion():
    for p in (8, 16, 64):
        vals = [strassen_flops(StrassenParams(p, r))
                for r in range(0, int(math.log2(p)) + 1)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_task_count_minimized_at_r_min():
    for p in (4, 8, 16, 32, 64):
        levels = range(1, min(5, int(math.log2(p))) + 1)
        counts = [strassen_task_count(p, r) for r in levels]
        best = counts.index(min(counts)) + 1
        assert best == min(r_min(p), len(counts))


def test_parameter_validation():
    with pytest.raises(ValueError):
        StrassenParams(12, 1)
    with pytest.raises(ValueError):
        StrassenParams(8, 4)
    with pytest.raises(ValueError):
        StrassenParams(8, -1)


def test_params_flop_constants():
    params = StrassenParams(4, 1, n_b=200)
    assert params.m == 2 * 200 ** 3 - 200 ** 2 and params.a == 200 ** 2


def test_acyclic_and_chain_depth():
    trace, _ = gen_strassen(StrassenParams(8, 1))
    build_from_trace(trace)  # raises on trace-order violations
    # leaf products are 4x4 tiled gemms: chains of length 4 inside
    assert trace_cp(trace, WU) == 9


# sha256 of (id, kind, indices, reads, writes) over every task, with the
# temporary-tile count of each Strassen trace: list schedules break ties on
# task ids and the hazard DAG follows the tiles, so the traces must stay
# identical task for task.  A power of two p covers every r in 0..log2(p).
STRASSEN_TRACE_SHA256 = {
    1: "6903c34a5ef19b4672dfb3dcf74f60ba86d604bf0c3e05c2fa0c9005acde330d",
    2: "b5c12135422e77147edd1ae40ecb47c2b35602e7a5fa6c490251daec9fbd01b1",
    4: "b9acada4cdb11490f2bf2593644f9f4c2737ebade014a0dfe3b574457243f7db",
    8: "9486cac9d2a4af056c1eea3de0a37edae06220334b96bca320031ee8cb70fbac",
    16: "a529e60b5f40d60ee68ff2313fa6909c2b01cc0930c2e876177e020705c9459d",
    "tiled_gemm": "7c208c261899468db8f6b006b1dcf03ea69eab499e60a730b2774b5e0e6eeef6",
}


def _pinned_traces(key):
    if key == "tiled_gemm":
        return [_rows(gen_tiled_gemm(n)) for n in range(1, 5)]
    out = []
    for r in range(int(math.log2(key)) + 1):
        trace, temps = gen_strassen(StrassenParams(key, r))
        out.append((_rows(trace), temps))
    return out


@pytest.mark.parametrize("key", sorted(STRASSEN_TRACE_SHA256, key=repr))
def test_trace_identity(key):
    digest = hashlib.sha256(repr(_pinned_traces(key)).encode()).hexdigest()
    assert digest == STRASSEN_TRACE_SHA256[key]
