#!/usr/bin/env python3
"""Task counts, flops and parallelism of tiled Strassen-Winograd
multiplication across recursion depths."""

import math

from tiledag import (
    StrassenParams, WeightModel, gen_strassen, gen_tiled_gemm,
    r_min, strassen_flops, strassen_task_count, trace_cp,
)

wu = WeightModel.unit()
n_b = 200

print(f"{'p':>5s} {'r':>2s} {'tasks':>9s} {'Gflop':>10s} {'cp':>5s} {'temp tiles':>10s}")
for p in (4, 8, 16, 32):
    for r in range(0, int(math.log2(p)) + 1):
        params = StrassenParams(p, r, n_b)
        trace, temps = gen_strassen(params)
        if len(trace) != strassen_task_count(p, r):
            raise SystemExit(f"p={p} r={r}: {len(trace)} tasks != {strassen_task_count(p, r)}")
        cp = trace_cp(trace, wu)
        print(f"{p:5d} {r:2d} {len(trace):9d} {strassen_flops(params) / 1e9:10.3g} "
              f"{cp:5d} {temps:10d}")
    print()

print("task-minimizing recursion depth and flop savings vs the cubic product:")
print(f"{'p':>5s} {'r_min':>5s} {'Gflop(SW)':>10s} {'Gflop(GEMM)':>11s} {'ratio':>6s}")
for p in (4, 16, 64, 256, 1024):
    rm = r_min(p)
    sw = strassen_flops(StrassenParams(p, rm, n_b))
    ge = strassen_flops(StrassenParams(p, 0, n_b))
    print(f"{p:5d} {rm:5d} {sw / 1e9:10.3g} {ge / 1e9:11.3g} {sw / ge:6.3f}")

print("\nplain tiled product for comparison (ascending-k chains):")
for n in (4, 8):
    trace = gen_tiled_gemm(n)
    print(f"  n={n}: {len(trace)} tasks, unit cp {trace_cp(trace, wu)} "
          f"(accumulation chain length = n)")
