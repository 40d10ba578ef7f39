#!/usr/bin/env python3
"""Bounded-processor scheduling of the Cholesky factorization DAG: the
ALAP activity profile, Lost-Area and Rooftop bounds, list schedules under
three priority policies, synchronized schedules, and the processor count
needed to reach the critical path."""

from tiledag import (
    WeightModel, alap_profile, alpha_min, annotate_cp, bounds_table,
    build_from_trace, gen_chol_fact, list_schedule, lost_area,
    lower_bound_factor, sync_chol_graph,
)

t = 5
wc = WeightModel.cholesky()
graph = build_from_trace(gen_chol_fact(t, "right"))
ann = annotate_cp(graph, wc)
prof = alap_profile(graph, wc)
print(f"cholesky t={t}: T_seq={prof.t_seq}, weighted cp={ann.cp_length}")

print("\nALAP activity profile (time, running tasks):")
print(" ", prof.steps)
print("lost area by processor count:",
      [(p, lost_area(prof, p)) for p in range(1, 6)])

print("\nbound table:")
print(f"{'p':>3s} {'T_alap':>8s} {'rooftop':>8s} {'speedup':>8s} {'eff':>6s}")
for row in bounds_table(graph, wc, range(1, 11)):
    print(f"{row.p:3d} {float(row.t_alap):8.2f} {float(row.t_roof):8.2f} "
          f"{float(row.speedup):8.2f} {float(row.efficiency):6.2f}")

print("\nlist schedules (makespan by policy):")
print(f"{'p':>3s} {'max':>5s} {'min':>5s} {'rand':>5s} {'2-1/p lower':>12s}")
for p in (1, 2, 4, 6, 8):
    ms = {pol: list_schedule(graph, wc, p, pol, seed=1).makespan
          for pol in ("max", "min", "random")}
    lb = lower_bound_factor(ms["max"], p)
    print(f"{p:3d} {ms['max']:5d} {ms['min']:5d} {ms['random']:5d} "
          f"{float(lb):12.2f}")

print("\nsynchronized schedules vs free list scheduling (p=4):")
for variant in ("grouped", "relaxed"):
    sync = list_schedule(*sync_chol_graph(t, variant), 4, "max")
    print(f"  {variant:8s} {sync.makespan}")
print(f"  {'list':8s} {list_schedule(graph, wc, 4, 'max').makespan}")

print("\nsmallest processor count whose CP schedule attains 9t-10:")
for tt in range(3, 9):
    p_opt, alpha = alpha_min(tt)
    print(f"  t={tt}: p_opt={p_opt:3d}  alpha=p/t^2={float(alpha):.3f}  "
          f"(relaxed sync needs {(tt - 1) ** 2 // 2 + 1})")
