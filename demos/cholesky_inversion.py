#!/usr/bin/env python3
"""Walk through the three-step tiled Cholesky inversion DAG.

Shows how loop reversal, array renaming (out-of-place temporaries) and
pipelining change the critical path, reproducing the closed forms
3t-2 / {3t-3, 2t-1} / {3t-2, t} per step and 9t-9 / 5t-2 pipelined.
"""

from tiledag import (
    CholInvConfig, WeightModel, build_from_trace, chol_cp_oracle,
    gen_chol_inversion, inversion_steps, trace_cp,
)

wu = WeightModel.unit()
t = 8

print(f"tile Cholesky inversion, t = {t}")
print(f"{'':14s} {'in-place':>9s} {'out-of-place':>13s}")
for n, (label, key_in, key_out) in enumerate(
        [("step 1", "step1", "step1"),
         ("step 2", "step2-in", "step2-out"),
         ("step 3", "step3-in", "step3-out")]):
    cin = trace_cp(inversion_steps(CholInvConfig(t))[n], wu)
    cout = trace_cp(inversion_steps(CholInvConfig(t, out_of_place=True))[n], wu)
    want = chol_cp_oracle(t, key_in), chol_cp_oracle(t, key_out)
    if (cin, cout) != want:
        raise SystemExit(f"{label}: cp {(cin, cout)} != closed forms {want}")
    print(f"{label:14s} {cin:9d} {cout:13d}")

for pipelined in (False, True):
    ci = trace_cp(gen_chol_inversion(CholInvConfig(t, pipelined=pipelined)), wu)
    co = trace_cp(gen_chol_inversion(
        CholInvConfig(t, out_of_place=True, pipelined=pipelined)), wu)
    label = "pipelined" if pipelined else "barriered"
    print(f"{label:14s} {ci:9d} {co:13d}")

print()
print("naive ascending inner loops blow up step 2:")
for dirs in (("U", "D", "U"), ("U", "U", "U")):
    cp = trace_cp(inversion_steps(CholInvConfig(t, loop_dirs=dirs))[1], wu)
    print(f"  directions {dirs}: step-2 cp = {cp}")

# the anti-dependences renaming removes, counted inside steps 2 and 3
def count_wars(cfg):
    total = 0
    example = None
    for sub in inversion_steps(cfg)[1:]:
        g = build_from_trace(sub)
        byid = {task.id: task for task in sub}
        for u, v, c in g.edges:
            if c == "WAR" and byid[u].kind != "COPY" and byid[v].kind != "COPY":
                total += 1
                example = example or (byid[u], byid[v])
    return total, example


n_in, ex = count_wars(CholInvConfig(4))
print(f"\nin-place t=4: steps 2-3 carry {n_in} anti-dependences, "
      f"e.g. {ex[0]} -> {ex[1]}")
n_out, _ = count_wars(CholInvConfig(4, out_of_place=True))
print(f"out-of-place t=4: steps 2-3 carry {n_out} "
      f"(the copies absorb every one)")
