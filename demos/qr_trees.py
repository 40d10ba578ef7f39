#!/usr/bin/env python3
"""Compare QR elimination trees: coarse steps, tiled zeroed times,
critical paths, and the Asap/GrASAP constructions."""

from tiledag import (
    build_tree, coarse_cp_oracle, coarse_schedule, fibonacci_cp_bounds,
    flattree_cp_oracle, total_weight, verify_weight, zeroed_table_csv,
)

p, q = 15, 6
print(f"coarse-grain time steps, {p}x{q}:")
for algo in ("sameh-kuck", "fibonacci", "greedy"):
    table, elim = coarse_schedule(p, q, algo)
    oracle = "" if algo == "greedy" else f" (oracle {coarse_cp_oracle(p, q, algo)})"
    print(f"  {algo:11s} cp = {table.cp():3d}{oracle}")

print(f"\ntiled critical paths, {p}x{q} (weights 4/2/6/6):")
for algo, kw in (("flattree", {}), ("fibonacci", {}), ("greedy", {}),
                 ("binarytree", {}), ("plasmatree", {"bs": 5}),
                 ("asap", {}), ("grasap", {})):
    b = build_tree(p, q, algo, **kw)
    if not verify_weight(b):
        raise SystemExit(f"{algo}: total weight {b.total_weight} != {total_weight(p, q)}")
    extra = ""
    if algo == "flattree":
        extra = f" (closed form {flattree_cp_oracle(p, q)})"
    if algo == "fibonacci":
        extra = f" (bounds {fibonacci_cp_bounds(p, q)})"
    print(f"  {algo:11s} cp = {b.cp:3d}, last tile zeroed at {b.zeroed[(p, q)]}{extra}")
print(f"  every tree moves the same {total_weight(p, q)} weight units")

print("\nzeroed-time table, greedy (rows x columns):")
print(zeroed_table_csv(build_tree(p, q, "greedy")))

print("greedy vs grasap: the trailing-column Asap saves two steps when it can")
for (pp, qq) in ((20, 6), (15, 2), (30, 10)):
    cg = build_tree(pp, qq, "greedy", keep_trace=False).cp
    ca = build_tree(pp, qq, "grasap", keep_trace=False).cp
    print(f"  {pp:3d}x{qq:<3d} greedy {cg:4d}  grasap {ca:4d}  diff {cg - ca}")

print("\nasap fires eagerly and loses on wide matrices:")
for (pp, qq) in ((15, 2), (32, 16), (32, 32)):
    cg = build_tree(pp, qq, "greedy", keep_trace=False).cp
    ca = build_tree(pp, qq, "asap", keep_trace=False).cp
    print(f"  {pp:3d}x{qq:<3d} greedy {cg:4d}  asap {ca:4d}")
