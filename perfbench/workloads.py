"""The three workloads: seeded instance lists, the op each instance runs and
the oracles each op checks its output against.

An op mirrors one command-line call chain.  It is split into `compute_*`,
which makes the library calls inside layer spans, and `check_*`, which
compares the outputs with independent oracles and returns the problems
found.  The self-test corrupts single outputs between the two.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from fractions import Fraction

from tiledag import cholesky, golden, ipmodel, qr, sched, strassen
from tiledag.taskgraph import (
    WeightModel, alap_profile, annotate_cp, build_from_trace, t_seq, trace_cp,
)

from harness import KNOWN_DEFECT

QrInst = namedtuple("QrInst", "tree p q bs family")
DagInst = namedtuple("DagInst", "kind params rseed")
IpInst = namedtuple("IpInst", "tree p q procs")

# ---------------------------------------------------------------------------
# qr-trees: trace-free builds of every elimination tree

TREES = ("flattree", "fibonacci", "greedy", "binarytree", "plasmatree",
         "asap", "grasap")
COARSE_ALGO = {"flattree": "sameh-kuck", "fibonacci": "fibonacci",
               "greedy": "greedy"}
QR_P_GRID = (8, 12, 16, 20, 24, 28, 32, 40, 46)
QR_Q_FRACTIONS = (0.25, 0.5, 1.0)
QR_MAX_Q = 40   # the widest row stays thin: a 46x46 cell alone is a third of a pass


def jitter(rng, n, width):
    """n size offsets in [-width, width] that sum to zero, in drawn order.

    Offsets are dealt out across the members of a cell (the trees, loop
    orders or variants that share one nominal size), so each cell keeps
    the same multiset of sizes and a pass costs about the same on every
    seed while each member's size is drawn.
    """
    if n == 1:
        return [0]
    offs = [round(width * (2 * i - (n - 1)) / (n - 1)) for i in range(n)]
    rng.shuffle(offs)
    return offs


def draw_qr_trees(rng):
    """Every tree on a jittered grid of shapes up to 42x42 and 48x24, one
    shape per row size on TS kernels, plus the shapes that have golden
    tables."""
    out = []
    for p0 in QR_P_GRID:
        for tree, dp in zip(TREES, jitter(rng, len(TREES), 2)):
            p = p0 + dp
            fractions = [f for f in QR_Q_FRACTIONS if f * p0 <= QR_MAX_Q]
            ts_slot = rng.randrange(len(fractions))
            for n, f in enumerate(fractions):
                bs = rng.randint(1, p) if tree == "plasmatree" else None
                ts = n == ts_slot and tree not in ("asap", "grasap")
                out.append(QrInst(tree, p, max(1, round(f * p)), bs, "TS" if ts else "TT"))
    for tree in ("greedy", "fibonacci", "plasmatree"):
        q = rng.randint(6, 14)
        bs = golden.PLASMATREE_CP_P40[q - 1][0] if tree == "plasmatree" else None
        out.append(QrInst(tree, 40, q, bs, "TT"))
    for key in golden.TILED_15x6:
        tree, bs = key if isinstance(key, tuple) else (key, None)
        out.append(QrInst(tree, 15, 6, bs, "TT"))
    rng.shuffle(out)
    return out


def compute_qr(inst, tr):
    tree, p, q, bs, family = inst
    table = elim = None
    if tree in ("asap", "grasap"):
        with tr.span("qr.build"):
            build = qr.build_tree(p, q, tree, keep_trace=False)
        elim = build.elim
    else:
        with tr.span("qr.elimlist"):
            if tree in COARSE_ALGO:
                table, elim = qr.coarse_schedule(p, q, COARSE_ALGO[tree])
            elif tree == "binarytree":
                elim = qr.binary_tree_list(p, q)
            else:
                elim = qr.plasmatree_list(p, q, bs)
        with tr.span("qr.build"):
            build = qr.QrBuild(p, q, family, keep_trace=False).run_list(elim)
    tr.count("qr.elims", len(elim))
    tr.count("qr.tasks", sum(build.counts.values()))
    return {"table": table, "elim": elim, "build": build}


def check_qr(inst, out):
    tree, p, q, bs, family = inst
    table, elim, build = out["table"], out["elim"], out["build"]
    bad = []
    if not qr.verify_weight(build):
        bad.append(f"total weight {build.total_weight} != {qr.total_weight(p, q)}")
    want = sum(p - k for k in range(1, min(p, q) + 1))
    if len(elim) != want:
        bad.append(f"{len(elim)} eliminations, want {want}")
    if family == "TT":
        if tree == "flattree" and build.cp != qr.flattree_cp_oracle(p, q):
            bad.append(f"flattree cp {build.cp} != {qr.flattree_cp_oracle(p, q)}")
        if tree == "fibonacci" and q >= 2:
            lo, hi = qr.fibonacci_cp_bounds(p, q)
            if not lo < build.cp < hi:
                bad.append(f"fibonacci cp {build.cp} outside ({lo}, {hi})")
        if p == 40:
            ref = {"greedy": golden.GREEDY_CP_P40[q - 1],
                   "fibonacci": golden.FIBONACCI_CP_P40[q - 1]}.get(tree)
            best_bs, best_cp = golden.PLASMATREE_CP_P40[q - 1]
            if tree == "plasmatree" and bs == best_bs:
                ref = best_cp
            if ref is not None and build.cp != ref:
                bad.append(f"p=40 q={q} {tree} cp {build.cp} != golden {ref}")
        key = (tree, bs) if tree == "plasmatree" else tree
        if (p, q) == (15, 6) and key in golden.TILED_15x6:
            for cell, v in golden.tiled_table_cells(key).items():
                if build.zeroed.get(cell) != v:
                    bad.append(f"15x6 {tree} zeroed{cell} {build.zeroed.get(cell)} != {v}")
    if table is not None:
        algo = COARSE_ALGO[tree]
        if algo != "greedy" and table.cp() != qr.coarse_cp_oracle(p, q, algo):
            bad.append(f"coarse cp {table.cp()} != {qr.coarse_cp_oracle(p, q, algo)}")
        if (p, q) == (15, 6):
            for (i, k), v in golden.coarse_table_cells(algo).items():
                if table(i, k) != v:
                    bad.append(f"15x6 {algo} coarse({i},{k}) {table(i, k)} != {v}")
    return bad


def op_qr(inst, tr):
    out = compute_qr(inst, tr)
    with tr.span("bench.check"):
        return check_qr(inst, out)


# ---------------------------------------------------------------------------
# dag-sched: unfold, annotate, bound and list-schedule generated DAGs

PROCS = (2, 4, 8, 16)
POLICIES = ("max", "min", "random")
CHOL_VARIANTS = ("right", "left", "bordered")


def draw_dag_sched(rng):
    """Cholesky factorization in three loop orders, all four inversion
    variants, traced QR trees and Strassen-Winograd, each on a jittered
    grid of sizes."""
    out = []

    def add(kind, *params):
        out.append(DagInst(kind, params, rng.randrange(2 ** 31)))

    for t0 in (4, 7, 10, 13, 16):
        for variant, dt in zip(CHOL_VARIANTS, jitter(rng, len(CHOL_VARIANTS), 1)):
            add("chol-fact", t0 + dt, variant)
    configs = [(oop, pipelined) for oop in (False, True) for pipelined in (False, True)]
    for t0 in (4, 7, 10, 13):
        for (oop, pipelined), dt in zip(configs, jitter(rng, len(configs), 1)):
            add("chol-inv", t0 + dt, oop, pipelined)
    for p0, q0 in ((4, 2), (7, 4), (11, 5), (15, 8), (19, 9), (23, 11)):
        dp, dq = jitter(rng, len(TREES), 1), jitter(rng, len(TREES), 1)
        for t, tree in enumerate(TREES):
            p, q = p0 + dp[t], q0 + dq[t]
            add("qr", tree, p, q, rng.randint(1, p) if tree == "plasmatree" else None)
    for p, r in ((2, 1), (4, 1), (4, 2), (8, 1), (8, 2), (8, 3), (16, 2), (16, 3)):
        add("strassen", p, r)
    rng.shuffle(out)
    return out


def _dag_trace(inst, tr):
    """(trace, weights, oracle, extra) of one instance: the oracle is a
    (name, expected critical path) pair or None, extra the QrBuild or the
    Strassen (trace, temporary tiles) the checks compare against."""
    kind, params = inst.kind, inst.params
    if kind == "chol-fact":
        t, variant = params
        with tr.span("cholesky.gen"):
            trace = cholesky.gen_chol_fact(t, variant)
        tr.count("cholesky.tasks", len(trace))
        return trace, WeightModel.cholesky(), ("9t-10", cholesky.chol_cp_oracle(t, "fact")), None
    if kind == "chol-inv":
        t, oop, pipelined = params
        cfg = cholesky.CholInvConfig(t, out_of_place=oop, pipelined=pipelined)
        with tr.span("cholesky.gen"):
            trace = cholesky.gen_chol_inversion(cfg)
        tr.count("cholesky.tasks", len(trace))
        which = ("pipe-" if pipelined else "nopipe-") + ("out" if oop else "in")
        return trace, WeightModel.unit(), (which, cholesky.chol_cp_oracle(t, which)), None
    if kind == "qr":
        tree, p, q, bs = params
        with tr.span("qr.build_traced"):
            build = qr.build_tree(p, q, tree, bs=bs)
        tr.count("qr.tasks", len(build.trace))
        return build.trace, WeightModel.qr_tt(), None, build
    p, r = params
    with tr.span("strassen.gen"):
        trace, temps = strassen.gen_strassen(strassen.StrassenParams(p, r))
    tr.count("strassen.tasks", len(trace))
    return trace, WeightModel.unit(), None, (trace, temps)


def _count_graph(tr, graph):
    tr.count("taskgraph.unfold_tasks", len(graph))
    tr.count("taskgraph.edges", len(graph.edges))
    for cause, n in Counter(e[2] for e in graph.edges).items():
        tr.count(f"taskgraph.edges.{cause}", n)


def _count_schedule(tr, s, seq):
    """One list-schedule call; its area feeds sched.idle_ratio."""
    tr.count("sched.list_calls")
    tr.count("sched.list_tasks", len(s.assignment))
    tr.count("sched.proc_area", s.p * s.makespan)
    tr.count("sched.idle_area", s.p * s.makespan - seq)


def compute_dag(inst, tr):
    trace, weights, oracle, extra = _dag_trace(inst, tr)
    with tr.span("taskgraph.unfold"):
        graph = build_from_trace(trace)
    with tr.span("taskgraph.annotate"):
        ann = annotate_cp(graph, weights)
    with tr.span("taskgraph.timer"):
        tcp = trace_cp(trace, weights)
    with tr.span("taskgraph.profile"):
        prof = alap_profile(graph, weights)
    with tr.span("sched.bounds"):
        bounds = sched.bounds_table(graph, weights, PROCS)
    schedules = []
    for p in PROCS:
        for policy in POLICIES:
            with tr.span("sched.list"):
                s = sched.list_schedule(graph, weights, p, policy,
                                        seed=inst.rseed, annotation=ann)
            err = None
            with tr.span("sched.check"):
                try:
                    sched.check_schedule(graph, weights, s)
                except AssertionError as e:
                    err = str(e)
            schedules.append((policy, s, err))
    if tr.enabled:
        _count_graph(tr, graph)
        seq = t_seq(trace, weights)
        for _, s, _ in schedules:
            _count_schedule(tr, s, seq)
    return {"trace": trace, "weights": weights, "oracle": oracle, "extra": extra,
            "graph": graph, "ann": ann, "timer_cp": tcp, "profile": prof, "bounds": bounds,
            "schedules": schedules}


def check_dag(inst, out):
    bad = []
    cp = out["ann"].cp_length
    seq = t_seq(out["trace"], out["weights"])
    if out["timer_cp"] != cp:
        bad.append(f"trace_cp {out['timer_cp']} != annotate_cp {cp}")
    if out["oracle"] is not None and out["oracle"][1] != cp:
        bad.append(f"cp {cp} != oracle {out['oracle'][0]} = {out['oracle'][1]}")
    if inst.kind == "qr":
        build = out["extra"]
        if build.cp != cp:
            bad.append(f"QrBuild cp {build.cp} != hazard-DAG cp {cp}")
        if not qr.verify_weight(build):
            bad.append("QR total weight not conserved")
    if inst.kind == "strassen":
        trace, temps = out["extra"]
        p, r = inst.params
        if len(trace) != strassen.strassen_task_count(p, r):
            bad.append(f"{len(trace)} Strassen tasks != {strassen.strassen_task_count(p, r)}")
        if temps != strassen.temp_tile_count(p, r):
            bad.append(f"{temps} temporary tiles != {strassen.temp_tile_count(p, r)}")
    prof = out["profile"]
    if prof.area() != seq or prof.makespan != cp:
        bad.append(f"ALAP profile area {prof.area()}/{seq}, span {prof.makespan}/{cp}")
    bounds = {row.p: row for row in out["bounds"]}
    for policy, s, err in out["schedules"]:
        tag = f"P={s.p} {policy}"
        if err is not None:
            bad.append(f"{tag}: check_schedule: {err}")
        row = bounds[s.p]
        if not s.makespan >= row.t_alap >= row.t_roof:
            bad.append(f"{tag}: makespan {s.makespan} >= alap {row.t_alap} "
                       f">= rooftop {row.t_roof} fails")
        if s.makespan > Fraction(seq, s.p) + (1 - Fraction(1, s.p)) * cp:
            bad.append(f"{tag}: makespan {s.makespan} above the list-scheduling "
                       f"guarantee T_seq/P + (1-1/P)cp")
    return bad


def op_dag(inst, tr):
    out = compute_dag(inst, tr)
    with tr.span("bench.check"):
        return check_dag(inst, out)


# ---------------------------------------------------------------------------
# ip-check: emit the tiled-QR IP and check a list schedule against it

IP_TREES = ("flattree", "greedy", "binarytree", "grasap")
IP_CAPACITY_SHAPES = ((5, 4, 2), (5, 5, 4))

# Valid single-processor schedules that the IP round trip rejects through
# `prec-link` rows alone (check_schedule passes on all of them).
KNOWN_PREC_LINK = frozenset(
    [(tree, p, q) for tree in ("greedy", "grasap")
     for p in (7, 8) for q in range(4, p + 1)]
    + [("binarytree", p, q) for p in (7, 8) for q in range(3, p + 1)])


def draw_ip_check(rng):
    """Every shape q <= p <= 8 without capacity, the four trees rotated
    through each row size from a drawn offset, plus capacity models that
    outweigh all of them: each capacity shape on every tree, and each
    shape once more on two drawn trees."""
    out = []
    for p in range(2, 9):
        offset = rng.randrange(len(IP_TREES))
        for q in range(1, p + 1):
            out.append(IpInst(IP_TREES[(offset + q) % len(IP_TREES)], p, q, None))
    trees = list(IP_TREES)
    rng.shuffle(trees)
    for n, shape in enumerate(IP_CAPACITY_SHAPES):
        for tree in IP_TREES + tuple(trees[2 * n:2 * n + 2]):
            out.append(IpInst(tree, *shape))
    rng.shuffle(out)
    return out


def compute_ip(inst, tr):
    tree, p, q, procs = inst
    w = WeightModel.qr_tt()
    with tr.span("qr.build_traced"):
        build = qr.build_tree(p, q, tree)
    with tr.span("taskgraph.unfold"):
        graph = build_from_trace(build.trace)
    with tr.span("sched.list"):
        s = sched.list_schedule(graph, w, procs or 1, "max")
    err = None
    with tr.span("sched.check"):
        try:
            sched.check_schedule(graph, w, s)
        except AssertionError as e:
            err = str(e)
    horizon = s.makespan // 2 + 4   # big-M headroom past the last finish
    with tr.span("ipmodel.complete"):
        assign = ipmodel.schedule_to_assignment(graph, s)
    with tr.span("ipmodel.emit"):
        model = ipmodel.emit_ip(p, q, horizon, capacity=procs)
    with tr.span("ipmodel.complete"):
        assign = ipmodel.complete_assignment(model, assign)
    with tr.span("ipmodel.check"):
        ok, violated = ipmodel.check_feasible(model, assign)
    with tr.span("ipmodel.render"):
        text = model.render()
    if tr.enabled:
        tr.count("qr.tasks", len(build.trace))
        _count_graph(tr, graph)
        _count_schedule(tr, s, t_seq(build.trace, w))
        groups = Counter(c.group for c in model.constraints)
        tr.count("ipmodel.rows", len(model.constraints))
        tr.count("ipmodel.rows.capacity", groups["capacity"])
        tr.count("ipmodel.rows.prec", sum(n for g, n in groups.items()
                                          if g.startswith("prec")))
        tr.count("ipmodel.binaries", len(model.bin_vars))
        tr.count("ipmodel.violated_rows", len(violated))
        tr.count("ipmodel.lp_bytes", len(text))
    return {"graph": graph, "weights": w, "schedule": s, "schedule_error": err,
            "model": model, "assign": assign,
            "feasible": ok, "violated": violated}


def check_ip(inst, out):
    if out["schedule_error"] is not None:
        return [f"check_schedule: {out['schedule_error']}"]
    if out["feasible"]:
        return []
    violated = out["violated"]
    groups = sorted({c.group for c in violated})
    names = " ".join(c.name for c in violated[:3])
    what = f"{len(violated)} violated rows in {groups}: {names}"
    if inst.procs is None and groups == ["prec-link"] \
            and (inst.tree, inst.p, inst.q) in KNOWN_PREC_LINK:
        return [KNOWN_DEFECT + what]
    return ["infeasible: " + what]


def op_ip(inst, tr):
    out = compute_ip(inst, tr)
    with tr.span("bench.check"):
        return check_ip(inst, out)


# ---------------------------------------------------------------------------

WORKLOADS = {
    "qr-trees": (draw_qr_trees, op_qr),
    "dag-sched": (draw_dag_sched, op_dag),
    "ip-check": (draw_ip_check, op_ip),
}


def draw(name, seed):
    """The instance list of a workload; the same seed gives the same list."""
    return WORKLOADS[name][0](random.Random(f"{name}/{seed}"))
