"""Command-line front end: reproduce the reference tables and sweeps as CSV.

Every subcommand writes deterministic CSV (stdout by default, --out FILE
otherwise).  --check, on the subcommands that have golden values or closed
forms, re-derives them.  Flag errors and files that cannot be read or
written exit 2; check mismatches and invalid instances exit 1.
"""

from __future__ import annotations

import argparse
import sys
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from . import cholesky, golden, ipmodel, qr, sched, strassen
from .taskgraph import (
    TSQRT, TTQRT, WeightModel, annotate_cp, asap_times, build_from_trace, trace_cp,
)


def _fmt2(x) -> str:
    f = Fraction(x)
    return str((Decimal(f.numerator) / Decimal(f.denominator))
               .quantize(Decimal("0.01"), ROUND_HALF_UP))


def _write(args, text, suffix=""):
    out = getattr(args, "out", None)
    if out:
        path = out + suffix
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _procs(spec):
    """argparse type of --procs: 'lo..hi' or a comma list of positive
    processor counts."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            procs = list(range(int(lo), int(hi) + 1))
        else:
            procs = [int(x) for x in spec.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed processor list {spec!r}") from None
    if not procs or min(procs) < 1:
        raise argparse.ArgumentTypeError(
            f"processor list {spec!r} is empty or has a count below 1")
    return procs


def _int_at_least(lo, what):
    """argparse type of an integer n >= lo; `what` names the range in the
    error message."""
    def parse(spec):
        try:
            n = int(spec)
        except ValueError:
            n = lo - 1
        if n < lo:
            raise argparse.ArgumentTypeError(f"expected {what}, got {spec!r}")
        return n
    return parse


# a tile count, a processor count, a horizon, a column count or a domain size
_positive = _int_at_least(1, "a positive integer")


def _power_of_two(spec):
    """argparse type of a Strassen tile count: a positive power of two."""
    n = _positive(spec)
    if n & (n - 1):
        raise argparse.ArgumentTypeError(f"expected a power of two, got {spec!r}")
    return n


def _check(rows):
    """--check verdict over (template, got, want) rows: each row whose got
    differs from want prints template.format(got, want) to stderr.  Exit
    code 1 if any row did, else 0."""
    bad = [template.format(got, want) for template, got, want in rows if got != want]
    for line in bad:
        print(f"check mismatch: {line}", file=sys.stderr)
    return 1 if bad else 0


def _bounds_csv(rows) -> str:
    lines = ["p,LA,T_alap,T_rooftop,speedup,efficiency"]
    for r in rows:
        lines.append(f"{r.p},{r.lost_area},{_fmt2(r.t_alap)},{_fmt2(r.t_roof)},"
                     f"{_fmt2(r.speedup)},{_fmt2(r.efficiency)}")
    return "\n".join(lines) + "\n"


def cmd_chol_cp(args):
    t = args.t
    wu = WeightModel.unit()
    rows = ["step,in_place,out_of_place"]
    per = {}
    for oop in (False, True):
        cfg = cholesky.CholInvConfig(t, out_of_place=oop)
        per[oop] = [trace_cp(s, wu) for s in cholesky.inversion_steps(cfg)]
    for n in range(3):
        rows.append(f"step{n+1},{per[False][n]},{per[True][n]}")
    pi = trace_cp(cholesky.gen_chol_inversion(cholesky.CholInvConfig(t)), wu)
    po = trace_cp(cholesky.gen_chol_inversion(
        cholesky.CholInvConfig(t, out_of_place=True)), wu)
    rows.append(f"pipelined,{pi},{po}")
    rows.append(f"unpipelined,{sum(per[False])},{sum(per[True])}")
    _write(args, "\n".join(rows) + "\n")
    if args.check:
        o = cholesky.chol_cp_oracle
        return _check([
            ("step1-in: {} != {}", per[False][0], o(t, "step1")),
            ("step2-in: {} != {}", per[False][1], o(t, "step2-in")),
            ("step3-in: {} != {}", per[False][2], o(t, "step3-in")),
            ("step2-out: {} != {}", per[True][1], o(t, "step2-out")),
            ("step3-out: {} != {}", per[True][2], o(t, "step3-out")),
            ("pipe-in: {} != {}", pi, o(t, "pipe-in")),
            ("pipe-out: {} != {}", po, o(t, "pipe-out"))])
    return 0


def _graph(args):
    """(graph, weights) of --algo: right-looking Cholesky on --t tiles, or
    the QR tree on --p x --q."""
    if args.algo == "cholesky":
        return (build_from_trace(cholesky.gen_chol_fact(args.t, "right")),
                WeightModel.cholesky())
    build = qr.build_tree(args.p, args.q, args.algo, bs=args.bs)
    return build_from_trace(build.trace), WeightModel.qr_tt()


def cmd_bounds(args):
    graph, weights = _graph(args)
    rows = sched.bounds_table(graph, weights, args.procs)
    _write(args, _bounds_csv(rows))
    if args.algo == "cholesky" and args.check:   # qr-bounds has no --check
        cells = [("cp {} != 9t-10 = {}", annotate_cp(graph, weights).cp_length,
                  cholesky.chol_cp_oracle(args.t, "fact"))]
        cells += [(f"row {r.p}: T_alap {_fmt2(r.t_alap)} < T_rooftop {_fmt2(r.t_roof)}",
                   r.t_alap >= r.t_roof, True) for r in rows]
        ref_rows = golden.CHOL_BOUNDS_T5 if args.t == 5 else {}
        for r in rows:
            ref = ref_rows.get(r.p)
            if ref is None:
                continue
            if ref[0] is not None:
                cells.append((f"LA({r.p}): {{}} != {{}}", r.lost_area, ref[0]))
            cells.append((f"row {r.p}: {{}} != {{}}",
                          (_fmt2(r.t_alap), _fmt2(r.speedup), _fmt2(r.efficiency)), ref[1:]))
        return _check(cells)
    return 0


def cmd_qr_coarse(args):
    table, elim = qr.coarse_schedule(args.p, args.q, args.algo)
    _write(args, table.to_csv())
    if args.list:
        _write(args, elim.to_csv(), suffix=".elim")
    if args.check:
        elim.validate()
        cells = []
        if args.algo != "greedy":   # Greedy's cp has no closed form
            cells.append(("coarse cp: {} != {}", table.cp(),
                          qr.coarse_cp_oracle(args.p, args.q, args.algo)))
        if args.algo != "fibonacci":
            # the busy schemes fire each elimination one step after its rows'
            # last use, so their tables equal their lists' re-execution
            again = qr.CoarseTable.of(elim.with_steps())
            cells += [(f"({i},{k}): {{}} != re-executed {{}}", s, again(i, k))
                      for (i, k), s in table.steps.items()]
        if (args.p, args.q) == (15, 6):
            cells += [(f"({i},{k}): {{}} != {{}}", table(i, k), v)
                      for (i, k), v in golden.coarse_table_cells(args.algo).items()]
        return _check(cells)
    return 0


def cmd_qr_tiled(args):
    build = qr.build_tree(args.p, args.q, args.algo, family=args.family,
                          bs=args.bs, grasap_i=args.i or 1)
    _write(args, qr.zeroed_table_csv(build))
    if args.check:
        # the fused times against the hazard timer on the replayed trace
        fins, cp = asap_times(build.trace, build.weights)
        cells = [("total weight mismatch", qr.verify_weight(build), True),
                 ("cp {} != replayed trace {}", build.cp, cp)]
        for t in build.trace:
            if t.kind in (TTQRT, TSQRT):
                i, _, k = t.indices
                cells.append((f"({i},{k}): {{}} != replayed trace {{}}",
                               build.zeroed[(i, k)], fins[t.id]))
        if args.algo == "flattree" and args.family == "TT":
            cells.append(("cp {} != closed form {}", build.cp,
                          qr.flattree_cp_oracle(args.p, args.q)))
        key = (args.algo, args.bs) if args.algo == "plasmatree" else args.algo
        if (args.p, args.q) == (15, 6) and args.family == "TT" \
                and key in golden.TILED_15x6:
            cells += [(f"({i},{k}): {{}} != {{}}", build.zeroed.get((i, k)), v)
                      for (i, k), v in golden.tiled_table_cells(key).items()]
        return _check(cells)
    return 0


def cmd_qr_cp_table(args):
    p = args.p
    lines = ["q,greedy,fibonacci,plasmatree_best,best_bs,flattree"]
    rows = []
    # A column's pairs and steps depend only on earlier columns, so the
    # PlasmaTree list of p x q is the first q columns of that of p x p.
    plasma = [qr.plasmatree_list(p, p, bs).entries for bs in range(1, p + 1)]
    for q in range(1, args.q + 1):
        g = qr.build_tree(p, q, "greedy", keep_trace=False).cp
        f = qr.build_tree(p, q, "fibonacci", keep_trace=False).cp
        n = q * p - q * (q + 1) // 2   # eliminations in columns 1..q
        best_bs, best = 1, None
        for bs, entries in enumerate(plasma, 1):
            elim = qr.EliminationList(p, q, entries[:n])
            cp = qr.QrBuild(p, q, "TT", keep_trace=False).run_list(elim).cp
            if best is None or cp < best:
                best, best_bs = cp, bs
        ft = qr.flattree_cp_oracle(p, q)
        rows.append((q, g, f, best, best_bs, ft))
        lines.append(f"{q},{g},{f},{best},{best_bs},{ft}")
    _write(args, "\n".join(lines) + "\n")
    if args.check:
        cells = []
        for (q, g, f, best, _, ft) in rows:
            cells.append((f"flattree q={q}: {{}} != built {{}}", ft,
                          qr.build_tree(p, q, "flattree", keep_trace=False).cp))
            if q >= 2:
                lo, hi = qr.fibonacci_cp_bounds(p, q)
                cells.append((f"fibonacci q={q}: {f} outside [{lo}, {hi})", lo <= f < hi, True))
            if p == 40:
                cells += [(f"greedy q={q}: {{}} != {{}}", g, golden.GREEDY_CP_P40[q - 1]),
                          (f"fibonacci q={q}: {{}} != {{}}", f, golden.FIBONACCI_CP_P40[q - 1]),
                          (f"plasmatree q={q}: {{}} != {{}}", best,
                           golden.PLASMATREE_CP_P40[q - 1][1])]
        return _check(cells)
    return 0


def cmd_sched(args):
    graph, weights = _graph(args)
    results = []
    for p in args.procs:
        s = sched.list_schedule(graph, weights, p, args.policy, seed=args.seed)
        sched.check_schedule(graph, weights, s)
        results.append((p, s))
    lines = ["procs,makespan"] + [f"{p},{s.makespan}" for p, s in results]
    _write(args, "\n".join(lines) + "\n")
    if args.gantt:
        _write(args, results[-1][1].to_csv(graph, weights), suffix=".gantt")
    if args.check:
        if args.algo == "cholesky":
            want = cholesky.chol_cp_oracle(args.t, "fact")
        else:   # the trace-free build times the same tree without a graph
            want = qr.build_tree(args.p, args.q, args.algo, bs=args.bs, keep_trace=False).cp
        return _check([("cp {} != {}", annotate_cp(graph, weights).cp_length, want)])
    return 0


def cmd_alpha(args):
    lines = ["t,p_opt,alpha"]
    for t in range(3, args.t + 1):
        p_opt, alpha = sched.alpha_min(t)
        lines.append(f"{t},{p_opt},{float(alpha):.4f}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_strassen_count(args):
    wu = WeightModel.unit()
    rows = []
    for r in range(0, args.r + 1):
        params = strassen.StrassenParams(args.p, r, args.nb)
        trace, temps = strassen.gen_strassen(params)
        cp = trace_cp(trace, wu)
        rows.append((args.p, r, len(trace), strassen.strassen_flops(params), cp, temps))
    _write(args, strassen.counters_csv(rows))
    if args.check:
        cells = []
        for (_, r, tasks, _, cp, temps) in rows:
            cells += [(f"r={r}: tasks {{}} != {{}}", tasks,
                       strassen.strassen_task_count(args.p, r)),
                      (f"r={r}: temp tiles {{}}", temps, strassen.temp_tile_count(args.p, r)),
                      (f"r={r}: cp {{}} != closed form {{}}", cp,
                       strassen.strassen_cp(args.p, r, wu))]
        return _check(cells)
    return 0


def cmd_ip_emit(args):
    horizon = args.T
    if horizon is None:
        horizon = qr.total_weight(args.p, args.q) // 2  # serial bound, half units
    model = ipmodel.emit_ip(args.p, args.q, horizon, capacity=args.procs)
    _write(args, model.render(), suffix=".lp" if args.out and not args.out.endswith(".lp") else "")
    return 0


def cmd_ip_check(args):
    horizon = args.T
    if args.assignment:
        with open(args.assignment) as fh:
            text = fh.read()
        assign = ipmodel.parse_assignment(text)
        if horizon is None:
            if not assign:
                raise ValueError(f"assignment file {args.assignment!r} has no entries; "
                                 "give --T to check it")
            horizon = max(assign.values()) + 4
    else:
        graph, weights = _graph(args)
        s = sched.list_schedule(graph, weights, args.procs or 1, "max")
        if horizon is None:
            horizon = s.makespan // 2 + 4   # big-M headroom past the last finish
        assign = ipmodel.schedule_to_assignment(graph, s)
    model = ipmodel.emit_ip(args.p, args.q, horizon, capacity=args.procs)
    assign = ipmodel.complete_assignment(model, assign)
    ok, violated = ipmodel.check_feasible(model, assign)
    print("feasible" if ok else "infeasible")
    for v in violated[:20]:
        print(f"  violated [{v.group}] {v.name}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(prog="tiledag",
                                 description="task DAGs, critical paths, bounds "
                                             "and schedules of tiled linear algebra")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, check=False, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="output file (default stdout)")
        if check:
            p.add_argument("--check", action="store_true",
                           help="re-derive golden values; exit 1 on mismatch")
        return p

    def tree(p, algo, choices=(), required=True):
        """--p, --q, --algo and --bs of a subcommand that builds a QR tree;
        unset --p and --q are None when not required."""
        for flag in ("--p", "--q"):
            p.add_argument(flag, type=_positive, required=required)
        p.add_argument("--algo", default=algo, choices=[*choices, *qr.TREE_ALGOS])
        p.add_argument("--bs", type=_positive, help="plasmatree domain size")

    p = add("chol-cp", cmd_chol_cp, check=True,
            help="per-step and pipelined inversion critical paths")
    p.add_argument("--t", type=_positive, required=True)

    p = add("chol-bounds", cmd_bounds, check=True,
            help="Lost-Area/ALAP and Rooftop bound table")
    p.set_defaults(algo="cholesky")
    p.add_argument("--t", type=_positive, required=True)
    p.add_argument("--procs", type=_procs, default="1..10")

    p = add("qr-coarse", cmd_qr_coarse, check=True, help="coarse time-step table")
    p.add_argument("--p", type=_positive, required=True)
    p.add_argument("--q", type=_positive, required=True)
    p.add_argument("--algo", default="greedy",
                   choices=["sameh-kuck", "fibonacci", "greedy"])
    p.add_argument("--list", action="store_true", help="also write the elimination list CSV")

    p = add("qr-tiled", cmd_qr_tiled, check=True, help="tiled zeroed-time table")
    tree(p, "greedy")
    p.add_argument("--family", default="TT", choices=["TT", "TS"])
    p.add_argument("--i", type=_positive, help="grasap trailing asap columns (default 1)")

    p = add("qr-cp-table", cmd_qr_cp_table, check=True, help="critical-path comparison table")
    p.add_argument("--p", type=_positive, required=True)
    p.add_argument("--q", type=_positive, required=True, help="largest column count")

    p = add("qr-bounds", cmd_bounds, help="per-tree ALAP/Rooftop bounds")
    tree(p, "grasap")
    p.add_argument("--procs", type=_procs, default="1..14")

    p = add("sched", cmd_sched, check=True, help="bounded-processor list scheduling")
    tree(p, "cholesky", ["cholesky"], required=False)
    p.add_argument("--t", type=_positive, help="tiles per side (cholesky)")
    p.add_argument("--procs", type=_procs, default="1..8")
    p.add_argument("--policy", default="max", choices=["max", "min", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gantt", action="store_true", help="write gantt CSV for the last row")

    p = add("alpha", cmd_alpha, help="smallest processor count attaining 9t-10")
    p.add_argument("--t", type=_int_at_least(3, "a positive integer >= 3"), default=10,
                   help="largest t (the table starts at t = 3)")

    p = add("strassen-count", cmd_strassen_count, check=True, help="task/flop/cp/temp counters")
    p.add_argument("--p", type=_power_of_two, required=True)
    p.add_argument("--r", type=_int_at_least(0, "a nonnegative integer"), required=True,
                   help="largest recursion level")
    p.add_argument("--nb", type=_positive, default=200)

    p = add("ip-emit", cmd_ip_emit, help="emit the integer program (LP format)")
    p.add_argument("--p", type=_positive, required=True)
    p.add_argument("--q", type=_positive, required=True)
    p.add_argument("--T", type=_positive, help="horizon in half-weight units")
    p.add_argument("--procs", type=_positive, help="optional capacity extension")

    p = add("ip-check", cmd_ip_check, help="check an assignment against the model")
    tree(p, None)   # grasap, unless an --assignment file fixes the schedule
    p.add_argument("--T", type=_positive, help="horizon in half-weight units")
    p.add_argument("--procs", type=_positive, help="optional capacity extension")
    p.add_argument("--assignment", help="file of 'name value' lines")

    try:
        args = ap.parse_args(argv)
        error = sub.choices[args.cmd].error   # prints the subcommand's usage
        if args.cmd == "sched":   # an unset size is 5; the other family's are refused
            own = ("t",) if args.algo == "cholesky" else ("p", "q")
            foreign = [n for n in ("t", "p", "q") if n not in own and getattr(args, n)]
            args.t, args.p, args.q = (n or 5 for n in (args.t, args.p, args.q))
        if args.cmd == "ip-check":
            if args.assignment and (args.algo or args.bs):
                error("--assignment fixes the schedule; drop --algo and --bs")
            args.algo = args.algo or "grasap"
        if "bs" in args and args.algo == "plasmatree":
            if args.bs is None:
                error("--algo plasmatree needs --bs")
            if args.bs > args.p:
                error("--bs must not exceed --p")
        elif "bs" in args and args.bs is not None:
            error(f"--bs applies to --algo plasmatree only, not {args.algo}")
        if "i" in args and args.i is not None:
            if args.algo != "grasap":
                error(f"--i applies to --algo grasap only, not {args.algo}")
            if args.i > args.q:
                error("--i must not exceed --q")
        if "family" in args and args.family == "TS" and args.algo in ("asap", "grasap"):
            error(f"--algo {args.algo} is defined over TT kernels")
        if args.cmd == "sched" and foreign:
            error(f"--{foreign[0]} does not apply to --algo {args.algo}")
        if args.cmd in ("chol-cp", "chol-bounds", "sched") and args.check and args.t < 2:
            error("--check needs --t >= 2, where the closed forms are stated")
        if args.cmd == "strassen-count" and 2 ** args.r > args.p:
            error("--r must not exceed log2(--p)")
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, AssertionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: cannot open {e.filename!r}: {e.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
