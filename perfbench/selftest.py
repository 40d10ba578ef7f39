"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that one seed always yields the same instance list, and that every
oracle an op checks counts a failure when one value of the op's output is
corrupted.  Each corruption runs through the same pass runner as the
benchmark, so the failure is seen where `failed` is counted.  Exits 1
listing the checks that did not hold.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import workloads as wl  # noqa: E402
from tiledag import ipmodel, qr, sched  # noqa: E402

QI, DI, II = wl.QrInst, wl.DagInst, wl.IpInst


def seed_checks():
    bad = []
    for name in wl.WORKLOADS:
        if wl.draw(name, 7) != wl.draw(name, 7):
            bad.append(f"{name}: seed 7 drew two different instance lists")
        if wl.draw(name, 7) == wl.draw(name, 8):
            bad.append(f"{name}: seeds 7 and 8 drew the same instance list")
    return bad


def run_one(op, inst):
    """(failed, problems) of one op through the pass runner."""
    res = harness.run_passes([inst], op, harness.Tracer(False),
                             harness.Calibrator(), 0)
    probs = res.failures[0][2] if res.failures else []
    return res.failed, probs


def recheck_schedule(out):
    """Move the last task of the (first) schedule to time 0 and re-run
    check_schedule on it."""
    policy, s, _ = out["schedules"][0] if "schedules" in out else (None, out["schedule"], None)
    last = max(s.assignment)
    s.assignment[last] = (s.assignment[last][0], 0)
    try:
        sched.check_schedule(out["graph"], out["weights"], s)
        err = None
    except AssertionError as e:
        err = str(e)
    if "schedules" in out:
        out["schedules"][0] = (policy, s, err)
    else:
        out["schedule_error"] = err
    return out


def shift_bound(out, field, delta):
    row = out["bounds"][0]
    setattr(row, field, getattr(row, field) + delta(out, row))
    return out


def break_assignment(out):
    assign = dict(out["assign"])
    assign["x_1_1"] = out["model"].T * 10
    out["feasible"], out["violated"] = ipmodel.check_feasible(out["model"], assign)
    return out


def fib_upper(out):
    build = out["build"]
    build.cp = qr.fibonacci_cp_bounds(build.p, build.q)[1]
    return out


def bump(obj_key, attr, delta=1):
    def corrupt(out):
        obj = out[obj_key]
        setattr(obj, attr, getattr(obj, attr) + delta)
        return out
    return corrupt


def set_key(key, fn):
    def corrupt(out):
        out[key] = fn(out[key])
        return out
    return corrupt


def cell(obj_key, table_attr, key, delta=2):
    def corrupt(out):
        getattr(out[obj_key], table_attr)[key] += delta
        return out
    return corrupt


# (oracle, instance, corruption, text the problem must contain)
QR_CASES = [
    ("flop conservation", QI("greedy", 9, 4, None, "TS"),
     bump("build", "total_weight"), "total weight"),
    ("elimination count", QI("binarytree", 9, 4, None, "TT"),
     set_key("elim", lambda e: list(e)[:-1]), "eliminations"),
    ("FlatTree closed form", QI("flattree", 9, 4, None, "TT"),
     bump("build", "cp", 2), "flattree cp"),
    ("Fibonacci cp bounds", QI("fibonacci", 12, 4, None, "TT"),
     fib_upper, "fibonacci cp"),
    ("coarse cp closed form", QI("fibonacci", 12, 4, None, "TT"),
     cell("table", "steps", (12, 4), 20), "coarse cp"),
    ("golden p=40 cp", QI("greedy", 40, 3, None, "TT"),
     bump("build", "cp", 2), "golden"),
    ("golden p=40 PlasmaTree cp", QI("plasmatree", 40, 3, 5, "TT"),
     bump("build", "cp", 2), "golden"),
    ("golden 15x6 zeroed table", QI("binarytree", 15, 6, None, "TT"),
     cell("build", "zeroed", (15, 6)), "15x6 binarytree zeroed"),
    ("golden 15x6 coarse table", QI("greedy", 15, 6, None, "TT"),
     cell("table", "steps", (2, 1), 1), "15x6 greedy coarse"),
]

DAG_CASES = [
    ("QrBuild cp == annotate_cp", DI("qr", ("greedy", 6, 3, None), 1),
     bump("extra", "cp", 2), "QrBuild cp"),
    ("QR flop conservation (traced)", DI("qr", ("grasap", 6, 3, None), 1),
     bump("extra", "total_weight"), "total weight"),
    ("trace_cp == annotate_cp", DI("chol-fact", (5, "left"), 1),
     set_key("timer_cp", lambda v: v + 1), "trace_cp"),
    ("9t-10", DI("chol-fact", (5, "right"), 1),
     set_key("oracle", lambda o: (o[0], o[1] + 1)), "oracle 9t-10"),
    ("inversion pipelined out of place", DI("chol-inv", (5, True, True), 1),
     set_key("oracle", lambda o: (o[0], o[1] + 1)), "oracle pipe-out"),
    ("inversion with barriers in place", DI("chol-inv", (5, False, False), 1),
     set_key("oracle", lambda o: (o[0], o[1] + 1)), "oracle nopipe-in"),
    ("Strassen task count", DI("strassen", (4, 1), 1),
     set_key("extra", lambda e: (e[0][:-1], e[1])), "Strassen tasks"),
    ("Strassen temporary tiles", DI("strassen", (4, 2), 1),
     set_key("extra", lambda e: (e[0], e[1] + 1)), "temporary tiles"),
    ("ALAP profile area", DI("chol-fact", (5, "bordered"), 1),
     set_key("profile", lambda p: setattr(p, "steps", p.steps[1:]) or p),
     "ALAP profile"),
    ("check_schedule", DI("chol-fact", (6, "right"), 1),
     recheck_schedule, "check_schedule"),
    ("makespan >= alap_bound", DI("chol-inv", (5, False, True), 1),
     lambda out: shift_bound(out, "t_alap",
                             lambda o, r: o["schedules"][0][1].makespan + 1 - r.t_alap),
     "makespan"),
    ("alap_bound >= rooftop_bound", DI("qr", ("flattree", 6, 3, None), 1),
     lambda out: shift_bound(out, "t_roof", lambda o, r: r.t_alap + 1 - r.t_roof),
     "rooftop"),
    ("list-scheduling guarantee", DI("strassen", (4, 1), 1),
     lambda out: setattr(out["schedules"][0][1], "makespan", 10 ** 9) or out,
     "guarantee"),
]

IP_CASES = [
    ("check_feasible", II("greedy", 3, 2, None), break_assignment, "infeasible"),
    ("check_feasible with capacity", II("flattree", 3, 2, 2), break_assignment,
     "infeasible"),
    ("check_schedule before the IP", II("binarytree", 4, 3, None),
     recheck_schedule, "check_schedule"),
]

GROUPS = [
    (QR_CASES, wl.compute_qr, wl.check_qr),
    (DAG_CASES, wl.compute_dag, wl.check_dag),
    (IP_CASES, wl.compute_ip, wl.check_ip),
]


def oracle_checks():
    bad = []
    for cases, compute, check in GROUPS:
        for label, inst, corrupt, needle in cases:
            failed, probs = run_one(lambda i, tr: check(i, compute(i, tr)), inst)
            if failed:
                bad.append(f"{label}: the clean op failed: {probs[:2]}")
                continue
            failed, probs = run_one(
                lambda i, tr: check(i, corrupt(compute(i, tr))), inst)
            if failed != 1 or not any(needle in p and not p.startswith(harness.KNOWN_DEFECT)
                                      for p in probs):
                bad.append(f"{label}: corruption not counted (failed={failed}, {probs[:2]})")
    return bad


def known_defect_checks():
    """A documented prec-link case is counted as failed and classed as the
    known defect; a clean run is not."""
    bad = []
    failed, probs = run_one(wl.op_ip, II("greedy", 7, 4, None))
    if failed and not all(p.startswith(harness.KNOWN_DEFECT) for p in probs):
        bad.append(f"greedy 7x4 failed outside the documented defect: {probs[:2]}")
    if not failed:
        print("note: greedy 7x4 passes the IP round trip; the documented "
              "prec-link defect looks fixed")
    return bad


def main():
    bad = seed_checks() + oracle_checks() + known_defect_checks()
    for b in bad:
        print("FAIL", b)
    n = sum(len(c) for c, _, _ in GROUPS)
    print(f"{'FAILED' if bad else 'ok'}: seed determinism, {n} oracle corruptions, "
          f"known-defect classification")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
