"""Benchmark of the tiledag library: one workload, one seed, one process.

    python3 perfbench/run.py --workload qr-trees --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports tiledag from its
`src/`.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The run record (and with
--trace 1 the spans) go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

SETUP_REPEATS = 15
WARMUP_S = 1.0
TAIL_BEYOND = 10

# span names whose self time is reported as <name>_ref
LAYER_SPANS = (
    "qr.elimlist", "qr.build", "qr.build_traced",
    "cholesky.gen", "strassen.gen",
    "taskgraph.unfold", "taskgraph.annotate", "taskgraph.profile",
    "taskgraph.timer",
    "sched.list", "sched.check", "sched.bounds",
    "ipmodel.emit", "ipmodel.check", "ipmodel.complete", "ipmodel.render",
    "bench.check",
)
COUNTS = (
    "qr.elims", "qr.tasks", "cholesky.tasks", "strassen.tasks",
    "taskgraph.unfold_tasks", "taskgraph.edges", "taskgraph.edges.RAW",
    "taskgraph.edges.WAR", "taskgraph.edges.WAW", "taskgraph.edges.EXPLICIT",
    "sched.list_calls", "sched.list_tasks",
    "ipmodel.rows", "ipmodel.rows.capacity", "ipmodel.rows.prec",
    "ipmodel.binaries", "ipmodel.violated_rows", "ipmodel.lp_bytes",
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def timed_setup(workload, seed):
    """Import the library and draw the instance list, SETUP_REPEATS times
    from a clean module table; the median time and the last result."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in list(sys.modules):
            if name == "tiledag" or name.startswith("tiledag.") or name == "workloads":
                del sys.modules[name]
        t0 = time.perf_counter()
        wl = importlib.import_module("workloads")
        instances = wl.draw(workload, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times, wl, instances


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def end_to_end(res, setup_s):
    lat = res.latencies()
    pct, beyond = harness.tail_percentile(len(lat), TAIL_BEYOND)
    metrics = {
        "wall_ref": {"value": sum(lat), "unit": "ref"},
        "op_p50_ref": {"value": harness.quantile(lat, 0.5), "unit": "ref"},
        "op_tail_ref": {"value": harness.quantile(lat, pct / 100), "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    srt = sorted(lat)
    return metrics, {"tail_percentile": pct, "tail_ops_beyond": beyond,
                     "tail_ops": len(lat),
                     "nearest_rank_p50_ref": statistics.median(lat),
                     "nearest_rank_tail_ref": srt[len(srt) - beyond - 1]}


def per_layer(tracer, cal, traced, untraced):
    """Per-pass self times (calibration units) and counts of the traced
    passes, plus the tracing overhead against the untraced passes."""
    own = tracer.self_seconds(cal.inside)
    passes = traced.passes
    refs = dict.fromkeys(LAYER_SPANS, 0.0)
    op_total = op_self = 0.0
    for s, sec in zip(tracer.spans, own):
        name, start, end, _, (pno, n) = s
        unit = traced.units[n][pno]
        if name == "op":
            op_total += (end - start - cal.inside(start, end)) / unit
            op_self += sec / unit
        else:
            refs[name] += sec / unit
    metrics = {f"{name}_ref": {"value": v / passes, "unit": "ref"}
               for name, v in refs.items()}
    for name in COUNTS:
        metrics[name] = {"value": tracer.counts.get(name, 0) / passes,
                         "unit": "bytes" if name.endswith("bytes") else "count"}
    proc_area = tracer.counts.get("sched.proc_area", 0)
    idle = tracer.counts.get("sched.idle_area", 0) / proc_area if proc_area else 0.0
    metrics["sched.idle_ratio"] = {"value": idle, "unit": "ratio"}
    metrics["bench.unattributed_share"] = {
        "value": op_self / op_total if op_total else 0.0, "unit": "ratio"}
    metrics["bench.trace_overhead"] = {
        "value": sum(traced.latencies()) / sum(untraced.latencies()) - 1,
        "unit": "ratio"}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "tiledag" / "__init__.py").is_file():
        return fail(f"no tiledag sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))

    try:
        setup_s, setup_all, wl, instances = timed_setup(args.workload, args.seed)
    except KeyError:
        return fail(f"unknown workload {args.workload!r}")
    except ImportError as e:
        return fail(f"cannot import the library: {e}")
    import tiledag
    if SRC not in Path(tiledag.__file__).resolve().parents:
        return fail(f"tiledag was imported from {tiledag.__file__}, not {SRC}")
    op = wl.WORKLOADS[args.workload][1]

    cal = harness.Calibrator()
    cal.warm()
    quiet = harness.Tracer(False)
    t0 = time.perf_counter()
    for inst in instances:
        harness.execute(op, inst, quiet)
        if time.perf_counter() - t0 > WARMUP_S:
            break

    if args.trace:
        untraced = harness.run_passes(instances, op, quiet, cal, args.seconds / 2)
        tracer = harness.Tracer(True)
        traced = harness.run_passes(instances, op, tracer, cal, args.seconds / 2)
        metrics = per_layer(tracer, cal, traced, untraced)
        runs = [untraced, traced]
        extra = {}
    else:
        res = harness.run_passes(instances, op, quiet, cal, args.seconds)
        metrics, extra = end_to_end(res, setup_s)
        runs = [res]

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    unexpected = [f for r in runs for f in r.unexpected()]
    known = sorted({repr(instances[n]) for _, n, probs in failures
                    if all(p.startswith(harness.KNOWN_DEFECT) for p in probs)})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "instance_hash": hashlib.sha256(repr(instances).encode()).hexdigest(),
        "op_count": len(instances), "passes": [r.passes for r in runs],
        "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "known_defect_instances": known,
        "unexpected_failures": [
            {"pass": pno, "instance": repr(instances[n]), "problems": probs[:5]}
            for pno, n, probs in unexpected[:20]],
        **extra,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "setup_seconds": setup_all,
        "pass_seconds": [r.pass_secs for r in runs],
        "calibration_s": cal.constant(),
        "calibration_deciles_s": statistics.quantiles(cal.secs, n=10),
        "calibration_samples": len(cal.secs),
        "op_seconds": [r.secs for r in runs],
        "op_units_s": [r.units for r in runs],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"],
             "spans": tracer.spans}) + "\n")
    for f in unexpected[:5]:
        print(f"unexpected failure: {instances[f[1]]!r}: {f[2][0]}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
