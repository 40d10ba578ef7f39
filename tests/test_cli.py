import hashlib
from pathlib import Path

import pytest

from tiledag.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


# Every README "Command line" line, `sched` on every algo, `qr-bounds` and
# `ip-check` on four trees, `chol-bounds --check` on three sizes, and the
# exit-1 and exit-2 paths (whose stdout is empty).
CLI_RUNS = [
    "chol-cp --t 8",
    "chol-cp --t 4 --check",
    "chol-bounds --t 5 --procs 1..10 --check",
    "chol-bounds --t 3 --check",
    "chol-bounds --t 5 --check",
    "chol-bounds --t 8 --check",
    "qr-coarse --p 15 --q 6 --algo greedy --list",
    "qr-coarse --p 15 --q 6 --algo sameh-kuck --check",
    "qr-coarse --p 9 --q 5 --algo fibonacci --check --list --out coarse.csv",
    "qr-tiled --p 15 --q 6 --algo plasmatree --bs 5",
    "qr-tiled --p 15 --q 6 --algo flattree --check",
    "qr-tiled --p 7 --q 4 --algo greedy --family TS --check",
    "qr-tiled --p 8 --q 5 --algo grasap --i 2",
    "qr-tiled --p 8 --q 5 --algo asap",
    "qr-cp-table --p 40 --q 40",
    "qr-bounds --p 34 --q 4 --algo grasap --procs 1..20",
    "qr-bounds --p 8 --q 4 --algo flattree",
    "qr-bounds --p 8 --q 4 --algo greedy",
    "qr-bounds --p 8 --q 4 --algo plasmatree --bs 3",
    "qr-bounds --p 8 --q 4",
    "sched --algo fibonacci --p 34 --q 4 --procs 10 --policy max",
    "sched --algo cholesky --t 8 --procs 1..12 --gantt --out run.csv",
    "sched --check",
    "sched --algo flattree --procs 1..4 --policy min",
    "sched --algo fibonacci --p 6 --q 4 --policy random --seed 3",
    "sched --algo greedy --procs 3 --gantt",
    "sched --algo binarytree --p 7 --q 3",
    "sched --algo plasmatree --bs 2 --procs 2,5",
    "sched --algo asap --p 6 --q 3 --policy min",
    "sched --algo grasap --policy random --seed 1 --gantt --out g.csv",
    "alpha --t 12",
    "strassen-count --p 32 --r 4",
    "strassen-count --p 8 --r 3 --check",
    "ip-emit --p 5 --q 5 --procs 11 --out model",
    "ip-emit --p 3 --q 2 --T 20",
    "ip-check --p 4 --q 3 --algo grasap --procs 3",
    "ip-check --p 4 --q 3 --algo flattree --procs 2",
    "ip-check --p 4 --q 3 --algo greedy --procs 2",
    "ip-check --p 4 --q 3 --algo plasmatree --bs 2 --procs 2",
    "ip-check --p 4 --q 3 --algo grasap --procs 2",
    "ip-check --p 4 --q 3 --algo greedy --procs 1 --T 5",
    "qr-coarse --p 3 --q 5",
    "qr-tiled --p 4 --q 3 --algo greedy --bs 2",
    "qr-tiled --p 4 --q 3 --algo asap --family TS",
    "sched --algo plasmatree",
    "strassen-count --p 4 --r 3",
    "nonsense",
]
# sha256 of (argv, exit code, stdout, files written) over CLI_RUNS, taken
# before the subcommands shared their graph builder and tree flags; re-taken
# when the IP lost the rows that sums of kept rows give, which changed the
# two ip-emit runs' output and no other run's, and again, for the same two
# runs only, when the disjunctions' _or rows and dl2/dl6 binaries went.
CLI_SHA256 = "0f9c925d434f7453517d99d4363f4a00e215d02dcbd1486159397ec48a479f08"


def test_cli_runs_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for n, line in enumerate(CLI_RUNS):
        outdir = tmp_path / str(n)
        outdir.mkdir()
        argv = line.split()   # each run writes its files into its own directory
        argv = [f"{outdir}/{word}" if argv[at - 1:at] == ["--out"] else word
                for at, word in enumerate(argv)]
        rc = main(argv)
        out = capsys.readouterr().out.replace(str(outdir), "<OUTDIR>")
        files = sorted((f.name, f.read_text()) for f in outdir.iterdir())
        digest.update(repr((line, rc, out, files)).encode())
    assert digest.hexdigest() == CLI_SHA256


def test_readme_command_lines_are_pinned():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#")[0].split() for line in block.splitlines()]
    assert commands
    for words in commands:
        assert words[0] == "tiledag" and " ".join(words[1:]) in CLI_RUNS, words


def test_chol_cp(capsys):
    rc, out = run(capsys, "chol-cp", "--t", "4", "--check")
    assert rc == 0
    assert "step1,10,10" in out and "step2,9,7" in out and "step3,10,4" in out
    assert "pipelined,27,18" in out and "unpipelined,29,21" in out


def test_chol_bounds_golden(capsys):
    rc, out = run(capsys, "chol-bounds", "--t", "5", "--procs", "1..10", "--check")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,LA,T_alap,T_rooftop,speedup,efficiency"
    assert lines[1] == "1,0,125.00,125.00,1.00,1.00"
    assert lines[2] == "2,4,64.50,62.50,1.94,0.97"
    assert lines[5].startswith("5,45,35.00")


def test_qr_coarse_and_tiled(capsys):
    rc, out = run(capsys, "qr-coarse", "--p", "15", "--q", "6", "--algo", "greedy", "--check")
    assert rc == 0
    assert out.splitlines()[15].startswith("15,1,2,3,5,6,8")
    rc, out = run(capsys, "qr-tiled", "--p", "15", "--q", "6", "--algo", "greedy", "--check")
    assert rc == 0
    assert out.splitlines()[15] == "15,6,22,38,60,76,98"
    rc, out = run(capsys, "qr-tiled", "--p", "15", "--q", "6", "--algo", "plasmatree", "--bs", "5")
    assert out.splitlines()[15].endswith("140,164")


def test_qr_cp_table(capsys):
    rc, out = run(capsys, "qr-cp-table", "--p", "12", "--q", "3")
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3
    for row in rows:
        assert int(row[1]) <= int(row[3]) <= int(row[5])  # greedy <= best PT <= flat tree


def test_qr_cp_table_check_p40(capsys):
    rc, out = run(capsys, "qr-cp-table", "--p", "40", "--q", "3", "--check")
    assert rc == 0
    assert out.splitlines()[1:] == ["1,16,22,16,1,82", "2,54,72,60,3,250",
                                    "3,74,94,98,5,266"]


def test_qr_cp_table_check_mismatch_lines(capsys, monkeypatch):
    from tiledag import golden
    monkeypatch.setattr(golden, "GREEDY_CP_P40", [16, 55] + golden.GREEDY_CP_P40[2:])
    monkeypatch.setattr(golden, "PLASMATREE_CP_P40",
                        [(1, 17)] + golden.PLASMATREE_CP_P40[1:])
    assert main(["qr-cp-table", "--p", "40", "--q", "2", "--check"]) == 1
    assert capsys.readouterr().err == ("check mismatch: plasmatree q=1: 16 != 17\n"
                                       "check mismatch: greedy q=2: 54 != 55\n")


def test_golden_checks_15x6(capsys):
    for algo in ("sameh-kuck", "fibonacci", "greedy"):
        rc, _ = run(capsys, "qr-coarse", "--p", "15", "--q", "6", "--algo", algo, "--check")
        assert rc == 0, algo
    for algo in ("flattree", "fibonacci", "greedy", "binarytree"):
        rc, _ = run(capsys, "qr-tiled", "--p", "15", "--q", "6", "--algo", algo, "--check")
        assert rc == 0, algo
    rc, _ = run(capsys, "qr-tiled", "--p", "15", "--q", "6", "--algo", "plasmatree",
                "--bs", "5", "--check")
    assert rc == 0


def test_best_bs_40x2():
    from tiledag import build_tree
    cps = {bs: build_tree(40, 2, "plasmatree", bs=bs, keep_trace=False).cp
           for bs in range(1, 41)}
    assert min(cps.values()) == 60 == cps[3]


def test_sched_fibonacci_34x4(capsys):
    rc, out = run(capsys, "sched", "--algo", "fibonacci", "--p", "34", "--q", "4",
                  "--procs", "10", "--policy", "max")
    assert rc == 0
    assert out.strip().splitlines()[1] == "10,320"


def test_sched_cholesky_check(capsys):
    rc, out = run(capsys, "sched", "--algo", "cholesky", "--t", "5",
                  "--procs", "1,4,8", "--check")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1] == "1,125"


def _trace_free_cp_plus_1(build_tree):
    def build(*args, **kw):
        b = build_tree(*args, **kw)
        if not kw.get("keep_trace", True):
            b.cp += 1
        return b
    return build


def _cp_plus_1(build):
    def patched(*args, **kw):
        b = build(*args, **kw)
        b.cp += 1
        return b
    return patched


def _greedy_last_step_plus_5(schemes):
    # the coarse cp oracle reads Greedy's own table back, so it moves too
    def greedy(p, q):
        entries = schemes["greedy"](p, q)
        return entries[:-1] + [entries[-1]._replace(step=entries[-1].step + 5)]
    return {**schemes, "greedy": greedy}


# each --check against a patched oracle: (argv, module, name, patch, mismatch)
PATCHED_CHECKS = [
    ("qr-coarse --p 9 --q 5 --algo greedy --check", "qr", "_COARSE",
     _greedy_last_step_plus_5, "(6,5): 15 != re-executed 10"),
    ("chol-bounds --t 4 --check", "cholesky", "chol_cp_oracle",
     lambda real: lambda t, which: 0, "cp 26 != 9t-10 = 0"),
    ("chol-bounds --t 4 --procs 1,2 --check", "sched", "lost_area",
     lambda real: lambda profile, p: -2, "row 1: T_alap 62.00 < T_rooftop 64.00"),
    ("sched --algo greedy --p 6 --q 3 --procs 2 --check", "qr", "build_tree",
     _trace_free_cp_plus_1, "cp 56 != 57"),
    ("sched --algo plasmatree --bs 2 --check", "qr", "build_tree",
     _trace_free_cp_plus_1, "cp 92 != 93"),
    ("qr-tiled --p 30 --q 12 --algo asap --check", "qr", "grasap_build",
     _cp_plus_1, "cp 333 != replayed trace 332"),
    ("qr-cp-table --p 7 --q 2 --check", "qr", "flattree_cp_oracle",
     lambda real: lambda p, q: real(p, q) + 2, "flattree q=1: 18 != built 16"),
    ("qr-cp-table --p 7 --q 3 --check", "qr", "fibonacci_cp_bounds",
     lambda real: lambda p, q: (0, real(p, q)[0]), "fibonacci q=2: 36 outside [0, 14)"),
]


@pytest.mark.parametrize("line,module,name,patch,err", PATCHED_CHECKS,
                         ids=[case[0] for case in PATCHED_CHECKS])
def test_check_fails_against_a_patched_oracle(capsys, monkeypatch, line, module, name,
                                              patch, err):
    # every size runs a check: without the patch the line passes
    assert main(line.split()) == 0
    mod = __import__(f"tiledag.{module}", fromlist=[name])
    monkeypatch.setattr(mod, name, patch(getattr(mod, name)))
    capsys.readouterr()
    assert main(line.split()) == 1
    assert f"check mismatch: {err}" in capsys.readouterr().err.splitlines()


def test_gantt_and_outdir(tmp_path, capsys):
    rc, out = run(capsys, "sched", "--algo", "cholesky", "--t", "3",
                  "--procs", "2", "--gantt", "--out", str(tmp_path / "run.csv"))
    assert rc == 0
    data = (tmp_path / "run.csv").read_text()
    assert data.startswith("procs,makespan")
    gantt = (tmp_path / "run.csv.gantt").read_text()
    assert gantt.splitlines()[0] == "proc,start,end,kind,i,j,k"


def test_qr_gantt_rows_name_one_task_each(capsys):
    from tiledag import build_from_trace, build_tree
    rc, out = run(capsys, "sched", "--algo", "greedy", "--p", "4", "--q", "3",
                  "--procs", "4", "--gantt")
    assert rc == 0
    lines = out.splitlines()
    at = lines.index("proc,start,end,kind,i,j,k,l")
    names = [tuple(line.split(",")[3:]) for line in lines[at + 1:]]
    tasks = build_from_trace(build_tree(4, 3, "greedy").trace).tasks
    want = [(t.kind, *map(str, t.indices), *[""] * (4 - len(t.indices))) for t in tasks]
    # a TTMQR/TSMQR keeps its fourth index, the column it updates
    assert sorted(names) == sorted(want) and len(set(names)) == len(names)


def test_alpha(capsys):
    rc, out = run(capsys, "alpha", "--t", "4")
    assert rc == 0
    assert out.strip().splitlines()[1].startswith("3,2,0.2222")


def test_strassen_count(capsys):
    rc, out = run(capsys, "strassen-count", "--p", "8", "--r", "2", "--check")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,r,tasks,flops,cp,temp_tiles"
    assert lines[1].startswith("8,0,512,") and lines[3].startswith("8,2,1052,")


def test_ip_round_trip(tmp_path, capsys):
    lp = tmp_path / "model"
    rc, _ = run(capsys, "ip-emit", "--p", "2", "--q", "2", "--T", "20",
                "--out", str(lp))
    assert rc == 0
    text = (tmp_path / "model.lp").read_text()
    assert text.startswith("\\ tiled QR IP") and text.rstrip().endswith("End")
    rc, out = run(capsys, "ip-check", "--p", "3", "--q", "2", "--algo", "greedy",
                  "--procs", "2")
    assert rc == 0 and "feasible" in out


def _assignment_file(tmp_path, extra=""):
    """A valid 3x2 greedy schedule on 2 processors as an assignment file,
    with the lines of extra appended."""
    from tiledag import (WeightModel, build_from_trace, build_tree,
                         list_schedule, schedule_to_assignment)
    from tiledag.ipmodel import assignment_text
    b = build_tree(3, 2, "greedy")
    g = build_from_trace(b.trace)
    s = list_schedule(g, WeightModel.qr_tt(), 2, "max")
    path = tmp_path / "assign.txt"
    path.write_text(assignment_text(schedule_to_assignment(g, s)) + extra)
    return path


def test_ip_check_assignment_file(tmp_path, capsys):
    rc, out = run(capsys, "ip-check", "--p", "3", "--q", "2",
                  "--assignment", str(_assignment_file(tmp_path)))
    assert rc == 0 and out.startswith("feasible")


@pytest.mark.parametrize("flags", [["--algo", "greedy"], ["--algo", "grasap"], ["--bs", "2"],
                                   ["--algo", "plasmatree", "--bs", "2"]])
def test_ip_check_assignment_refuses_tree_flags_exit_2(tmp_path, capsys, flags):
    path = str(_assignment_file(tmp_path))
    assert main(["ip-check", "--p", "3", "--q", "2", "--assignment", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: tiledag ip-check ")
    assert captured.err.splitlines()[-1].endswith(
        "error: --assignment fixes the schedule; drop --algo and --bs")


@pytest.mark.parametrize("extra", ["total_time 1000000", "x_9_9 5", "zhat_2_1_1 2"])
def test_ip_check_out_of_domain_entry_exit_1(tmp_path, capsys, extra):
    name = extra.split()[0]
    path = _assignment_file(tmp_path)
    kept = [line for line in path.read_text().splitlines() if line.split()[0] != name]
    path.write_text("\n".join(kept + [extra]) + "\n")   # the file names each variable once
    rc, out = run(capsys, "ip-check", "--p", "3", "--q", "2", "--T", "32",
                  "--assignment", str(path))
    assert rc == 1 and out.splitlines()[:2] == ["infeasible", f"  violated [domain] {name}"]


def test_two_binary_disjunction_entry_is_a_domain_violation(tmp_path, capsys):
    # a completed assignment saved from the model that gave each disjunction
    # a second binary dl2 = 1 - dl1 names a variable no longer declared
    from tiledag import complete_assignment, emit_ip, parse_assignment
    from tiledag.ipmodel import assignment_text
    path = _assignment_file(tmp_path)
    model = emit_ip(3, 2, 32)
    done = complete_assignment(model, parse_assignment(path.read_text()))
    dl1 = next(v for v in done if v.startswith("dl1_"))
    name = "dl2_" + dl1.removeprefix("dl1_")
    path.write_text(assignment_text({**done, name: 1 - done[dl1]}))
    rc, out = run(capsys, "ip-check", "--p", "3", "--q", "2", "--T", "32",
                  "--assignment", str(path))
    assert rc == 1 and out.splitlines() == ["infeasible", f"  violated [domain] {name}"]


def test_empty_assignment_file_without_horizon_exit_1(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n")
    assert main(["ip-check", "--p", "3", "--q", "2", "--assignment", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [["qr-bounds", "--p", "4", "--q", "2"], ["alpha", "--t", "4"],
                                  ["ip-emit", "--p", "2", "--q", "2"],
                                  ["ip-check", "--p", "3", "--q", "2"]])
def test_check_flag_only_where_implemented(capsys, argv):
    assert main(argv) == 0
    assert main(argv + ["--check"]) == 2
    assert "--check" in capsys.readouterr().err


def test_byte_identical_reruns(capsys):
    _, out1 = run(capsys, "qr-tiled", "--p", "10", "--q", "4", "--algo", "grasap")
    _, out2 = run(capsys, "qr-tiled", "--p", "10", "--q", "4", "--algo", "grasap")
    assert out1 == out2
    _, r1 = run(capsys, "sched", "--algo", "greedy", "--p", "6", "--q", "3",
                "--procs", "3", "--policy", "random", "--seed", "5")
    _, r2 = run(capsys, "sched", "--algo", "greedy", "--p", "6", "--q", "3",
                "--procs", "3", "--policy", "random", "--seed", "5")
    assert r1 == r2


def test_bad_flags_exit_2(capsys):
    assert main(["qr-tiled", "--p", "15"]) == 2          # missing --q
    assert main(["nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("procs", ["abc", "5..3", "0..3", "", "2,,4", "-1", "1..x"])
def test_bad_procs_exit_2(capsys, procs):
    assert main(["chol-bounds", "--t", "4", "--procs", procs]) == 2
    assert main(["sched", "--t", "3", "--procs", procs]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("procs", ["0", "-2", "abc", "1.5", ""])
def test_bad_ip_procs_exit_2(capsys, procs):
    assert main(["ip-emit", "--p", "2", "--q", "2", "--T", "20", "--procs", procs]) == 2
    assert main(["ip-check", "--p", "3", "--q", "2", "--algo", "greedy",
                 "--procs", procs]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("horizon", ["0", "-3", "abc", "1.5", ""])
def test_bad_ip_horizon_exit_2(capsys, horizon):
    assert main(["ip-emit", "--p", "3", "--q", "2", "--T", horizon]) == 2
    assert main(["ip-check", "--p", "3", "--q", "2", "--algo", "greedy",
                 "--T", horizon]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["qr-cp-table", "--p", "0", "--q", "0"],
    ["chol-cp", "--t", "0"],
    ["qr-tiled", "--p", "-1", "--q", "1"],
    ["chol-bounds", "--t", "0"],
    ["qr-coarse", "--p", "3", "--q", "0"],
    ["sched", "--algo", "cholesky", "--t", "-2"],
    ["sched", "--algo", "greedy", "--p", "0", "--q", "1"],
    ["alpha", "--t", "0"],
    ["strassen-count", "--p", "0", "--r", "1"],
    ["ip-emit", "--p", "2", "--q", "0", "--T", "20"],
])
def test_sizes_below_1_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "positive integer" in captured.err


@pytest.mark.parametrize("argv,needle", [
    (["alpha", "--t", "2"], ">= 3"),
    (["alpha", "--t", "1"], ">= 3"),
    (["strassen-count", "--p", "4", "--r", "-1"], "nonnegative integer"),
    (["strassen-count", "--p", "4", "--r", "1", "--nb", "0"], "positive integer"),
    (["strassen-count", "--p", "3", "--r", "0"], "--p"),
    (["strassen-count", "--p", "4", "--r", "3"], "--r"),
    (["chol-cp", "--t", "1", "--check"], "--check needs --t >= 2"),
    (["sched", "--t", "1", "--check"], "--check needs --t >= 2"),
    (["chol-bounds", "--t", "1", "--check"], "--check needs --t >= 2"),
])
def test_flag_below_range_exit_2(capsys, argv, needle):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and needle in captured.err
    if argv[0] == "strassen-count":
        assert captured.err.startswith("usage: tiledag strassen-count ")


def test_missing_assignment_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    assert main(["ip-check", "--p", "3", "--q", "2", "--assignment", str(missing)]) == 2
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_out_into_missing_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "nonexistent" / "x"
    assert main(["chol-cp", "--t", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text,line", [("bad\n", "bad"), ("x_1_1 2\nx_1_1 2.5\n", "x_1_1 2.5")])
def test_malformed_assignment_file_exit_1(tmp_path, capsys, text, line):
    path = tmp_path / "assign.txt"
    path.write_text(text)
    assert main(["ip-check", "--p", "3", "--q", "2", "--assignment", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"line {text.count(chr(10))}" in err and repr(line) in err


def test_repeated_assignment_name_exit_1(tmp_path, capsys):
    path = _assignment_file(tmp_path, "x_1_1 1\n")
    lines = path.read_text().splitlines()
    first = lines.index("x_1_1 7") + 1
    assert main(["ip-check", "--p", "3", "--q", "2", "--assignment", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert f"'x_1_1' is given on lines {first} and {len(lines)}" in captured.err


@pytest.mark.parametrize("cmd", ["qr-tiled", "qr-bounds", "sched", "ip-check"])
def test_plasmatree_needs_bs_exit_2(capsys, cmd):
    assert main([cmd, "--algo", "plasmatree", "--p", "6", "--q", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tiledag {cmd} ") and "--bs" in err
    assert main([cmd, "--algo", "plasmatree", "--p", "6", "--q", "3", "--bs", "2"]) == 0


@pytest.mark.parametrize("argv,needle", [
    (["qr-tiled", "--algo", "grasap", "--i", "0"], "--i"),
    (["qr-tiled", "--algo", "grasap", "--i", "4"], "--i"),
    (["qr-tiled", "--algo", "asap", "--family", "TS"], "TT kernels"),
    (["qr-tiled", "--algo", "grasap", "--family", "TS"], "TT kernels"),
    (["qr-tiled", "--algo", "plasmatree", "--bs", "0"], "--bs"),
    (["qr-tiled", "--algo", "plasmatree", "--bs", "5"], "--bs"),
    (["qr-tiled", "--algo", "plasmatree", "--bs", "9"], "--bs"),
    (["sched", "--algo", "plasmatree", "--bs", "-1"], "--bs"),
    (["ip-check", "--algo", "plasmatree", "--bs", "0"], "--bs"),
    (["qr-bounds", "--algo", "plasmatree", "--bs", "7"], "--bs"),
    (["qr-tiled", "--algo", "greedy", "--bs", "2"], "--bs"),
    (["qr-tiled", "--algo", "grasap", "--bs", "2"], "--bs"),
    (["qr-bounds", "--algo", "flattree", "--bs", "2"], "--bs"),
    (["sched", "--algo", "cholesky", "--bs", "2"], "--bs"),
    (["ip-check", "--algo", "greedy", "--bs", "2"], "--bs"),
    (["qr-tiled", "--algo", "greedy", "--i", "2"], "--i"),
    (["qr-tiled", "--algo", "asap", "--i", "1"], "--i"),
    (["qr-tiled", "--algo", "plasmatree", "--bs", "2", "--i", "2"], "--i"),
    (["sched", "--algo", "cholesky", "--t", "4"], "--p does not apply to --algo cholesky"),
    (["sched", "--t", "4"], "--p does not apply to --algo cholesky"),
    (["sched", "--algo", "greedy", "--t", "9"], "--t does not apply to --algo greedy"),
    (["sched", "--algo", "plasmatree", "--bs", "2", "--t", "9"], "--t does not apply"),
])
def test_bad_tree_flags_exit_2(capsys, argv, needle):
    assert main([argv[0], "--p", "4", "--q", "3", *argv[1:]]) == 2
    captured = capsys.readouterr()
    # the usage line names --bs and --i too, so only the error line counts
    assert captured.out == "" and needle in captured.err.splitlines()[-1]
    assert captured.err.startswith(f"usage: tiledag {argv[0]} ")
    assert main(["qr-tiled", "--p", "4", "--q", "3", "--algo", "grasap", "--i", "3"]) == 0
    assert main(["qr-tiled", "--p", "4", "--q", "3", "--algo", "plasmatree", "--bs", "4"]) == 0


def test_grasap_i_defaults_to_1(capsys):
    assert main(["qr-tiled", "--p", "4", "--q", "3", "--algo", "grasap"]) == 0
    unset = capsys.readouterr().out
    assert main(["qr-tiled", "--p", "4", "--q", "3", "--algo", "grasap", "--i", "1"]) == 0
    assert capsys.readouterr().out == unset


def test_internal_error_exit_1(capsys):
    assert main(["qr-coarse", "--p", "3", "--q", "5"]) == 1   # p < q
    err = capsys.readouterr().err
    assert "error:" in err
