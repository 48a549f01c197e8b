"""End-to-end checks of the bprf command line, run as subprocesses, and
one in process where a pass is replaced."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bprf
from bprf import cli, newick
from bprf.baseline import parse_plain
from bprf.cli import build_parser, generate_pair_texts, generate_tree_text
from bprf.distance import compute
from bprf.newick import parse_pair, parse_tree
from bprf.treeio import size_report

from conftest import leaves_under

T2 = "(((B,C)F,D)G,(A,E)H)I;"
T3 = "((B,(D,C)F)G,(A,E)H)I;"
T4 = "(((A,B),C),(D,E,F));"
T5 = "((D,E,F),(B,(A,C)));"


# the subprocesses import the package the tests imported, installed or not
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(bprf.__file__).parents[1]),
                  os.environ.get("PYTHONPATH")]))}


def run_cli(*argv, timeout=120, **kw):
    """Run bprf as a subprocess; one that hangs fails its test at the
    timeout instead of stalling the suite."""
    return subprocess.run([sys.executable, "-m", "bprf.cli", *argv],
                          capture_output=True, text=True, env=_ENV,
                          timeout=timeout, **kw)


@pytest.fixture
def nwk(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


# ----------------------------------------------------------------------
# dist


def test_dist_erf_raw(nwk):
    r = run_cli("dist", nwk("a", T2), nwk("b", T3), "--metric", "erf",
                "--raw")
    assert r.returncode == 0
    assert r.stdout == "2\n"


def test_dist_rf_halved_default(nwk):
    r = run_cli("dist", nwk("a", T4), nwk("b", T5))
    assert r.returncode == 0
    assert r.stdout == "1\n"


def test_dist_self_zero(nwk):
    path = nwk("a", T4)
    r = run_cli("dist", path, path)
    assert (r.returncode, r.stdout) == (0, "0\n")


def test_dist_import_footprint(nwk):
    # dist imports only locale lazily; numpy.ma or fractions pulled in by
    # the parse or the distance would cost every bprf dist child start-up
    # time and RSS
    script = ("import sys; from bprf.cli import main; main(sys.argv[1:]); "
              "print([m for m in ('numpy.ma', 'fractions') "
              "if m in sys.modules])")
    a, b = generate_pair_texts(30, 4, full=True, weights=True)
    for argv in ((nwk("a", a), nwk("b", b), "--metric", "werf"),
                 (nwk("c", T4), nwk("d", T5))):
        r = subprocess.run([sys.executable, "-c", script, "dist", *argv],
                           capture_output=True, text=True, env=_ENV,
                           timeout=120)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "[]"


def test_dist_day_matches(nwk):
    r = run_cli("dist", nwk("a", T4), nwk("b", T5), "--algo", "day", "--raw")
    assert (r.returncode, r.stdout) == (0, "2\n")


def test_dist_day_odd_whitespace(nwk):
    # every character str.isspace accepts separates tokens in both
    # parsers; Day's trees come from the error pass alone
    b = nwk("b", "((A,B),(C,D),E);")
    for ws in "\x0b\x0c\x1c\x1f\xa0":
        a = nwk("a", f"((A,B),(C,{ws}D),E);")
        for algo in ("postorder", "day"):
            r = run_cli("dist", a, b, "--algo", algo, timeout=60)
            assert (r.returncode, r.stdout) == (0, "0\n"), (ws, algo)


def test_dist_weighted_12_digits(nwk):
    a = nwk("a", "((A:1,B:2):3,C:4);")
    b = nwk("b", "((A:1,C:2):3,B:4);")
    r = run_cli("dist", a, b, "--metric", "wrf")
    assert (r.returncode, r.stdout) == (0, "10\n")
    # 0.8 total minus 0.6 over the three shared singletons; the sum runs
    # through inexact 0.1 steps, so %.12g is what makes this print "0.2"
    a2 = nwk("a2", "((A:0.1,B:0.1):0.1,C:0.1);")
    b2 = nwk("b2", "((A:0.1,C:0.1):0.1,B:0.1);")
    r2 = run_cli("dist", a2, b2, "--metric", "wrf")
    assert r2.returncode == 0
    assert r2.stdout == "0.2\n"


def test_dist_signed_weights(nwk):
    a = nwk("a", "((A:1,B:1):-2,C:1);")
    b = nwk("b", "((A:1,C:1):1,B:1);")
    for x, y in ((a, b), (b, a)):
        r = run_cli("dist", x, y, "--metric", "wrf")
        assert (r.returncode, r.stdout) == (0, "3\n")


def test_dist_emit_common(nwk):
    r = run_cli("dist", nwk("a", T4), nwk("b", T5), "--emit-common")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "1"
    pairs = {tuple(map(int, ln.split("\t"))) for ln in lines[1:]}
    assert pairs == {(2, 6), (7, 2), (1, 1)}


def test_dist_exit_codes(nwk, tmp_path):
    a = nwk("a", T4)
    bad = nwk("bad", "((A,B);")
    assert run_cli("dist", a, bad).returncode == 2
    assert run_cli("dist", a, nwk("c", "(A,B);")).returncode == 4
    assert run_cli("dist", a, a, "--metric", "erf").returncode == 3
    assert run_cli("dist", a, a, "--metric", "wrf").returncode == 3
    assert run_cli("dist", a, a, "--algo", "day",
                   "--metric", "erf").returncode == 3  # wrong pairing
    assert run_cli("dist", a, a, "--algo", "day",
                   "--emit-common").returncode == 3
    assert run_cli("dist", a, "/nonexistent/x.nwk").returncode == 1
    assert run_cli("dist", a, a, "--metric", "hamming").returncode == 2
    comment = nwk("comment", "(A[&x],B);")
    assert run_cli("dist", comment, comment).returncode == 2
    # a weight past the float range once crashed wrf in fsum (exit 1)
    huge = nwk("huge", "((A:1,B:1):1e999,C:1);")
    r = run_cli("dist", huge, huge, "--metric", "wrf")
    assert r.returncode == 2 and "offset 10" in r.stderr, r.stderr
    # bytes that are not UTF-8 once raised UnicodeDecodeError (exit 1)
    latin = tmp_path / "latin"
    latin.write_bytes(b"(A,B\xff);")
    r = run_cli("dist", a, str(latin))
    assert r.returncode == 2
    assert "tree 2, offset 4" in r.stderr, r.stderr
    assert run_cli("pack", str(latin), os.devnull).returncode == 2


def test_dist_day_pair_faults(nwk):
    # --algo day refuses a pair the sweep refuses, with the same message
    a = nwk("a", T4)
    for other, code in (("(((A,B)X,C),(D,E,F));", 3),
                        ("(((A,B),C),(D,E,G));", 4)):
        b = nwk("b", other)
        day, sweep = (run_cli("dist", a, b, "--algo", algo)
                      for algo in ("day", "postorder"))
        assert day.returncode == sweep.returncode == code, day.stderr
        assert day.stderr == sweep.stderr and "tree 2, offset" in day.stderr


def test_dist_day_reads_each_text_once(nwk, monkeypatch, capsys):
    # Day's trees come from the error pass; without --stats the accepting
    # pass never runs, and with it runs after the answer
    monkeypatch.setattr(newick, "_fast_scan", None)  # a call fails
    a, b = nwk("a", T4), nwk("b", T5)
    assert cli.main(["dist", a, b, "--algo", "day"]) == 0
    assert capsys.readouterr().out == "1\n"
    for other, code in (("(((A,B)X,C),(D,E,F));", 3),
                        ("(((A,B),C),(D,E,G));", 4)):
        assert cli.main(["dist", a, nwk("c", other), "--algo", "day"]) == code
        assert "tree 2, offset" in capsys.readouterr().err
    with pytest.raises(TypeError):
        cli.main(["dist", a, b, "--algo", "day", "--stats"])
    assert capsys.readouterr().out == "1\n"


def test_dist_unary_node_exits_2(nwk):
    # these pairs once printed rf -1, rf -1 and erf 0 (the oracle: 1, 0, 2)
    for a, b, metric in (("((A),B);", "(A,B);", "rf"),
                         ("(((A,B)),C);", "((A,B),C);", "rf"),
                         ("((A)X,B)Y;", "((X)A,B)Y;", "erf")):
        r = run_cli("dist", nwk("a", a), nwk("b", b), "--metric", metric,
                    "--raw")
        assert r.returncode == 2, (a, r.stdout)
        assert "tree 1, offset" in r.stderr and "single child" in r.stderr


def test_dist_mode_flag(nwk):
    # the metric fixes the labelling mode; no flag chooses it
    a = nwk("a", T2)
    b = nwk("b", T3)
    assert run_cli("dist", a, b, "--metric", "erf",
                   "--raw").stdout == "2\n"
    # rf reads the same files as leaf-labelled, which T2 is not
    r = run_cli("dist", a, b)
    assert r.returncode == 3
    assert "tree 1, offset 7" in r.stderr, r.stderr
    assert run_cli("dist", a, b, "--mode", "full").returncode == 2


def test_dist_stats(nwk):
    # --stats adds one stderr line and changes neither stdout nor the
    # exit code, on success or on error
    a, b = nwk("a", T4), nwk("b", T5)
    f2, f3 = nwk("f2", T2), nwk("f3", T3)
    line = re.compile(r"stats: read_s=\d+\.\d{6} parse_s=\d+\.\d{6} "
                      r"distance_s=\d+\.\d{6} candidates=(\d+) "
                      r"held_bytes=(\d+) declared_bits=(\d+)\n\Z")
    # held_bytes: two 3-byte payloads and the ranks in ceil(b * slots / 8)
    # bytes: T4/T5 pack 6 leaf ranks up to 6 at b = 3, ceil(18 / 8) = 3,
    # so 3 + 3 + 3 = 9; T2/T3 pack 9 node ranks up to 9 at b = 4,
    # ceil(36 / 8) = 5, so 3 + 3 + 5 = 11.  declared_bits: tree 1's 2n
    # bits and b * slots, 20 + 18 = 38 and 18 + 36 = 54
    for argv, candidates, held, declared in (
            ((a, b), compute(parse_pair(T4, T5), "rf").ops.total(), 9, 38),
            ((a, b, "--emit-common", "--raw"), None, 9, 38),
            ((f2, f3, "--metric", "erf"),
             compute(parse_pair(T2, T3, "full"), "erf").ops.total(), 11, 54),
            ((a, b, "--algo", "day"), 0, 9, 38)):
        plain = run_cli("dist", *argv)
        stats = run_cli("dist", *argv, "--stats")
        assert (stats.returncode, stats.stdout) == (0, plain.stdout)
        assert plain.stderr == ""
        m = line.match(stats.stderr)
        assert m, stats.stderr
        if candidates is not None:
            assert int(m.group(1)) == candidates
        assert int(m.group(2)) == held
        assert int(m.group(3)) == declared
    for argv, code in (((a, nwk("bad", "((A,B);")), 2),
                       ((a, nwk("c", "(A,B);")), 4),
                       ((a, a, "--metric", "erf"), 3)):
        plain = run_cli("dist", *argv)
        stats = run_cli("dist", *argv, "--stats")
        assert plain.returncode == code
        assert (stats.returncode, stats.stdout, stats.stderr) == \
            (plain.returncode, plain.stdout, plain.stderr)


# ----------------------------------------------------------------------
# gen


def test_gen_deterministic():
    a = generate_tree_text(50, 7)
    b = generate_tree_text(50, 7)
    assert a == b
    assert generate_tree_text(50, 8) != a


def test_gen_parses_back(nwk):
    for seed in range(5):
        text = generate_tree_text(30, seed, full=True, weights=True)
        tree, labels, w = parse_tree(text)
        assert leaves_under(tree) == 30
        assert len(labels) == tree.n_nodes and all(labels)
        assert w is not None


def test_gen_cli_matches_library(nwk):
    r = run_cli("gen", "--leaves", "12", "--seed", "3", "--weights")
    assert r.returncode == 0
    assert r.stdout.strip() == generate_tree_text(12, 3, weights=True)


def test_gen_single_leaf():
    assert generate_tree_text(1, 0) == "L1;"


def test_gen_self_distance_zero(nwk):
    a = nwk("a", generate_tree_text(40, 11))
    r = run_cli("dist", a, a)
    assert (r.returncode, r.stdout) == (0, "0\n")


def test_gen_usage_error():
    assert run_cli("gen", "--leaves", "0").returncode == 2


def test_gen_arity_random():
    text = generate_tree_text(60, 5, arity="random")
    tree, labels, _ = parse_tree(text)
    assert leaves_under(tree) == 60
    # mixed arities actually occur
    kids = []
    stack = [parse_plain(text)]
    while stack:
        v = stack.pop()
        if v.children:
            kids.append(len(v.children))
            stack.extend(v.children)
    assert len(kids) == tree.n_nodes - 60
    assert any(k > 2 for k in kids)


def test_gen_pair_full_same_internal_count():
    for seed in range(4):
        t1, t2 = generate_pair_texts(25, seed, full=True)
        p = parse_pair(t1, t2, mode="full")
        assert p.t1.n_nodes == p.t2.n_nodes


def test_subcommands_match_readme():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"dist", "gen", "pack", "unpack"}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    words = set(re.findall(r"\bbprf (\w+)", section))
    assert words and words <= set(sub.choices), words


def test_public_api_pinned():
    # one entry point per job: a name added to or dropped from the
    # package's surface shows here
    assert sorted(bprf.__all__) == [
        "BpTree", "DistanceResult", "LabelMismatchError", "ModeError",
        "OpCounts", "PackError", "ParseError", "SizeReport", "TreePair",
        "compute", "day_rf", "naive_metric", "pack", "parse_pair",
        "parse_tree", "size_report", "unpack", "write_newick"]
    for name in bprf.__all__:
        assert getattr(bprf, name) is not None


# ----------------------------------------------------------------------
# pack / unpack


def test_pack_unpack_roundtrip(nwk, tmp_path):
    src = nwk("a", "(((B:0.2,C:0.2)W:0.3,D:0.5)X:0.6,(A:0.5,E:0.5)Y:0.6)Z;")
    packed = tmp_path / "a.sbpt"
    assert run_cli("pack", src, str(packed)).returncode == 0
    r = run_cli("unpack", str(packed))
    assert r.returncode == 0
    assert r.stdout.strip() == (
        "(((B:0.2,C:0.2)W:0.3,D:0.5)X:0.6,(A:0.5,E:0.5)Y:0.6)Z;")


def test_pack_report_matches_library(nwk):
    src = nwk("a", T4)
    r = run_cli("pack", src, "/dev/null", "--report")
    assert r.returncode == 0
    # a lone tree is declared with one slot of n.bit_length() bits per
    # node, 10 * (2 + 4) bits, and holds its ceil(20 / 8)-byte payload
    assert r.stdout.strip() == str(size_report(parse_tree(T4)[0]))
    assert "total_bits 60\n" in r.stdout
    assert r.stdout.endswith("held_bits 24\n")


def test_pack_report_partial_labels(nwk, tmp_path):
    # a tree with some internal labels is neither leaf- nor fully
    # labelled; its report needs no labelling mode
    src = nwk("part", "((A,B)X,(C,D));")
    r = run_cli("pack", src, str(tmp_path / "part.sbpt"), "--report")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0] == "bp_bits 14"


def test_unpack_corrupt(tmp_path):
    p = tmp_path / "bad.sbpt"
    p.write_bytes(b"not a packed tree")
    assert run_cli("unpack", str(p)).returncode == 2
    # trees write_newick cannot write back: a leaf with no label, and
    # "(A);", whose root has one child (bits 1100); and "((A,B),C);" in
    # the version-1 layout, whose labels were varint records
    tree = parse_tree("((A,B),C);")[0]
    unnamed = (b"SBPT\x02\x00" + (5).to_bytes(8, "little")
               + tree.packed_bytes + (2).to_bytes(4, "little")
               + bytes([0b00011000]) + b"B\nC\n")
    unary = (b"SBPT\x02\x00" + (2).to_bytes(8, "little") + b"\xc0"
             + (1).to_bytes(4, "little") + bytes([0b01000000]) + b"A\n")
    v1 = (b"SBPT\x01\x00" + (5).to_bytes(8, "little")
          + tree.packed_bytes + (3).to_bytes(4, "little")
          + b"\x03\x01A\x04\x01B\x05\x01C")
    for data, what in ((unnamed, "leaf 3"), (unary, "node 1"),
                       (v1, "unsupported version 1")):
        p.write_bytes(data)
        r = run_cli("unpack", str(p))
        assert r.returncode == 2 and what in r.stderr, r.stderr


def test_unpack_to_file(nwk, tmp_path):
    src = nwk("a", T4)
    packed = tmp_path / "a.sbpt"
    back = tmp_path / "back.nwk"
    run_cli("pack", src, str(packed))
    assert run_cli("unpack", str(packed), "--output",
                   str(back)).returncode == 0
    assert back.read_text().strip() == T4


# ----------------------------------------------------------------------
# benchmark


def test_perfbench_traced_round():
    """One traced benchmark round patches BpTree.lca and reads the
    OpCounts fields; it must still run and check every output."""
    run = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    r = subprocess.run([sys.executable, str(run), "--workload",
                        "small-matrix", "--seed", "1", "--seconds", "0",
                        "--trace", "1"], capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    last = json.loads(r.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
