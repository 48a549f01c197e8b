"""Oracle internals: Day tables, naive cluster sets, the plain parser."""

import random

import pytest

from bprf.baseline import (
    DayTables,
    build_day_tables,
    day_rf,
    naive_clusters,
    naive_distance,
    naive_metric,
    parse_plain,
)
from bprf.distance import METRICS, rf_nextsibling
from bprf.newick import LabelMismatchError, ParseError, parse_pair

from conftest import code_map, pair_texts, to_newick

T4 = "(((A,B),C),(D,E,F));"
T5 = "((D,E,F),(B,(A,C)));"
FIG1B = "(((B,C),D),(A,E));"


def test_day_frozen():
    r = day_rf(T4, T5)
    assert r.raw == 2
    assert r.halved == 1
    assert r.equal_clusters == 3
    assert r.algorithm == "day"
    assert day_rf(T4, T4).raw == 0


def test_day_vs_succinct_large():
    rng = random.Random(20240901)
    for _ in range(5):
        a, b = pair_texts(rng, 1000, "mixed")
        assert day_rf(a, b).raw == rf_nextsibling(parse_pair(a, b)).raw


def test_day_label_mismatch():
    with pytest.raises(LabelMismatchError):
        day_rf("(A,B);", "(A,C);")


def test_day_tables_bits_star():
    # a star over L leaves has n = L + 1 nodes, the worst case for the
    # table footprint: 128n + 64L = 192n - 64
    for leaves in (3, 10, 257):
        star = "(" + ",".join(f"L{i}" for i in range(leaves)) + ");"
        tables, _, _ = build_day_tables(parse_plain(star), parse_plain(star))
        n = leaves + 1
        assert tables.bits() == 128 * n + 64 * leaves == 192 * n - 64


def test_day_tables_bits_measured():
    tables, order, _ = build_day_tables(parse_plain(T4), parse_plain(T5))
    assert isinstance(tables, DayTables)
    assert tables.bits() == 128 * 10 + 64 * 6
    assert tables.lmin.dtype.itemsize == 4
    # tree-1 intervals are contiguous by construction
    assert (tables.lmax - tables.lmin + 1 == tables.nleaf).all()


def test_naive_cluster_enumeration():
    # five singletons, {B,C}, {B,C,D}, {A,E}, and the root set
    ids = {}
    cs = naive_clusters(parse_plain(FIG1B), "leaf", True, ids)
    assert len(cs) == 9
    key = lambda names: tuple(sorted(ids[x] for x in names))
    for names in (["B"], ["C"], ["D"], ["A"], ["E"], ["B", "C"],
                  ["B", "C", "D"], ["A", "E"], ["A", "B", "C", "D", "E"]):
        assert key(names) in cs.entries


def test_naive_full_mode_includes_internal_labels():
    ids = {}
    cs = naive_clusters(parse_plain("(((B,C)F,D)G,(A,E)H)I;"), "full", False,
                        ids)
    assert len(cs) == 9
    assert tuple(sorted(ids[x] for x in ("B", "C", "F"))) in cs.entries


def test_naive_single_leaf():
    ids = {}
    cs = naive_clusters(parse_plain("A;"), "leaf", True, ids)
    assert cs.entries == {(1,): 0.0}
    assert naive_distance(cs, cs, "rf") == 0


def test_parse_plain_roundtrip():
    rng = random.Random(7)
    for weights in (False, True):
        a, b = pair_texts(rng, 30, "mixed", weights=weights)
        assert to_newick(parse_plain(a), weights=weights) == a
        root = parse_plain(b)
        assert to_newick(root, weights=weights) == b
        assert root.weight == 0.0


@pytest.mark.parametrize("text,offset,what", [
    ("(A:nan,B);", 2, "malformed weight ':nan'"),
    ("(A:inf,B);", 2, "malformed weight ':inf'"),
    ("(A:1_0,B);", 2, "malformed weight ':1_0'"),
    ("((A:1,B:1):1e999,C:1);", 10, "weight ':1e999' is not finite")])
def test_parse_plain_rejects_what_parse_pair_rejects(text, offset, what):
    # float() reads all four; the strict parser takes none of them, and
    # the plain reader raises its error
    for read in (parse_plain, lambda t: parse_pair(t, t, weighted=True),
                 lambda t: naive_metric(t, t, "wrf")):
        with pytest.raises(ParseError) as ei:
            read(text)
        assert (ei.value.tree_index, ei.value.offset) == (1, offset)
        assert str(ei.value).endswith(what)


@pytest.mark.parametrize("bad", ["((A,B),(C,D)", "((A,B),(C,D));x",
                                 "((A,B),(C D));", "((A,B),(C,D)[c]);",
                                 "((A,B),((C,D)));", "((A,B),(C,C));"])
def test_oracles_name_the_bad_second_tree(bad):
    # the oracles raise parse_pair's error, which names tree 2
    good = "((A,B),(C,D));"
    runs = [lambda: parse_pair(good, bad), lambda: day_rf(good, bad)] + [
        lambda m=m: naive_metric(good, bad, m) for m in METRICS]
    errors = set()
    for run in runs:
        with pytest.raises(ParseError) as ei:
            run()
        errors.add((ei.value.tree_index, ei.value.offset, str(ei.value)))
    assert len(errors) == 1 and errors.pop()[0] == 2


@pytest.mark.parametrize("ws", list(" \t\n\r\x0b\x0c\x1c\x1f\xa0\u2003"))
def test_parse_plain_reads_every_whitespace(ws):
    # every character str.isspace accepts separates tokens, as in
    # parse_pair; the plain parser once looped forever on \x0b and \x0c
    text = f"{ws}((A,{ws}B),(C,D{ws}){ws},E);{ws}"
    assert to_newick(parse_plain(text)) == "((A,B),(C,D),E);"
    assert code_map(parse_pair(text, text)).tolist() == \
        [0, 0, 3, 4, 0, 6, 7, 8]
