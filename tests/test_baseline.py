"""Oracle internals: Day's fold, naive cluster sets, the plain parser,
and the pair checks the oracles share with parse_pair."""

import random

import pytest

from bprf.baseline import (
    day_rf,
    naive_clusters,
    naive_distance,
    naive_metric,
    parse_plain,
)
from bprf.distance import METRICS, compute
from bprf.newick import LabelMismatchError, ModeError, ParseError, parse_pair

from conftest import (
    PNode,
    assign_labels,
    code_map,
    pair_texts,
    random_topology,
    to_newick,
)

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
        assert day_rf(a, b).raw == compute(parse_pair(a, b), "rf",
                                           "nextsibling").raw


def test_day_label_mismatch():
    with pytest.raises(LabelMismatchError):
        day_rf("(A,B);", "(A,C);")


def test_naive_cluster_enumeration():
    # five singletons, {B,C}, {B,C,D}, {A,E}, and the root set
    ids = {}
    cs = naive_clusters(parse_plain(FIG1B), "leaf", True, ids)
    assert len(cs) == 9
    key = lambda names: tuple(sorted(ids[x] for x in names))
    for names in (["B"], ["C"], ["D"], ["A"], ["E"], ["B", "C"],
                  ["B", "C", "D"], ["A", "E"], ["A", "B", "C", "D", "E"]):
        assert key(names) in cs


def test_naive_full_mode_includes_internal_labels():
    ids = {}
    cs = naive_clusters(parse_plain("(((B,C)F,D)G,(A,E)H)I;"), "full", False,
                        ids)
    assert len(cs) == 9
    assert tuple(sorted(ids[x] for x in ("B", "C", "F"))) in cs


def test_naive_single_leaf():
    ids = {}
    cs = naive_clusters(parse_plain("A;"), "leaf", True, ids)
    assert cs == {(1,): 0.0}
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


# The pairs the paper's metrics are not defined on, frozen: an internal
# label in leaf mode, no weights for wrf, an unlabelled node in full
# mode, and a tree-2 label that tree 1 lacks
MOTIVATION = [("((A,B)X,C);", "((A,C),B);"), ("((A,B),C);", "((A,C),B);"),
              ("((A,B),C)R;", "((A,C)S,B)T;"), ("((A,B),C);", "((A,C),D);")]


def _fault_pairs(rng, full, weights):
    """Seeded pairs with one fault each, of mode, weights or label set, in
    either tree, and one pair without a fault."""
    n = rng.randint(3, 25)
    yield pair_texts(rng, n, "mixed", full, weights)

    def texts(n2=n, fault=None, bare=None):
        # trees of n and n2 leaves, fault done to one; tree bare unweighted
        roots = [random_topology(rng, k, "mixed") for k in (n, n2)]
        nodes = [assign_labels(r, rng, full, weights) for r in roots]
        if fault:
            fault(rng.choice(nodes))
        return tuple(to_newick(r, weights and k != bare)
                     for k, r in enumerate(roots))

    def internal_label(nodes):
        rng.choice([v for v in nodes if v.children]).label = "X"

    def unlabelled(nodes):
        rng.choice([v for v in nodes if v.children]).label = None

    def swapped(nodes):
        rng.choice([v for v in nodes if not v.children]).label = "Q"

    def added(nodes):
        rng.choice([v for v in nodes if v.children]).children.append(
            PNode("Z", rng.random()))

    for fault in (internal_label, unlabelled, swapped, added):
        yield texts(fault=fault)
    yield texts(n + 1)  # tree 2's extra leaf label is not in tree 1
    yield texts(n - 1)  # tree 1's last leaf label is missing from tree 2
    yield texts(bare=rng.randrange(2))


def _outcome(run):
    try:
        return run()
    except ValueError as e:
        return type(e), str(e), getattr(e, "offset", None), \
            getattr(e, "tree_index", None)


def test_oracles_raise_parse_pairs_errors():
    # wherever parse_pair raises, so do naive_metric and day_rf, with the
    # same error; wherever it accepts, they give compute's value
    rng = random.Random(2110)
    pairs = list(MOTIVATION)
    for _ in range(6):
        for full in (False, True):
            for weights in (False, True):
                pairs += _fault_pairs(rng, full, weights)
    raised = set()
    for a, b in pairs:
        for m in METRICS:
            want = _outcome(lambda: compute(parse_pair(a, b, *METRICS[m]), m))
            naive = _outcome(lambda: naive_metric(a, b, m))
            day = _outcome(lambda: day_rf(a, b)) if m == "rf" else None
            if isinstance(want, tuple):
                raised.add(want[0])
                assert naive == want
                assert m != "rf" or day == want
            else:
                assert naive == want.raw
                assert m != "rf" or day.raw == want.raw
    assert raised == {ModeError, LabelMismatchError}
