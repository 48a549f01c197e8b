"""Distance engine tests: frozen values, oracle agreement, invariants."""

import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bprf.baseline import day_rf, naive_clusters, naive_metric, parse_plain
from bprf import distance
from bprf.cli import generate_pair_texts
from bprf.distance import compute
from bprf.newick import ModeError, parse_pair

from conftest import (caterpillar_texts, leafset, leaves_under, pair_texts,
                      preorder, related_texts)

T4 = "(((A,B),C),(D,E,F));"
T5 = "((D,E,F),(B,(A,C)));"
T2 = "(((B,C)F,D)G,(A,E)H)I;"
T3 = "((B,(D,C)F)G,(A,E)H)I;"


def test_rf_frozen():
    pair = parse_pair(T4, T5)
    for impl in ("postorder", "nextsibling"):
        r = compute(pair, "rf", impl)
        assert r.raw == 2
        assert r.halved == 1
        assert r.equal_clusters == 3
        assert r.metric == "rf"
        assert r.algorithm == impl


def test_rf_capture_frozen():
    pair = parse_pair(T4, T5)
    r = compute(pair, "rf", capture=True)
    # {A,B,C} -> tree-2 node 6, {D,E,F} -> node 2, root -> root,
    # reported in tree-1 post-order
    assert r.common == ((2, 6), (7, 2), (1, 1))
    assert compute(pair, "rf", "nextsibling", capture=True).common == r.common
    assert len(r.common) == r.equal_clusters
    assert compute(pair, "rf").common is None


def test_rf_small_caterpillar_vs_balanced():
    pair = parse_pair("(((A,B),C),D);", "((A,B),(C,D));")
    r = compute(pair, "rf")
    assert r.raw == 2
    assert r.halved == 1


def test_erf_frozen():
    pair = parse_pair(T2, T3, mode="full")
    for impl in ("postorder", "nextsibling"):
        r = compute(pair, "erf", impl)
        assert r.raw == 2
        assert r.halved == 1
        assert r.algorithm == impl
    assert naive_metric(T2, T3, "erf") == 2


def test_wrf_frozen():
    w1 = "((A:1,B:2):3,C:4);"
    w2 = "((A:1,C:2):3,B:4);"
    pair = parse_pair(w1, w2, weighted=True)
    for impl in ("postorder", "nextsibling"):
        r = compute(pair, "wrf", impl)
        assert r.raw == pytest.approx(10.0, abs=1e-12)
        assert r.halved is None
    assert naive_metric(w1, w2, "wrf") == 10.0


def test_werf_frozen():
    u2 = "(((B:1,C:1)F:1,D:1)G:1,(A:1,E:1)H:1)I;"
    u3 = "((B:1,(D:1,C:1)F:1)G:1,(A:1,E:1)H:1)I;"
    u3b = "((B:1,(D:1,C:1)F:2)G:1,(A:1,E:1)H:1)I;"
    p1 = parse_pair(u2, u3, mode="full", weighted=True)
    p2 = parse_pair(u2, u3b, mode="full", weighted=True)
    assert compute(p1, "werf").raw == pytest.approx(2.0, abs=1e-12)
    assert compute(p2, "werf").raw == pytest.approx(3.0, abs=1e-12)
    assert compute(p1, "werf", "nextsibling").raw == pytest.approx(
        2.0, abs=1e-12)


def test_wrf_leaf_perturbation():
    a = "((A:0.5,B:0.25):0.125,C:1);"
    b = "((A:0.5,B:0.25):0.125,C:1.0625);"
    pair = parse_pair(a, b, weighted=True)
    assert compute(pair, "wrf").raw == pytest.approx(0.0625, abs=1e-15)


def test_identity_all_metrics():
    pair = parse_pair(T4, T4)
    assert compute(pair, "rf").raw == 0
    assert compute(pair, "rf", "nextsibling").raw == 0
    assert compute(pair, "rf").equal_clusters == 4

    pe = parse_pair(T2, T2, mode="full")
    assert compute(pe, "erf").raw == 0

    wt = "((A:1,B:2):3,C:4);"
    pw = parse_pair(wt, wt, weighted=True)
    assert compute(pw, "wrf").raw == pytest.approx(0.0, abs=1e-12)

    ue = "(((B:1,C:2)F:3,D:4)G:5,(A:6,E:7)H:8)I;"
    pu = parse_pair(ue, ue, mode="full", weighted=True)
    assert compute(pu, "werf").raw == pytest.approx(0.0, abs=1e-12)


def test_single_leaf_pair():
    pair = parse_pair("A;", "A;")
    assert compute(pair, "rf").raw == 0
    assert compute(pair, "rf", "nextsibling").raw == 0
    # a root weight is syntax enough to parse weighted, then discarded
    pw = parse_pair("A:0;", "A:0;", weighted=True)
    assert compute(pw, "wrf").raw == pytest.approx(0.0)


def test_both_names_run_one_sweep():
    cases = [("rf", T4, T5, "leaf", False), ("erf", T2, T3, "full", False),
             ("wrf", "((A:1,B:2):3,C:4);", "((A:1,C:2):3,B:4);", "leaf",
              True),
             ("werf", "(((B:1,C:1)F:1,D:1)G:1,(A:1,E:1)H:1)I;",
              "((B:1,(D:1,C:1)F:2)G:1,(A:1,E:1)H:1)I;", "full", True)]
    for metric, a, b, mode, weighted in cases:
        pair = parse_pair(a, b, mode=mode, weighted=weighted)
        po = compute(pair, metric, "postorder", capture=True)
        ns = compute(pair, metric, "nextsibling", capture=True)
        assert (po.algorithm, ns.algorithm) == ("postorder", "nextsibling")
        assert (po.raw, po.halved, po.equal_clusters, po.common, po.ops) \
            == (ns.raw, ns.halved, ns.equal_clusters, ns.common, ns.ops)
        assert po.ops.post_order_select == po.ops.next_sibling == 0
        with pytest.raises(ValueError):
            compute(pair, metric, "day")


def test_weighted_identity_exact_on_shuffled_children():
    # 3000 leaves of 2..4-way splits with random weights: the difference
    # of two grand totals used to leave a residue of about 1e-12 here
    from conftest import assign_labels, random_topology, to_newick
    rng = random.Random(11)
    for full in (False, True):
        root = random_topology(rng, 3000, "mixed")
        nodes = assign_labels(root, rng, full=full, weights=True)
        a = to_newick(root, weights=True)
        for v in nodes:
            rng.shuffle(v.children)
        b = to_newick(root, weights=True)
        metric = "werf" if full else "wrf"
        pair = parse_pair(a, b, mode="full" if full else "leaf",
                          weighted=True)
        assert compute(pair, metric).raw == 0.0


def test_signed_weights_regression():
    # {A,B} weighs -2 in one tree and is absent from the other: it costs
    # |-2 - 0| = 2, plus 1 for {A,C}; the five shared singletons cost 0
    a = "((A:1,B:1):-2,C:1);"
    b = "((A:1,C:1):1,B:1);"
    for x, y in ((a, b), (b, a)):
        pair = parse_pair(x, y, weighted=True)
        assert compute(pair, "wrf").raw == 3.0
        assert compute(pair, "wrf", "nextsibling").raw == 3.0
        assert naive_metric(x, y, "wrf") == 3.0


def test_weights_near_float_max():
    # sums of these weights overflow a float; the answers do not.  They
    # once raised OverflowError inside math.fsum
    a = "((A:1,B:1):1e308,(C:1,D:1):1e308);"
    b = "((A:1,B:1):1e308,(C:1,D:1):1.5e308);"
    fa = "((A:1,B:1)X:1e308,(C:1,D:1)Y:1e308)R;"
    for impl in ("postorder", "nextsibling"):
        assert compute(parse_pair(a, a, weighted=True), "wrf", impl).raw == 0.0
        full = parse_pair(fa, fa, mode="full", weighted=True)
        assert compute(full, "werf", impl).raw == 0.0
        for x, y in ((a, b), (b, a)):
            assert compute(parse_pair(x, y, weighted=True), "wrf", impl).raw \
                == 5e307 == naive_metric(x, y, "wrf")
    # the result itself past the float range: {A,B} and {C,D} unmatched
    c = "((A:1,C:1):1e308,(B:1,D:1):1e308);"
    assert compute(parse_pair(a, c, weighted=True), "wrf").raw == float("inf")


def test_weighted_sum_same_in_small_chunks(monkeypatch):
    # the weighted sum reads its terms a chunk at a time; chunks of two
    # give the same bits, for a sum past the float range too
    texts = [("((A:1,B:1):1e308,(C:1,D:1):1e308);",
              "((A:1,C:1):1e308,(B:1,D:1):1.5e308);", "leaf")]
    for full in (False, True):
        a, b = generate_pair_texts(40, 9, "random", full, True)
        texts += [(a, b, "full" if full else "leaf"),
                  (a, a, "full" if full else "leaf")]
    pairs = [parse_pair(a, b, mode, True) for a, b, mode in texts]
    metrics = ["werf" if p.mode == "full" else "wrf" for p in pairs]
    want = [compute(p, m).raw for p, m in zip(pairs, metrics)]
    monkeypatch.setattr(distance, "_CHUNK", 2)
    got = [compute(p, m).raw for p, m in zip(pairs, metrics)]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert want[0] == float("inf") and want[2] == want[4] == 0.0


def _signed_tree(rng, n_leaves, full, internal=None):
    """A random tree with weights in [-1, 1); in fully-labelled mode it is
    redrawn until it has the given number of internal nodes."""
    from conftest import assign_labels, count_internal, random_topology
    root = random_topology(rng, n_leaves, "mixed")
    while internal is not None and count_internal(root) != internal:
        root = random_topology(rng, n_leaves, "mixed")
    nodes = assign_labels(root, rng, full=full)
    for v in nodes[1:]:
        v.weight = rng.uniform(-1, 1)
    return root, nodes


def test_signed_weights_match_oracle():
    """Weights of either sign give the oracle's sum of |w1(c) - w2(c)|
    in both orders, against a relative sharing every cluster and against
    an unrelated tree; identity is exactly 0.0."""
    from conftest import count_internal, to_newick
    rng = random.Random(23)
    for trial in range(60):
        full = trial % 2 == 1
        metric = "werf" if full else "wrf"
        mode = "full" if full else "leaf"
        n = rng.randint(2, 30)
        root, nodes = _signed_tree(rng, n, full)
        a = to_newick(root, weights=True)
        for v in nodes:
            rng.shuffle(v.children)
            if rng.random() < 0.5:
                v.weight = rng.uniform(-1, 1)
        b = to_newick(root, weights=True)
        other, _ = _signed_tree(rng, n, full,
                                count_internal(root) if full else None)
        c = to_newick(other, weights=True)
        for x, y in ((a, b), (b, a), (a, c), (c, a)):
            got = compute(parse_pair(x, y, mode=mode, weighted=True), metric)
            assert got.raw == naive_metric(x, y, metric)
            assert got.raw >= 0
        same = parse_pair(a, a, mode=mode, weighted=True)
        assert compute(same, metric).raw == 0.0


# finite doubles of either sign from the whole range and its edges, and
# 53-bit integers times small powers of two, whose sums must round
_WIDE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308,
                     -1e308, 1.7976931348623157e308, 2.2250738585072014e-308]),
    st.builds(math.ldexp, st.integers(-2**53, 2**53), st.integers(-60, 9)),
    st.floats(allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("chunk", [1, 2, 7, distance._CHUNK])
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.booleans(),
       st.booleans(), st.data())
def test_weighted_bits_equal_oracle(chunk, seed, n, full, related, data):
    """Signed weights from 5e-324 to 1.8e308 give the exact oracle's
    bits in both orders, whatever the chunk; identity is exactly 0.0."""
    from conftest import count_internal, to_newick
    metric = "werf" if full else "wrf"
    mode = "full" if full else "leaf"
    rng = random.Random(seed)
    root, nodes = _signed_tree(rng, n, full)
    for v in nodes[1:]:
        v.weight = data.draw(_WIDE)
    a = to_newick(root, weights=True)
    if not related:
        root, nodes = _signed_tree(rng, n, full,
                                   count_internal(root) if full else None)
    for v in nodes:
        rng.shuffle(v.children)
    for v in nodes[1:]:
        if not related or data.draw(st.booleans()):
            v.weight = data.draw(_WIDE)
    b = to_newick(root, weights=True)
    with mock.patch.object(distance, "_CHUNK", chunk):
        for x, y in ((a, b), (b, a)):
            pair = parse_pair(x, y, mode=mode, weighted=True)
            want = naive_metric(x, y, metric).hex()
            for impl in ("postorder", "nextsibling"):
                assert compute(pair, metric, impl).raw.hex() == want
        same = parse_pair(a, a, mode=mode, weighted=True)
        assert compute(same, metric).raw.hex() == "0x0.0p+0"


def test_weighted_parse_needs_weights():
    with pytest.raises(ModeError):
        parse_pair("(A,B);", "(B,A);", weighted=True)
    with pytest.raises(ModeError):
        parse_pair("(A:1,B:2);", "(B,A);", weighted=True)


def test_mode_errors():
    leaf_pair = parse_pair(T4, T5)
    full_pair = parse_pair(T2, T3, mode="full")
    with pytest.raises(ModeError):
        compute(full_pair, "rf")
    with pytest.raises(ModeError):
        compute(leaf_pair, "erf")
    with pytest.raises(ModeError):
        compute(leaf_pair, "wrf")  # parsed without weights
    with pytest.raises(ModeError):
        compute(full_pair, "werf")
    with pytest.raises(ValueError):
        compute(parse_pair(T2, T3, mode="full"), "erf", "recursive")
    for run in (lambda: compute(leaf_pair, "hamming"),
                lambda: naive_metric(T4, T5, "hamming")):
        with pytest.raises(ValueError, match="unknown metric 'hamming'"):
            run()


def test_deep_caterpillar_all_drivers():
    a, b = caterpillar_texts(500)
    pair = parse_pair(a, b)
    r1 = compute(pair, "rf")
    r2 = compute(pair, "rf", "nextsibling")
    r3 = day_rf(a, b)
    assert r1.raw == r2.raw == r3.raw
    assert r1.raw == naive_metric(a, b, "rf")


def _comb(order, full=False):
    """The left comb over the leaves L<i> for i in order, its internal
    nodes I1 (deepest) up to the root when full."""
    parts = ["(" * (len(order) - 1), f"L{order[0]}"]
    parts += [f",L{i})" + (f"I{k}" if full else "")
              for k, i in enumerate(order[1:], 1)]
    return "".join(parts) + ";"


@pytest.mark.parametrize("full", [False, True])
def test_caterpillar_deeper_than_int16_keys(full):
    """70,000 leaves, so bits 69,999 levels deep.  Int16 sort keys would
    give levels 65,536 apart one key, and the pairing of opening with
    closing bits would go wrong.  Against its mirror only the root is
    shared; against the comb with L2 and L3 swapped, all but {L1, L2}."""
    n = 70_000
    mode, metric = ("full", "erf") if full else ("leaf", "rf")
    a = _comb(range(1, n + 1), full)
    mirror = _comb(range(n, 0, -1), full)
    near = _comb([1, 3, 2, *range(4, n + 1)], full)
    r = compute(parse_pair(a, mirror, mode=mode), metric, capture=True)
    assert r.raw == 2 * (n - 2)
    assert r.common == ((1, 1),)
    # leaf mode: every {L1..Lk} has contiguous leaf ranks in the mirror;
    # fully-labelled: only the root's ranks are contiguous
    assert _probes(r) == (1 if full else n - 1)
    if not full:
        assert day_rf(a, mirror).raw == r.raw
    r = compute(parse_pair(a, near, mode=mode), metric, capture=True)
    assert r.raw == 2
    assert r.common == tuple((i, i) for i in range(n - 2, 0, -1))
    assert _probes(r) == r.equal_clusters == n - 2


def _rng_pair(seed, n_leaves, arity, full=False, weights=False,
              crossed=False):
    rng = random.Random(seed)
    return pair_texts(rng, n_leaves, arity, full=full, weights=weights,
                      crossed=crossed)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60),
       st.sampled_from(["binary", "mixed"]))
def test_rf_oracle_agreement(seed, n_leaves, arity):
    a, b = _rng_pair(seed, n_leaves, arity)
    pair = parse_pair(a, b)
    want = naive_metric(a, b, "rf")
    assert compute(pair, "rf").raw == want
    assert compute(pair, "rf", "nextsibling").raw == want
    assert day_rf(a, b).raw == want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40),
       st.sampled_from(["binary", "mixed"]), st.booleans())
def test_erf_oracle_agreement(seed, n_leaves, arity, crossed):
    a, b = _rng_pair(seed, n_leaves, arity, full=True, crossed=crossed)
    pair = parse_pair(a, b, mode="full")
    want = naive_metric(a, b, "erf")
    assert compute(pair, "erf").raw == want
    assert compute(pair, "erf", "nextsibling").raw == want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40),
       st.sampled_from(["binary", "mixed"]), st.booleans(), st.booleans())
def test_weighted_oracle_agreement(seed, n_leaves, arity, full, crossed):
    metric = "werf" if full else "wrf"
    a, b = _rng_pair(seed, n_leaves, arity, full=full, weights=True,
                     crossed=full and crossed)
    pair = parse_pair(a, b, mode="full" if full else "leaf", weighted=True)
    want = naive_metric(a, b, metric)
    got = compute(pair, metric)
    assert got.raw == want
    assert compute(pair, metric, "nextsibling").raw == want
    assert got.raw >= 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 50),
       st.sampled_from(["binary", "mixed"]))
def test_symmetry_and_parity(seed, n_leaves, arity):
    a, b = _rng_pair(seed, n_leaves, arity)
    fwd = parse_pair(a, b)
    rev = parse_pair(b, a)
    r = compute(fwd, "rf")
    assert r.raw == compute(rev, "rf").raw

    i1 = fwd.t1.n_nodes - leaves_under(fwd.t1)
    i2 = fwd.t2.n_nodes - leaves_under(fwd.t2)
    assert r.raw % 2 == (i1 + i2) % 2
    assert 0 <= r.raw <= i1 + i2 - 2
    assert r.halved == r.raw / 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 40))
def test_weighted_symmetry(seed, n_leaves):
    a, b = _rng_pair(seed, n_leaves, "mixed", weights=True)
    fwd = parse_pair(a, b, weighted=True)
    rev = parse_pair(b, a, weighted=True)
    assert compute(fwd, "wrf").raw == compute(rev, "wrf").raw


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40),
       st.sampled_from(["binary", "mixed"]))
def test_capture_is_sound(seed, n_leaves, arity):
    a, b = _rng_pair(seed, n_leaves, arity)
    pair = parse_pair(a, b)
    r = compute(pair, "rf", capture=True)
    assert len(r.common) == r.equal_clusters
    assert compute(pair, "rf", "nextsibling", capture=True).common == r.common

    nodes1 = preorder(parse_plain(a))
    nodes2 = preorder(parse_plain(b))
    for i, j in r.common:
        assert leafset(nodes1[i - 1]) == leafset(nodes2[j - 1])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 40))
def test_rf_triangle(seed, n_leaves):
    rng = random.Random(seed)
    texts = []
    from conftest import assign_labels, random_topology, to_newick
    for _ in range(3):
        root = random_topology(rng, n_leaves, "binary")
        assign_labels(root, rng)
        texts.append(to_newick(root))
    a, b, c = texts
    ab = compute(parse_pair(a, b), "rf").raw
    bc = compute(parse_pair(b, c), "rf").raw
    ac = compute(parse_pair(a, c), "rf").raw
    assert ac <= ab + bc


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
def test_wrf_unit_internal_weights_equals_raw_rf(seed, n_leaves):
    # unit weight on every internal edge, zero on leaf edges: each
    # unmatched internal cluster then costs exactly 1
    rng = random.Random(seed)
    from conftest import assign_labels, preorder as walk, random_topology, \
        to_newick
    roots = []
    for _ in range(2):
        root = random_topology(rng, n_leaves, "mixed")
        assign_labels(root, rng)
        for v in walk(root)[1:]:
            v.weight = 0.0 if not v.children else 1.0
        roots.append(root)
    a = to_newick(roots[0], weights=True)
    b = to_newick(roots[1], weights=True)
    raw = compute(parse_pair(a, b), "rf").raw
    value = compute(parse_pair(a, b, weighted=True), "wrf").raw
    assert value == raw


def test_cluster_set_sizes():
    # all nodes in full mode; internal-only in leaf mode unless weighted
    root = parse_plain(T4)
    assert len(naive_clusters(root, "leaf", False)) == 4
    assert len(naive_clusters(root, "leaf", True)) == 10
    full = parse_plain(T2)
    assert len(naive_clusters(full, "full", False)) == 9


def _post_order(root):
    out = []
    stack = [(root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            out.append(v)
        else:
            stack.append((v, True))
            stack.extend((c, False) for c in reversed(v.children))
    return out


def _oracle_common(a, b, full):
    """The shared internal clusters as (tree-1, tree-2) pre-order index
    pairs in tree-1 post-order, from pointer trees and label sets."""
    def keyed(text):
        root = parse_plain(text)
        nodes = preorder(root)
        index = {id(v): i for i, v in enumerate(nodes, 1)}
        key = {}
        for v in reversed(nodes):
            own = {v.label} if full or not v.children else set()
            key[id(v)] = frozenset(own.union(*(key[id(c)]
                                               for c in v.children)))
        return root, nodes, index, key
    root1, _, index1, key1 = keyed(a)
    _, nodes2, index2, key2 = keyed(b)
    where2 = {key2[id(v)]: index2[id(v)] for v in nodes2 if v.children}
    return tuple((index1[id(v)], where2[key1[id(v)]])
                 for v in _post_order(root1)
                 if v.children and key1[id(v)] in where2)


def _probes(res):
    """Candidates the sweep asked tree 2 about."""
    return res.ops.cluster_size if res.metric in ("erf", "werf") \
        else res.ops.lca


# contiguous tree-2 ranks that are not a tree-2 cluster, one such
# candidate in each order unless MANY_UNCONFIRMED says otherwise.  Leaf
# mode: {A,B} has leaf ranks 0..1 in the second tree, but lca(A, B) is its
# root; {B,C} likewise the other way.  {B,C} against ((A,B),(C,D)) has an
# lca with a leaf beyond each edge; the other way, {A,B} has leaves only
# beyond the right edge and {C,D} only beyond the left.  Fully-labelled:
# X's subtree {X,A,B} takes pre-order indices 2..4 in the second tree,
# whose node 2 is the leaf B; the other way, node 2 is the leaf C
UNCONFIRMED = [
    ("((A:1,B:2):3,C:4,D:5);", "(A:1,(B:2,C:3):4,D:5);", False),
    ("(A:1,(B:2,C:3):4,D:5);", "((A:1,B:2):5,(C:3,D:4):6);", False),
    ("(C:1,(A:2,B:3)X:4)R;", "(B:3,(A:2,C:1)X:4)R;", True),
]
MANY_UNCONFIRMED = {
    ("((A:1,B:2):5,(C:3,D:4):6);", "(A:1,(B:2,C:3):4,D:5);"): 2,
}


@pytest.mark.parametrize("a, b, full", UNCONFIRMED)
def test_candidates_that_fail_confirmation(a, b, full):
    mode = "full" if full else "leaf"
    for x, y in ((a, b), (b, a)):
        pair = parse_pair(x, y, mode=mode, weighted=True)
        fails = MANY_UNCONFIRMED.get((x, y), 1)
        for metric in (("erf", "werf") if full else ("rf", "wrf")):
            for impl in ("postorder", "nextsibling"):
                r = compute(pair, metric, impl, capture=True)
                assert _probes(r) == r.equal_clusters + fails
                assert r.raw == naive_metric(x, y, metric)
                assert r.common == _oracle_common(x, y, full)


def test_caterpillar_candidates_fail_at_one_edge():
    """A 300-leaf comb over L1..Ln against the comb over L2..Ln hung
    beside L1.  One way, each {L2..Lk} is a candidate whose lca {L1..Lk}
    has L1 beyond its left edge, behind a run of openings that spans
    several blocks; the other way, each {L1..Lk} has L(k+1)..Ln beyond
    the root's right edge.  Only the roots match."""
    n = 300
    comb = rest = "L2"
    for i in range(3, n + 1):
        comb = f"({comb},L{i})"
        rest = f"({rest},L{i})"
    comb = comb.replace("L2", "(L1,L2)", 1) + ";"
    hung = f"(L1,{rest});"
    for x, y in ((comb, hung), (hung, comb)):
        pair = parse_pair(x, y)
        want = naive_metric(x, y, "rf")
        assert want == 2 * n - 4
        for impl in ("postorder", "nextsibling"):
            r = compute(pair, "rf", impl, capture=True)
            assert r.raw == want
            assert r.common == _oracle_common(x, y, False) == ((1, 1),)
            assert _probes(r) == n - 1


@pytest.mark.parametrize("full, metric, bound", ((False, "rf", 291),
                                                   (True, "erf", 342)))
def test_distance_peak_holds_one_copy_of_the_ranks(full, metric, bound):
    # the sweep unpacks the ranks once, and _extremes makes that array its
    # table of least values.  With the pair held, the peak is about 286.9
    # bits/node for rf and 334.0 for erf at 10k leaves.  One more int32
    # copy of the ranks (16 bits/node in leaf mode, 32 in full mode)
    # exceeds the bound, 302.9 and 366.0, and so do int32 ranks held by
    # the pair, 295.7 and 351.0
    a, b = generate_pair_texts(10_000, 3, full=full)
    tracemalloc.start()
    try:
        pair = parse_pair(a, b, "full" if full else "leaf")
        tracemalloc.reset_peak()
        compute(pair, metric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak * 8 / pair.n < bound


def test_weighted_distance_peak_holds_one_chunk():
    # the weighted sum reads its terms _CHUNK at a time.  With the pair
    # held, the werf call adds about 313.6 bits/node at 30k leaves, the
    # unweighted sweep's own peak; chunks of 2**16 terms give 520.4 and
    # a sum that holds every term at once 740.2
    a, b = generate_pair_texts(30_000, 3, full=True, weights=True)
    tracemalloc.start()
    try:
        pair = parse_pair(a, b, "full", weighted=True)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        compute(pair, "werf")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - held) * 8 / pair.n < 490


def test_near_pair_10k_all_metrics():
    """A 10k-leaf tree against a relabelled copy: most clusters are
    candidates, some fail confirmation, and every metric under both
    names gives the oracle's value and shared clusters."""
    rng = random.Random(41)
    for full in (False, True):
        a, b = related_texts(rng, 10_000, full=full, moves=200)
        mode = "full" if full else "leaf"
        pair = parse_pair(a, b, mode=mode, weighted=True)
        metrics = ("erf", "werf") if full else ("rf", "wrf")
        want_common = _oracle_common(a, b, full)
        assert len(want_common) > 1000
        for metric in metrics:
            want = naive_metric(a, b, metric)
            for impl in ("postorder", "nextsibling"):
                r = compute(pair, metric, impl, capture=True)
                assert r.raw == want
                assert r.common == want_common
                assert r.equal_clusters == len(want_common)
                assert _probes(r) > r.equal_clusters


@pytest.mark.parametrize("a, b, full, raw, probes", [
    ("A:0;", "A:0;", False, 0, 0),
    ("A:0;", "A:0;", True, 0, 0),
    ("(A:1,B:2);", "(B:2,A:1);", False, 0, 1),
    ("(A:1,B:2)R;", "(B:2,A:1)R;", True, 0, 1),
])
def test_one_and_two_leaf_pairs(a, b, full, raw, probes):
    mode = "full" if full else "leaf"
    for x, y in ((a, b), (b, a)):
        pair = parse_pair(x, y, mode=mode, weighted=True)
        for metric in (("erf", "werf") if full else ("rf", "wrf")):
            r = compute(pair, metric, capture=True)
            assert r.raw == naive_metric(x, y, metric)
            assert r.common == _oracle_common(x, y, full)
            assert r.equal_clusters == probes
            assert _probes(r) == probes
            if metric in ("rf", "erf"):
                assert r.raw == raw


def test_werf_leaf_image_not_a_leaf():
    # B is a leaf in one tree and the root in the other: its singleton is
    # not shared, the root's cluster is; |2 - 0| + |0 - 3| = 5, and the
    # unshared singletons {B} and {R} make erf 2
    a, b = "(A:1,B:2)R;", "(A:1,R:3)B;"
    for x, y in ((a, b), (b, a)):
        r = compute(parse_pair(x, y, mode="full", weighted=True), "werf",
                    capture=True)
        assert r.raw == 5.0 == naive_metric(x, y, "werf")
        assert r.common == ((1, 1),)
        assert r.ops.cluster_size == 1
        for impl in ("postorder", "nextsibling"):
            assert compute(parse_pair(x, y, mode="full"), "erf", impl).raw == 2
        assert naive_metric(x, y, "erf") == 2
    # C and X trade places: {C}, {X}, {A,B,X}, {A,B,C} are unshared, and
    # C's weights 2 and 3 belong to different clusters
    a, b = "((A:1,B:1)X:1,C:2,D:1)R;", "((A:1,B:1)C:3,X:5,D:1)R;"
    for x, y in ((a, b), (b, a)):
        pair = parse_pair(x, y, mode="full", weighted=True)
        for impl in ("postorder", "nextsibling"):
            assert compute(pair, "erf", impl).raw == 4
            assert compute(pair, "werf", impl).raw == 11.0
        assert naive_metric(x, y, "erf") == 4
        assert naive_metric(x, y, "werf") == 11.0
