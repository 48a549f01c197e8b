"""Acceptance gate: one test per shipping criterion.

Each test prints a single [PASS]/[FAIL] line naming its criterion, so a
plain pytest run doubles as the go/no-go checklist.  Budgets appear in
the criteria themselves: fixture math under a second, the 1600-pair
oracle sweep under a minute, every 100k-leaf distance under ten
seconds.
"""

import math
import random
import struct
import time
import tracemalloc
from contextlib import contextmanager

from bprf.baseline import day_rf, naive_metric, parse_plain
from bprf.cli import generate_pair_texts, generate_tree_text
from bprf.distance import compute, erf, rf_nextsibling, rf_postorder, werf, wrf
from bprf.newick import parse_pair, parse_tree
from bprf.treeio import pack, size_report, unpack

from conftest import (leaves_under, preorder, rank1_scan, related_texts,
                      select_scan)

T2 = "(((B,C)F,D)G,(A,E)H)I;"
T3 = "((B,(D,C)F)G,(A,E)H)I;"
T4 = "(((A,B),C),(D,E,F));"
T5 = "((D,E,F),(B,(A,C)));"


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}", flush=True)
        raise
    print(f"[PASS] criterion {num}: {desc}", flush=True)


def log_uniform_size(rng, lo=4, hi=512):
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def test_criterion_1_fixture_walkthrough():
    with criterion(1, "worked-example fixtures reproduce exactly, < 1 s"):
        t0 = time.perf_counter()

        pair23 = parse_pair(T2, T3, mode="full")
        assert erf(pair23).raw == 2

        pair45 = parse_pair(T4, T5)
        code = pair45.code_map.tolist()
        assert code == [0, 0, 0, 9, 7, 10, 0, 3, 4, 5]

        # clusters {A,B}: T4 indices 4 and 5 map to T5 indices 9 and 7;
        # their lca in T5 is node 6, covering three leaves, while the
        # original cluster (T4 node 3) covers two, so no match
        t1, t2 = pair45.t1, pair45.t2
        bits1, bits2 = t1.to01().tolist(), t2.to01().tolist()
        pa = select_scan(bits2, 1, code[4 - 1])
        pb = select_scan(bits2, 1, code[5 - 1])
        anc = t2.lca(pa, pb)
        assert rank1_scan(bits2, anc) == 6
        assert leaves_under(t2, anc) == 3
        assert leaves_under(t1, select_scan(bits1, 1, 3)) == 2

        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "200 seeded pairs per configuration agree with the "
                      "set-based oracles, < 60 s"):
        t0 = time.perf_counter()
        cfg_index = 0
        for arity in ("binary", "random"):
            for full in (False, True):
                for weighted in (False, True):
                    rng = random.Random(7000 + cfg_index)
                    base = 20_000 + cfg_index * 1000
                    for i in range(200):
                        n = log_uniform_size(rng)
                        a, b = generate_pair_texts(n, base + i, arity,
                                                   full, weighted)
                        mode = "full" if full else "leaf"
                        pair = parse_pair(a, b, mode=mode, weighted=weighted)
                        if not full and not weighted:
                            got = rf_postorder(pair).raw
                            assert got == rf_nextsibling(pair).raw
                            assert got == day_rf(a, b).raw
                            assert got == naive_metric(a, b, "rf")
                        elif not full:
                            got = wrf(pair).raw
                            want = naive_metric(a, b, "wrf")
                            assert abs(got - want) < 1e-9
                            assert abs(wrf(pair, impl="nextsibling").raw
                                       - want) < 1e-9
                        elif not weighted:
                            got = erf(pair).raw
                            assert got == erf(pair, impl="nextsibling").raw
                            assert got == naive_metric(a, b, "erf")
                        else:
                            got = werf(pair).raw
                            want = naive_metric(a, b, "werf")
                            assert abs(got - want) < 1e-9
                            assert abs(werf(pair, impl="nextsibling").raw
                                       - want) < 1e-9
                    cfg_index += 1
        assert cfg_index == 8
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_metric_properties():
    with criterion(3, "identity, symmetry, non-negativity; RF triangle "
                      "inequality on 50 triples"):
        rng = random.Random(31)
        cases = [("rf", False, False), ("wrf", False, True),
                 ("erf", True, False), ("werf", True, True)]
        for metric, full, weighted in cases:
            mode = "full" if full else "leaf"
            for i in range(25):
                arity = "binary" if i % 2 else "random"
                n = log_uniform_size(rng)
                a, b = generate_pair_texts(n, 4000 + i, arity, full, weighted)
                ab = compute(parse_pair(a, b, mode=mode, weighted=weighted),
                             metric).raw
                ba = compute(parse_pair(b, a, mode=mode, weighted=weighted),
                             metric).raw
                aa = compute(parse_pair(a, a, mode=mode, weighted=weighted),
                             metric).raw
                if weighted:
                    assert ab == ba
                    assert aa == 0.0
                    assert ab >= 0
                else:
                    assert ab == ba
                    assert aa == 0
                    assert ab >= 0

        for i in range(50):
            n = rng.randint(4, 128)
            x, y, z = (generate_tree_text(n, 6000 + 3 * i + k)
                       for k in range(3))
            dxy = rf_postorder(parse_pair(x, y)).raw
            dyz = rf_postorder(parse_pair(y, z)).raw
            dxz = rf_postorder(parse_pair(x, z)).raw
            assert dxz <= dxy + dyz


def _ternary_caterpillar(n_leaves, reverse=False):
    """Left-comb tree whose innermost node is ternary, so the node count
    comes out even: n = 2 * n_leaves - 2."""
    order = range(n_leaves, 0, -1) if reverse else range(1, n_leaves + 1)
    names = [f"L{i}" for i in order]
    parts = ["(" * (n_leaves - 3)]
    parts.append(f"({names[0]},{names[1]},{names[2]})")
    for name in names[3:]:
        parts.append(f",{name})")
    return "".join(parts) + ";"


def test_criterion_4_space_accounting():
    with criterion(4, "size report at 10^5 nodes: exactly 2n + 32 per "
                      "leaf, 192n-64 baseline, ceil(2n/8) packed bytes"):
        leaves = 50_001
        a = _ternary_caterpillar(leaves)
        b = _ternary_caterpillar(leaves, reverse=True)
        pair = parse_pair(a, b)
        n = pair.n
        assert n == 100_000

        rep = size_report(pair)
        assert rep.bp_bits + rep.map_bits == 2 * n + 32 * leaves
        assert rep.total_bits == 2 * n + 32 * leaves
        assert rep.comparison_bits_day == 192 * n - 64

        # the bit-vector section is exactly ceil(2n/8) bytes: the label
        # block starts right after it, and unpack reads the blob to its end
        tree, labels, _ = parse_tree(a)
        blob = pack(tree, labels)
        bp_bytes = (2 * n + 7) // 8
        assert blob[14:14 + bp_bytes] == pair.t1.packed_bytes
        assert len(pair.t1.packed_bytes) == bp_bytes
        assert struct.unpack("<I", blob[14 + bp_bytes:18 + bp_bytes]) \
            == (leaves,)
        assert unpack(blob)[0].packed_bytes == blob[14:14 + bp_bytes]


def test_criterion_5_runtime_scaling():
    with criterion(5, "distance phase 10k -> 100k leaves scales <= 13x, "
                      "each 100k run < 10 s"):
        compute(parse_pair(*generate_pair_texts(2000, 0)), "rf")  # warmup
        times = {(n, algo): [] for n in (10_000, 100_000)
                 for algo in ("postorder", "nextsibling")}
        # each seed's 10k and 100k pairs run back to back, so a load spike
        # lands on both sizes rather than on the 100k runs alone
        for seed in range(1, 6):
            for n in (10_000, 100_000):
                a, b = generate_pair_texts(n, seed)
                for algo in ("postorder", "nextsibling"):
                    pair = parse_pair(a, b)
                    t0 = time.perf_counter()
                    compute(pair, "rf", algo)
                    dist_s = time.perf_counter() - t0
                    times[n, algo].append(dist_s)
                    if n == 100_000:
                        assert dist_s < 10.0, (n, seed, algo, dist_s)
        # min over the five pairs: interference inflates individual runs,
        # never deflates them
        for algo in ("postorder", "nextsibling"):
            mins = (min(times[10_000, algo]), min(times[100_000, algo]))
            ratio = mins[1] / mins[0]
            assert ratio <= 13.0, (algo, ratio, mins)


def test_criterion_6_memory_profile_shape():
    with criterion(6, "parse-phase allocation peak exceeds distance-phase "
                      "usage, dropping at the boundary"):
        a, b = generate_pair_texts(100_000, 3)
        tracemalloc.start()
        try:
            pair = parse_pair(a, b)
            parse_end, parse_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            compute(pair, "rf")
            dist_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parse_peak > dist_peak
        assert parse_end < parse_peak
        # the accepting pass works in fixed-size chunks: 459 bits/node
        # here, where a whole-text label hash once peaked at 758
        assert parse_peak * 8 / pair.n < 520


def _candidates(text1, text2, full):
    """Tree-1 internal clusters whose tree-2 ranks are contiguous, counted
    on pointer trees: a leaf's rank among tree 2's leaves in leaf mode, a
    node's tree-2 pre-order index in fully-labelled mode."""
    nodes2 = preorder(parse_plain(text2))
    ranked = nodes2 if full else [v for v in nodes2 if not v.children]
    rank = {v.label: r for r, v in enumerate(ranked)}
    folds = {}
    count = 0
    for v in reversed(preorder(parse_plain(text1))):
        parts = [folds.pop(id(c)) for c in v.children]
        if full or not v.children:
            parts.append((rank[v.label], rank[v.label], 1))
        lo = min(x[0] for x in parts)
        hi = max(x[1] for x in parts)
        size = sum(x[2] for x in parts)
        folds[id(v)] = lo, hi, size
        if v.children and hi - lo + 1 == size:
            count += 1
    return count


def _leaf_op_counts(a, b):
    pair = parse_pair(a, b, weighted=True)
    n = pair.n
    assert n <= 10_000
    c = _candidates(a, b, full=False)

    # tree 1 is read as a stream and makes no query; tree 2 is asked one
    # lca per candidate, and nothing else: no leaf is counted
    po = rf_postorder(pair).ops
    assert po.post_order_select == 0
    assert po.next_sibling == 0
    assert po.cluster_size == 0
    assert po.num_leaves == 0
    assert po.lca == c
    assert po.total() == c
    assert 2 * c <= n - 1

    # both names run the one sweep, and weight folding changes no
    # traversal decisions
    assert rf_nextsibling(pair).ops == po
    assert wrf(pair).ops == po
    assert wrf(pair, impl="nextsibling").ops == po
    return c


def _full_op_counts(a, b):
    pair = parse_pair(a, b, mode="full", weighted=True)
    n = pair.n
    assert n <= 10_000
    c = _candidates(a, b, full=True)

    # a candidate's lowest rank is its only possible match: one size probe
    # per candidate and no lca
    epo = erf(pair).ops
    assert epo.post_order_select == 0
    assert epo.next_sibling == 0
    assert epo.lca == 0
    assert epo.num_leaves == 0
    assert epo.cluster_size == c
    assert epo.total() == c
    assert erf(pair, impl="nextsibling").ops == epo

    # the leaf singletons are tested over the code map, with no call
    assert werf(pair).ops == epo
    assert werf(pair, impl="nextsibling").ops == epo
    return c


def test_criterion_7_operation_count_bounds():
    with criterion(7, "instrumented operation counts stay within the "
                      "closed-form per-run bounds"):
        for arity in ("binary", "random"):
            _leaf_op_counts(*generate_pair_texts(5000, 17, arity,
                                                 weights=True))
            _full_op_counts(*generate_pair_texts(5000, 18, arity, full=True,
                                                 weights=True))
        # a tree against a relabelled copy: thousands of candidates
        near = related_texts(random.Random(19), 5000)
        assert _leaf_op_counts(*near) > 1000
        near = related_texts(random.Random(20), 5000, full=True)
        assert _full_op_counts(*near) > 1000
