"""Serialization: bit-exact round trips, corruption checks, accounting."""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bprf.bp import BpTree
from bprf.cli import generate_pair_texts
from bprf.newick import LabelTable, TreePair, parse_pair, parse_tree, \
    write_newick
from bprf.treeio import PackError, SizeReport, pack, size_report, unpack

from conftest import assign_labels, random_topology, to_newick

T4 = "(((A,B),C),(D,E,F));"
T2 = "(((B,C)F,D)G,(A,E)H)I;"
_HEADER = 4 + 1 + 1 + 8  # magic, version, flags, node count


def test_pack_layout_t4():
    tree, labels, _ = parse_tree(T4)
    data = pack(tree, labels)
    assert data[:4] == b"SBPT"
    assert data[4] == 1
    assert data[5] == 0
    assert struct.unpack("<Q", data[6:14])[0] == 10
    # 20 bits in exactly 3 bytes, 4 zero pad bits at the tail
    assert data[_HEADER:_HEADER + 3] == bytes([0b11110100, 0b10011010,
                                               0b10000000])
    assert struct.unpack("<I", data[_HEADER + 3:_HEADER + 7])[0] == 6


def test_roundtrip_t4():
    tree, labels, _ = parse_tree(T4)
    t2, l2, w2 = unpack(pack(tree, labels))
    assert t2.to01().tolist() == tree.to01().tolist()
    assert w2 is None
    for i in range(1, 11):
        assert l2.name_of(i) == labels.name_of(i)
    assert write_newick(t2, l2) == T4


def test_roundtrip_weighted_exact():
    text = "((A:0.1,B:2.5e-3):3.25,C:4e8);"
    tree, labels, w = parse_tree(text)
    t2, l2, w2 = unpack(pack(tree, labels, w))
    assert w2.tolist() == w.tolist()
    assert write_newick(t2, l2, w2) == write_newick(tree, labels, w)


def test_unlabelled_tree_packs():
    # write_newick would print "(,);", which the parser rejects, so pack
    # refuses what unpack would
    tree = BpTree(np.array([1, 1, 0, 1, 0, 0], dtype=np.uint8))
    with pytest.raises(PackError, match="leaf 2 has no label"):
        pack(tree, LabelTable([None, None, None]))


def test_pack_rejects_what_unpack_rejects():
    # "((A),B);": node 2 has the single child A
    tree = BpTree(np.array([1, 1, 1, 0, 0, 1, 0, 0], dtype=np.uint8))
    with pytest.raises(PackError, match="node 2 has a single child"):
        pack(tree, LabelTable([None, None, "A", "B"]))
    tree, labels, w = parse_tree("((A:1,B:2):3,C:4);")
    with pytest.raises(PackError, match="label 'A' repeated on node 4"):
        pack(tree, LabelTable([None, None, "A", "A", "C"]))
    bad = w.copy()
    bad[1] = float("nan")
    with pytest.raises(PackError, match="weight of node 2 is not finite"):
        pack(tree, labels, bad)


def test_pack_deterministic():
    rng = random.Random(11)
    root = random_topology(rng, 40, "mixed")
    assign_labels(root, rng, full=True, weights=True)
    text = to_newick(root, weights=True)
    tree, labels, w = parse_tree(text)
    assert pack(tree, labels, w) == pack(tree, labels, w)


def test_roundtrip_100_random_trees():
    rng = random.Random(20240902)
    for k in range(100):
        root = random_topology(rng, rng.randint(2, 80), "mixed")
        weights = k % 2 == 0
        assign_labels(root, rng, full=k % 3 == 0, weights=weights)
        text = to_newick(root, weights=weights)
        tree, labels, w = parse_tree(text)
        data = pack(tree, labels, w)
        t2, l2, w2 = unpack(data)
        assert pack(t2, l2, w2) == data
        assert write_newick(t2, l2, w2) == text


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 50), st.booleans())
def test_roundtrip_property(seed, n_leaves, weighted):
    rng = random.Random(seed)
    root = random_topology(rng, n_leaves, "mixed")
    assign_labels(root, rng, weights=weighted)
    tree, labels, w = parse_tree(to_newick(root, weights=weighted))
    t2, l2, w2 = unpack(pack(tree, labels, w))
    assert t2.to01().tolist() == tree.to01().tolist()
    if weighted:
        assert w2.tolist() == w.tolist()


def _valid_bytes(weighted=False):
    tree, labels, w = parse_tree("((A:1,B:2):3,C:4);" if weighted
                                 else "((A,B),C);")
    return pack(tree, labels, w)


def test_unpack_errors():
    good = _valid_bytes()

    with pytest.raises(PackError, match="magic"):
        unpack(b"XBPT" + good[4:])
    with pytest.raises(PackError, match="version"):
        unpack(good[:4] + bytes([9]) + good[5:])
    with pytest.raises(PackError, match="flag"):
        unpack(good[:5] + bytes([0x82]) + good[6:])
    with pytest.raises(PackError, match="truncated"):
        unpack(good[:3])
    with pytest.raises(PackError, match="truncated"):
        unpack(good[:_HEADER + 1])
    with pytest.raises(PackError, match="truncated"):
        unpack(good[:-1])
    with pytest.raises(PackError, match="trailing"):
        unpack(good + b"\x00")
    with pytest.raises(PackError, match="zero"):
        unpack(good[:4] + good[4:6] + struct.pack("<Q", 0) + good[14:])

    # flip a pad bit: 5 nodes -> 10 bits, 6 pad bits in byte 2
    bad = bytearray(good)
    bad[_HEADER + 1] |= 1
    with pytest.raises(PackError, match="padding"):
        unpack(bytes(bad))

    # truncated weight block
    wgood = _valid_bytes(weighted=True)
    with pytest.raises(PackError, match="truncated weight"):
        unpack(wgood[:-5])

    # weights write_newick would print as ':nan' or ':inf', which the
    # parser rejects
    for x in (float("nan"), float("inf")):
        with pytest.raises(PackError, match="weight of node 5 is not "
                                            "finite"):
            unpack(wgood[:-8] + struct.pack("<d", x))
    tree, labels, w = parse_tree("((A:1,B:2):3,C:4);")
    for k, x in ((3, float("nan")), (2, float("inf")), (1, -float("inf"))):
        bad = w.copy()
        bad[k - 1] = x
        with pytest.raises(PackError, match=f"weight of node {k} is not "
                                            "finite"):
            unpack(pack(tree, labels, bad))


def test_unpack_rejects_non_tree_bits():
    # "1010" drops to depth zero mid-sequence: a two-tree forest
    data = bytearray()
    data += b"SBPT" + bytes([1, 0]) + struct.pack("<Q", 2)
    data.append(0b10100000)
    data += struct.pack("<I", 0)
    with pytest.raises(PackError, match="not a tree"):
        unpack(bytes(data))

    # a node with one child, which the parser rejects: "1100" with leaf A
    # once unpacked and was written back as "(A);"
    for bits, names, node in (
            ("1100", [None, "A"], 1),                         # (A);
            ("11100100", [None, None, "A", "B"], 2),          # ((A),B);
            ("111101000100", [None, None, None, "A", "B", "C"], 2),
            ("111011000100", [None, None, "A", None, "B", "C"], 4)):
        data = bytearray(b"SBPT" + bytes([1, 0])
                         + struct.pack("<Q", len(names)))
        data += np.packbits([int(c) for c in bits]).tobytes()
        data += struct.pack("<I", len(names) - names.count(None))
        for i, name in enumerate(names, 1):
            if name is not None:
                data += bytes([i, 1]) + name.encode()
        with pytest.raises(PackError, match=f"node {node} has a single "
                                            "child"):
            unpack(bytes(data))


def test_unpack_rejects_bad_label_block():
    good = _valid_bytes()
    head, rest = good[:_HEADER + 2], good[_HEADER + 2:]
    count = struct.unpack("<I", rest[:4])[0]

    # label index out of range: node 9 of a 5-node tree
    bad = bytearray(good)
    bad[_HEADER + 2 + 4] = 9
    with pytest.raises(PackError, match="out of range"):
        unpack(bytes(bad))

    # two labels pointing at one node
    entries = rest[4:]
    doctored = head + struct.pack("<I", count + 1) + entries + entries[:3]
    with pytest.raises(PackError, match="duplicate"):
        unpack(doctored)

    # one name on two nodes: B's entry renamed A
    assert good.count(b"\x04\x01B") == 1
    with pytest.raises(PackError, match="label 'A' repeated on node 4"):
        unpack(good.replace(b"\x04\x01B", b"\x04\x01A"))

    # names write_newick could not write back as the same tree: once
    # these unpacked, and the text was rejected, misread, or changed
    tree = parse_tree("((A,B),C);")[0]
    for names, what in (([None, None, "A", "A", "C"], "repeated"),
                        ([None, None, "A", "", "C"], "not a newick label"),
                        ([None, None, "A", "a b", "C"], "not a newick label"),
                        ([None, None, "A", "x,y", "C"], "not a newick label"),
                        ([None, "A", "A[1]", "B", "C"], "not a newick label"),
                        # once written back as "((,B),C);"
                        ([None, None, None, "B", "C"], "leaf 3 has no label"),
                        ([None, None, "A", "B", None], "leaf 5 has no label"),
                        (["R", "X", None, None, "C"], "leaf 3 has no label")):
        with pytest.raises(PackError, match=what):
            unpack(pack(tree, LabelTable(names)))


def test_size_report_frozen():
    pair = parse_pair(T4, "((D,E,F),(B,(A,C)));")
    rep = size_report(pair)
    assert rep.bp_bits == 20
    assert rep.map_bits == 192  # six leaves, one 32-bit rank each
    assert rep.comparison_bits_day == 1856
    assert rep.total_bits == 2 * pair.n + 32 * 6 == 212
    assert str(rep).splitlines()[0] == "bp_bits 20"
    # a full pair holds a rank per node; a lone tree is reported so too
    pair = parse_pair(T2, T2, mode="full")
    assert size_report(pair).total_bits == 34 * pair.n == 306
    assert size_report(pair.t1) == size_report(pair)


def _spine_pair(n_nodes):
    k = n_nodes - 1
    bits = np.array([1] * k + [1, 0] + [0] * k, dtype=np.uint8)
    tree = BpTree(bits)
    return TreePair(tree, tree, np.ones(1, dtype=np.int32),
                    None, None, "leaf")


def test_size_report_is_34n_on_large_pairs():
    # 2 bits of parentheses per node and 32 per rank held, one rank per
    # leaf in leaf mode, and nothing besides
    for n in (10**3, 10**6):
        assert size_report(_spine_pair(n)).total_bits == 2 * n + 32
    # a random 100k-leaf pair, as the benchmark parses
    pair = parse_pair(*generate_pair_texts(100_000, 1))
    assert size_report(pair).total_bits == 2 * pair.n + 32 * 100_000


def test_size_report_is_34n():
    # leaf pairs hold 2n + 32 per leaf, full pairs exactly 34n
    for n_leaves in (2, 7, 33):
        rng = random.Random(n_leaves)
        root = random_topology(rng, n_leaves, "mixed")
        assign_labels(root, rng)
        text = to_newick(root)
        pair = parse_pair(text, text)
        rep = size_report(pair)
        assert rep.bp_bits + rep.map_bits == 2 * pair.n + 32 * n_leaves
        assert rep.total_bits == 2 * pair.n + 32 * n_leaves
        root = random_topology(rng, n_leaves, "mixed")
        assign_labels(root, rng, full=True)
        text = to_newick(root)
        pair = parse_pair(text, text, mode="full")
        assert size_report(pair).total_bits == 34 * pair.n
