"""Serialization: bit-exact round trips, corruption checks, accounting."""

import random
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bprf.bp import BpTree
from bprf.cli import generate_pair_texts, generate_tree_text
from bprf.newick import TreePair, parse_pair, parse_tree, write_newick
from bprf.treeio import PackError, SizeReport, pack, size_report, unpack

from conftest import assign_labels, random_topology, to_newick

T4 = "(((A,B),C),(D,E,F));"
T2 = "(((B,C)F,D)G,(A,E)H)I;"
_HEADER = 4 + 1 + 1 + 8  # magic, version, flags, node count


def test_pack_layout_t4():
    tree, labels, _ = parse_tree(T4)
    data = pack(tree, labels)
    assert data[:4] == b"SBPT"
    assert data[4] == 2
    assert data[5] == 0
    assert struct.unpack("<Q", data[6:14])[0] == 10
    # 20 bits in exactly 3 bytes, 4 zero pad bits at the tail
    assert data[_HEADER:_HEADER + 3] == bytes([0b11110100, 0b10011010,
                                               0b10000000])
    assert struct.unpack("<I", data[_HEADER + 3:_HEADER + 7])[0] == 6
    # leaves 4, 5, 6, 8, 9, 10 at bits 3..5 and 7..9, 6 zero pad bits;
    # then their names in pre-order, each ended by a newline
    assert data[_HEADER + 7:] == bytes([0b00011101, 0b11000000]) \
        + b"A\nB\nC\nD\nE\nF\n"


def test_roundtrip_t4():
    tree, labels, _ = parse_tree(T4)
    t2, l2, w2 = unpack(pack(tree, labels))
    assert t2.to01().tolist() == tree.to01().tolist()
    assert w2 is None
    assert l2 == labels
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
        pack(tree, [None, None, None])


def test_pack_rejects_what_unpack_rejects():
    # "((A),B);": node 2 has the single child A
    tree = BpTree(np.array([1, 1, 1, 0, 0, 1, 0, 0], dtype=np.uint8))
    with pytest.raises(PackError, match="node 2 has a single child"):
        pack(tree, [None, None, "A", "B"])
    tree, labels, w = parse_tree("((A:1,B:2):3,C:4);")
    with pytest.raises(PackError, match="label 'A' repeated on node 4"):
        pack(tree, [None, None, "A", "A", "C"])
    bad = w.copy()
    bad[1] = float("nan")
    with pytest.raises(PackError, match="weight of node 2 is not finite"):
        pack(tree, labels, bad)
    for names in labels[:-1], labels + (None,):
        with pytest.raises(ValueError, match="names must have length 5"):
            pack(tree, names, w)


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


def _v2(bits, names):
    """Unweighted version-2 bytes built by hand, with no checks: bits a
    0/1 string, names a name or None per node in pre-order."""
    labelled = [name is not None for name in names]
    return (b"SBPT" + bytes([2, 0]) + struct.pack("<Q", len(names))
            + np.packbits([int(c) for c in bits]).tobytes()
            + struct.pack("<I", sum(labelled))
            + np.packbits(labelled).tobytes()
            + "".join(x + "\n" for x in names if x is not None).encode())


def test_unpack_rejects_non_tree_bits():
    # "1010" drops to depth zero mid-sequence: a two-tree forest
    with pytest.raises(PackError, match="not a tree"):
        unpack(_v2("1010", ["A", "B"]))

    # a node with one child, which the parser rejects: "1100" with leaf A
    # once unpacked and was written back as "(A);"
    for bits, names, node in (
            ("1100", [None, "A"], 1),                         # (A);
            ("11100100", [None, None, "A", "B"], 2),          # ((A),B);
            ("111101000100", [None, None, None, "A", "B", "C"], 2),
            ("111011000100", [None, None, "A", None, "B", "C"], 4)):
        with pytest.raises(PackError, match=f"node {node} has a single "
                                            "child"):
            unpack(_v2(bits, names))


def test_unpack_rejects_bad_label_block():
    good = _valid_bytes()
    assert good == _v2("1110100100", [None, None, "A", "B", "C"])
    bitmap = _HEADER + 2 + 4  # 10 bits in 2 bytes, then the count

    # a pad bit of the bitmap: 5 nodes -> 3 pad bits
    bad = bytearray(good)
    bad[bitmap] |= 1
    with pytest.raises(PackError, match="padding bits in label bitmap"):
        unpack(bytes(bad))

    # a bitmap that marks one node more or one fewer than the count
    for count, marked in ((2, 3), (4, 3)):
        bad = bytearray(good)
        bad[bitmap - 4:bitmap] = struct.pack("<I", count)
        with pytest.raises(PackError, match=f"label bitmap marks {marked} "
                                            f"nodes, label count is "
                                            f"{count}"):
            unpack(bytes(bad))
    bad = bytearray(good)
    bad[bitmap] |= 0x80
    with pytest.raises(PackError, match="marks 4 nodes, label count is 3"):
        unpack(bytes(bad))

    # fewer newlines than labels
    assert good.endswith(b"C\n")
    for cut in (1, 2, 4):
        with pytest.raises(PackError, match="truncated label bytes"):
            unpack(good[:-cut])

    # one name on two nodes: B renamed A
    assert good.count(b"B\n") == 1
    with pytest.raises(PackError, match="label 'A' repeated on node 4"):
        unpack(good.replace(b"B\n", b"A\n"))

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
            unpack(pack(tree, names))
        with pytest.raises(PackError, match=what):
            unpack(_v2("1110100100", names))


def test_unpack_rejects_non_utf8_label():
    good = _valid_bytes()
    for old, new, node in ((b"B\n", b"\xff\n", 4),
                           (b"A\n", b"A\xc3\n", 3),   # cut short by \n
                           (b"C\n", b"\xe2\x82C\n", 5)):
        with pytest.raises(PackError, match=f"label for node {node} is "
                                            "not UTF-8"):
            unpack(good.replace(old, new))


def test_unpack_rejects_version_1():
    # "((A,B),C);" in the version-1 layout: per label a varint node
    # index, a varint byte length and the bytes
    tree = parse_tree("((A,B),C);")[0]
    v1 = (b"SBPT\x01\x00" + struct.pack("<Q", 5) + tree.packed_bytes
          + struct.pack("<I", 3) + b"\x03\x01A\x04\x01B\x05\x01C")
    with pytest.raises(PackError, match="unsupported version 1"):
        unpack(v1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pack_smaller_than_text(seed):
    # the file is the succinct form of the text, so it must not be larger
    for args in ((10_000, seed), (10_000, seed, "random", True, True)):
        text = generate_tree_text(*args)
        assert len(pack(*parse_tree(text))) < len(text.encode())


def _rounding(bits):
    """Bits that rounding a bits-long payload up to whole bytes adds."""
    return -bits % 8


def _assert_held(pair, rep):
    # an unweighted pair holds the declared bits, tree 2's payload and
    # the byte rounding of tree 1's payload and of the packed ranks
    assert rep.held_bits == 8 * pair.nbytes
    assert rep.held_bits - rep.total_bits == (
        8 * len(pair.t2.packed_bytes) + _rounding(rep.bp_bits)
        + _rounding(rep.map_bits))


def test_size_report_frozen():
    pair = parse_pair(T4, "((D,E,F),(B,(A,C)));")
    rep = size_report(pair)
    assert rep.bp_bits == 20
    assert rep.map_bits == 18  # six leaves, ranks up to 6 in 3 bits each
    assert rep.comparison_bits_day == 1856
    assert rep.total_bits == 2 * pair.n + 3 * 6 == 38
    # two 3-byte payloads and ceil(18 / 8) = 3 bytes of ranks
    assert rep.held_bits == 8 * (3 + 3 + 3) == 72
    _assert_held(pair, rep)
    assert str(rep).splitlines()[0] == "bp_bits 20"
    assert str(rep).splitlines()[-1] == "held_bits 72"
    # a full pair holds a rank per node, each in n.bit_length() bits; a
    # lone tree is declared so too, and holds only its own payload
    pair = parse_pair(T2, T2, mode="full")
    rep = size_report(pair)
    assert rep.total_bits == 2 * pair.n + 4 * pair.n == 54
    assert rep.held_bits == 8 * (3 + 3 + 5)
    _assert_held(pair, rep)
    lone = size_report(pair.t1)
    assert lone.held_bits == 8 * len(pair.t1.packed_bytes) == 24
    assert replace(lone, held_bits=rep.held_bits) == rep


def _spine_pair(n_nodes):
    k = n_nodes - 1
    bits = np.array([1] * k + [1, 0] + [0] * k, dtype=np.uint8)
    tree = BpTree(bits)
    return TreePair(tree, tree, np.ones(1, dtype=np.int32),
                    None, None, "leaf")


def test_size_report_on_large_pairs():
    # 2 bits of parentheses per node and, in leaf mode, one rank per leaf
    # at the bit length of the leaf count, and nothing besides
    for n in (10**3, 10**6):
        pair = _spine_pair(n)
        rep = size_report(pair)
        assert rep.total_bits == 2 * n + 1
        _assert_held(pair, rep)
    # a random 100k-leaf pair, as the benchmark parses: 17-bit ranks
    pair = parse_pair(*generate_pair_texts(100_000, 1))
    rep = size_report(pair)
    assert rep.total_bits == 2 * pair.n + 17 * 100_000
    assert pair.nbytes == 2 * ((2 * pair.n + 7) // 8) + 17 * 100_000 // 8
    _assert_held(pair, rep)


def test_size_report_packed_widths():
    # leaf pairs hold 2n bits and L.bit_length() per leaf; full pairs
    # n.bit_length() per node
    for n_leaves in (2, 7, 33):
        rng = random.Random(n_leaves)
        root = random_topology(rng, n_leaves, "mixed")
        assign_labels(root, rng)
        text = to_newick(root)
        pair = parse_pair(text, text)
        rep = size_report(pair)
        width = n_leaves.bit_length()
        assert rep.bp_bits + rep.map_bits == 2 * pair.n + width * n_leaves
        assert rep.total_bits == 2 * pair.n + width * n_leaves
        _assert_held(pair, rep)
        root = random_topology(rng, n_leaves, "mixed")
        assign_labels(root, rng, full=True)
        text = to_newick(root)
        pair = parse_pair(text, text, mode="full")
        rep = size_report(pair)
        assert rep.total_bits == (2 + pair.n.bit_length()) * pair.n
        _assert_held(pair, rep)
