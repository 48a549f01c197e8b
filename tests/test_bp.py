import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bprf.bp import BpTree, subtree_sizes

from conftest import (PNode, encode_bits, preorder, random_topology,
                      rank1_scan, select_scan)

# parenthesis bits of the two worked trees used throughout the test suite
T4_BITS = [int(c) for c in "11110100100110101000"]
T5_BITS = [int(c) for c in "11101010011011010000"]


# ----------------------------------------------------------------------
# frozen walkthrough values


def test_t4_navigation():
    t = BpTree(T4_BITS)
    bits = t.to01().tolist()
    assert t.n_nodes == 10
    assert select_scan(bits, 1, 3) == 3
    assert rank1_scan(bits, 9) == 6
    # the leaves open at 4 and 6 are the children of the node open at 3,
    # which with the leaf open at 9 are the children of the node open at 2
    assert t.lca(4, 6) == 3
    assert t.lca(6, 9) == 2
    # (((A,B),C),(D,E,F)) in pre-order
    assert subtree_sizes(t.to01()).tolist() == [10, 5, 3, 1, 1, 1, 4, 1, 1, 1]


def test_t5_navigation():
    t = BpTree(T5_BITS)
    # leaves A and B sit at positions 14 and 11; their join is the node
    # open at 10, pre-order index 6
    assert t.lca(14, 11) == 10
    assert rank1_scan(t.to01().tolist(), 10) == 6
    assert t.lca(5, 5) == 5
    with pytest.raises(ValueError):
        t.lca(4, 4)  # position 4 closes a node
    # ((D,E,F),(B,(A,C))) in pre-order
    assert subtree_sizes(t.to01()).tolist() == [10, 4, 1, 1, 1, 5, 1, 3, 1, 1]


def test_bit_access():
    for bits in (T4_BITS, T5_BITS):
        out = BpTree(bits).to01()
        assert out.dtype == np.uint8
        assert out.tolist() == bits


def test_packed_bytes_layout():
    """Position 1 lands in the high bit of byte 0; the pad bits are zero."""
    t = BpTree([int(c) for c in "111010010100"])
    assert t.packed_bytes == bytes([0b11101001, 0b01000000])


# ----------------------------------------------------------------------
# constructor validation


def test_accepts_minimal_trees():
    assert BpTree([1, 0]).n_nodes == 1
    assert BpTree([1, 1, 0, 0]).n_nodes == 2
    assert BpTree(np.array([True, False])).n_nodes == 1
    assert BpTree(np.array([1.0, 0.0])).to01().tolist() == [1, 0]


def test_unbalanced_and_forest_rejected():
    for bits in ([1, 0, 1, 0],  # two roots
                 [1, 1, 0, 1],
                 [0, 1],
                 [1, 0, 0, 1]):
        with pytest.raises(ValueError, match="balanced"):
            BpTree(bits)


def test_argument_validation():
    with pytest.raises(ValueError, match="one-dimensional"):
        BpTree([[1, 0]])
    with pytest.raises(ValueError, match="one-dimensional"):
        BpTree(np.uint8(1))
    for bits in ([], [1], [1, 1, 0]):
        with pytest.raises(ValueError, match="positive even length"):
            BpTree(bits)


@pytest.mark.parametrize("bits", [
    [1, 2, 0, 0],
    [1, -1],
    [1, 256, 0, 0],  # 0 once cast to uint8
    np.array([1, 2, 0, 0], dtype=np.uint8),
    np.array([1.9, 1.2, 0.5, 1.0, 0.0, 0.0]),  # 110100 once truncated
    np.array([1.0, np.nan]),
])
def test_rejects_values_other_than_0_and_1(bits):
    with pytest.raises(ValueError, match="only 0 and 1"):
        BpTree(bits)


def test_lca_rejects_non_opening_positions():
    t = BpTree(T4_BITS)
    assert t.lca(4, 4) == 4
    assert t.lca(1, 4) == 1
    for p, q in ((5, 5), (5, 4), (4, 5), (1, 20), (0, 4), (4, 21), (21, 21),
                 (-1, 1)):
        with pytest.raises(ValueError):
            t.lca(p, q)


# ----------------------------------------------------------------------
# pointer-tree oracle comparison


def _oracle_maps(root):
    """parent, depth and subtree node count per node."""
    parent = {id(root): None}
    depth = {id(root): 1}
    order = preorder(root)
    for v in order:
        for c in v.children:
            parent[id(c)] = v
            depth[id(c)] = depth[id(v)] + 1
    size = {}
    for v in reversed(order):
        size[id(v)] = 1 + sum(size[id(c)] for c in v.children)
    return parent, depth, size


def _oracle_lca(parent, depth, a, b):
    while depth[id(a)] > depth[id(b)]:
        a = parent[id(a)]
    while depth[id(b)] > depth[id(a)]:
        b = parent[id(b)]
    while a is not b:
        a = parent[id(a)]
        b = parent[id(b)]
    return a


def _check_sizes(root):
    """Assert subtree_sizes of the tree's bits equals the oracle's counts
    in pre-order, and return the oracle's maps."""
    bits, _ = encode_bits(root)
    maps = _oracle_maps(root)
    size = maps[2]
    got = subtree_sizes(np.array(bits, dtype=np.uint8))
    assert got.dtype == np.int32
    assert got.tolist() == [size[id(v)] for v in preorder(root)]
    return maps


@given(st.integers(0, 10_000), st.integers(1, 80),
       st.sampled_from(["binary", "random"]))
@settings(max_examples=120, deadline=None)
def test_subtree_sizes_match_pointer_oracle(seed, n_leaves, arity):
    _check_sizes(random_topology(random.Random(seed), n_leaves, arity))


@pytest.mark.parametrize("depth", [1_000, 2 ** 15 + 10])
def test_subtree_sizes_caterpillar(depth):
    """A binary caterpillar: a leaf and the rest of the spine under each
    spine node.  Its deepest level is depth - 1, so levels below 2**15
    take the int16 sort keys and the deeper one the int32 keys."""
    root = v = PNode()
    for _ in range(depth - 1):
        v.children = [PNode(), PNode()]
        v = v.children[1]
    _, depths, _ = _check_sizes(root)
    assert max(depths.values()) == depth


@given(st.integers(0, 10_000), st.integers(2, 60),
       st.sampled_from(["binary", "random"]))
@settings(max_examples=120, deadline=None)
def test_navigation_matches_pointer_oracle(seed, n_leaves, arity):
    rng = random.Random(seed)
    root = random_topology(rng, n_leaves, arity)
    bits, positions = encode_bits(root)
    t = BpTree(bits)
    nodes = preorder(root)
    pos_of = {id(v): positions[i] for i, v in enumerate(nodes)}

    assert t.n_nodes == len(nodes)
    assert t.to01().tolist() == bits
    for i, v in enumerate(nodes):
        p = pos_of[id(v)]
        assert select_scan(bits, 1, i + 1) == p
        # adjacent siblings meet at their parent
        for a, b in zip(v.children, v.children[1:]):
            assert t.lca(pos_of[id(a)], pos_of[id(b)]) == p


@given(st.integers(0, 10_000), st.integers(2, 40))
@settings(max_examples=80, deadline=None)
def test_lca_matches_pointer_oracle(seed, n_leaves):
    rng = random.Random(seed)
    root = random_topology(rng, n_leaves, "random")
    bits, positions = encode_bits(root)
    t = BpTree(bits)
    nodes = preorder(root)
    parent, depth, _ = _oracle_maps(root)
    pos_of = {id(v): positions[i] for i, v in enumerate(nodes)}
    for _ in range(30):
        a, b = rng.choice(nodes), rng.choice(nodes)
        want = _oracle_lca(parent, depth, a, b)
        assert t.lca(pos_of[id(a)], pos_of[id(b)]) == pos_of[id(want)]


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_lca_on_large_trees(seed):
    """Trees of 6,000 nodes: lca of random pairs and of ancestor pairs,
    whose answers lie near the root or deep down."""
    rng = random.Random(seed)
    root = random_topology(rng, 3000, "binary")
    bits, positions = encode_bits(root)
    t = BpTree(bits)
    nodes = preorder(root)
    parent, depth, _ = _oracle_maps(root)
    pos_of = {id(v): positions[i] for i, v in enumerate(nodes)}
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(300)]
    for _ in range(100):  # a node and one of its descendants
        a = b = rng.choice(nodes)
        while b.children and rng.random() < 0.9:
            b = rng.choice(b.children)
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    for a, b in pairs:
        want = pos_of[id(_oracle_lca(parent, depth, a, b))]
        assert t.lca(pos_of[id(a)], pos_of[id(b)]) == want


@given(st.integers(0, 10_000), st.integers(2, 50))
@settings(max_examples=60, deadline=None)
def test_matching_and_postorder(seed, n_leaves):
    """Every node's subtree size is half the span from its opening bit to
    the closing bit that pops it off a stack of opening positions, met in
    post-order."""
    rng = random.Random(seed)
    root = random_topology(rng, n_leaves, "random")
    bits, _ = encode_bits(root)
    size = subtree_sizes(BpTree(bits).to01())
    stack = []
    opened = 0
    for c, b in enumerate(bits, start=1):
        if b:
            stack.append((c, opened))  # position, 0-based pre-order index
            opened += 1
        else:
            p, i = stack.pop()
            assert size[i] == (c - p + 1) // 2


def test_deep_caterpillar():
    """A unary spine as deep as the node count."""
    n = 5_000
    bits = [1] * n + [1, 0] + [0] * n
    t = BpTree(bits)
    assert t.n_nodes == n + 1
    assert subtree_sizes(t.to01()).tolist() == list(range(n + 1, 0, -1))
    deep = select_scan(bits, 1, n + 1)
    assert t.lca(deep, 1) == 1
    assert t.lca(deep, n) == n
    assert t.lca(n // 2, deep) == n // 2
