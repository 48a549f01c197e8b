import random

import pytest
from hypothesis import given, settings, strategies as st

from bprf.bp import BpTree

from conftest import PNode, encode_bits, preorder, random_topology

T4_BITS = [int(c) for c in "11110100100110101000"]
T5_BITS = [int(c) for c in "11101010011011010000"]


# ----------------------------------------------------------------------
# frozen walkthrough values


def test_t4_navigation():
    t = BpTree(T4_BITS)
    assert t.n_nodes == 10
    assert t.find_close(3) == 8
    assert t.pre_order_select(3) == 3
    assert t.bits.rank1(9) == 6
    # the leaves open at 4 and 6 are the children of the node open at 3,
    # which with the leaf open at 9 are the children of the node open at 2
    assert t.lca(4, 6) == 3
    assert t.lca(6, 9) == 2
    assert t.cluster_size(3) == 3
    assert t.find_close(1) == 20


def test_t5_navigation():
    t = BpTree(T5_BITS)
    # leaves A and B sit at positions 14 and 11; their join is the node
    # open at 10, pre-order index 6
    assert t.lca(14, 11) == 10
    assert t.bits.rank1(10) == 6
    assert t.lca(5, 5) == 5
    with pytest.raises(ValueError):
        t.lca(4, 4)  # position 4 closes a node


def test_accepts_minimal_trees():
    assert BpTree([1, 0]).n_nodes == 1
    assert BpTree([1, 1, 0, 0]).n_nodes == 2


def test_unbalanced_and_forest_rejected():
    with pytest.raises(ValueError):
        BpTree([1, 0, 1, 0])  # two roots
    with pytest.raises(ValueError):
        BpTree([1, 1, 0])
    with pytest.raises(ValueError):
        BpTree([0, 1])
    with pytest.raises(ValueError):
        BpTree([1, 0, 0, 1])


def test_argument_validation():
    t = BpTree(T4_BITS)
    with pytest.raises(ValueError):
        t.find_close(5)  # closing position
    with pytest.raises(ValueError):
        t.cluster_size(21)  # past the end
    with pytest.raises(ValueError):
        t.pre_order_select(11)


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


@given(st.integers(0, 10_000), st.integers(2, 60),
       st.sampled_from(["binary", "random"]))
@settings(max_examples=120, deadline=None)
def test_navigation_matches_pointer_oracle(seed, n_leaves, arity):
    rng = random.Random(seed)
    root = random_topology(rng, n_leaves, arity)
    bits, positions = encode_bits(root)
    t = BpTree(bits)
    nodes = preorder(root)
    _, depth, size = _oracle_maps(root)
    pos_of = {id(v): positions[i] for i, v in enumerate(nodes)}

    assert t.n_nodes == len(nodes)
    for i, v in enumerate(nodes):
        p = pos_of[id(v)]
        assert t.bits.rank1(p) == i + 1
        assert t.pre_order_select(i + 1) == p
        assert t.cluster_size(p) == size[id(v)]
        assert t.excess(p) == depth[id(v)]
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
def test_lca_and_find_close_across_blocks(seed):
    """Trees of 6,000 nodes: lca of random pairs and of ancestor pairs,
    whose answers lie near the root or deep down, and find_close at every
    node."""
    rng = random.Random(seed)
    root = random_topology(rng, 3000, "binary")
    bits, positions = encode_bits(root)
    t = BpTree(bits)
    nodes = preorder(root)
    parent, depth, size = _oracle_maps(root)
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
    for v in nodes:
        p = pos_of[id(v)]
        assert t.find_close(p) == p + 2 * size[id(v)] - 1


@given(st.integers(0, 10_000), st.integers(2, 50))
@settings(max_examples=60, deadline=None)
def test_matching_and_postorder(seed, n_leaves):
    """find_close at every node, met in post-order as a stack of
    opening positions pops them."""
    rng = random.Random(seed)
    root = random_topology(rng, n_leaves, "random")
    bits, _ = encode_bits(root)
    t = BpTree(bits)
    stack = []
    for c, b in enumerate(bits, start=1):
        if b:
            stack.append(c)
        else:
            assert t.find_close(stack.pop()) == c


def test_deep_caterpillar():
    """A unary spine as deep as the node count must not trip the searches."""
    n = 5_000
    bits = [1] * n + [1, 0] + [0] * n
    t = BpTree(bits)
    assert t.n_nodes == n + 1
    assert t.find_close(1) == len(bits)
    assert t.find_close(n) == n + 3
    assert t.find_close(n // 2) == len(bits) - n // 2 + 1
    deep = t.pre_order_select(n + 1)
    assert t.lca(deep, 1) == 1
    assert t.lca(deep, n) == n
    assert t.lca(n // 2, deep) == n // 2
    assert t.cluster_size(1) == n + 1
