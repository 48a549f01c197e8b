"""Balanced-parentheses encoding of an ordered rooted tree.

A tree with n nodes is the bit vector of its depth-first walk: 1 opens a
node, 0 closes it, 2n bits total.  Node identity is carried two ways and
both are 1-based: a position (index of an opening bit) and a pre-order
index.  excess(p), the ones minus the zeros in positions 1..p, is the
depth of the node open at position p, and rank1(p) of the bit vector
is that node's pre-order index.  BpTree answers one node at a time:
pre_order_select (one select1), lca and cluster_size (find_close).
subtree_sizes answers cluster_size for every node at once, from the bits
and one sort; the distance computation uses only that.

The tree holds its bits and nothing more.  Each single-node query is
one numpy pass over the bits, O(n).  The excess walk moves in unit
steps, so find_close(p) is the first position after p whose excess is
excess(p) - 1, and lca(p, q) opens right after the last position before
p whose excess is one below the least excess over [p..q].
subtree_sizes and the distance computation need none of them.
"""

import numpy as np

from .bitvec import BitVector


def _excess(bits):
    """Ones minus zeros in positions 1..p for every p, as int32: the
    depth of the node open at p.  The steps are int8, so no wider copy of
    the bits is made."""
    step = bits.view(np.int8) * np.int8(2)
    step -= 1
    return np.add.accumulate(step, dtype=np.int32)


def subtree_sizes(bits):
    """Every node's subtree size in nodes, by 0-based pre-order index, as
    int32; bits is a balanced 0/1 uint8 array.

    A node's opening and closing bits share a level, excess minus bit,
    and at each level the bits alternate open, close in position order.
    So one stable sort of the positions by level pairs every opening bit
    with its closing bit.  Levels below 2**15 are sorted as int16 keys,
    which numpy radix-sorts."""
    key = _excess(bits)
    key -= bits
    if key.max() < 2 ** 15:
        key = key.astype(np.int16)
    order = key.argsort(kind="stable").astype(np.int32)
    opens, closes = order[0::2], order[1::2]
    sizes = np.empty(order.size // 2, np.int32)
    # of the p bits before an opening bit at p, key[p] more are ones than
    # zeros, so (p + key[p]) / 2 are ones: its 0-based pre-order index
    sizes[(opens + key[opens]) >> 1] = (closes - opens + 1) >> 1
    return sizes




class BpTree:
    """Queries over a balanced-parentheses tree encoding."""

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        self.bits = BitVector(arr)
        m = self.bits.n_bits
        if m < 2 or m % 2:
            raise ValueError("parenthesis sequence must have positive even length")

        cum = _excess(arr)
        if int(cum[-1]) != 0 or int(cum[:-1].min(initial=1)) < 1:
            raise ValueError("not a balanced sequence with a single root")

        self.n_bits = m
        self.n_nodes = m // 2

    def excess(self, p: int) -> int:
        """Depth measure: ones minus zeros in positions 1..p."""
        return 2 * self.bits.rank1(p) - p

    def pre_order_select(self, i: int) -> int:
        """Opening position of the i-th node in pre-order."""
        return self.bits.select1(i)

    def find_close(self, p: int) -> int:
        """Position of the closing bit matching the open at p."""
        bits = self.bits.to01()
        if not 1 <= p <= self.n_bits or not bits[p - 1]:
            raise ValueError(f"{p} is not an opening position")
        # the first position after p where the excess counted from p
        # falls back to 0
        return p + int(np.argmax(_excess(bits[p - 1:]) == 0))

    def lca(self, p: int, q: int) -> int:
        """Opening position of the lowest common ancestor of two nodes.

        perfbench/tracing.py wraps this method by name, so it must not be
        renamed or removed until ROADMAP item 5 restates what the
        benchmark traces."""
        bits = self.bits.to01()
        m = self.n_bits
        if not (0 < p <= m and 0 < q <= m and bits[p - 1] and bits[q - 1]):
            raise ValueError(f"lca needs two opening positions, got {p}, {q}")
        if p == q:
            return p
        if p > q:
            p, q = q, p
        exc = _excess(bits[:q])
        up = np.flatnonzero(exc[:p - 1] == exc[p - 1:].min() - 1)
        # with none, it is position 0, before the root, at excess 0
        return int(up[-1]) + 2 if up.size else 1

    def cluster_size(self, p: int) -> int:
        """Number of nodes in the subtree rooted at p."""
        return (self.find_close(p) - p + 1) // 2
