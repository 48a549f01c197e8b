"""Balanced-parentheses encoding of an ordered rooted tree.

A tree with n nodes is the bit string of its depth-first walk: 1 opens a
node, 0 closes it, 2n bits in all.  Nodes are numbered 1..n in pre-order,
the order of their opening bits, and a node's position is the 1-based
index of its opening bit.  BpTree is those bits, packed, and nothing
more.  The parse, the distances and pack/unpack read them whole, through
to01 and packed_bytes, and subtree_sizes gives every node's subtree size
from the bits and one sort.

lca is the one query about single nodes, an O(n) numpy pass.  No code in
the package calls it.  It stays because the benchmark's traced round
(perfbench/tracing.py) wraps BpTree.lca by name, and the worked example
of the acceptance tests reads a join through it.
"""

import numpy as np


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
    """A tree as its bits.  packed_bytes holds them 8 to a byte, most
    significant bit first: position 1 is the high bit of byte 0, and the
    pad bits are zero."""

    __slots__ = ("packed_bytes", "n_nodes")

    def __init__(self, bits):
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        # checked before the cast, which would truncate 1.9 to 1
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("bits must contain only 0 and 1")
        arr = arr.astype(np.uint8, copy=False)
        if arr.size < 2 or arr.size % 2:
            raise ValueError("parenthesis sequence must have positive even length")

        cum = _excess(arr)
        if int(cum[-1]) != 0 or int(cum[:-1].min(initial=1)) < 1:
            raise ValueError("not a balanced sequence with a single root")

        self.packed_bytes = np.packbits(arr).tobytes()
        self.n_nodes = arr.size // 2

    def to01(self):
        """The bits as a new uint8 array of 0/1 values."""
        return np.unpackbits(np.frombuffer(self.packed_bytes, np.uint8),
                             count=2 * self.n_nodes)

    def lca(self, p: int, q: int) -> int:
        """Opening position of the lowest common ancestor of the nodes open
        at p and q.  The excess walk moves in unit steps, so it opens right
        after the last position before p whose excess is one below the
        least excess over [p..q].

        perfbench/tracing.py wraps this method by name, so it must not be
        renamed or removed until ROADMAP item 1 restates what the
        benchmark traces."""
        bits = self.to01()
        m = bits.size
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
