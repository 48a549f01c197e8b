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

Excess searches are served by a three-level structure: byte tables for
in-block scans, per-block minima at the leaves of a flat segment tree for
the rest.  The searches used here (matching parenthesis, the ancestor at
a given depth) both look for the first crossing of a target value, and
since the excess walk moves in unit steps the first block whose minimum
reaches the target must contain that crossing; a block whose minimum
stays above the target is passed over without a scan.  The root needs no
search: it closes at the last bit and is every node's ancestor.  lca
needs only the least excess between its two positions, not where it
lies: the ancestor is the nearest node opening before the left position
at that depth.
"""

import numpy as np

from .bitvec import BitVector

# Per-byte tables, MSB first.  The prefix excess of a byte after its j-th
# bit (j = 1..8) sums +1 per one and -1 per zero.  _BYTE_EXC holds the
# prefix after all eight bits, _BYTE_MIN its minimum over j, and
# _BYTE_FIRST / _BYTE_LAST at byte * 17 + d + 8 the first / last j whose
# prefix is d (-8 <= d <= 8), or 0 when no prefix is.
_BYTE_EXC = []
_BYTE_MIN = []
_BYTE_FIRST = bytearray(256 * 17)
_BYTE_LAST = bytearray(256 * 17)
for _b in range(256):
    _e = 0
    _mn = 9
    for _j in range(1, 9):
        _e += 1 if _b & (0x100 >> _j) else -1
        _mn = min(_mn, _e)
        _k = _b * 17 + _e + 8
        if not _BYTE_FIRST[_k]:
            _BYTE_FIRST[_k] = _j
        _BYTE_LAST[_k] = _j
    _BYTE_EXC.append(_e)
    _BYTE_MIN.append(_mn)


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
        self._bytes = self.bits.packed_bytes

        # block minima (absolute excess) under a flat segment tree
        bsize = 64 * self.bits.block_words
        self._bsize = bsize
        nb = -(-m // bsize)
        self._nb = nb
        starts = np.arange(nb) * bsize
        mins = np.minimum.reduceat(cum, starts)
        p2 = 1 << ((nb - 1).bit_length() if nb > 1 else 0)
        self._inf = m + 2
        seg = np.full(2 * p2, self._inf, dtype=np.int64)
        seg[p2:p2 + nb] = mins
        size = p2
        while size > 1:
            size >>= 1
            lo = 2 * size
            seg[size:lo] = np.minimum(seg[lo:2 * lo:2], seg[lo + 1:2 * lo:2])
        self._p2 = p2
        self._seg = seg.tolist()

    # ------------------------------------------------------------------
    # basics

    def _bit(self, p):
        return (self._bytes[(p - 1) >> 3] >> (7 - ((p - 1) & 7))) & 1

    def excess(self, p: int) -> int:
        """Depth measure: ones minus zeros in positions 1..p."""
        return 2 * self.bits.rank1(p) - p

    def pre_order_select(self, i: int) -> int:
        """Opening position of the i-th node in pre-order."""
        return self.bits.select1(i)

    # ------------------------------------------------------------------
    # tree queries

    def find_close(self, p: int) -> int:
        """Position of the closing bit matching the open at p."""
        if not 1 <= p <= self.n_bits or not self._bit(p):
            raise ValueError(f"{p} is not an opening position")
        if self._bit(p + 1) == 0:
            return p + 1
        if p == 1:
            return self.n_bits  # the sequence is one root's subtree
        e = self.excess(p)
        return self._fwd_excess(p, e, e - 1)

    def lca(self, p: int, q: int) -> int:
        """Opening position of the lowest common ancestor of two nodes."""
        by = self._bytes
        m = self.n_bits
        if not (0 < p <= m and 0 < q <= m
                and (by[(p - 1) >> 3] >> (7 - ((p - 1) & 7))) & 1
                and (by[(q - 1) >> 3] >> (7 - ((q - 1) & 7))) & 1):
            raise ValueError(f"lca needs two opening positions, got {p}, {q}")
        if p == q:
            return p
        if p > q:
            p, q = q, p
        if p == 1:
            return 1  # the root is every node's ancestor
        # the lca is the nearest node opening before p at the least excess
        # over [p..q]; every position from its opening to p lies inside it,
        # so the backward search for that depth minus one starts at p
        low = self._min_excess(p, q)
        return self._bwd_excess(p, self.excess(p - 1), low - 1) + 1

    def cluster_size(self, p: int) -> int:
        """Number of nodes in the subtree rooted at p."""
        return (self.find_close(p) - p + 1) // 2

    def support_bits(self) -> int:
        """Directory overhead in bits: bit-vector directories and the
        32-bit-per-entry block-minimum tree."""
        return self.bits.support_bits() + 32 * len(self._seg)

    # ------------------------------------------------------------------
    # excess searches

    def _fwd_excess(self, p, e, target):
        """Smallest q > p with excess(q) == target, given e == excess(p).
        Sound when every position strictly between p and the answer has
        excess above target, which holds for matching-parenthesis
        searches."""
        m = self.n_bits
        by = self._bytes
        q = p
        if q & 7:
            byte = by[q >> 3]
            while q & 7:
                if q >= m:
                    raise ValueError("no forward match")
                e += 1 if (byte >> (7 - (q & 7))) & 1 else -1
                q += 1
                if e == target:
                    return q
        bsize = self._bsize
        blk_end = min(m, (q // bsize + 1) * bsize)
        if self._seg[self._p2 + q // bsize] > target:
            blk_end = q  # the block never reaches target: no scan
        while True:
            while q + 8 <= blk_end:
                byte = by[q >> 3]
                if e + _BYTE_MIN[byte] <= target:
                    return q + _byte_first(byte, target - e)
                e += _BYTE_EXC[byte]
                q += 8
            while q < blk_end:
                e += 1 if (by[q >> 3] >> (7 - (q & 7))) & 1 else -1
                q += 1
                if e == target:
                    return q
            if q >= m:
                raise ValueError("no forward match")
            b = self._seg_next(q // bsize, target)
            if b < 0:
                raise ValueError("no forward match")
            q = b * bsize
            e = 2 * self.bits.rank1(q) - q
            blk_end = min(m, q + bsize)

    def _bwd_excess(self, p, e, target):
        """Largest q < p with excess(q) == target (q may be 0), given
        e == excess(p - 1).  Sound under the mirror of the _fwd_excess
        condition."""
        by = self._bytes
        q = p - 1
        if q & 7:
            byte = by[q >> 3]
            while q & 7:
                if e == target:
                    return q
                e -= 1 if (byte >> (8 - (q & 7))) & 1 else -1
                q -= 1
        if e == target:
            return q
        bsize = self._bsize
        seg = self._seg
        p2 = self._p2
        while True:
            blk_start = ((q - 1) // bsize) * bsize if q else 0
            if q and seg[p2 + (q - 1) // bsize] > target:
                q = blk_start  # the block never reaches target: skip it
            while q > blk_start:
                byte = by[(q >> 3) - 1]
                tot = _BYTE_EXC[byte]
                if e - tot + _BYTE_MIN[byte] <= target:
                    return q - 8 + _byte_last(byte, target - e + tot)
                e -= tot
                q -= 8
            if q == 0:
                break
            b = self._seg_prev(q // bsize - 1, target)
            if b < 0:
                break
            q = (b + 1) * bsize
            e = 2 * self.bits.rank1(q) - q
            if e == target:
                return q
        if target == 0:
            return 0
        raise ValueError("no backward match")

    def _scan_min(self, a, b):
        """Least excess over positions [a..b]."""
        by = self._bytes
        e = 2 * self.bits.rank1(a - 1) - (a - 1)
        low = self._inf
        q = a - 1
        while q < b and q & 7:
            e += 1 if (by[q >> 3] >> (7 - (q & 7))) & 1 else -1
            q += 1
            if e < low:
                low = e
        while q + 8 <= b:
            byte = by[q >> 3]
            if e + _BYTE_MIN[byte] < low:
                low = e + _BYTE_MIN[byte]
            e += _BYTE_EXC[byte]
            q += 8
        while q < b:
            e += 1 if (by[q >> 3] >> (7 - (q & 7))) & 1 else -1
            q += 1
            if e < low:
                low = e
        return low

    def _min_excess(self, l, r):
        """Least excess over positions [l..r]."""
        bsize = self._bsize
        bl = (l - 1) // bsize
        br = (r - 1) // bsize
        if bl == br:
            return self._scan_min(l, r)
        low = min(self._scan_min(l, (bl + 1) * bsize),
                  self._scan_min(br * bsize + 1, r))
        if br > bl + 1:
            low = min(low, self._seg_range_min(bl + 1, br - 1))
        return low

    # ------------------------------------------------------------------
    # segment tree over block minima

    def _seg_range_min(self, lo, hi):
        """Minimum over blocks lo..hi."""
        seg = self._seg
        low = self._inf
        i = self._p2 + lo
        j = self._p2 + hi + 1
        while i < j:
            if i & 1:
                if seg[i] < low:
                    low = seg[i]
                i += 1
            if j & 1:
                j -= 1
                if seg[j] < low:
                    low = seg[j]
            i >>= 1
            j >>= 1
        return low

    def _seg_next(self, b, target):
        """Smallest block index >= b whose minimum is <= target, else -1."""
        if b >= self._nb:
            return -1
        seg = self._seg
        p2 = self._p2
        i = p2 + b
        while seg[i] > target:
            # climb past every level where i is a right child
            i >>= (i ^ (i + 1)).bit_length() - 1
            if i <= 1:
                return -1
            i += 1
        while i < p2:
            i *= 2
            if seg[i] > target:
                i += 1
        return i - p2

    def _seg_prev(self, b, target):
        """Largest block index <= b whose minimum is <= target, else -1."""
        if b < 0:
            return -1
        seg = self._seg
        p2 = self._p2
        i = p2 + b
        while seg[i] > target:
            # climb past every level where i is a left child
            i >>= (i & -i).bit_length() - 1
            if i <= 1:
                return -1
            i -= 1
        while i < p2:
            i = 2 * i + 1
            if seg[i] > target:
                i -= 1
        return i - p2


def _byte_first(byte, d):
    """1-based offset of the first prefix of byte whose excess is d."""
    j = _BYTE_FIRST[byte * 17 + d + 8]
    if not j:
        raise AssertionError("excess directory out of sync")
    return j


def _byte_last(byte, d):
    """1-based offset of the last prefix of byte whose excess is d."""
    j = _BYTE_LAST[byte * 17 + d + 8]
    if not j:
        raise AssertionError("excess directory out of sync")
    return j
