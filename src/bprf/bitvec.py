"""Static bit vector with constant-time rank and near-constant select.

Positions are 1-based and rank queries are inclusive: rank1(p) counts ones
in positions 1..p, rank1(0) == 0.  The queries are rank1 and select1: the
balanced-parentheses tree needs no more.

Layout: the payload is packed 8 bits per byte, most significant bit first,
so position 1 is the high bit of byte 0, and is held once, as a `bytes`
object.  On top of that sit two count directories, one absolute (64-bit
entries, one per superblock) and one relative (16-bit entries, one per
block of 64-bit words).  Block size grows slowly with the vector
length, which keeps the directory overhead a shrinking fraction of the
payload while an in-block rank is one popcount of the block's bytes up to
the position.  Select runs two binary searches over the count directories,
then counts the block's words and finishes inside a byte with a table.
"""

from bisect import bisect_left

import numpy as np

_BYTE_POP = bytes(bin(i).count("1") for i in range(256))

# _SEL_BYTE[byte * 8 + k] = offset (0 = MSB) of the (k+1)-th set bit of byte.
_SEL_BYTE = bytearray(256 * 8)
for _b in range(256):
    _k = 0
    for _j in range(8):
        if _b & (0x80 >> _j):
            _SEL_BYTE[_b * 8 + _k] = _j
            _k += 1


def _popcount_words(a):
    """Vectorized 64-bit popcount (build time only; queries use int.bit_count)."""
    a = a - ((a >> np.uint64(1)) & np.uint64(0x5555555555555555))
    a = (a & np.uint64(0x3333333333333333)) + ((a >> np.uint64(2)) & np.uint64(0x3333333333333333))
    a = (a + (a >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (a * np.uint64(0x0101010101010101)) >> np.uint64(56)


class BitVector:
    """Immutable 0/1 vector supporting rank1 and select1."""

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and int(arr.max()) > 1:
            raise ValueError("bits must contain only 0 and 1")
        m = int(arr.size)
        self.n_bits = m

        self._payload = np.packbits(arr).tobytes()
        pad = bytes(-len(self._payload) % 8)
        words = np.frombuffer(self._payload + pad, dtype=">u8").astype(np.uint64)
        nwords = len(words)

        # Geometry: blocks of `bw` words, superblocks of 16 blocks.  16-bit
        # relative counts need 16 * bw * 64 < 2**16, i.e. bw <= 63.
        bw = max(1, m.bit_length() // 8)
        self.block_words = bw
        self._block_bytes = 8 * bw
        nblk = max(1, -(-nwords // bw)) if nwords else 1
        nsb = -(-nblk // 16)

        pop = _popcount_words(words).astype(np.int64)
        cum1 = np.concatenate([[0], np.cumsum(pop)])

        sb_word = np.minimum(np.arange(nsb + 1) * 16 * bw, nwords)
        blk_word = np.minimum(np.arange(nblk) * bw, nwords)
        sb_of_blk = np.arange(nblk) // 16

        sb1 = cum1[sb_word]
        blk1 = (cum1[blk_word] - sb1[sb_of_blk]).astype(np.uint16)

        # Queries run on list mirrors: rank reads entries as plain ints and
        # select bisects the same lists, bounded to one superblock's blocks.
        self._sb1, self._blk1 = sb1.tolist(), blk1.tolist()
        self._nblk = nblk

    # ------------------------------------------------------------------
    # raw access

    def to01(self):
        """The payload as a uint8 array of 0/1 values."""
        packed = np.frombuffer(self._payload, np.uint8)
        return np.unpackbits(packed)[: self.n_bits]

    @property
    def packed_bytes(self) -> bytes:
        """Payload packed MSB-first, position 1 in the high bit of byte 0;
        the object the vector holds, not a copy."""
        return self._payload

    # ------------------------------------------------------------------
    # rank

    def rank1(self, p: int) -> int:
        if not 0 <= p <= self.n_bits:
            raise ValueError(f"position {p} out of range 0..{self.n_bits}")
        if p == 0:
            return 0
        blk = ((p - 1) >> 6) // self.block_words
        s = blk * self._block_bytes
        e = (p + 7) >> 3
        x = int.from_bytes(self._payload[s:e], "big")
        return (self._sb1[blk >> 4] + self._blk1[blk]
                + (x >> ((e << 3) - p)).bit_count())

    # ------------------------------------------------------------------
    # select

    def select1(self, i: int) -> int:
        """Position of the i-th one (1-based)."""
        total = self._sb1[-1]
        if not 1 <= i <= total:
            raise ValueError(f"select1 index {i} out of range 1..{total}")
        s = bisect_left(self._sb1, i) - 1
        j = i - self._sb1[s]
        lo = s << 4
        b = bisect_left(self._blk1, j, lo, min(self._nblk, lo + 16)) - 1
        j -= self._blk1[b]
        by = self._payload
        k = b * self._block_bytes
        while (c := int.from_bytes(by[k:k + 8], "big").bit_count()) < j:
            j -= c
            k += 8
        while (c := _BYTE_POP[by[k]]) < j:
            j -= c
            k += 1
        return (k << 3) + _SEL_BYTE[(by[k] << 3) | (j - 1)] + 1

    # ------------------------------------------------------------------

    def support_bits(self) -> int:
        """Directory overhead in bits, by declared entry width (64-bit
        superblock counts, 16-bit block counts); payload and mirrors excluded."""
        return 64 * len(self._sb1) + 16 * len(self._blk1)
