"""Static bit vector: the packed bits and the rank and select over them.

Positions are 1-based and rank queries are inclusive: rank1(p) counts ones
in positions 1..p, rank1(0) == 0.  The queries are rank1 and select1: the
balanced-parentheses tree needs no more.

The payload is packed 8 bits per byte, most significant bit first, so
position 1 is the high bit of byte 0, and it is held once, as a `bytes`
object.  Nothing else is held.  rank1 is one popcount over the payload
up to p, and select1 one pass over the unpacked bits, so each query is
O(n); the distance computation makes neither and reads the bits whole.
"""

import numpy as np


class BitVector:
    """Immutable 0/1 vector supporting rank1 and select1."""

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and int(arr.max()) > 1:
            raise ValueError("bits must contain only 0 and 1")
        self.n_bits = int(arr.size)
        self._payload = np.packbits(arr).tobytes()

    def to01(self):
        """The payload as a uint8 array of 0/1 values."""
        packed = np.frombuffer(self._payload, np.uint8)
        return np.unpackbits(packed)[: self.n_bits]

    @property
    def packed_bytes(self) -> bytes:
        """Payload packed MSB-first, position 1 in the high bit of byte 0;
        the object the vector holds, not a copy."""
        return self._payload

    def rank1(self, p: int) -> int:
        if not 0 <= p <= self.n_bits:
            raise ValueError(f"position {p} out of range 0..{self.n_bits}")
        e = (p + 7) >> 3
        x = int.from_bytes(self._payload[:e], "big")
        return (x >> ((e << 3) - p)).bit_count()

    def select1(self, i: int) -> int:
        """Position of the i-th one (1-based)."""
        ones = np.flatnonzero(self.to01().view(bool))
        if not 1 <= i <= ones.size:
            raise ValueError(f"select1 index {i} out of range 1..{ones.size}")
        return int(ones[i - 1]) + 1
