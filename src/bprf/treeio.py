"""Bit-exact serialization and the size accounting.

A packed tree, format version 2, is: magic "SBPT", version byte, flags
byte (bit 0 marks a weight block), node count n as unsigned 64-bit
little-endian, the bit vector in ceil(2n/8) bytes, the labelled-node
count as unsigned 32-bit little-endian, the labelled-node bitmap in
ceil(n/8) bytes (node i at bit i - 1), the names of the labelled nodes
in pre-order, each in UTF-8 and followed by one newline, and, when
flagged, n doubles little-endian.  Both bit sections hold their first
bit in the most significant bit of their first byte, and their pad bits
are zero.  A newline can end a name because every name is one newick
label token, which holds no whitespace, and UTF-8 never puts the byte
0x0A inside a multi-byte character.  Version 1, with a varint record
per label, is not read.

Decoding validates everything it touches: magic, version, flag bits,
truncation at each step, pad bits, structural validity of the bit
vector, the bitmap against the label count, UTF-8, and trailing
garbage.  Encoding and decoding both accept only what write_newick can
write back as the same tree: no internal node has a single child, every
leaf has a name, every name is one non-empty newick label token, no name
sits on two nodes, and every weight is finite.  The contract is
decode(encode(x)) == x down to the bit, and encode raises where decode
would.
"""

import struct
from dataclasses import dataclass, fields

import numpy as np

from .bp import BpTree, subtree_sizes
from .newick import _LABEL, TreePair

MAGIC = b"SBPT"
VERSION = 2
_FLAG_WEIGHTS = 1


class PackError(ValueError):
    """Corrupt or unsupported packed-tree bytes."""


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, k, what):
        if self.pos + k > len(self.data):
            raise PackError(f"truncated {what}")
        b = self.data[self.pos:self.pos + k]
        self.pos += k
        return b

    def bits(self, m, what):
        """The next ceil(m/8) bytes as m bits, a 0/1 uint8 array."""
        raw = bytes(self.take((m + 7) // 8, what))
        if m % 8 and raw[-1] & (0xFF >> m % 8):
            raise PackError(f"nonzero padding bits in {what}")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=m)


def _check_writable(bits, names, w):
    """Raise PackError unless write_newick can write the tree back as the
    same tree.  bits is the 0/1 array, names a name or None per node in
    pre-order, w the weights or None."""
    # a node has one child when its first child, the next node in
    # pre-order, holds all of its subtree but itself
    size = subtree_sizes(bits)
    single = np.flatnonzero(size[:-1] == size[1:] + 1)
    if single.size:
        raise PackError(f"node {single[0] + 1} has a single child")
    seen = set()
    for i, name in enumerate(names, 1):
        if name is None:
            continue
        if not _LABEL.fullmatch(name):
            raise PackError(f"label {name!r} for node {i} is not a newick "
                            "label")
        if name in seen:
            raise PackError(f"label {name!r} repeated on node {i}")
        seen.add(name)
    for i in np.flatnonzero(size == 1).tolist():
        if names[i] is None:
            raise PackError(f"leaf {i + 1} has no label")
    if w is not None:
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise PackError(f"weight of node {bad[0] + 1} is not finite")


def pack(tree: BpTree, names, weights=None) -> bytes:
    """Canonical bytes for one tree; deterministic for identical inputs.
    names and weights hold node i's name and weight in slot i-1, as
    parse_tree gives them; ValueError when either has not one slot per
    node, PackError for a tree that unpack would reject."""
    n = tree.n_nodes
    if len(names) != n:
        raise ValueError(f"names must have length {n}")
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype="<f8")
        if w.shape != (n,):
            raise ValueError(f"weight vector must have length {n}")
    _check_writable(tree.to01(), names, w)

    labelled = np.array([name is not None for name in names])
    out = bytearray(MAGIC)
    out.append(VERSION)
    out.append(_FLAG_WEIGHTS if w is not None else 0)
    out += struct.pack("<Q", n)
    out += tree.packed_bytes
    out += struct.pack("<I", int(labelled.sum()))
    out += np.packbits(labelled).tobytes()
    out += "".join(name + "\n" for name in names
                   if name is not None).encode("utf-8")
    if w is not None:
        out += w.tobytes()
    return bytes(out)


def unpack(data: bytes):
    """Exact inverse of pack: (BpTree, names tuple, weights or None)."""
    r = _Reader(data)
    if bytes(r.take(4, "header")) != MAGIC:
        raise PackError("bad magic")
    version = r.take(1, "header")[0]
    if version != VERSION:
        raise PackError(f"unsupported version {version}")
    flags = r.take(1, "header")[0]
    if flags & ~_FLAG_WEIGHTS:
        raise PackError(f"unknown flag bits 0x{flags:02x}")
    (n,) = struct.unpack("<Q", r.take(8, "node count"))
    if n == 0:
        raise PackError("node count is zero")

    bits = r.bits(2 * n, "bit vector")
    try:
        tree = BpTree(bits)
    except ValueError as e:
        raise PackError(f"bit vector is not a tree: {e}") from None

    (count,) = struct.unpack("<I", r.take(4, "label count"))
    labelled = np.flatnonzero(r.bits(n, "label bitmap")).tolist()
    if len(labelled) != count:
        raise PackError(f"label bitmap marks {len(labelled)} nodes, "
                        f"label count is {count}")
    parts = bytes(data[r.pos:]).split(b"\n", count)
    if len(parts) <= count:
        raise PackError("truncated label bytes")
    r.pos = len(data) - len(parts[-1])
    names = [None] * n
    for i, raw in zip(labelled, parts):
        try:
            names[i] = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise PackError(f"label for node {i + 1} is not UTF-8") from None

    w = None
    if flags & _FLAG_WEIGHTS:
        wb = r.take(8 * n, "weight block")
        w = np.frombuffer(bytes(wb), dtype="<f8").astype(np.float64)
    if r.pos != len(data):
        raise PackError("trailing bytes after payload")
    _check_writable(bits, names, w)
    return tree, tuple(names), w


@dataclass(frozen=True)
class SizeReport:
    """Bits declared per pair component, next to the declared size of
    Day's textbook interval table for the same node count, and the bits
    measured as held."""

    bp_bits: int
    map_bits: int
    total_bits: int
    comparison_bits_day: int
    held_bits: int

    def __str__(self):
        return "\n".join(f"{f.name} {getattr(self, f.name)}"
                         for f in fields(self))


def size_report(pair) -> SizeReport:
    """Declared: a TreePair's tree 1 and its ranks at the width they are
    packed at, one slot per leaf in leaf mode and per node in full mode.
    A lone BpTree (bprf pack --report) is declared as a full pair of it
    would be: n slots of n.bit_length() bits.  comparison_bits_day is
    Day's textbook table, declared, not held: four 32-bit values per
    node and two per leaf, 192n - 64 at a star's n - 1 leaves.
    held_bits is 8 times the bytes held, TreePair.nbytes for a pair,
    and the packed bits for a lone tree."""
    if isinstance(pair, TreePair):
        n, held = pair.n, pair.nbytes
        map_bits = pair.rank_width * pair.n_slots
    else:
        n, held = pair.n_nodes, len(pair.packed_bytes)
        map_bits = n * n.bit_length()
    return SizeReport(2 * n, map_bits, 2 * n + map_bits, 192 * n - 64,
                      8 * held)
