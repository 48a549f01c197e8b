"""Bit-exact serialization and the size accounting.

A packed tree is: magic "SBPT", version byte, flags byte (bit 0 marks a
weight block), node count as unsigned 64-bit little-endian, the raw bit
vector in ceil(2n/8) bytes (position 1 in the most significant bit of
byte 0, pad bits zero), a label block (unsigned 32-bit count, then per
label a varint node index, varint byte length, UTF-8 bytes), and, when
flagged, n doubles little-endian.  Scalars are little-endian; varints
are the usual base-128 with continuation bit.

Decoding validates everything it touches: magic, version, flag bits,
truncation at each step, pad bits, structural validity of the bit
vector, label indexes and duplicates, and trailing garbage.  Encoding
and decoding both accept only what write_newick can write back as the
same tree: no internal node has a single child, every leaf has a name,
every name is one non-empty newick label token, no name sits on two
nodes, and every weight is finite.  The contract is decode(encode(x))
== x down to the bit, and encode raises where decode would.
"""

import struct
from dataclasses import dataclass, fields

import numpy as np

from .bp import BpTree, subtree_sizes
from .newick import _LABEL, LabelTable, TreePair

MAGIC = b"SBPT"
VERSION = 1
_FLAG_WEIGHTS = 1


class PackError(ValueError):
    """Corrupt or unsupported packed-tree bytes."""


def _varint(out: bytearray, x: int):
    while x > 0x7F:
        out.append((x & 0x7F) | 0x80)
        x >>= 7
    out.append(x)


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

    def varint(self, what):
        x = 0
        shift = 0
        while True:
            b = self.take(1, what)[0]
            x |= (b & 0x7F) << shift
            if not b & 0x80:
                return x
            shift += 7
            if shift > 63:
                raise PackError(f"overlong varint in {what}")


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


def pack(tree: BpTree, labels: LabelTable, weights=None) -> bytes:
    """Canonical bytes for one tree; deterministic for identical inputs.
    PackError for a tree that unpack would reject."""
    n = tree.n_nodes
    names = [labels.name_of(i) for i in range(1, n + 1)]
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype="<f8")
        if w.shape != (n,):
            raise ValueError(f"weight vector must have length {n}")
    _check_writable(tree.to01(), names, w)

    out = bytearray(MAGIC)
    out.append(VERSION)
    out.append(_FLAG_WEIGHTS if w is not None else 0)
    out += struct.pack("<Q", n)
    out += tree.packed_bytes

    entries = [(i, name) for i, name in enumerate(names, 1)
               if name is not None]
    out += struct.pack("<I", len(entries))
    for i, name in entries:
        _varint(out, i)
        raw = name.encode("utf-8")
        _varint(out, len(raw))
        out += raw

    if w is not None:
        out += w.tobytes()
    return bytes(out)


def unpack(data: bytes):
    """Exact inverse of pack: (BpTree, LabelTable, weights or None)."""
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

    m = 2 * n
    nbytes = (m + 7) // 8
    raw = bytes(r.take(nbytes, "bit vector"))
    pad = nbytes * 8 - m
    if pad and raw[-1] & ((1 << pad) - 1):
        raise PackError("nonzero padding bits")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:m]
    try:
        tree = BpTree(bits)
    except ValueError as e:
        raise PackError(f"bit vector is not a tree: {e}") from None

    (count,) = struct.unpack("<I", r.take(4, "label count"))
    if count > n:
        raise PackError("label count exceeds node count")
    names = [None] * n
    for _ in range(count):
        i = r.varint("label index")
        if not 1 <= i <= n:
            raise PackError(f"label index {i} out of range")
        if names[i - 1] is not None:
            raise PackError(f"duplicate label for node {i}")
        ln = r.varint("label length")
        try:
            name = bytes(r.take(ln, "label bytes")).decode("utf-8")
        except UnicodeDecodeError:
            raise PackError(f"label for node {i} is not UTF-8") from None
        names[i - 1] = name

    w = None
    if flags & _FLAG_WEIGHTS:
        wb = r.take(8 * n, "weight block")
        w = np.frombuffer(bytes(wb), dtype="<f8").astype(np.float64)
    if r.pos != len(data):
        raise PackError("trailing bytes after payload")
    _check_writable(bits, names, w)
    return tree, LabelTable(names), w


@dataclass(frozen=True)
class SizeReport:
    """Bits held per pair component, next to the interval-table figure a
    pointer-based comparison would need for the same node count."""

    bp_bits: int
    map_bits: int
    total_bits: int
    comparison_bits_day: int

    def __str__(self):
        return "\n".join(f"{f.name} {getattr(self, f.name)}"
                         for f in fields(self))


def size_report(pair) -> SizeReport:
    """A TreePair's tree 1 and the 32-bit ranks it holds, one per leaf in
    leaf mode and per node in full mode; a lone BpTree (bprf pack
    --report) counts one slot per node, exactly 34n bits."""
    n = pair.n if isinstance(pair, TreePair) else pair.n_nodes
    slots = pair.ranks.size if isinstance(pair, TreePair) else n
    return SizeReport(2 * n, 32 * slots, 2 * n + 32 * slots, 192 * n - 64)
