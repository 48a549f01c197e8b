"""Newick parsing straight into the succinct representation.

A tree is read into its balanced-parentheses bits: every '(' is an
opening bit, every leaf an open-close pair, every ')' a closing bit.
Weights land in pre-order slots (slot i-1 for node i), and each label
maps to its node's pre-order index, so nothing pointer shaped is ever
built.  A parsed pair keeps no names: it holds the two encodings, the
bit-packed ranks and the weights.  parse_tree keeps the names for
write_newick and pack, as a tuple in pre-order slots like the weights':
slot i-1 holds node i's name, or None.

Each text is read by one of two passes.  The accepting pass,
_fast_scan, works on the text's bytes with numpy: a class table finds
the tokens, a table of which token may follow which and a running depth
check the grammar, and one stable sort of the brackets and commas by
depth pairs every ')' with its '(' and finds single-child nodes.  Read
in leaf mode unweighted, as rf reads it, a text's labels and weights
are not placed on their nodes, and its weight literals are only checked.
It either accepts the text, with every check the error pass makes, or
gives up; it never reports an error.  It reads the text's UTF-8 bytes,
a byte from 0x80 up being part of a label.  It gives up on a whitespace
character that is not ASCII and on a weight literal that is not ASCII,
since the error pass reads whitespace and digits as Unicode does; on
any '[', ']' or "'"; on any fault; and on a pair that does not fit its
mode, weighting or label set.  The error pass, _scan, then reads
the text token by token and raises the exact error: its message, its
character offset and which tree.  It is the one Newick reader written
by hand; baseline's pointer trees are built from its bits too, after
the same pair checks, _checked_scans.  An error that concerns several
labels or nodes names the first in pre-order, and only a label-set
mismatch scans a text again for it.

The accepting pass joins a pair's labels without a Python string per
label.  Each label is a span of its text's UTF-8 bytes, and gets one
64-bit key.  A label of at most 7 bytes is its own key: its bytes, read
as one little-endian word, masked to its length, with the length in
the top byte, so that equal keys are equal bytes.  A longer label's key
is a hash of its bytes with bit 63 set, which no short key has.  Each
tree's keys are sorted; tree 1's must differ pairwise and tree 2's must
equal them, so that position k of both sorts pairs a label with its
namesake.  Every pair is then checked for equal length, and every pair
of labels of 8 bytes or more for equal bytes.  A repeated label, a
different label set and a hash collision all fail one of these checks,
and any failure gives the pair to the error pass: a collision, which
only labels of 8 bytes or more can have, costs time, never a wrong join.

The accepting pass bounds what it holds at once.  Its per-byte class
arrays and per-token arrays span the text, but the index arrays that
compress builds, the short labels' keys, the long labels' hashes'
per-byte products, the byte check and the weight literals' bytes and
conversion are made a chunk of _BYTES slots, labels or bytes at a time;
a label longer than a chunk is a chunk of its own, and a text that fits
in one chunk is read in one.

A chunk of weight literals that share one shape, such as the '%.6f'
output of most tree tools, is read without strtod: one length of at most
16 bytes, a '.' at one offset and ASCII digits at every other.  Its at
most 15 digits are an integer m < 2**53, one (literals x bytes) matrix
times a place-value vector gives every m exactly, and m / 10**f, with f
<= 15 digits after the '.', is one correctly rounded division of two
exact doubles (Clinger's fast path), so the value is float's to the bit.
Any other chunk, with a sign, an exponent or literals of mixed lengths,
goes to the literal grammar and np.fromstring.

Label syntax: a maximal run of characters excluding '(' ')' ',' ':' ';'
'[' ']' "'" and whitespace (every character that str.isspace accepts).
Weight syntax: ':' immediately followed by a finite decimal literal
with optional sign, fraction, and exponent; a literal past the float
range, such as 1e999, is an error.  Comments ('[...]') and quoted labels
are not supported: their first '[', ']' or "'" is a parse error.  A
weight on the root is accepted and discarded, the root has no entering
edge.  Every internal node, the root included, needs two or more
children: a node with one would repeat its child's cluster, so the ')'
closing it is rejected.

Two labelling modes exist.  In leaf mode only leaves carry labels and
internal labels are rejected; in full mode every node must carry one.
The metric fixes the mode: rf and wrf read leaf mode, erf and werf full
mode.
"""

import re
from array import array
from math import inf, isfinite

import numpy as np

from .bp import BpTree

_LABEL_CHAR = r"[^(),;:\s\[\]']"
_TOKEN = re.compile(rf"\s+|([(),;])|:({_LABEL_CHAR}*)"
                    rf"|({_LABEL_CHAR}+)|([\[\]'])")
_LABEL = re.compile(f"{_LABEL_CHAR}+")
_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER = re.compile(rf"{_NUM}\Z")
# literals joined by ',', as bytes, where \d is ASCII only; possessive,
# the repeat keeps no backtracking state per literal
_NUMBERS = re.compile(rf"{_NUM}(?:,{_NUM})*+\Z".encode())

# The accepting pass's character classes, which are also its token kinds:
# a label run is a _LAB token at its first character, unless a ':' comes
# right before it, and a ':' is a _COLON token that owns the run after it.
_LAB, _WS, _OPEN, _CLOSE, _COMMA, _SEMI, _COLON, _BAD = range(8)
_CLASS = bytearray([_LAB]) * 256   # UTF-8 bytes >= 0x80 are label bytes
for _c in range(128):
    if chr(_c).isspace():
        _CLASS[_c] = _WS
for _c, _k in zip(b"(),;:[]'", (_OPEN, _CLOSE, _COMMA, _SEMI, _COLON,
                                _BAD, _BAD, _BAD)):
    _CLASS[_c] = _k
# the kinds that may follow each kind, as _scan's states allow them, coded
# 8 * kind + next kind; a text starts with a kind that may follow ',' and
# ends at its only ';'
_FOLLOW = {_OPEN: (_OPEN, _LAB), _COMMA: (_OPEN, _LAB),
           _LAB: (_COLON, _COMMA, _CLOSE, _SEMI),
           _CLOSE: (_LAB, _COLON, _COMMA, _CLOSE, _SEMI),
           _COLON: (_COMMA, _CLOSE, _SEMI)}
_PAIRS = bytes(8 * a + b for a, follow in _FOLLOW.items() for b in follow)
# the accepting pass makes its index arrays and per-byte products of labels
# and literals this many slots or bytes at a time
_BYTES = 1 << 16
# ranks packed or unpacked at once; a multiple of 8, so chunks start on bytes
_SLOTS = 1 << 13
# by length: a short label's key mask and top byte; a long label's key bit
_MASK = np.array([(1 << 8 * k) - 1 for k in range(8)], np.uint64)
_LENGTH = np.array([k << 56 for k in range(8)], np.uint64)
_LONG = np.uint64(1 << 63)
# \s and \d know Unicode: a whitespace character that is not ASCII is the
# error pass's to read
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")


class ParseError(ValueError):
    """Malformed input; carries the character offset and which tree."""

    def __init__(self, message, offset, tree_index):
        super().__init__(f"tree {tree_index}, offset {offset}: {message}")
        self.offset = offset
        self.tree_index = tree_index


class LabelMismatchError(ParseError):
    """The two trees do not carry the same label set."""


class ModeError(ValueError):
    """Labelling mode, metric, and input do not fit together."""

    def __init__(self, message, offset=None, tree_index=None):
        if offset is not None:
            message = f"tree {tree_index}, offset {offset}: {message}"
        super().__init__(message)
        self.offset = offset
        self.tree_index = tree_index


class TreePair:
    """Two parsed trees joined by ranks, held bit-packed.

    In leaf mode ranks has one slot per leaf of tree 1, in leaf order:
    slot k holds the rank among tree 2's leaves, from 1, of the namesake
    of tree 1's leaf k.  In full mode it has one slot per node: slot i-1
    holds the pre-order index in tree 2 of node i's namesake, and both
    trees have n nodes.  In leaf mode n is the node count of tree 1.
    The pair holds the n_slots ranks rank_width bits each, rank_width
    being the bit length of the greatest, in rank_bytes (see _pack);
    reading ranks unpacks them into a new int32 array each time.
    """

    __slots__ = ("t1", "t2", "rank_bytes", "rank_width", "n_slots", "w1",
                 "w2", "mode")

    def __init__(self, t1, t2, ranks, w1, w2, mode):
        top = int(ranks.max(initial=0))
        if ranks.min(initial=0) < 0 or top >> 31:
            raise ValueError("ranks must lie in [0, 2**31)")
        self.t1 = t1
        self.t2 = t2
        self.rank_width = max(1, top.bit_length())
        self.n_slots = ranks.size
        self.rank_bytes = _pack(ranks, self.rank_width)
        self.w1 = w1
        self.w2 = w2
        self.mode = mode

    @property
    def ranks(self):
        return _unpack(self.rank_bytes, self.rank_width, self.n_slots)

    @property
    def n(self) -> int:
        return self.t1.n_nodes

    @property
    def weighted(self) -> bool:
        return self.w1 is not None

    @property
    def nbytes(self) -> int:
        """Bytes held: both bit payloads, the packed ranks, exactly
        ceil(rank_width * n_slots / 8) bytes, and any weights."""
        return len(self.t1.packed_bytes) + len(self.t2.packed_bytes) + len(
            self.rank_bytes) + sum(a.nbytes for a in (self.w1, self.w2)
                                   if a is not None)


def _pack(ranks, width):
    """Non-negative ints below 2**width as a little-endian bit stream in a
    read-only uint8 array of exactly ceil(width * ranks.size / 8) bytes:
    slot k is bits k * width on, least significant first.  Made _SLOTS
    ranks at a time."""
    out = np.empty((ranks.size * width + 7) >> 3, np.uint8)
    for lo in range(0, ranks.size, _SLOTS):
        part = ranks[lo:lo + _SLOTS].astype("<u4").view(np.uint8)
        bits = np.unpackbits(part.reshape(-1, 4), axis=1, count=width,
                             bitorder="little")
        part = np.packbits(bits, bitorder="little")
        out[lo * width >> 3:][:part.size] = part
    out.flags.writeable = False
    return out


def _unpack(data, width, count):
    """The count ints that _pack wrote into data, as a new int32 array,
    _SLOTS at a time: slot k is the word at byte k * width >> 3 of a copy
    of its chunk's bytes, shifted and masked.  8 bytes more keep the last
    words in bounds; the mask drops whatever they hold.  take copies the
    chunk's unaligned words aligned first, and is still faster than
    indexing them."""
    out = np.empty(count, np.int32)
    pos = np.arange(0, min(count, _SLOTS) * width, width, dtype=np.int64)
    at, shift = pos >> 3, pos.view(np.uint64) & np.uint64(7)
    for lo in range(0, count, _SLOTS):
        k = min(count - lo, _SLOTS)
        size = (k * width + 7) >> 3
        buf = np.empty(size + 8, np.uint8)
        buf[:size] = data[lo * width >> 3:][:size]
        words = np.ndarray((size + 1,), "<u8", buf, 0, (1,)).take(at[:k])
        words >>= shift[:k]
        out[lo:lo + k] = words & np.uint64((1 << width) - 1)
    return out


def _scan(text, tree_index):
    """The error pass, the one Newick reader written token by token:
    (bits, table, weights, first_internal, first_unlabelled), or the
    exact ParseError.  table maps each label to its node's pre-order
    index; weights has slot i-1 for node i, or is None when the text has
    no weight.  first_internal is the offset of the first internal label,
    first_unlabelled that of the '(' of the pre-order-first unlabelled
    node; either is None when there is none."""
    bits = bytearray()
    weights = array("d")
    table = {}
    stack = []      # (node, offset of its '(') of each open '('
    commas = []     # ',' seen so far at each open '(' on the stack
    expect_node = True
    can_label = can_weight = False
    cur = 0
    n = 0
    any_weight = False
    first_internal = None
    unlabelled = (inf, None)    # the least unlabelled node, as on the stack
    end = None

    for mo in _TOKEN.finditer(text):
        delim, wtok, label, bad = mo.groups()
        if delim is None and wtok is None and label is None and bad is None:
            continue
        off = mo.start()
        if end is not None:
            raise ParseError("trailing content after ';'", off, tree_index)
        if label is not None:
            if expect_node:
                n += 1
                bits += b"\x01\x00"
                weights.append(0.0)
                if label in table:
                    raise ParseError(f"duplicate label '{label}'", off, tree_index)
                table[label] = n
                expect_node = False
                cur = n
                can_label = False
                can_weight = True
            elif can_label:
                if label in table:
                    raise ParseError(f"duplicate label '{label}'", off, tree_index)
                table[label] = cur
                if first_internal is None:
                    first_internal = off
                unlabelled = before
                can_label = False
            else:
                raise ParseError(f"unexpected label '{label}'", off, tree_index)
        elif wtok is not None:
            if expect_node or not can_weight:
                raise ParseError("unexpected weight", off, tree_index)
            if not _NUMBER.match(wtok):
                raise ParseError(f"malformed weight ':{wtok}'", off, tree_index)
            w = float(wtok)
            if not isfinite(w):
                raise ParseError(f"weight ':{wtok}' is not finite", off,
                                 tree_index)
            any_weight = True
            if cur != 1:
                weights[cur - 1] = w
            can_weight = False
            can_label = False
        elif delim == "(":
            if not expect_node:
                raise ParseError("unexpected '('", off, tree_index)
            n += 1
            bits.append(1)
            weights.append(0.0)
            stack.append((n, off))
            commas.append(0)
            cur = 0
        elif delim == ",":
            if expect_node or not stack:
                raise ParseError("expected a node before ','", off, tree_index)
            commas[-1] += 1
            expect_node = True
            can_label = can_weight = False
            cur = 0
        elif delim == ")":
            if expect_node or not stack:
                raise ParseError("expected a node before ')'", off, tree_index)
            if not commas.pop():
                raise ParseError("internal node with a single child", off,
                                 tree_index)
            cur, opened = stack.pop()
            # unlabelled, unless a label follows and restores before
            before = unlabelled
            if cur < unlabelled[0]:
                unlabelled = cur, opened
            bits.append(0)
            can_label = can_weight = True
        elif delim == ";":
            if expect_node:
                raise ParseError("empty tree" if n == 0 else
                                 "expected a node before ';'", off, tree_index)
            if stack:
                raise ParseError("unbalanced parentheses", off, tree_index)
            end = mo.end()
        else:
            raise ParseError("quoted labels are not supported" if bad == "'"
                             else "comments are not supported", off,
                             tree_index)

    if end is None:
        raise ParseError("missing ';' terminator", len(text), tree_index)
    return (bits, table, weights if any_weight else None, first_internal,
            unlabelled[1])


def _fast_scan(text, mode=None, weighted=False):
    """The accepting pass over one tree: (bits, data, start, length, at,
    weights), or None when _scan must read the text.  bits is a uint8
    array and data the text's UTF-8 bytes, as uint8.  Label k, in text
    order, is the bytes data[start[k]:start[k] + length[k]], and at[k]
    is its node's pre-order index; all three are int32.  weights is as
    _scan's: a chunk of literals of one shape is read by _decimals, any
    other by _NUMBERS and np.fromstring.  In leaf mode at is None.  The
    weights are None unless weighted or mode is None: every literal is
    checked, but only kept weights are placed, and in leaf mode
    unweighted no node index is built.  mode "leaf" gives up on an
    internal label and "full" on an unlabelled node; weighted gives up
    on a text with no weight.  Repeated labels are the caller's to find."""
    if not text.isascii() and _WIDE_SPACE.search(text):
        return None
    raw = text.encode("utf-8", "surrogatepass")
    data = np.frombuffer(raw, np.uint8)
    c = np.frombuffer(raw.translate(_CLASS), np.uint8)
    del raw
    # runs of label bytes: a run right after a ':' is a weight literal,
    # any other a label token
    lab = c == _LAB
    first = lab.copy()
    first[1:] &= ~lab[:-1]
    run = first.nonzero()[0].astype(np.int32)
    lab[:-1] &= ~lab[1:]  # now the last byte of each run
    run_len = lab.nonzero()[0].astype(np.int32)
    run_len -= run
    run_len += 1
    # run 0 reads the text's last byte: no ':' in a text that ends at ';'
    is_w = c.take(run - 1) == _COLON
    tok = first
    tok[1:] &= c[:-1] != _COLON
    tok |= c >= _OPEN
    kinds = _pick(c, tok)
    del c, lab, first, tok
    # deleting the allowed codes of adjacent kinds leaves any other
    pairs = (kinds[:-1] * 8 + kinds[1:]).tobytes()
    if (not kinds.size or kinds[0] not in (_OPEN, _LAB)
            or kinds[-1] != _SEMI or pairs.translate(None, _PAIRS)):
        return None
    del pairs

    # brackets and commas: ',' needs an open '(', ')' one to close and ';'
    # none; a ')' whose level has no ',' closes a single child
    sel = (kinds >= _OPEN) & (kinds <= _COMMA)
    bk = _pick(kinds, sel)
    step = (bk == _OPEN).view(np.int8) - (bk == _CLOSE).view(np.int8)
    # np.add.accumulate, not np.cumsum: the latter's Python wrapper leaves
    # interpreter free-list blocks that tracemalloc counts as held
    depth = np.add.accumulate(step, dtype=np.int32)
    del step
    if bk.size and (depth[-1] or np.minimum.reduce(depth) < 0
                    or np.minimum.reduce(depth.compress(bk == _COMMA),
                                         initial=1) < 1):
        return None
    # sorted stably by the level they belong to, each node's '(', its
    # commas and its ')' are adjacent
    key = depth + (bk == _CLOSE)
    del depth
    if key.size and key.max() < 2 ** 15:
        key = key.astype(np.int16)  # numpy radix-sorts 16-bit keys
    order = key.argsort(kind="stable").astype(np.int32)
    del key
    sk = bk[order]
    del bk
    if ((sk[:-1] == _OPEN) & (sk[1:] == _CLOSE)).any():
        return None
    place = mode != "leaf" or weighted
    oc = _pick(order, sk != _COMMA) if place else None
    del order, sk

    is_lab = kinds == _LAB
    internal = np.zeros(kinds.size, bool)
    internal[1:] = is_lab[1:] & (kinds[:-1] == _CLOSE)
    if mode == "leaf" and internal.any():
        return None
    node = (kinds == _OPEN) | (is_lab ^ internal)
    n = int(np.count_nonzero(node))
    if mode == "full" and np.count_nonzero(is_lab) != n:
        return None
    colon = kinds == _COLON
    # every ':' owns the literal right after it
    if np.count_nonzero(is_w) != np.count_nonzero(colon) or (
            weighted and not is_w.any()):
        return None
    at = w_at = None
    if place:
        # pre-order index of each token's node: a '(' or a leaf opens the
        # next one, a ')' is its '(''s, an internal label its ')''s and a
        # weight the token's before it
        cur = np.add.accumulate(node, dtype=np.int32)
        cb = _pick(cur, sel)
        cb[oc[1::2]] = cb[oc[0::2]]
        cur[sel] = cb
        del cb, oc
        i = internal.nonzero()[0]
        cur[i] = cur[i - 1]  # no target is a source: a ')' is no label
        at = None if mode == "leaf" else _pick(cur, is_lab)
        if weighted or mode is None:  # no text starts with a ':'
            w_at = _pick(cur[:-1], colon[1:])
        del cur, i

    # every node writes its opening bit, then its closing bit; a '(' writes
    # only the first and a ')' only the second, 2 marks the bit not written
    s = _pick(kinds, node | (kinds == _CLOSE))
    del kinds, sel, is_lab, internal, node, colon  # before the labels exist
    emit = np.empty((s.size, 2), np.uint8)
    emit[:, 0] = s == _CLOSE
    emit[:, 0] += 1
    emit[:, 1] = s == _OPEN
    emit[:, 1] *= 2
    emit = emit.ravel()
    bits = _pick(emit, emit < 2)
    del s, emit

    # every literal is checked, the root's included, placed or not
    w = np.zeros(n) if w_at is not None and w_at.size else None
    start, length = run[is_w], run_len[is_w] + 1
    for lo, hi in _chunks(start, length):
        v = _decimals(data, start[lo:hi], length[lo:hi] - 1)
        if v is None:
            # the literals, each with the byte that ends it made a ','
            at_byte, lead = _spans(start[lo:hi], length[lo:hi])
            joined = data.take(at_byte)
            del at_byte
            joined[lead[1:] - 1] = ord(",")
            joined = joined[:-1].tobytes()
            if not _NUMBERS.match(joined):
                return None
            v = np.fromstring(joined, sep=",")
            del joined
            if not np.isfinite(v).all():
                return None
        if w is not None:
            w[w_at[lo:hi] - 1] = v
    if w is not None:
        w[0] = 0.0  # the root's weight is discarded
    is_w ^= True
    return bits, data, run[is_w], run_len[is_w], at, w


def _decimals(data, start, length):
    """The values of the literals data[start[k]:start[k] + length[k]],
    bit for bit float's, when they share one shape: one length of 2 to
    16 bytes, a '.' at one offset q and an ASCII digit at every other;
    else None.  The digits form an integer m < 10**15 < 2**53, and with
    f = length - 1 - q <= 15 the quotient m / 10**f of two exact doubles
    is correctly rounded (Clinger's fast path)."""
    k = int(length[0])
    if not 2 <= k <= 16 or (length != k).any():
        return None
    # row i is data[i:i + k]: a strided view over the text
    lit = np.ndarray((data.size - k + 1, k), np.uint8, data, 0, (1, 1))[start]
    q = lit[0].tobytes().find(b".")
    if q < 0 or (lit[:, q] != ord(".")).any():
        return None
    lit[:, q] = ord("0")
    lit -= ord("0")
    if lit.max() > 9:
        return None
    place = np.array([0 if j == q else 10 ** (k - 2 - j + (j > q))
                      for j in range(k)], np.int64)
    return (lit.astype(np.int64) @ place) / float(10 ** (k - 1 - q))


def _pick(a, mask):
    """a.compress(mask), made _BYTES slots at a time: compress builds an
    intp index of every slot it keeps."""
    if a.size <= _BYTES:
        return a.compress(mask)
    out = np.empty(np.count_nonzero(mask), a.dtype)
    k = 0
    for lo in range(0, a.size, _BYTES):
        part = a[lo:lo + _BYTES].compress(mask[lo:lo + _BYTES])
        out[k:k + part.size] = part
        k += part.size
    return out


def _chunks(start, length):
    """Yields runs lo, hi of consecutive spans data[start[k]:start[k] +
    length[k]], in text order, that lie within _BYTES bytes of text; a
    span longer than that is a run of its own."""
    lo = 0
    while lo < start.size:
        stop = int(start[lo]) + _BYTES
        hi = int(start.searchsorted(stop, "right"))
        if start[hi - 1] + length[hi - 1] > stop:  # the last one runs past
            hi = max(hi - 1, lo + 1)
        yield lo, hi
        lo = hi


def _spans(start, length):
    """(at_byte, lead): the index of every byte of the spans
    data[start[k]:start[k] + length[k]], laid end to end, and the first
    slot of each span there.  Both are int32; every length is at least
    1."""
    lead = np.zeros(length.size, np.int32)
    np.add.accumulate(length[:-1], out=lead[1:])
    at_byte = (start - lead).repeat(length)
    at_byte += np.arange(at_byte.size, dtype=np.int32)
    return at_byte, lead


def _multipliers(size):
    """size odd, well mixed 64-bit multipliers: splitmix64 of 1..size."""
    z = np.arange(1, size + 1, dtype=np.uint64)
    z *= 0x9E3779B97F4A7C15
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    z |= 1
    return z


def _label_hashes(lb, pos, lead, length):
    """One uint64 hash per label: the sum over its bytes of (byte + 1)
    times the multiplier of the byte's offset in the label, wrapping.
    lb holds the labels' bytes end to end, pos each byte's offset in its
    label and lead each label's first slot."""
    mult = _multipliers(int(length.max()))
    x = mult.take(pos)
    x *= lb
    h = np.add.reduceat(x, lead)
    del x
    # the (+ 1) of every byte adds the multipliers of a label's offsets
    np.add.accumulate(mult, out=mult)
    h += mult.take(length - 1)
    return h


def _label_bytes(data, start, length):
    """(lb, pos, lead): the labels' bytes end to end, each byte's offset
    in its label and each label's first slot there."""
    pos, lead = _spans(start, length)
    lb = data.take(pos)
    pos -= start.repeat(length)
    return lb, pos, lead


def _words(data, start):
    """The 8 bytes of data from each start, read as one little-endian
    uint64; bytes past the text's end read as 0.  start is in text
    order."""
    n = data.size
    # word i is data[i:i + 8]: a strided view over the text
    rows = np.ndarray((max(n - 7, 0),), "<u8", data, 0, (1,))
    cut = int(start.searchsorted(rows.size))
    words = rows[start[:cut]]
    if cut < start.size:  # the starts within 8 bytes of the end
        t0 = max(n - 8, 0)
        tail = np.zeros(16, np.uint8)
        tail[:n - t0] = data[t0:]
        tail = np.ndarray((9,), "<u8", tail, 0, (1,))
        words = np.concatenate((words, tail[start[cut:] - t0]))
    return words


def _labels(data, start, length):
    """(keys, long): every label's 64-bit join key and the indexes of the
    labels of 8 bytes or more.  A label of at most 7 bytes is its own
    key, its bytes masked to its length with the length in the top byte,
    read _BYTES labels at a time; a longer label's key is its hash with
    bit 63 set, made a chunk of text at a time."""
    keys = np.empty(length.size, np.uint64)
    long = np.flatnonzero(length >= 8)
    short = keys.size if long.size < keys.size else 0  # all long: no reads
    for lo in range(0, short, _BYTES):
        k = length[lo:lo + _BYTES]
        w = _words(data, start[lo:lo + _BYTES])
        # a long label's length is clipped here, and its key replaced below
        w &= _MASK.take(k, mode="clip")
        w |= _LENGTH.take(k, mode="clip")
        keys[lo:lo + _BYTES] = w
    start, length = start[long], length[long]
    for lo, hi in _chunks(start, length):
        lb, pos, lead = _label_bytes(data, start[lo:hi], length[lo:hi])
        h = _label_hashes(lb, pos, lead, length[lo:hi])
        h |= _LONG
        keys[long[lo:hi]] = h
    return keys, long


def _label_offset(text, label):
    """Offset of a label's token; labels are unique within a tree."""
    return next(mo.start() for mo in _TOKEN.finditer(text)
                if mo.group(3) == label)


def parse_pair(text1: str, text2: str, mode: str = "leaf",
               weighted: bool = False) -> TreePair:
    """Parse two newick strings and join them by label.

    mode is "leaf" or "full".  With weighted=True the per-node weight
    vectors are kept; weight literals in the input are validated either
    way.  The pair keeps no label strings.
    """
    if mode not in ("leaf", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    parts = _fast_pair(text1, text2, mode, weighted)
    if parts is None:
        parts = _checked_pair(text1, text2, mode, weighted)
    bits1, bits2, ranks, w1, w2 = parts
    return TreePair(BpTree(bits1), BpTree(bits2), ranks, w1, w2, mode)


def _fast_pair(text1, text2, mode, weighted):
    """(bits1, bits2, ranks, w1, w2) by the accepting pass, or None; the
    weights are None unless weighted.  Each tree's label keys (see
    _labels) are sorted; tree 1's must differ pairwise and tree 2's equal
    them, which pairs every label with its namesake.  A pair of labels of
    at most 7 bytes has equal bytes by its keys alone; the pairs of
    longer labels, whose keys are hashes, are checked for equal length
    and then byte for byte, a chunk of tree 2's long labels at a time.
    While tree 2 is read, tree 1 holds its bits, its bytes, its label
    spans, its sorted keys with their order, its weights if weighted,
    and in full mode only its labels' nodes."""
    scan = _fast_scan(text1, mode, weighted)
    if scan is None:
        return None
    bits1, data1, start1, len1, at1, w1 = scan
    del scan
    h1 = _labels(data1, start1, len1)[0]
    o1 = h1.argsort().astype(np.int32)
    h1 = h1[o1]
    if (h1[1:] == h1[:-1]).any():  # a repeated label, or a collision
        return None
    scan = _fast_scan(text2, mode, weighted)
    if scan is None or scan[2].size != h1.size:
        return None
    bits2, data2, start2, len2, at2, w2 = scan
    del scan
    h2, long2 = _labels(data2, start2, len2)
    o2 = h2.argsort().astype(np.int32)
    if not (h2[o2] == h1).all():
        return None
    del h1, h2
    # the tree-1 label with each tree-2 label's key, which must be the
    # same bytes
    into = np.empty_like(o2)
    into[o2] = o1
    del o1, o2
    if not (len1[into] == len2).all():
        return None
    # a short label's key is its bytes: only the long labels are checked
    start2, len2, into2 = start2[long2], len2[long2], into[long2]
    for lo, hi in _chunks(start2, len2):
        lb, pos, _ = _label_bytes(data2, start2[lo:hi], len2[lo:hi])
        at_byte = start1[into2[lo:hi]].repeat(len2[lo:hi])
        at_byte += pos
        if not (data1.take(at_byte) == lb).all():
            return None
    # the texts and spans die before the ranks, whose packed copy outlives
    # the parse, are made: a block made first can sit above them in the
    # heap and keep their freed pages resident
    del data1, data2, start1, start2, len1, len2, into2
    if mode == "leaf":  # labels are leaves, in leaf order in both trees
        ranks = np.empty_like(into)
        ranks[into] = np.arange(1, into.size + 1, dtype=np.int32)
    else:
        ranks = np.zeros(len(bits1) // 2, np.int32)
        ranks[at1[into] - 1] = at2
    return bits1, bits2, ranks, w1, w2


def _checked_scans(text1, text2, mode, weighted):
    """Both texts' _scan once they pair in mode and weighting, or the
    exact error: each tree's mode, then each tree's weights, then the
    label sets.  The pre-order-first label of tree 2 not in tree 1 is
    named at its offset, else that missing from tree 2 at its end."""
    scans = _scan(text1, 1), _scan(text2, 2)
    for k, (_, _, _, first_internal, first_unlabelled) in enumerate(
            scans, 1):
        if mode == "leaf":
            if first_internal is not None:
                raise ModeError("internal label not allowed in leaf mode",
                                first_internal, k)
        elif first_unlabelled is not None:
            raise ModeError("unlabelled node in fully-labelled mode",
                            first_unlabelled, k)
    if weighted:
        for k, (_, _, w, _, _) in enumerate(scans, 1):
            if w is None:
                raise ModeError("weighted parse needs ':' weights", 0, k)
    table1, table2 = scans[0][1], scans[1][1]
    # a table's order is not pre-order: name the pre-order-first label
    extra = table2.keys() - table1.keys()
    if extra:
        lab = min(extra, key=table2.get)
        raise LabelMismatchError(f"label '{lab}' not in first tree",
                                 _label_offset(text2, lab), 2)
    if len(table2) < len(table1):
        lab = min(table1.keys() - table2.keys(), key=table1.get)
        raise LabelMismatchError(f"label '{lab}' missing from second tree",
                                 len(text2), 2)
    return scans


def _checked_pair(text1, text2, mode, weighted):
    """parse_pair by the error pass: the same parts, or its exact error."""
    (bits1, table1, w1, _, _), (bits2, table2, w2, _, _) = _checked_scans(
        text1, text2, mode, weighted)
    into = np.fromiter(map(table1.__getitem__, table2), np.intp, len(table2))
    if mode == "leaf":
        # the tables hold the leaves in leaf order: table2's order sorted
        # by tree 1's index, into, gives each tree-1 leaf its rank
        ranks = (into.argsort() + 1).astype(np.int32)
    else:
        ranks = np.zeros(len(bits1) // 2, np.int32)
        ranks[into - 1] = np.fromiter(table2.values(), np.int32, len(table2))
    return (np.frombuffer(bits1, np.uint8), np.frombuffer(bits2, np.uint8),
            ranks, np.array(w1) if weighted else None,
            np.array(w2) if weighted else None)


def parse_tree(text: str):
    """Parse a single tree: (BpTree, names, weight array or None).

    names is a tuple with slot i-1 holding node i's label, or None, as
    the weights hold node i's weight.  Mode constraints do not apply to
    a standalone tree; internal labels are kept when present, and
    weights whenever the text has one.
    """
    scan = _fast_scan(text)
    if scan is not None:
        bits, data, start, length, at, w = scan
        raw = data.tobytes()
        labels = [raw[a:b].decode("utf-8", "surrogatepass") for a, b in
                  zip(start.tolist(), (start + length).tolist())]
        at = at.tolist()
    if scan is None or len(set(labels)) < len(labels):
        bits, table, w, _, _ = _scan(text, 1)
        bits = np.frombuffer(bits, np.uint8)
        labels, at = table.keys(), table.values()
        w = None if w is None else np.array(w)
    names = [None] * (len(bits) // 2)
    for name, i in zip(labels, at):
        names[i - 1] = name
    return BpTree(bits), tuple(names), w


def write_newick(tree: BpTree, names, weights=None) -> str:
    """Canonical newick text: stored child order, labels verbatim, weights
    in shortest round-trip decimal form, none on the root.  names and
    weights hold node i's label and weight in slot i-1, as parse_tree
    gives them."""
    bits = tree.to01().tolist()
    wlist = None if weights is None else (
        weights.tolist() if hasattr(weights, "tolist") else list(weights))
    # an opening bit after an opening bit is a first child, after a
    # closing bit a later sibling; a closing bit after a closing bit
    # ends an internal node, after an opening bit a leaf
    out = []
    stack = [1]
    idx = 1
    prev = 1
    for b in bits[1:]:
        if b:
            out.append("(" if prev else ",")
            idx += 1
            stack.append(idx)
        else:
            v = stack.pop()
            if not prev:
                out.append(")")
            out.append(names[v - 1] or "")
            if wlist is not None and v != 1:
                out.append(f":{wlist[v - 1]!r}")
        prev = b
    out.append(";")
    return "".join(out)
