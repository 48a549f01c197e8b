"""Newick parsing straight into the succinct representation.

A tree is read into its balanced-parentheses bits: every '(' is an
opening bit, every leaf an open-close pair, every ')' a closing bit.
Weights land in pre-order slots (slot i-1 for node i), and each label
maps to its node's pre-order index, so nothing pointer shaped is ever
built.  A parsed pair keeps no names: it holds the two encodings, the
ranks and the weights.  parse_tree keeps the names as a LabelTable
for write_newick and pack.

Each text is read by one of two passes.  The accepting pass,
_fast_scan, works on the text's bytes with numpy: a class table finds
the tokens, a table of which token may follow which and a running depth
check the grammar, and one stable sort of the brackets and commas by
depth pairs every ')' with its '(' and finds single-child nodes.  It
either accepts the text, with every check the error pass makes, or
gives up; it never reports an error.  It reads the text's UTF-8 bytes,
a byte from 0x80 up being part of a label.  It gives up on a whitespace
character that is not ASCII and on a weight literal that is not ASCII,
since the error pass reads whitespace and digits as Unicode does; on
any '[', ']' or "'"; on any fault; and on a pair that does not fit its
mode, weighting or label set.  The error pass, _scan, then reads
the text token by token and raises the exact error: its message, its
character offset and which tree.  Error offsets are not stored per
node; an error recovers its offset by scanning the text again, and an
error that concerns several labels or nodes names the first in
pre-order.

The accepting pass joins a pair's labels without a Python string per
label.  Each label is a span of its text's UTF-8 bytes, and gets one
64-bit hash of them.  Each tree's hashes are sorted; tree 1's must
differ pairwise and tree 2's must equal them, so that position k of
both sorts pairs a label with its namesake.  Every pair is then checked
for equal length and equal bytes.  A repeated label, a different label
set and a hash collision all fail one of these checks, and any failure
gives the pair to the error pass: a collision costs time, never a wrong
join.

The accepting pass bounds what it holds at once.  Its per-byte class
arrays and per-token arrays span the text, but the index arrays that
compress builds, the label hashes' per-byte products, the byte check
and the weight literals' bytes and conversion are made a chunk of
_BYTES slots or bytes at a time; a label longer than a chunk is a chunk
of its own, and a text that fits in one chunk is read in one.

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
from math import isfinite

import numpy as np

from .bp import BpTree, subtree_sizes

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


class LabelTable:
    """The names of one tree's nodes, by pre-order index."""

    __slots__ = ("_names",)

    def __init__(self, names):
        self._names = names

    def name_of(self, i: int):
        """Label of node i, or None."""
        return self._names[i - 1]


class TreePair:
    """Two parsed trees joined by the int32 array ranks.

    In leaf mode ranks has one slot per leaf of tree 1, in leaf order:
    slot k holds the rank among tree 2's leaves, from 1, of the namesake
    of tree 1's leaf k.  In full mode it has one slot per node: slot i-1
    holds the pre-order index in tree 2 of node i's namesake, and both
    trees have n nodes.  In leaf mode n is the node count of tree 1.
    """

    __slots__ = ("t1", "t2", "ranks", "w1", "w2", "mode")

    def __init__(self, t1, t2, ranks, w1, w2, mode):
        self.t1 = t1
        self.t2 = t2
        self.ranks = ranks
        self.w1 = w1
        self.w2 = w2
        self.mode = mode

    @property
    def n(self) -> int:
        return self.t1.n_nodes

    @property
    def weighted(self) -> bool:
        return self.w1 is not None

    @property
    def code_map(self):
        """Slot i-1: the pre-order index in tree 2 of node i's namesake,
        or 0 if node i has no label; made from ranks on each call."""
        if self.mode == "full":
            return self.ranks
        leaves1, leaves2 = (np.flatnonzero(subtree_sizes(t.to01()) == 1)
                            for t in (self.t1, self.t2))
        code = np.zeros(self.n, np.int32)
        code[leaves1] = leaves2[self.ranks - 1] + 1
        return code

    @property
    def nbytes(self) -> int:
        """Bytes held: both bit payloads, the ranks and any weights."""
        return sum(len(t.packed_bytes) for t in (self.t1, self.t2)) + sum(
            a.nbytes for a in (self.ranks, self.w1, self.w2) if a is not None)


def _scan(text, tree_index):
    """Single pass over one newick string: (bits, table, weights,
    first_internal).  table maps each label to its node's pre-order
    index; weights has slot i-1 for node i, or is None when the text has
    no weight; first_internal is the offset of the first internal label,
    or None."""
    bits = bytearray()
    weights = array("d")
    table = {}
    stack = []
    commas = []     # ',' seen so far at each open '(' on the stack
    expect_node = True
    can_label = can_weight = False
    cur = 0
    n = 0
    any_weight = False
    first_internal = None
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
            stack.append(n)
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
            cur = stack.pop()
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
    return bits, table, weights if any_weight else None, first_internal


def _fast_scan(text, mode=None, weighted=False):
    """The accepting pass over one tree: (bits, data, start, length, at,
    weights), or None when _scan must read the text.  bits is a uint8
    array and data the text's UTF-8 bytes, as uint8.  Label k, in text
    order, is the bytes data[start[k]:start[k] + length[k]], and at[k]
    is its node's pre-order index; all three are int32.  weights is as
    _scan's.  mode "leaf" gives up on an internal label and "full" on an
    unlabelled node; weighted gives up on a text with no weight.
    Repeated labels are the caller's to find."""
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
    oc = _pick(order, sk != _COMMA)
    del order, sk

    # pre-order index of each token's node: a '(' or a leaf opens the next
    # one, a ')' is its '(''s, an internal label its ')''s and a weight
    # the token's before it
    is_lab = kinds == _LAB
    internal = np.zeros(kinds.size, bool)
    internal[1:] = is_lab[1:] & (kinds[:-1] == _CLOSE)
    if mode == "leaf" and internal.any():
        return None
    node = (kinds == _OPEN) | (is_lab ^ internal)
    cur = np.add.accumulate(node, dtype=np.int32)
    n = int(cur[-1])
    cb = _pick(cur, sel)
    cb[oc[1::2]] = cb[oc[0::2]]
    cur[sel] = cb
    del sel, cb, oc
    cur[1:][internal[1:]] = cur[:-1][internal[1:]]
    colon = kinds == _COLON
    cur[1:][colon[1:]] = cur[:-1][colon[1:]]
    n_lab = int(np.count_nonzero(is_lab))
    if mode == "full" and n_lab != n:
        return None
    at, w_at = _pick(cur, is_lab), _pick(cur, colon)

    # every node writes its opening bit, then its closing bit; a '(' writes
    # only the first and a ')' only the second, 2 marks the bit not written
    s = _pick(kinds, node | (kinds == _CLOSE))
    del kinds, is_lab, internal, node, cur, colon  # before the labels exist
    emit = np.empty((s.size, 2), np.uint8)
    emit[:, 0] = s == _CLOSE
    emit[:, 0] += 1
    emit[:, 1] = s == _OPEN
    emit[:, 1] *= 2
    emit = emit.ravel()
    bits = _pick(emit, emit < 2)
    del s, emit

    # every ':' owns the literal right after it
    if np.count_nonzero(is_w) != w_at.size or weighted and not w_at.size:
        return None
    w = None
    if w_at.size:
        w = np.zeros(n)
        start, length = run[is_w], run_len[is_w] + 1
        for lo, hi in _chunks(start, length):
            # the literals, each with the byte that ends it made a ','
            at_byte, lead = _spans(start[lo:hi], length[lo:hi])
            joined = data.take(at_byte)
            del at_byte
            joined[lead[1:] - 1] = ord(",")
            joined = joined[:-1].tobytes()
            if not _NUMBERS.match(joined):
                return None
            w[w_at[lo:hi] - 1] = np.fromstring(joined, sep=",")
            del joined
        if not np.isfinite(w).all():
            return None
        w[0] = 0.0  # the root's weight is discarded
    is_w ^= True
    return bits, data, run[is_w], run_len[is_w], at, w


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


def _labels(data, start, length):
    """(hashes, lb, pos): every label's hash, made a chunk of labels at a
    time, and the last chunk's lb and pos (see _label_bytes)."""
    h = np.empty(length.size, np.uint64)
    for lo, hi in _chunks(start, length):
        lb, pos, lead = _label_bytes(data, start[lo:hi], length[lo:hi])
        h[lo:hi] = _label_hashes(lb, pos, lead, length[lo:hi])
    return h, lb, pos


def _node_offset(text, k):
    """Offset of the '(' or leaf label opening pre-order node k of a text
    that scanned cleanly; error paths only."""
    n = 0
    opens = True    # a label here opens a leaf
    for mo in _TOKEN.finditer(text):
        delim, wtok, label, _ = mo.groups()
        if delim is None and wtok is None and label is None:
            continue
        if delim == "(" or (label is not None and opens):
            n += 1
            if n == k:
                return mo.start()
        opens = delim == "(" or delim == ","


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
    weights are None unless weighted.  Each tree's label hashes are
    sorted; tree 1's must differ pairwise and tree 2's equal them, which
    pairs every label with its namesake, and the pairs are then checked
    byte for byte, a chunk of tree 2's labels at a time.  While tree 2
    is read, tree 1 holds its bits, its bytes, its label spans, its
    weights, its sorted hashes with their order and, in full mode only,
    its labels' nodes."""
    scan = _fast_scan(text1, mode, weighted)
    if scan is None:
        return None
    bits1, data1, start1, len1, at1, w1 = scan
    del scan
    if mode == "leaf":
        del at1
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
    h2, lb2, pos2 = _labels(data2, start2, len2)
    o2 = h2.argsort().astype(np.int32)
    if not (h2[o2] == h1).all():
        return None
    del h1, h2
    # the tree-1 label with each tree-2 label's hash, which must be the
    # same bytes
    into = np.empty_like(o2)
    into[o2] = o1
    del o1, o2
    if not (len1[into] == len2).all():
        return None
    for lo, hi in _chunks(start2, len2):
        # _labels left the last chunk's bytes, all of them in one chunk
        lb, pos, _ = (lb2, pos2, None) if hi == len2.size else _label_bytes(
            data2, start2[lo:hi], len2[lo:hi])
        at_byte = start1[into[lo:hi]].repeat(len2[lo:hi])
        at_byte += pos
        if not (data1.take(at_byte) == lb).all():
            return None
    if mode == "leaf":  # labels are leaves, in leaf order in both trees
        ranks = np.empty_like(into)
        ranks[into] = np.arange(1, into.size + 1, dtype=np.int32)
    else:
        ranks = np.zeros(len(bits1) // 2, np.int32)
        ranks[at1[into] - 1] = at2
    if not weighted:
        w1 = w2 = None
    return bits1, bits2, ranks, w1, w2


def _checked_pair(text1, text2, mode, weighted):
    """parse_pair by the error pass: the same parts, or its exact error."""
    scans = (_scan(text1, 1), _scan(text2, 2))
    for k, text, (bits, table, _, first_internal) in zip(
            (1, 2), (text1, text2), scans):
        n = len(bits) // 2
        if mode == "leaf":
            if first_internal is not None:
                raise ModeError("internal label not allowed in leaf mode",
                                first_internal, k)
        elif len(table) < n:
            first = min(set(range(1, n + 1)) - set(table.values()))
            raise ModeError("unlabelled node in fully-labelled mode",
                            _node_offset(text, first), k)
    if weighted:
        for k, (_, _, w, _) in enumerate(scans, 1):
            if w is None:
                raise ModeError("weighted parse needs ':' weights", 0, k)

    (bits1, table1, w1, _), (bits2, table2, w2, _) = scans
    try:
        into = np.fromiter(map(table1.__getitem__, table2), np.intp,
                           len(table2))
    except KeyError:
        # the table's order is not pre-order: name the pre-order-first
        lab = min(table2.keys() - table1.keys(), key=table2.get)
        raise LabelMismatchError(f"label '{lab}' not in first tree",
                                 _label_offset(text2, lab), 2) from None
    if len(table2) < len(table1):
        lab = min(table1.keys() - table2.keys(), key=table1.get)
        raise LabelMismatchError(f"label '{lab}' missing from second tree",
                                 len(text2), 2)
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
    """Parse a single tree: (BpTree, LabelTable, weight array or None).

    Mode constraints do not apply to a standalone tree; internal labels
    are kept when present, and weights whenever the text has one.
    """
    scan = _fast_scan(text)
    if scan is not None:
        bits, data, start, length, at, w = scan
        raw = data.tobytes()
        labels = [raw[a:b].decode("utf-8", "surrogatepass") for a, b in
                  zip(start.tolist(), (start + length).tolist())]
        at = at.tolist()
    if scan is None or len(set(labels)) < len(labels):
        bits, table, w, _ = _scan(text, 1)
        bits = np.frombuffer(bits, np.uint8)
        labels, at = table.keys(), table.values()
        w = None if w is None else np.array(w)
    names = [None] * (len(bits) // 2)
    for name, i in zip(labels, at):
        names[i - 1] = name
    return BpTree(bits), LabelTable(names), w


def write_newick(tree: BpTree, labels: LabelTable, weights=None) -> str:
    """Canonical newick text: stored child order, labels verbatim, weights
    in shortest round-trip decimal form, none on the root."""
    bits = tree.to01().tolist()
    m = len(bits)
    wlist = None if weights is None else (
        weights.tolist() if hasattr(weights, "tolist") else list(weights))
    out = []
    stack = []
    idx = 0
    just_closed = False
    p = 0
    while p < m:
        if bits[p]:
            if just_closed:
                out.append(",")
            idx += 1
            if p + 1 < m and bits[p + 1] == 0:
                out.append(labels.name_of(idx) or "")
                if wlist is not None and idx != 1:
                    out.append(f":{wlist[idx - 1]!r}")
                p += 2
                just_closed = True
            else:
                out.append("(")
                stack.append(idx)
                p += 1
                just_closed = False
        else:
            v = stack.pop()
            out.append(")")
            name = labels.name_of(v)
            if name:
                out.append(name)
            if wlist is not None and v != 1:
                out.append(f":{wlist[v - 1]!r}")
            p += 1
            just_closed = True
    out.append(";")
    return "".join(out)
