"""Pointer-based reference implementations.

Everything here exists to check the succinct path from the outside:
cluster sets built literally from the distance definitions, and Day's
linear-time algorithm with its interval tables.  Both read pointer trees
built from the bits of the strict error pass, newick._scan, so they
reject what parse_pair rejects, with the same error; they never read
the numpy accepting pass.  Nothing is tuned; the naive cluster
construction is quadratic in the worst case and that is fine at oracle
sizes.

The only subtlety worth stating: cluster sets are keyed by sorted tuples
of label ids, and the id numbering comes from the first tree's pre-order
enumeration, so the same ids dictionary must be threaded through both
trees of a comparison.  Unary chains would collapse duplicate clusters
into one key; the strict parser rejects them.
"""

from dataclasses import dataclass

import numpy as np

from .distance import METRICS, DistanceResult, OpCounts
from .newick import LabelMismatchError, _scan


class PlainNode:
    __slots__ = ("label", "weight", "children")

    def __init__(self, label=None, weight=0.0):
        self.label = label
        self.weight = weight
        self.children = []


def parse_plain(text: str, tree_index: int = 1) -> PlainNode:
    """The pointer tree of one text, as the error pass reads it: a node
    per opening bit, in pre-order, with its label and weight, the root's
    weight 0.0.  A text the strict parser rejects raises its ParseError;
    tree_index only names the tree in it."""
    bits, table, weights, _, _ = _scan(text, tree_index)
    names = [None] * (len(bits) // 2)
    for name, i in table.items():
        names[i - 1] = name
    nodes = list(map(PlainNode, names, weights or [0.0] * len(names)))
    stack = [PlainNode()]   # holds the root as its child
    it = iter(nodes)
    for bit in bits:
        if bit:
            v = next(it)
            stack[-1].children.append(v)
            stack.append(v)
        else:
            stack.pop()
    return nodes[0]


def _preorder(root):
    order = []
    st = [root]
    while st:
        v = st.pop()
        order.append(v)
        st.extend(reversed(v.children))
    return order


@dataclass
class ClusterSet:
    """Canonical clusters of one tree: sorted label-id tuple -> weight."""

    entries: dict

    def __len__(self):
        return len(self.entries)


def naive_clusters(root: PlainNode, mode: str = "leaf",
                   weighted: bool = False, ids: dict = None) -> ClusterSet:
    """Clusters straight from the definitions.

    Leaf mode collects leaf-label sets of internal nodes, plus leaf
    singletons when weighted.  Full mode collects the label set of every
    subtree, every node included.  ids maps label -> id and is extended
    in pre-order; share one dictionary across the two trees compared.
    """
    if ids is None:
        ids = {}
    order = _preorder(root)
    for v in order:
        if v.label is not None and (mode == "full" or not v.children):
            ids.setdefault(v.label, len(ids) + 1)
    entries = {}
    sets = {}
    for v in reversed(order):
        s = set()
        if mode == "full" or not v.children:
            s.add(ids[v.label])
        for c in v.children:
            s |= sets[id(c)]
        sets[id(v)] = s
        if mode == "full" or v.children or weighted:
            entries[tuple(sorted(s))] = v.weight if weighted else 0.0
    return ClusterSet(entries)


def naive_distance(cs1: ClusterSet, cs2: ClusterSet, metric: str):
    """Literal set algebra: symmetric-difference count, or the sum of
    absolute weight differences with absent clusters at weight zero."""
    a, b = cs1.entries, cs2.entries
    if not METRICS[metric][1]:
        return (sum(1 for k in a if k not in b)
                + sum(1 for k in b if k not in a))
    total = 0.0
    for k, w in a.items():
        total += abs(w - b.get(k, 0.0))
    for k, w in b.items():
        if k not in a:
            total += abs(w)
    return total


def naive_metric(text1: str, text2: str, metric: str):
    """Parse both texts, then evaluate one metric the slow way."""
    mode, weighted = METRICS[metric]
    roots = parse_plain(text1, 1), parse_plain(text2, 2)
    ids = {}
    cs1, cs2 = (naive_clusters(root, mode, weighted, ids) for root in roots)
    return naive_distance(cs1, cs2, metric)


@dataclass
class DayTables:
    """Day's per-node interval table for tree 1 plus the two leaf code
    arrays; four 32-bit values per node and two per leaf."""

    lmin: np.ndarray
    lmax: np.ndarray
    nleaf: np.ndarray
    csize: np.ndarray
    code_by_t1_leaf: np.ndarray
    code_by_t2_leaf: np.ndarray

    def bits(self) -> int:
        arrays = (self.lmin, self.lmax, self.nleaf, self.csize,
                  self.code_by_t1_leaf, self.code_by_t2_leaf)
        return sum(a.size * a.itemsize * 8 for a in arrays)


def build_day_tables(root1: PlainNode, root2: PlainNode):
    """Relabel tree-1 leaves 1..L in traversal order and fold, per node,
    leftmost code, rightmost code, leaf count, and subtree size.  Every
    tree-1 cluster is then the full code interval [lmin, lmax]."""
    order = _preorder(root1)
    n = len(order)
    lmin = np.zeros(n, dtype=np.int32)
    lmax = np.zeros(n, dtype=np.int32)
    nleaf = np.zeros(n, dtype=np.int32)
    csize = np.zeros(n, dtype=np.int32)
    index = {id(v): i for i, v in enumerate(order)}
    code_of = {}
    for v in order:
        if not v.children:
            code_of[v.label] = len(code_of) + 1
    for v in reversed(order):
        i = index[id(v)]
        if not v.children:
            c = code_of[v.label]
            lmin[i] = lmax[i] = c
            nleaf[i] = 1
            csize[i] = 1
        else:
            ks = [index[id(c)] for c in v.children]
            lmin[i] = min(int(lmin[k]) for k in ks)
            lmax[i] = max(int(lmax[k]) for k in ks)
            nleaf[i] = sum(int(nleaf[k]) for k in ks)
            csize[i] = 1 + sum(int(csize[k]) for k in ks)

    t2_leaves = [v for v in _preorder(root2) if not v.children]
    codes2 = np.zeros(len(t2_leaves), dtype=np.int32)
    for i, v in enumerate(t2_leaves):
        c = code_of.get(v.label)
        if c is None:
            raise LabelMismatchError(f"label '{v.label}' not in first tree",
                                     0, 2)
        codes2[i] = c
    if len(t2_leaves) != len(code_of):
        raise LabelMismatchError("leaf sets differ in size", 0, 2)

    tables = DayTables(lmin, lmax, nleaf, csize,
                       np.arange(1, len(code_of) + 1, dtype=np.int32),
                       codes2)
    return tables, order, code_of


def day_rf(text1: str, text2: str) -> DistanceResult:
    """Classical linear-time RF: tree-1 clusters become code intervals,
    tree-2 clusters match when they are contiguous, full, and present."""
    return day_rf_trees(parse_plain(text1, 1), parse_plain(text2, 2))


def day_rf_trees(root1: PlainNode, root2: PlainNode) -> DistanceResult:
    """day_rf after parsing; split out so the two phases can be timed."""
    tables, order1, code_of = build_day_tables(root1, root2)

    index = {id(v): i for i, v in enumerate(order1)}
    intervals = set()
    internal1 = 0
    for v in order1:
        if v.children:
            internal1 += 1
            i = index[id(v)]
            intervals.add((int(tables.lmin[i]), int(tables.lmax[i])))

    order2 = _preorder(root2)
    fold = {}
    internal2 = 0
    common = 0
    for v in reversed(order2):
        if not v.children:
            c = code_of[v.label]
            fold[id(v)] = (c, c, 1)
        else:
            internal2 += 1
            lo = hi = None
            cnt = 0
            for ch in v.children:
                a, b, k = fold.pop(id(ch))
                lo = a if lo is None else min(lo, a)
                hi = b if hi is None else max(hi, b)
                cnt += k
            fold[id(v)] = (lo, hi, cnt)
            if cnt == hi - lo + 1 and (lo, hi) in intervals:
                common += 1

    raw = internal1 + internal2 - 2 * common
    return DistanceResult("rf", "day", raw, raw / 2, common, None, OpCounts())
