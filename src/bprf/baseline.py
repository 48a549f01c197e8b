"""Pointer-based reference implementations.

Everything here exists to check the succinct path from the outside:
cluster sets built literally from the distance definitions, and Day's
linear-time algorithm, which folds both trees into leaf-code intervals
the same way.  Both read pointer trees built from the bits of the
strict error pass, newick._scan, after newick._checked_scans has made
parse_pair's mode, weight and label-set checks, so they reject what
parse_pair rejects, with the same error; they never read the numpy
accepting pass.  Nothing is tuned; the naive cluster construction is
quadratic in the worst case and that is fine at oracle sizes.

The only subtlety worth stating: cluster sets are keyed by sorted tuples
of label ids, and the id numbering comes from the first tree's pre-order
enumeration, so the same ids dictionary must be threaded through both
trees of a comparison.  Unary chains would collapse duplicate clusters
into one key; the strict parser rejects them.
"""

import math

from .distance import METRICS, DistanceResult, OpCounts
from .newick import _checked_scans, _scan


class PlainNode:
    __slots__ = ("label", "weight", "children")

    def __init__(self, label=None, weight=0.0):
        self.label = label
        self.weight = weight
        self.children = []


def _plain(scan):
    """The pointer tree of one _scan: a node per opening bit, in
    pre-order, with its label and weight, the root's weight 0.0."""
    bits, table, weights, _, _ = scan
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


def parse_plain(text: str, tree_index: int = 1) -> PlainNode:
    """The pointer tree of one text, as the error pass reads it.  A text
    the strict parser rejects raises its ParseError; tree_index only
    names the tree in it.  No mode applies: internal labels are kept."""
    return _plain(_scan(text, tree_index))


def plain_pair(text1: str, text2: str, metric: str):
    """Both texts' pointer trees, once they pass parse_pair's checks in
    metric's mode and weighting; otherwise parse_pair's exact error."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    return map(_plain, _checked_scans(text1, text2, *METRICS[metric]))


def _preorder(root):
    order = []
    st = [root]
    while st:
        v = st.pop()
        order.append(v)
        st.extend(reversed(v.children))
    return order


def naive_clusters(root: PlainNode, mode: str = "leaf",
                   weighted: bool = False, ids: dict = None) -> dict:
    """Canonical clusters straight from the definitions: sorted label-id
    tuple -> weight.

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
    return entries


def naive_distance(a: dict, b: dict, metric: str):
    """Literal set algebra over two naive_clusters: symmetric-difference
    count, or the sum of absolute weight differences with absent
    clusters at weight zero, taken in fractions and rounded once (inf
    past the float range)."""
    if not METRICS[metric][1]:
        return (sum(1 for k in a if k not in b)
                + sum(1 for k in b if k not in a))
    from fractions import Fraction  # not loaded by bprf dist
    total = Fraction(0)
    for k, w in a.items():
        total += abs(Fraction(w) - Fraction(b.get(k, 0.0)))
    for k, w in b.items():
        if k not in a:
            total += abs(Fraction(w))
    try:
        return float(total)
    except OverflowError:
        return math.inf


def naive_metric(text1: str, text2: str, metric: str):
    """Parse both texts, then evaluate one metric the slow way."""
    roots = plain_pair(text1, text2, metric)
    mode, weighted = METRICS[metric]
    ids = {}
    cs1, cs2 = (naive_clusters(root, mode, weighted, ids) for root in roots)
    return naive_distance(cs1, cs2, metric)


def _folds(root, code_of):
    """(lo, hi, count) of each internal node, children first: the least
    and greatest code of its leaves and their number; its cluster is the
    code interval [lo, hi] exactly when count == hi - lo + 1."""
    done = []   # the finished subtrees' triples, a node's first child on top
    for v in reversed(_preorder(root)):
        k = len(v.children)
        if not k:
            c = code_of[v.label]
            done.append((c, c, 1))
            continue
        los, his, counts = zip(*done[-k:])
        del done[-k:]
        fold = min(los), max(his), sum(counts)
        done.append(fold)
        yield fold


def day_rf(text1: str, text2: str) -> DistanceResult:
    """Classical linear-time RF: tree-1 clusters become code intervals,
    tree-2 clusters match when they are contiguous, full, and present."""
    return day_rf_trees(*plain_pair(text1, text2, "rf"))


def day_rf_trees(root1: PlainNode, root2: PlainNode) -> DistanceResult:
    """day_rf after parsing, split out so the two phases can be timed.
    It checks nothing: it takes a pair that parse_pair or plain_pair
    accepted, and reads only leaf labels.  Tree 1's leaves are coded 1..L
    in pre-order, so each of its clusters is a full code interval, one
    per internal node since no node has a single child."""
    leaves = (v.label for v in _preorder(root1) if not v.children)
    code_of = {label: c for c, label in enumerate(leaves, 1)}
    intervals = {(lo, hi) for lo, hi, _ in _folds(root1, code_of)}
    internal2 = common = 0
    for lo, hi, count in _folds(root2, code_of):
        internal2 += 1
        common += count == hi - lo + 1 and (lo, hi) in intervals
    raw = len(intervals) + internal2 - 2 * common
    return DistanceResult("rf", "day", raw, raw / 2, common, None, OpCounts())
