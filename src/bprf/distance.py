"""The four distances over a parsed pair, from one linear scan of tree 1.

Tree 1's parenthesis sequence already is its depth-first walk, so the
sweep reads it once, left to right, with one frame stack and no
navigation query.  It reads the bits as tokens: an opening bit that a
closing bit follows is a leaf, any other opening bit opens an internal
node and saves its parent's frame, and any other closing bit closes the
internal node on top.

Whether a cluster is shared is decided by the interval test of Day's
algorithm (W. H. E. Day, J. Classification 2, 1985), run on the succinct
trees with no interval table.  Every element of a cluster gets a rank in
tree 2: in leaf mode a leaf's rank among tree 2's leaves, in
fully-labelled mode a node's tree-2 pre-order index.  A cluster of tree
2 is then a contiguous range of ranks.  The sweep carries the least and
greatest rank of the node on top as plain ints, and folds them into the
parent when the node closes.  A tree-1 cluster can only be shared when
hi - lo + 1 equals its leaf count (leaf mode) or its size
(fully-labelled mode), so only those candidates ask tree 2 anything.  In
leaf mode the lca of the leaves ranked lo and hi must span no other
leaf, and it is the match; rank1 reads that from the bits at its two
edges, with no leaf count.  In fully-labelled mode the node whose
pre-order index is lo must have exactly that subtree size; it is the
match, and no lca is needed.

Every node is a cluster, and a leaf's is its singleton.  Leaf
singletons are shared by the label map itself in leaf mode; in
fully-labelled mode a leaf's image must be a leaf too.  Which are shared
comes from numpy, outside the loop, and asks tree 2 nothing.  Unweighted
results count the clusters of either tree that the other lacks; in leaf
mode the singletons cancel, so only internal clusters count there.  The
root always matches because both trees span the same label set.  Weighted
results are the sum of |w1(c) - w2(c)| over all clusters c, a cluster
missing from a tree weighing 0 there.  One math.fsum adds |w| for every
weight of both trees and -min(|w1(c)|, |w2(c)|), twice, for every shared
cluster whose two weights have the same sign; weights of opposite signs
cost |w1(c)| + |w2(c)| as they stand.  Every term is exact and fsum
rounds the exact sum once, which makes the identity exactly 0.0 and the
result exactly symmetric and never negative.  When a partial sum leaves
the float range, the same terms are summed as fractions and rounded
once, to inf if the sum itself lies past the range.

"postorder" and "nextsibling", the names of two earlier tree-1 walks,
both name this sweep; a result echoes the name it was asked for.  Every
call reports how often it asked the tree-2 queries whose per-call cost
is not constant: an lca per leaf-mode candidate, a cluster_size per
fully-labelled one.  The counts back the traversal-bound tests.  Tree 1
makes no query and no leaf is counted, so post_order_select,
next_sibling and num_leaves stay 0.
"""

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .newick import ModeError, TreePair

# each metric fixes how a pair is read: (labelling mode, weighted)
METRICS = {"rf": ("leaf", False), "erf": ("full", False),
           "wrf": ("leaf", True), "werf": ("full", True)}
IMPLS = ("postorder", "nextsibling")


@dataclass
class OpCounts:
    post_order_select: int = 0
    lca: int = 0
    num_leaves: int = 0
    cluster_size: int = 0
    next_sibling: int = 0

    def total(self) -> int:
        return (self.post_order_select + self.lca + self.num_leaves
                + self.cluster_size + self.next_sibling)


@dataclass(frozen=True)
class DistanceResult:
    metric: str
    algorithm: str
    raw: float            # symmetric-difference count, or the weighted value
    halved: Optional[float]
    equal_clusters: int   # matched non-singleton clusters, root included
    common: Optional[tuple]
    ops: OpCounts

    @property
    def value(self) -> float:
        """What the command line prints by default."""
        return self.raw if self.halved is None else self.halved


def _require(pair: TreePair, metric: str):
    need, weighted = METRICS[metric]
    if pair.mode != need:
        have = "fully-labelled" if pair.mode == "full" else "leaf-labelled"
        want = "fully-labelled" if need == "full" else "leaf-labelled"
        raise ModeError(f"metric '{metric}' needs a {want} pair, got {have}")
    if weighted and not pair.weighted:
        raise ModeError(f"metric '{metric}' needs weights on the pair")


def _fraction_sum(terms) -> float:
    """The exact sum of finite floats, rounded once; inf past the float
    range.  Only sums whose partial sums overflow fsum come here."""
    from fractions import Fraction
    total = sum(map(Fraction, terms))
    try:
        return float(total)
    except OverflowError:
        return math.inf


def _sweep(pair: TreePair, metric: str, impl: str,
           capture: bool) -> DistanceResult:
    if impl not in IMPLS:
        raise ValueError(f"unknown implementation {impl!r}")
    mode, weighted = METRICS[metric]
    extended = mode == "full"
    t2 = pair.t2
    code = pair.code_map

    # a leaf is an opening bit that a closing bit follows; lead marks the
    # leaves' opening bits, leaf the leaves by pre-order index
    bits1 = pair.t1.bits.to01()
    lead1 = bits1[:-1] > bits1[1:]
    leaf1 = lead1[bits1[:-1].view(bool)]
    bits2 = t2.bits.to01()
    lead2 = bits2[:-1] > bits2[1:]
    leaf2 = lead2[bits2[:-1].view(bool)]
    # the tree-2 pre-order index (0-based) of each tree-1 leaf's image, and
    # which images are leaves too: always so in leaf mode
    lj = code[leaf1] - 1
    leaf_image = leaf2[lj]

    # tree 1 as tokens: 1 opens an internal node, 2 is a leaf, 0 closes an
    # internal node
    tokens = bits1.copy()
    tokens[:-1] += lead1
    tokens = tokens[np.insert(~lead1, 0, True)]

    if extended:
        # every node's own tree-2 pre-order index, in tree-1 pre-order
        ranks = code.tolist()
        step = 1

        def confirm(lo, hi, span):
            q = t2.pre_order_select(lo)
            return lo if t2.cluster_size(q) == span else 0
    else:
        # every leaf's tree-2 leaf rank, in tree-1 leaf order; an internal
        # node starts from its first leaf's rank without using it up
        ranks = (np.cumsum(leaf2, dtype=np.int32) - 1)[lj]
        ranks = ranks.tolist()
        leafpos = np.flatnonzero(lead2) + 1
        rank1 = t2.bits.rank1
        step = 0

        def confirm(lo, hi, span):
            # the lca v of leaves lo and hi spans no other leaf when only
            # openings lead from v to leaf lo (at a), and only closings
            # from leaf hi's close (b + 1) to v's; v's close would then be
            # c = b + 1 + excess(b) - excess(v)
            a = int(leafpos[lo])
            b = int(leafpos[hi])
            v = t2.lca(a, b)
            j = rank1(v)
            rb = rank1(b)
            c = v + 1 + 2 * (rb - j)
            return j if rank1(a) - j == a - v and rank1(c) == rb else 0

    frames = []     # (parent's lo, parent's hi, ranks used before, inner)
    push = frames.append
    pop = frames.pop
    k = 0           # ranks used so far
    lo = hi = 0     # least and greatest rank of the node on top
    inner = 0       # internal nodes opened so far
    probes = 0
    found = []      # (inner, tree-2 pre-order index) per shared cluster

    for tok in tokens.tobytes():
        if tok == 2:
            r = ranks[k]
            k += 1
            if r < lo:
                lo = r
            elif r > hi:
                hi = r
        elif tok:
            push((lo, hi, k, inner))
            inner += 1
            lo = hi = ranks[k]
            k += step
        else:
            plo, phi, before, i = pop()
            if hi - lo + before + 1 == k:
                # the ranks are contiguous: a tree-2 cluster if one node
                # spans exactly them
                probes += 1
                j = confirm(lo, hi, k - before)
                if j:
                    found.append((i, j))
            if plo < lo:
                lo = plo
            if phi > hi:
                hi = phi

    # tree-1 pre-order index of each shared cluster, from its inner count
    ps = (np.flatnonzero(~leaf1) + 1)[[i for i, _ in found]]
    js = np.array([j for _, j in found], dtype=np.int64)
    ops = OpCounts(cluster_size=probes) if extended else OpCounts(lca=probes)
    if weighted:
        lp = np.flatnonzero(leaf1)[leaf_image]
        a = pair.w1[np.concatenate([lp, ps - 1])]
        b = pair.w2[np.concatenate([lj[leaf_image], js - 1])]
        same = (a < 0) == (b < 0)
        shared = (-np.minimum(np.abs(a), np.abs(b)))[same].tolist()
        terms = (np.abs(pair.w1).tolist(), np.abs(pair.w2).tolist(),
                 shared, shared)
        try:
            raw = math.fsum(chain(*terms))
        except OverflowError:
            raw = _fraction_sum(chain(*terms))
        halved = None
    else:
        shared = int(leaf_image.sum()) + len(found)
        raw = pair.t1.n_nodes + t2.n_nodes - 2 * shared
        halved = raw / 2
    common = tuple(zip(ps.tolist(), js.tolist())) if capture else None
    return DistanceResult(metric, impl, raw, halved, len(found), common, ops)


def compute(pair: TreePair, metric: str, impl: str = "postorder",
            capture: bool = False) -> DistanceResult:
    """Any of the four metrics by name; the command line goes through
    here.  impl is "postorder" or "nextsibling", both this one sweep."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    _require(pair, metric)
    return _sweep(pair, metric, impl, capture)


def rf_postorder(pair: TreePair, capture: bool = False) -> DistanceResult:
    """Robinson-Foulds over leaf-labelled trees."""
    return compute(pair, "rf", "postorder", capture)


def rf_nextsibling(pair: TreePair, capture: bool = False) -> DistanceResult:
    """rf_postorder under the name "nextsibling"."""
    return compute(pair, "rf", "nextsibling", capture)


def erf(pair: TreePair, impl: str = "postorder",
        capture: bool = False) -> DistanceResult:
    """Extended RF over fully-labelled trees: all nodes fold, subtree
    sizes decide matching."""
    return compute(pair, "erf", impl, capture)


def wrf(pair: TreePair, impl: str = "postorder",
        capture: bool = False) -> DistanceResult:
    """Weighted RF over leaf-labelled trees; singletons are shared by the
    label map, internal clusters by leaf-count matching."""
    return compute(pair, "wrf", impl, capture)


def werf(pair: TreePair, impl: str = "postorder",
         capture: bool = False) -> DistanceResult:
    """Weighted extended RF: wrf's weighted sum with erf's matching."""
    return compute(pair, "werf", impl, capture)
