"""The four distances over a parsed pair, from whole-array passes over
the two trees' bits.

Whether a cluster is shared is decided by the interval test of Day's
algorithm (W. H. E. Day, J. Classification 2, 1985).  Every element of a
cluster gets a rank in tree 2: in leaf mode a leaf's rank among tree 2's
leaves, in fully-labelled mode a node's tree-2 pre-order index.  The
pair holds them (TreePair.ranks), per tree-1 leaf in leaf order or per
node.  A cluster of tree 2 is then a contiguous range of ranks.

Nothing is walked node by node.  One stable sort pairs each tree's
opening bits with their closing bits (bp.subtree_sizes), which gives
every node's subtree size in pre-order.  Tree 1's internal node i then
spans the pre-order slots [i, i + size): its own and its descendants'
ranks in fully-labelled mode, the ranks of its leaves L..R in leaf
mode.  A sparse table over the ranks, built one level at a time in
place, gives the least and greatest rank of every node at once.  A
node can only be shared when those differ by its span less one; only
these candidates are put to tree 2, all in one batch, once tree 1's
arrays are let go.  In fully-labelled mode the tree-2 node whose
pre-order index is the least rank must have the candidate's size; it is
the match.  In leaf mode each internal node of tree 2 spans the leaf
ranks [L, R], and in pre-order the keys L * N - R strictly increase,
since no node has a single child; one searchsorted finds every
candidate's key, and with it the match.  This is Day's cluster table,
built for one call from the bits and dropped after it.

Every node is a cluster, and a leaf's is its singleton.  Leaf
singletons are shared by the ranks themselves in leaf mode; in
fully-labelled mode a leaf's image must be a leaf too.  Unweighted
results count the clusters of either tree that the other lacks; in leaf
mode the singletons cancel, so only internal clusters count there.  The
root always matches because both trees span the same label set.  Weighted
results are the sum of |w1(c) - w2(c)| over all clusters c, a cluster
missing from a tree weighing 0 there.  One math.fsum adds |w| for every
weight of both trees and -min(|w1(c)|, |w2(c)|), twice, for every shared
cluster whose two weights have the same sign; weights of opposite signs
cost |w1(c)| + |w2(c)| as they stand.  The terms become Python floats
one fixed-size chunk at a time, so the sum never holds n of them at
once.  Every term is exact and fsum rounds the exact sum once, which
makes the identity exactly 0.0 and the result exactly symmetric and
never negative.  When a partial sum leaves the float range, the same
terms are summed as fractions and rounded once, to inf if the sum
itself lies past the range.  Shared clusters are captured in tree 1's
closing order.

"postorder" and "nextsibling", the names of two earlier tree-1 walks,
both name this computation; a result echoes the name it was asked for.
Every call reports how many candidates it put to tree 2, in one batch:
as lca in leaf mode and as cluster_size in fully-labelled mode.  The
counts back the traversal-bound tests.  post_order_select, next_sibling
and num_leaves stay 0.
"""

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .bp import subtree_sizes
from .newick import ModeError, TreePair

# each metric fixes how a pair is read: (labelling mode, weighted)
METRICS = {"rf": ("leaf", False), "erf": ("full", False),
           "wrf": ("leaf", True), "werf": ("full", True)}
IMPLS = ("postorder", "nextsibling")
_CHUNK = 1 << 16  # floats made at once for the weighted sum


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


def _floats(a, f):
    """f(a) as Python floats, made _CHUNK at a time: a sum over them never
    holds more than one chunk's list."""
    return chain.from_iterable(f(a[i:i + _CHUNK]).tolist()
                               for i in range(0, a.size, _CHUNK))


def _extremes(vals, lo, hi):
    """The least and the greatest of vals[lo[k]..hi[k]] for every k.

    A sparse table is built one level at a time, in place: at level t
    slot i holds the extremes of the 2**t values from i on.  A range
    whose length lies in [2**t, 2**(t+1)) is covered by two level-t
    windows, one from each end, so its queries are answered before level
    t + 1 overwrites level t.  Two tables of len(vals) slots are held."""
    level = np.frexp(hi - lo + 1)[1] - 1
    by = level.astype(np.int8).argsort(kind="stable")
    least = np.empty(lo.size, vals.dtype)
    most = np.empty(lo.size, vals.dtype)
    mn = vals.copy()
    mx = vals.copy()
    start = 0
    for t, count in enumerate(np.bincount(level).tolist()):
        if t:
            h = 1 << (t - 1)
            w = vals.size - 2 * h + 1   # slots whose 2**t values exist
            np.minimum(mn[:w], mn[h:h + w], out=mn[:w])
            np.maximum(mx[:w], mx[h:h + w], out=mx[:w])
        q = by[start:start + count]
        start += count
        a = lo[q]
        b = hi[q] - ((1 << t) - 1)
        least[q] = np.minimum(mn[a], mn[b])
        most[q] = np.maximum(mx[a], mx[b])
    return least, most


def _sweep(pair: TreePair, metric: str, impl: str,
           capture: bool) -> DistanceResult:
    if impl not in IMPLS:
        raise ValueError(f"unknown implementation {impl!r}")
    mode, weighted = METRICS[metric]
    extended = mode == "full"
    ranks = pair.ranks

    # leaf1 and leaf2 mark the leaves by pre-order index; a leaf is an
    # opening bit that a closing bit follows, or a node of size 1
    bits2 = pair.t2.to01()
    leaf2 = (bits2[:-1] > bits2[1:])[bits2[:-1].view(bool)]
    del bits2
    size = subtree_sizes(pair.t1.to01())
    leaf1 = size == 1

    # tree 1's internal node i spans the pre-order slots [i, end); its
    # ranks are its nodes' tree-2 pre-order indices in fully-labelled
    # mode, its leaves' tree-2 leaf ranks in leaf mode
    inner = np.flatnonzero(~leaf1)
    end = inner + size[inner]
    del size
    if extended:
        # the tree-2 pre-order index (0-based) of each tree-1 leaf's
        # image, and which images are leaves too
        lj = ranks[leaf1] - 1
        leaf_image = leaf2[lj]
        lo, hi = inner, end - 1
    else:
        before = np.zeros(leaf1.size + 1, np.int32)  # leaves before a slot
        np.add.accumulate(leaf1, dtype=np.int32, out=before[1:])
        lo, hi = before[inner], before[end] - 1
        del before
    least, most = _extremes(ranks, lo, hi)
    # the ranks are contiguous: a tree-2 cluster if one node spans them
    cand = np.flatnonzero(most - least == hi - lo)
    inner, end, width = inner[cand], end[cand], (hi - lo)[cand]
    least, most = least[cand], most[cand]
    del lo, hi, cand

    # tree 2, once tree 1's arrays are let go
    size = subtree_sizes(pair.t2.to01())
    if extended:
        # the node whose pre-order index is least must have that many
        # nodes; it is the match
        ok = size[least - 1] == width + 1
        js = least[ok]
    else:
        # tree 2's internal node spans the leaf ranks [L, R], 1-based;
        # taken in pre-order the keys L * N - R strictly increase, since no
        # node has a single child, so one search finds every match
        inner2 = np.flatnonzero(size > 1)
        before = np.zeros(leaf2.size + 1, np.int64)
        np.add.accumulate(leaf2, dtype=np.int64, out=before[1:])
        n_leaves = before[-1]
        # L is one past the leaves before the node, R those before its end
        keys = (before[inner2] * n_leaves + n_leaves
                - before[inner2 + size[inner2]])
        want = least.astype(np.int64) * n_leaves - most
        at = np.searchsorted(keys, want)
        ok = keys[np.minimum(at, keys.size - 1)] == want
        js = inner2[at[ok]] + 1
    del size
    ps = inner[ok] + 1
    probes = inner.size
    ops = OpCounts(cluster_size=probes) if extended else OpCounts(lca=probes)
    if weighted:
        if not extended:  # every leaf's image is the leaf of its rank
            lj, leaf_image = np.flatnonzero(leaf2)[ranks - 1], slice(None)
        lp = np.flatnonzero(leaf1)[leaf_image]
        a = pair.w1[np.concatenate([lp, ps - 1])]
        b = pair.w2[np.concatenate([lj[leaf_image], js - 1])]
        same = (a < 0) == (b < 0)
        low = np.minimum(np.abs(a), np.abs(b))[same]

        def terms():
            return chain(_floats(pair.w1, np.abs), _floats(pair.w2, np.abs),
                         _floats(low, np.negative),
                         _floats(low, np.negative))
        try:
            raw = math.fsum(terms())
        except OverflowError:
            raw = _fraction_sum(terms())
        halved = None
    else:
        shared = (int(leaf_image.sum()) if extended else ranks.size) + ps.size
        raw = pair.t1.n_nodes + pair.t2.n_nodes - 2 * shared
        halved = raw / 2
    common = None
    if capture:
        # tree-1 closing order: by the end of each subtree, and the deeper
        # of two nodes that end together first
        order = np.lexsort((-ps, end[ok]))
        common = tuple(zip(ps[order].tolist(), js[order].tolist()))
    return DistanceResult(metric, impl, raw, halved, ps.size, common, ops)


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
