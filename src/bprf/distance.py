"""The four distances over a parsed pair, from one linear scan of tree 1.

Tree 1's parenthesis sequence already is its depth-first walk, so the
sweep reads it once, left to right, with one frame stack and no
navigation query.  A 1 opens the next node in pre-order and saves the
fold of its parent; a 0 closes the node on top.  Closing right after an
opening bit marks a leaf, the nodes opened since the node's own opening
bit give its subtree size, and the leaves closed since then its leaf
count.  Each closed node's tree-2 image is the lca of its children's
images, and in fully-labelled mode of its own label's image too, which
seeds the fold when the node opens; that image then folds into the
parent.  A cluster is shared exactly when the folded node spans no more
than the original: leaf counts are compared in leaf mode, subtree sizes
in fully-labelled mode.

Unweighted results count internal clusters only, the root included; it
always matches because both trees span the same label set.  Weighted
results are the sum of |w1(c) - w2(c)| over all clusters c, a cluster
missing from a tree weighing 0 there.  One math.fsum adds |w| for every
weight of both trees and -min(|w1(c)|, |w2(c)|), twice, for every shared
cluster whose two weights have the same sign; weights of opposite signs
cost |w1(c)| + |w2(c)| as they stand.  Every term is exact and fsum
rounds the exact sum once, which makes the identity exactly 0.0 and the
result exactly symmetric and never negative.  When a partial sum leaves
the float range, the same terms are summed as fractions and rounded
once, to inf if the sum itself lies past the range.  Leaf singletons
are shared by the label map itself in leaf mode; in fully-labelled mode
a leaf's image must be a leaf too, which is the size test again.

"postorder" and "nextsibling", the names of two earlier tree-1 walks,
both name this sweep; a result echoes the name it was asked for.  Every
call reports how often it touched the tree-2 queries whose per-call cost
is not constant; the counts back the traversal-bound tests.  Tree 1
makes no query, so post_order_select and next_sibling stay 0.
"""

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .newick import ModeError, TreePair

METRICS = ("rf", "erf", "wrf", "werf")
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
    need = "full" if metric in ("erf", "werf") else "leaf"
    if pair.mode != need:
        have = "fully-labelled" if pair.mode == "full" else "leaf-labelled"
        want = "fully-labelled" if need == "full" else "leaf-labelled"
        raise ModeError(f"metric '{metric}' needs a {want} pair, got {have}")
    if metric in ("wrf", "werf") and not pair.weighted:
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
    extended = metric in ("erf", "werf")
    weighted = metric in ("wrf", "werf")
    t2 = pair.t2
    code = pair.code_map.tolist()
    w1 = pair.w1.tolist() if weighted else None
    w2 = pair.w2.tolist() if weighted else None

    # tree-2 queries, looked up on every call so that a wrapper installed
    # on BpTree sees them
    pos2 = t2.pre_order_select
    premap2 = t2.pre_order_map
    lca2 = t2.lca
    size2 = t2.cluster_size if extended else t2.num_leaves

    frames = []     # (pre-order index, leaves before it, parent's fold)
    push = frames.append
    pop = frames.pop
    pre = leaves = 0
    prev = 0
    acc = None      # fold of the node on top; None before any child
    folds = probes = equal = 0
    shared = []     # -min(|w1|, |w2|) per same-sign shared cluster
    common = [] if capture else None

    for bit in pair.t1.bits.to01().tobytes():
        if bit:
            pre += 1
            push((pre, leaves, acc))
            acc = pos2(code[pre - 1]) if extended else None
        else:
            p, before, outer = pop()
            if prev:
                # a leaf: shared by its label, and in fully-labelled mode
                # only if its image is a leaf as well
                leaves += 1
                j = code[p - 1]
                if acc is None:
                    acc = pos2(j)
                matched = weighted
                if weighted and extended:
                    probes += 1
                    matched = size2(acc) == 1
            else:
                probes += 1
                span = pre - p + 1 if extended else leaves - before
                matched = size2(acc) == span
                if matched:
                    equal += 1
                    j = premap2(acc)
                    if capture:
                        common.append((p, j))
            if matched and weighted:
                a, b = w1[p - 1], w2[j - 1]
                if (a < 0) == (b < 0):
                    shared.append(-min(abs(a), abs(b)))
            if outer is not None:
                acc = lca2(outer, acc)
                folds += 1
        prev = bit

    ops = OpCounts(lca=folds)
    if extended:
        ops.cluster_size = probes
    else:
        ops.num_leaves = probes
    if weighted:
        def terms():
            return chain(map(abs, w1), map(abs, w2), shared, shared)
        try:
            raw = math.fsum(terms())
        except OverflowError:
            raw = _fraction_sum(terms())
        halved = None
    else:
        internal1 = pair.t1.n_nodes - leaves
        internal2 = t2.n_nodes - t2.bits.rank10(t2.n_bits)
        raw = internal1 + internal2 - 2 * equal
        halved = raw / 2
    return DistanceResult(metric, impl, raw, halved, equal,
                          None if common is None else tuple(common), ops)


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
