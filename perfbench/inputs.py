"""Seeded inputs for the benchmark workloads.

The benchmark owns its generator, so a change to the program's own
`bprf gen` cannot change what is measured.  A tree is three parallel
lists indexed by node id, node 0 the root: `children` (ids in stored
order), `label` (str or None) and `weight` (float, or the whole list None
for an unweighted tree).  The program only ever sees the newick text.

Topologies come from the uniform leaf-split model: start from one leaf
and repeatedly split a uniformly chosen leaf into 2 (binary) or 2..4
(multifurcating) fresh leaves, optionally under a root whose two
subtrees get half the leaves each.  Related trees come from `perturb`: leaf
subtree prune-and-regraft moves, then every child list shuffled.
"""

import hashlib
import random

N_BIG = 100_000           # leaves per tree in random-100k
IDENTITY_LEAVES = 10_000  # small-matrix's fixed identity tree
MATRIX_TREES = 40
MATRIX_LEAVES = 500
MATRIX_MOVES = 10         # moves from the shared base tree, per tree


class Tree:
    __slots__ = ("children", "label", "weight")

    def __init__(self, children, label, weight):
        self.children = children
        self.label = label
        self.weight = weight

    def copy(self):
        return Tree([list(k) for k in self.children], list(self.label),
                    None if self.weight is None else list(self.weight))

    def newick(self):
        children, label, weight = self.children, self.label, self.weight
        out = []
        stack = [0]  # a node id to emit, ~id to close it, None for ','
        while stack:
            x = stack.pop()
            if x is None:
                out.append(",")
                continue
            if x >= 0:
                kids = children[x]
                if kids:
                    out.append("(")
                    stack.append(~x)
                    for j in range(len(kids) - 1, 0, -1):
                        stack.append(kids[j])
                        stack.append(None)
                    stack.append(kids[0])
                    continue
                out.append(label[x])
            else:
                x = ~x
                out.append(")")
                if label[x] is not None:
                    out.append(label[x])
            if weight is not None and x:
                out.append(f":{weight[x]:.6f}")
        out.append(";")
        return "".join(out)


def leaf_split(rng, n_leaves, max_arity, full=False, weighted=False,
               halves=False):
    """Random tree; leaves get the labels L1..Ln in random order, internal
    nodes I1..Ik in random order when `full`, and every non-root edge a
    uniform (0, 1) weight when `weighted`.  With `halves` the root gets
    two independent subtrees of n/2 leaves each."""
    if halves:
        a = _grow(rng, n_leaves // 2, max_arity)
        b = _grow(rng, n_leaves - n_leaves // 2, max_arity)
        children = ([[1, 1 + len(a)]] + [[k + 1 for k in c] for c in a]
                    + [[k + 1 + len(a) for k in c] for c in b])
    else:
        children = _grow(rng, n_leaves, max_arity)
    label = [None] * len(children)
    _name(rng, label, [v for v, c in enumerate(children) if not c], "L")
    if full:
        _name(rng, label, [v for v, c in enumerate(children) if c], "I")
    weight = None
    if weighted:
        weight = [0.0] + [rng.random() for _ in range(len(children) - 1)]
    return Tree(children, label, weight)


def _grow(rng, n_leaves, max_arity):
    """Uniform leaf-split topology as child lists, node 0 the root."""
    children = [[]]
    leaves = [0]
    while len(leaves) < n_leaves:
        i = rng.randrange(len(leaves))
        k = 2 if max_arity == 2 else rng.randint(2, max_arity)
        k = min(k, n_leaves - len(leaves) + 1)
        first = len(children)
        children[leaves[i]] = list(range(first, first + k))
        children.extend([] for _ in range(k))
        leaves[i] = first
        leaves.extend(range(first + 1, first + k))
    return children


def _name(rng, label, nodes, prefix):
    names = [f"{prefix}{i + 1}" for i in range(len(nodes))]
    rng.shuffle(names)
    for v, nm in zip(nodes, names):
        label[v] = nm


def perturb(rng, tree, moves):
    """A copy of `tree` after `moves` leaf prune-and-regraft moves, with
    every node's children shuffled.

    A pruned leaf's parent left with one child is suppressed, and its id
    (with its label, if any) is reused for the node that the regraft
    inserts into the chosen edge.  Binary trees therefore keep their node
    count and label set, which fully-labelled comparisons need.
    """
    t = tree.copy()
    children, label, weight = t.children, t.label, t.weight
    parent = [-1] * len(children)
    for v, kids in enumerate(children):
        for k in kids:
            parent[k] = v
    leaves = [v for v, kids in enumerate(children) if not kids]
    for _ in range(moves):
        while True:
            x = rng.choice(leaves)
            p = parent[x]
            if p or len(children[0]) > 2:  # never suppress the root
                break
        kids = children[p]
        kids.remove(x)
        if len(kids) == 1:
            s = kids[0]
            g = parent[p]
            gk = children[g]
            gk[gk.index(p)] = s
            parent[s] = g
            if weight is not None:
                weight[s] += weight[p]
            new = p
            children[p] = []
        else:
            new = len(children)
            children.append([])
            parent.append(-1)
            label.append(None)
            if weight is not None:
                weight.append(0.0)
        parent[x] = parent[new] = -1
        while True:  # a node still attached, other than the root
            v = rng.randrange(1, len(children))
            if parent[v] >= 0:
                break
        g = parent[v]
        gk = children[g]
        gk[gk.index(v)] = new
        children[new] = [v, x]
        parent[new] = g
        parent[v] = parent[x] = new
        if weight is not None:
            weight[new] = rng.random()
    for kids in children:
        rng.shuffle(kids)
    return t


class Inputs:
    """One workload's newick texts.

    `texts` holds every distinct tree, `pairs` the (i, j) index pairs
    compared, in the order rounds take them, `per_round` how many pairs a
    round compares in process, `cli_per_round` on how many of them it also
    runs `bprf dist`, and `identity` an optional fixed pair of leaf-labelled
    weighted trees whose `wrf` distance must be exactly 0.
    """

    def __init__(self, metric, texts, pairs, per_round, cli_per_round=1,
                 identity=None):
        self.metric = metric
        self.texts = texts
        self.pairs = pairs
        self.per_round = per_round
        self.cli_per_round = cli_per_round
        self.identity = identity

    def digest(self):
        h = hashlib.sha256()
        for t in self.texts:
            h.update(t.encode())
            h.update(b"\n")
        return h.hexdigest()[:16]


def random_100k(seed):
    rng = random.Random(f"random-100k:{seed}")
    # A free root split makes the share of folds that end at the root, and
    # with it the work, vary by a quarter from seed to seed; halves fix it.
    texts = [leaf_split(rng, N_BIG, 2, halves=True).newick()
             for _ in range(2)]
    return Inputs("rf", texts, [(0, 1)], 1)


def small_matrix(seed):
    rng = random.Random(f"small-matrix:{seed}")
    base = leaf_split(rng, MATRIX_LEAVES, 2, full=True, weighted=True)
    texts = []
    for _ in range(MATRIX_TREES):
        t = perturb(rng, base, MATRIX_MOVES)
        t.weight = [0.0] + [rng.random() for _ in range(len(t.weight) - 1)]
        texts.append(t.newick())
    pairs = [(i, j) for i in range(MATRIX_TREES)
             for j in range(i + 1, MATRIX_TREES)]
    rng.shuffle(pairs)
    # The identity pair does not depend on the seed: its operation fails
    # on every run until the weighted fold sums exactly.
    irng = random.Random("identity")
    i1 = leaf_split(irng, IDENTITY_LEAVES, 4, weighted=True)
    i2 = perturb(irng, i1, 0)
    # Five subprocesses a round, so that cli_wall_s, mostly interpreter
    # start-up here, is a median of enough samples.
    return Inputs("werf", texts, pairs, 20, cli_per_round=5,
                  identity=(i1.newick(), i2.newick()))


WORKLOADS = {
    "random-100k": random_100k,
    "small-matrix": small_matrix,
}
