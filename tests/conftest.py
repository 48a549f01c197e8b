"""Shared test helpers: plain pointer trees and linear-scan oracles.

Everything here but leaves_under and code_map is deliberately naive and
independent of the package internals, so the real structures can be
checked against straight-line reference computations.
"""

import numpy as np

from bprf.bp import subtree_sizes


class PNode:
    __slots__ = ("label", "weight", "children")

    def __init__(self, label=None, weight=0.0):
        self.label = label
        self.weight = weight
        self.children = []


def random_topology(rng, n_leaves, arity="binary"):
    """Uniform leaf-split tree: start from one leaf, repeatedly split a
    uniformly chosen leaf into an internal node with fresh leaf children."""
    root = PNode()
    leaves = [root]
    while len(leaves) < n_leaves:
        i = rng.randrange(len(leaves))
        v = leaves[i]
        k = 2 if arity == "binary" else rng.randint(2, 4)
        k = min(k, n_leaves - len(leaves) + 1)
        kids = [PNode() for _ in range(k)]
        v.children = kids
        leaves[i] = kids[0]
        leaves.extend(kids[1:])
    return root


def preorder(root):
    out = []
    stack = [root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(v.children))
    return out


def assign_labels(root, rng, full=False, weights=False):
    """Leaf labels L1..LN in shuffled order; internal labels I1..Ik and
    uniform weights optional.  Returns the pre-order node list."""
    nodes = preorder(root)
    leaves = [v for v in nodes if not v.children]
    names = [f"L{i + 1}" for i in range(len(leaves))]
    rng.shuffle(names)
    for v, name in zip(leaves, names):
        v.label = name
    if full:
        k = 0
        for v in nodes:
            if v.children:
                k += 1
                v.label = f"I{k}"
    if weights:
        for v in nodes[1:]:
            v.weight = rng.random()
    return nodes


def to_newick(root, weights=False):
    out = []
    OPEN, CLOSE, COMMA = 0, 1, 2
    stack = [(OPEN, root)]
    while stack:
        op, v = stack.pop()
        if op == COMMA:
            out.append(",")
        elif op == CLOSE:
            out.append(")")
            if v.label:
                out.append(v.label)
            if weights and v is not root:
                out.append(f":{v.weight!r}")
        elif v.children:
            out.append("(")
            stack.append((CLOSE, v))
            for idx in range(len(v.children) - 1, -1, -1):
                stack.append((OPEN, v.children[idx]))
                if idx:
                    stack.append((COMMA, None))
        else:
            out.append(v.label or "")
            if weights and v is not root:
                out.append(f":{v.weight!r}")
    out.append(";")
    return "".join(out)


def encode_bits(root):
    """Balanced-parentheses bits of the tree, plus each node's open position
    (1-based) in pre-order node order."""
    bits = []
    pos = {}
    stack = [(root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            bits.append(0)
            continue
        pos[id(v)] = len(bits) + 1
        bits.append(1)
        if v.children:
            stack.append((v, True))
            for c in reversed(v.children):
                stack.append((c, False))
        else:
            bits.append(0)
    nodes = preorder(root)
    return bits, [pos[id(v)] for v in nodes]


def leafset(v):
    acc = set()
    stack = [v]
    while stack:
        u = stack.pop()
        if u.children:
            stack.extend(u.children)
        else:
            acc.add(u.label)
    return acc


# ----------------------------------------------------------------------
# linear-scan oracles over a tree's bits


def rank1_scan(bits, p):
    return sum(bits[:p])

def select_scan(bits, value, i):
    seen = 0
    for idx, b in enumerate(bits):
        if b == value:
            seen += 1
            if seen == i:
                return idx + 1
    raise ValueError("not enough occurrences")


def leaves_under(tree, p=1):
    """Leaves in the subtree of a BpTree open at p: the nodes of size 1
    among the subtree's, which follow the node in pre-order."""
    bits = tree.to01()
    i = rank1_scan(bits.tolist(), p) - 1
    size = subtree_sizes(bits)
    return int((size[i:i + size[i]] == 1).sum())


def code_map(pair):
    """A TreePair's join as one int32 slot per tree-1 node: slot i-1 holds
    the pre-order index in tree 2 of node i's namesake, or 0 if node i
    has no label.  A full pair's ranks are this map; a leaf pair's are
    mapped through both trees' leaves, the nodes of size 1."""
    if pair.mode == "full":
        return pair.ranks
    leaves1, leaves2 = (np.flatnonzero(subtree_sizes(t.to01()) == 1)
                        for t in (pair.t1, pair.t2))
    code = np.zeros(pair.n, np.int32)
    code[leaves1] = leaves2[pair.ranks - 1] + 1
    return code


# ----------------------------------------------------------------------
# comparable pair generation


def count_internal(root):
    return sum(1 for v in preorder(root) if v.children)


def pair_texts(rng, n_leaves, arity="binary", full=False, weights=False,
               crossed=False):
    """Two independently drawn comparable trees over one label set.  In
    fully-labelled mode the internal label pools must coincide, so the
    second topology is redrawn until the internal counts match.  crossed
    shuffles the second tree's labels over all its nodes, so a label can
    be a leaf in one tree and internal in the other."""
    r1 = random_topology(rng, n_leaves, arity)
    r2 = random_topology(rng, n_leaves, arity)
    if full:
        while count_internal(r2) != count_internal(r1):
            r2 = random_topology(rng, n_leaves, arity)
    assign_labels(r1, rng, full=full, weights=weights)
    nodes = assign_labels(r2, rng, full=full, weights=weights)
    if crossed:
        names = [v.label for v in nodes]
        rng.shuffle(names)
        for v, name in zip(nodes, names):
            v.label = name
    return to_newick(r1, weights=weights), to_newick(r2, weights=weights)


def caterpillar_texts(n_leaves):
    """Left-combed caterpillar over L1..Ln and its mirror."""
    text = "L1"
    for i in range(2, n_leaves + 1):
        text = f"({text},L{i})"
    mirror = "L1"
    for i in range(2, n_leaves + 1):
        mirror = f"(L{i},{mirror})"
    return text + ";", mirror + ";"


def related_texts(rng, n_leaves, full=False, moves=50):
    """A weighted mixed-arity tree and a copy after `moves` nearest-
    neighbour interchanges (a child of a node swaps places with that
    node's sibling), with every node's children shuffled and a tenth of
    the weights redrawn.  Most clusters survive, so the pair shares most
    of them; node counts and labels stay the same."""
    root = random_topology(rng, n_leaves, "mixed")
    nodes = assign_labels(root, rng, full=full, weights=True)
    a = to_newick(root, weights=True)
    parent = {id(c): v for v in nodes for c in v.children}
    inner = [v for v in nodes[1:] if v.children]
    for _ in range(moves):
        v = rng.choice(inner)
        u = parent[id(v)]
        i = rng.randrange(len(v.children))
        k = rng.choice([k for k, s in enumerate(u.children) if s is not v])
        x, y = v.children[i], u.children[k]
        v.children[i], u.children[k] = y, x
        parent[id(x)], parent[id(y)] = u, v
    for v in nodes[1:]:
        rng.shuffle(v.children)
        if rng.random() < 0.1:
            v.weight = rng.random()
    return a, to_newick(root, weights=True)
