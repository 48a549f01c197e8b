"""Expected outputs, computed from the newick text without the program.

A cluster is the set of labels below a node: leaf labels only in leaf
mode, every label of the subtree in fully-labelled mode.  Each label gets
a random 128-bit key and a cluster is known by the sum of its keys, so
two clusters compare equal exactly when their label sets do, except with
probability about (number of clusters)^2 / 2^128.

Only the texts the benchmark generates are read: labels, ':' weights,
parentheses, commas and the final ';'.
"""

import math
import random
import re

_TOKEN = re.compile(r"[(),;]|:[^(),;:]*|[^(),;:]+")

# A weighted result may differ from the exact sum by this share of the
# grand weight total: the program folds in plain float arithmetic.  The
# cluster matching itself is checked exactly through `equal`.
WEIGHT_TOLERANCE = 1e-9

DRIVERS = ("postorder", "nextsibling")  # the first is the default


class Clusters:
    """One tree's clusters, each mapped to the weight of the edge above
    it (0.0 for the root)."""

    __slots__ = ("leaves", "internal_leaf", "internal_full")

    def __init__(self, text, keys):
        self.leaves = {}          # singletons
        self.internal_leaf = {}   # internal nodes, leaf-label sets
        self.internal_full = {}   # internal nodes, whole-subtree label sets
        stack = []                # per open '(': [leaf sum, full sum]
        node = None               # [leaf sum, full sum, internal, weight]
        for tok in _TOKEN.findall(text):
            c = tok[0]
            if c == "(":
                stack.append([0, 0])
            elif c in ",);":
                if c == ";":
                    node[3] = 0.0  # the root has no edge above it
                self._close(node, stack)
                node = None
                if c == ")":
                    ls, fs = stack.pop()
                    node = [ls, fs, True, 0.0]
                elif c == ";":
                    break
            elif c == ":":
                node[3] = float(tok[1:])
            else:
                k = keys.key(tok)
                if node is None:
                    node = [k, k, False, 0.0]
                else:
                    node[1] += k

    def _close(self, node, stack):
        if node is None:
            return
        ls, fs, internal, w = node
        if internal:
            self.internal_leaf[ls] = w
            self.internal_full[fs] = w
        else:
            self.leaves[ls] = w
        if stack:
            top = stack[-1]
            top[0] += ls
            top[1] += fs


class LabelKeys:
    """label -> random 128-bit key, shared by every tree of a workload."""

    def __init__(self):
        self._rng = random.Random("perfbench-cluster-keys")
        self._keys = {}

    def key(self, label):
        k = self._keys.get(label)
        if k is None:
            k = self._keys[label] = self._rng.getrandbits(128)
        return k


class Expected:
    """What a correct program returns for one pair.

    `raw` is the metric's value (symmetric-difference count, or the
    weighted sum); `equal` the number of shared internal clusters;
    `leaf_raw` / `leaf_equal` the same for plain leaf-mode `rf`, which is
    what Day's algorithm computes on any pair.
    """

    __slots__ = ("metric", "raw", "equal", "leaf_raw", "leaf_equal",
                 "tolerance")

    def __init__(self, metric, c1, c2):
        self.metric = metric
        self.leaf_raw, self.leaf_equal = _rf(c1.internal_leaf,
                                             c2.internal_leaf)
        self.tolerance = 0.0
        if metric == "rf":
            self.raw, self.equal = self.leaf_raw, self.leaf_equal
            return
        full = metric == "werf"
        i1 = c1.internal_full if full else c1.internal_leaf
        i2 = c2.internal_full if full else c2.internal_leaf
        self.equal = len(i1.keys() & i2.keys())
        a = {**c1.leaves, **i1}
        b = {**c2.leaves, **i2}
        terms = [abs(w - b.get(k, 0.0)) for k, w in a.items()]
        terms.extend(w for k, w in b.items() if k not in a)
        self.raw = math.fsum(terms)
        self.tolerance = WEIGHT_TOLERANCE * math.fsum(
            [*a.values(), *b.values()])


def _rf(i1, i2):
    equal = len(i1.keys() & i2.keys())
    return len(i1) + len(i2) - 2 * equal, equal


def expected_for(inputs):
    """Expected results for every pair of a workload, by pair index."""
    keys = LabelKeys()
    trees = [Clusters(t, keys) for t in inputs.texts]
    return {(i, j): Expected(inputs.metric, trees[i], trees[j])
            for i, j in inputs.pairs}


def modes(metric):
    """(parse mode, weighted) for a metric."""
    return ("full" if metric == "werf" else "leaf",
            metric in ("wrf", "werf"))


# ----------------------------------------------------------------------
# checks of the program's outputs, made outside every timed region


class Mismatch(Exception):
    """An output that disagrees with the independent expectation."""


def check_driver(res, exp):
    if res.equal_clusters != exp.equal:
        raise Mismatch(f"{res.algorithm}: {res.equal_clusters} shared "
                       f"clusters, expected {exp.equal}")
    if exp.metric == "rf":
        if res.raw != exp.raw or res.halved != exp.raw / 2:
            raise Mismatch(f"{res.algorithm}: raw {res.raw}, expected "
                           f"{exp.raw}")
    else:
        check_weighted(res.algorithm, res.raw, exp)


def check_weighted(what, value, exp):
    if value < 0:
        raise Mismatch(f"{what}: negative distance {value!r}")
    if abs(value - exp.raw) > exp.tolerance:
        raise Mismatch(f"{what}: {value!r}, expected {exp.raw!r} "
                       f"within {exp.tolerance:.3g}")


def check_day(res, exp):
    if res.raw != exp.leaf_raw or res.equal_clusters != exp.leaf_equal:
        raise Mismatch(f"day: raw {res.raw} / {res.equal_clusters} shared, "
                       f"expected {exp.leaf_raw} / {exp.leaf_equal}")


def check_cli(code, out, exp):
    if code != 0:
        raise Mismatch(f"bprf dist exited {code}: {out.strip()[-200:]}")
    text = out.strip()
    if exp.metric == "rf":
        if text != f"{exp.raw / 2:g}":
            raise Mismatch(f"bprf dist printed {text!r}, expected "
                           f"{exp.raw / 2:g}")
    else:
        check_weighted("bprf dist", float(text), exp)
