"""Command line front end: dist, gen, pack, unpack.

Exit codes: 0 success, 1 I/O failure, 2 malformed input (newick, text
that is not UTF-8, or packed bytes; also argparse usage errors),
3 metric/mode mismatch, 4 label-set mismatch.

The generator draws a uniform leaf-split topology: start from a single
leaf and repeatedly split a uniformly chosen leaf into an internal node
with fresh leaf children, two of them in binary mode and 2..4 in random
mode.  One seeded stream drives, in order: the splits, the leaf-label
shuffle, and the per-edge weights in pre-order, so output is a pure
function of (leaves, seed, flags).
"""

import argparse
import random
import sys
import time

from .baseline import PlainNode, _preorder, day_rf_trees, plain_pair
from .distance import METRICS, compute
from .newick import (
    LabelMismatchError,
    ModeError,
    ParseError,
    parse_pair,
    parse_tree,
    write_newick,
)
from .treeio import PackError, pack, size_report, unpack

# ----------------------------------------------------------------------
# tree generation


def _topology(rng, n_leaves, arity):
    root = PlainNode()
    leaves = [root]
    while len(leaves) < n_leaves:
        i = rng.randrange(len(leaves))
        v = leaves[i]
        k = 2 if arity == "binary" else rng.randint(2, 4)
        k = min(k, n_leaves - len(leaves) + 1)
        kids = [PlainNode() for _ in range(k)]
        v.children = kids
        leaves[i] = kids[0]
        leaves.extend(kids[1:])
    return root


def _decorate(rng, root, full, weights):
    order = _preorder(root)
    leaf_nodes = [v for v in order if not v.children]
    names = [f"L{i + 1}" for i in range(len(leaf_nodes))]
    rng.shuffle(names)
    for v, name in zip(leaf_nodes, names):
        v.label = name
    if full:
        k = 0
        for v in order:
            if v.children:
                k += 1
                v.label = f"I{k}"
    if weights:
        for v in order[1:]:
            v.weight = rng.random()


def _emit(root, weights):
    out = []
    OPEN, CLOSE, COMMA = 0, 1, 2
    stack = [(OPEN, root)]
    while stack:
        op, v = stack.pop()
        if op == COMMA:
            out.append(",")
            continue
        if op == CLOSE:
            out.append(")")
            if v.label:
                out.append(v.label)
        elif v.children:
            out.append("(")
            stack.append((CLOSE, v))
            for i in range(len(v.children) - 1, -1, -1):
                stack.append((OPEN, v.children[i]))
                if i:
                    stack.append((COMMA, None))
            continue
        else:
            out.append(v.label)
        if weights and v is not root:
            out.append(f":{v.weight:.6f}")
    out.append(";")
    return "".join(out)


def _internal_count(root):
    return sum(1 for v in _preorder(root) if v.children)


def generate_tree_text(n_leaves, seed, arity="binary", full=False,
                       weights=False):
    rng = random.Random(seed)
    root = _topology(rng, n_leaves, arity)
    _decorate(rng, root, full, weights)
    return _emit(root, weights)


def generate_pair_texts(n_leaves, seed, arity="binary", full=False,
                        weights=False):
    """Two comparable trees from one stream.  Fully-labelled pairs need
    equal internal counts, so the second topology is redrawn until the
    counts agree; the redraws come from the same stream and stay
    deterministic."""
    rng = random.Random(seed)
    r1 = _topology(rng, n_leaves, arity)
    r2 = _topology(rng, n_leaves, arity)
    if full:
        while _internal_count(r2) != _internal_count(r1):
            r2 = _topology(rng, n_leaves, arity)
    _decorate(rng, r1, full, weights)
    _decorate(rng, r2, full, weights)
    return _emit(r1, weights), _emit(r2, weights)


# ----------------------------------------------------------------------
# subcommands


def _read(path, tree_index=1):
    """A file's text, line ends translated as text-mode reading does."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"byte 0x{data[e.start]:02x} is not valid UTF-8",
                         e.start, tree_index) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _format(result, raw=False):
    if result.halved is None:
        return f"{result.raw:.12g}"
    return f"{result.raw:g}" if raw else f"{result.halved:g}"


def cmd_dist(args):
    t0 = time.perf_counter()
    text1 = _read(args.file1, 1)
    text2 = _read(args.file2, 2)
    t1 = time.perf_counter()
    if args.algo == "day":
        if args.metric != "rf":
            raise ModeError("--algo day only computes --metric rf")
        if args.emit_common:
            raise ModeError("--emit-common needs --algo postorder or "
                            "nextsibling")
        # Day's trees come from the error pass alone; parse_pair, for the
        # sizes, runs only under --stats, after the timed phases
        roots = tuple(plain_pair(text1, text2, "rf"))
        t2 = time.perf_counter()
        result = day_rf_trees(*roots)
    else:
        pair = parse_pair(text1, text2, *METRICS[args.metric])
        t2 = time.perf_counter()
        result = compute(pair, args.metric, args.algo,
                         capture=args.emit_common)
    t3 = time.perf_counter()
    print(_format(result, raw=args.raw))
    if args.emit_common:
        for i, j in result.common:
            print(f"{i}\t{j}")
    if args.stats:
        if args.algo == "day":
            pair = parse_pair(text1, text2)
        print(f"stats: read_s={t1 - t0:.6f} parse_s={t2 - t1:.6f} "
              f"distance_s={t3 - t2:.6f} candidates={result.ops.total()} "
              f"held_bytes={pair.nbytes} "
              f"declared_bits={size_report(pair).total_bits}",
              file=sys.stderr)
    return 0


def cmd_gen(args):
    print(generate_tree_text(args.leaves, args.seed, args.arity,
                             args.full_labels, args.weights))
    return 0


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def cmd_pack(args):
    tree, names, w = parse_tree(_read(args.input))
    with open(args.output, "wb") as fh:
        fh.write(pack(tree, names, w))
    if args.report:
        print(size_report(tree))
    return 0


def cmd_unpack(args):
    with open(args.input, "rb") as fh:
        tree, names, w = unpack(fh.read())
    text = write_newick(tree, names, w)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="bprf",
        description="Robinson-Foulds distances over succinct tree encodings")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="distance between two newick files")
    d.add_argument("file1")
    d.add_argument("file2")
    d.add_argument("--metric", choices=METRICS, default="rf",
                   help="rf and wrf read leaf-labelled trees, erf and werf "
                        "fully-labelled ones")
    d.add_argument("--algo", choices=("postorder", "nextsibling", "day"),
                   default="postorder",
                   help="postorder and nextsibling name the same sweep; "
                        "day is the baseline, rf only")
    d.add_argument("--raw", action="store_true",
                   help="print the symmetric-difference count, not half")
    d.add_argument("--emit-common", action="store_true",
                   help="after the value, one 'i<TAB>j' line per matched "
                        "cluster")
    d.add_argument("--stats", action="store_true",
                   help="one line on stderr: read, parse and distance "
                        "seconds, candidates, the pair's bytes held and "
                        "its declared bits")
    d.set_defaults(func=cmd_dist)

    g = sub.add_parser("gen", help="random newick tree on stdout")
    g.add_argument("--leaves", type=_positive_int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--full-labels", action="store_true")
    g.add_argument("--weights", action="store_true")
    g.add_argument("--arity", choices=("binary", "random"), default="binary")
    g.set_defaults(func=cmd_gen)

    k = sub.add_parser("pack", help="newick file to packed bytes")
    k.add_argument("input")
    k.add_argument("output")
    k.add_argument("--report", action="store_true",
                   help="print the size report for the tree")
    k.set_defaults(func=cmd_pack)

    u = sub.add_parser("unpack", help="packed bytes back to newick")
    u.add_argument("input")
    u.add_argument("--output", default="-")
    u.set_defaults(func=cmd_unpack)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LabelMismatchError as e:
        print(f"bprf: {e}", file=sys.stderr)
        return 4
    except (ParseError, PackError) as e:
        print(f"bprf: {e}", file=sys.stderr)
        return 2
    except ModeError as e:
        print(f"bprf: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"bprf: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
