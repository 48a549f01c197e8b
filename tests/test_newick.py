"""Parser tests: frozen join tables, error offsets, round trips."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bprf import newick
from bprf.newick import (
    LabelMismatchError,
    ModeError,
    ParseError,
    TreePair,
    parse_pair,
    parse_tree,
    write_newick,
)

from bprf.cli import generate_pair_texts, generate_tree_text

from conftest import (
    assign_labels,
    encode_bits,
    preorder,
    random_topology,
    to_newick,
)

T4 = "(((A,B),C),(D,E,F));"
T5 = "((D,E,F),(B,(A,C)));"
T2 = "(((B,C)F,D)G,(A,E)H)I;"
T3 = "((B,(D,C)F)G,(A,E)H)I;"
W1 = "(((B:0.2,C:0.2)W:0.3,D:0.5)X:0.6,(A:0.5,E:0.5)Y:0.6)Z;"


def bits01(tree):
    return "".join(map(str, tree.to01().tolist()))


def test_bit_encoding():
    assert bits01(parse_tree(T4)[0]) == "11110100100110101000"
    assert bits01(parse_tree(T5)[0]) == "11101010011011010000"


def test_labels_by_preorder_index():
    tree, labels, w = parse_tree(T4)
    assert w is None
    assert labels.name_of(1) is None
    assert labels.name_of(4) == "A"
    assert labels.name_of(6) == "C"
    assert labels.name_of(10) == "F"


def test_code_map_frozen():
    pair = parse_pair(T4, T5)
    assert pair.mode == "leaf"
    assert pair.code_map.dtype == np.int32
    assert pair.code_map.tolist() == [0, 0, 0, 9, 7, 10, 0, 3, 4, 5]
    assert pair.n == 10
    assert not pair.weighted


def test_code_map_full_mode():
    pair = parse_pair(T2, T3, mode="full")
    assert pair.mode == "full"
    # every slot is mapped and the mapping preserves labels
    assert all(pair.code_map > 0)
    labels1, labels2 = parse_tree(T2)[1], parse_tree(T3)[1]
    for i in range(1, pair.n + 1):
        j = int(pair.code_map[i - 1])
        assert labels2.name_of(j) == labels1.name_of(i)


def test_weights_and_sum():
    pair = parse_pair(W1, W1, mode="full", weighted=True)
    expect = [0.0, 0.6, 0.3, 0.2, 0.2, 0.5, 0.6, 0.5, 0.5]
    assert pair.w1.tolist() == expect
    assert pair.w2.tolist() == expect
    assert math.fsum(pair.w1) + math.fsum(pair.w2) == \
        pytest.approx(6.8, abs=1e-12)
    # two 3-byte payloads, nine int32 ranks and two weight vectors
    assert pair.nbytes == 3 + 3 + 9 * 4 + 2 * 9 * 8


def test_weights_sum_against_char_scan():
    # independent extraction: walk the text, read every ':' literal, drop
    # the one that closes the whole tree
    def scan_sum(text):
        total = 0.0
        depth = 0
        i = 0
        vals = []
        while i < len(text):
            c = text[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            if c == ":":
                j = i + 1
                while j < len(text) and text[j] not in "(),;:":
                    j += 1
                vals.append((depth, float(text[i + 1:j])))
                i = j
                continue
            i += 1
        return sum(v for d, v in vals if d > 0)

    for text, mode in ((W1, "full"),
                       ("(A:1.5,(B:2.25,C:0.5):3.0):9.0;", "leaf")):
        pair = parse_pair(text, text, mode=mode, weighted=True)
        assert math.fsum(pair.w1) + math.fsum(pair.w2) == \
            pytest.approx(2 * scan_sum(text), abs=1e-12)


def test_root_weight_discarded():
    tree, labels, w = parse_tree("(A:1.5,B:2.5):7;")
    assert w.tolist() == [0.0, 1.5, 2.5]


def test_weight_forms():
    _, _, w = parse_tree("(A:1,B:.5,C:+2e-3,D:-1.25E2,E:3.);")
    assert w.tolist() == [0.0, 1.0, 0.5, 0.002, -125.0, 3.0]


@pytest.mark.parametrize("text,offset,what", [
    ("((A,B);", 6, "unbalanced"),
    ("(A,B));", 5, "expected a node"),
    ("(A,A);", 3, "duplicate"),
    ("(A,B)", 5, "missing ';'"),
    ("(A:1x,B);", 2, "malformed weight"),
    ("(A,,B);", 3, "expected a node"),
    ("(A B,C);", 3, "unexpected label"),
    (";", 0, "empty tree"),
    ("(A,B); junk", 7, "trailing"),
    ("(A,B valid);", 5, "unexpected label"),
    ("(A:1:2,B);", 4, "unexpected weight"),
    ("(:1,B);", 1, "unexpected weight"),
    ("(A[&x],B);", 2, "comments are not supported"),
    ("(A,B)[&R];", 5, "comments are not supported"),
    ("('A B',C);", 1, "quoted labels are not supported"),
    ("(A:1e999,B);", 2, "not finite"),
    ("(A,B):-1e400;", 5, "not finite"),
])
def test_parse_errors(text, offset, what):
    with pytest.raises(ParseError) as ei:
        parse_tree(text)
    assert ei.value.offset == offset
    assert what in str(ei.value)


# a node with one child repeats its child's cluster; such inputs once gave
# rf -1 for "((A),B);" against "(A,B);" (Day and the oracle give 1)
@pytest.mark.parametrize("text,offset", [
    ("((A),B);", 3),
    ("(((A,B)),C);", 7),
    ("((A)X,B)Y;", 3),
    ("((A,B));", 6),
    ("(A);", 2),
    ("((A:1):2,B:1);", 5),
])
def test_unary_node_rejected(text, offset):
    with pytest.raises(ParseError) as ei:
        parse_tree(text)
    assert ei.value.offset == offset
    assert "single child" in str(ei.value)
    for k, (a, b) in ((1, (text, "(A,B);")), (2, ("(A,B);", text))):
        with pytest.raises(ParseError) as ei:
            parse_pair(a, b)
        assert (ei.value.tree_index, ei.value.offset) == (k, offset)


def test_parse_error_reports_tree_index():
    with pytest.raises(ParseError) as ei:
        parse_pair("(A,B);", "((A,B);")
    assert ei.value.tree_index == 2
    assert "tree 2" in str(ei.value)


def test_label_mismatch():
    with pytest.raises(LabelMismatchError) as ei:
        parse_pair("(A,(B,C));", "((A,B),D);")
    assert ei.value.offset == 7
    assert "'D'" in str(ei.value)

    with pytest.raises(LabelMismatchError) as ei:
        parse_pair("(A,(B,C));", "(A,B);")
    assert "'C'" in str(ei.value)
    assert ei.value.offset == 6

    # a tree-2 label missing from tree 1 is reported at its token, a
    # tree-1 label missing from tree 2 at the end of the second text; of
    # several, the first in pre-order, though the label tables hold Z, Q
    # and X after the leaves below them
    for a, b, mode, label, offset in (
            ("((A,B)X,C)R;", "((A,B)Z,C)R;", "full", "'Z'", 6),
            ("((A,B),(C,D));", "((A,B),(C, E));", "leaf", "'E'", 11),
            ("((A,B)X,C)R;", "((A,Q)Z,C)R;", "full", "'Z' not in", 6),
            ("((A,Q)Z,C)R;", "((A,B)X,C)R;", "full", "'X' not in", 6),
            ("((A,B)X,C)R;", "(A,C)R;", "full", "'X' missing", 7)):
        with pytest.raises(LabelMismatchError) as ei:
            parse_pair(a, b, mode=mode)
        assert (ei.value.tree_index, ei.value.offset) == (2, offset)
        assert label in str(ei.value)


def test_mode_validation():
    with pytest.raises(ModeError) as ei:
        parse_pair(T2, T3, mode="leaf")
    assert ei.value.offset == 7 and ei.value.tree_index == 1

    with pytest.raises(ModeError) as ei:
        parse_pair("((A,B)X,C)R;", "((A,B),C)R;", mode="full")
    assert ei.value.offset == 1 and ei.value.tree_index == 2

    # an unlabelled node is reported at its '(', past weights and
    # whitespace; of several, the first in pre-order
    for a, b, k, offset in (
            ("((A:1, B:2)X:1,(C,D))R;", "((A,B)X,(C,D)Y)R;", 1, 15),
            ("((A,B),(C,D))R;", "((A,B)X,(C,D)Y)R;", 1, 1),
            ("((A,B)X,(C,D)Y)R;", "(\n (A:1,B:2)X:1 ,( C , D ) )R;", 2, 17)):
        with pytest.raises(ModeError) as ei:
            parse_pair(a, b, mode="full")
        assert (ei.value.tree_index, ei.value.offset) == (k, offset)
        assert "unlabelled node" in str(ei.value)

    # the metric fixes the mode; nothing guesses it from the input
    for mode in ("strict", "auto"):
        with pytest.raises(ValueError):
            parse_pair(T4, T5, mode=mode)


def test_write_newick_fixed():
    tree, labels, w = parse_tree(W1)
    assert write_newick(tree, labels, w) == \
        "(((B:0.2,C:0.2)W:0.3,D:0.5)X:0.6,(A:0.5,E:0.5)Y:0.6)Z;"
    assert write_newick(tree, labels) == "(((B,C)W,D)X,(A,E)Y)Z;"


def test_pair_retains_few_bits_per_node():
    # the pair keeps two encodings, the ranks and the weights; the label
    # bytes and the join arrays die inside parse_pair.  A leaf pair holds
    # one int32 rank per leaf, about 20.7 bits/node at 10k leaves, so a
    # map slot per node (32 bits more) fails the bound.  A full weighted
    # pair holds a rank per node and two float64 weight vectors, about
    # 165; the margin is under the 18 or more that a rank directory held
    # as Python ints would add
    for full, bound in ((False, 26), (True, 176)):
        a, b = generate_pair_texts(10_000, 3, full=full, weights=full)
        tracemalloc.start()
        try:
            pair = parse_pair(a, b, mode="full" if full else "leaf",
                              weighted=full)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held * 8 / pair.n < bound


def test_whitespace_tolerated():
    pair = parse_pair(" ( (A , B) ,\n\tC ) ;", "(C,(B,A));")
    assert pair.code_map.tolist() == [0, 0, 5, 4, 2]
    # every character str.isspace accepts is whitespace, ASCII (the
    # accepting pass) or not (the error pass)
    for ws in "\x0b\x0c\x1c\x1d\x1e\x1f\xa0\u2003":
        pair = parse_pair(f"({ws}(A,{ws}B),C{ws}){ws};", "(C,(B,A));")
        assert pair.code_map.tolist() == [0, 0, 5, 4, 2]
        with pytest.raises(ParseError) as ei:
            parse_tree(f"(A{ws}B,C);")
        assert ei.value.offset == 3 and "unexpected label" in str(ei.value)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40),
       st.sampled_from(["binary", "mixed"]), st.booleans(), st.booleans())
def test_roundtrip_random(seed, n_leaves, arity, full, weighted):
    import random

    rng = random.Random(seed)
    root = random_topology(rng, n_leaves, arity)
    assign_labels(root, rng, full=full, weights=weighted)
    text = to_newick(root, weights=weighted)
    tree, labels, w = parse_tree(text)

    bits, _ = encode_bits(root)
    assert tree.to01().tolist() == bits
    assert write_newick(tree, labels, w) == text
    if weighted:
        assert w[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30))
def test_leaf_join_random(seed, n_leaves):
    import random

    rng = random.Random(seed)
    r1 = random_topology(rng, n_leaves, "binary")
    r2 = random_topology(rng, n_leaves, "mixed")
    assign_labels(r1, rng)
    assign_labels(r2, rng)
    text1, text2 = to_newick(r1), to_newick(r2)
    pair = parse_pair(text1, text2)
    labels1, labels2 = parse_tree(text1)[1], parse_tree(text2)[1]

    nonzero = 0
    for i in range(1, pair.n + 1):
        j = int(pair.code_map[i - 1])
        name = labels1.name_of(i)
        if name is None:
            assert j == 0
        else:
            nonzero += 1
            assert labels2.name_of(j) == name
    assert nonzero == n_leaves


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_leaf_ranks_random(seed, n_leaves):
    # a leaf pair holds, per tree-1 leaf in leaf order, the rank of its
    # namesake among tree 2's leaves, by either pass: a non-ASCII space
    # sends a text to the error pass
    rng = random.Random(seed)
    texts = []
    for arity in ("binary", "mixed"):
        root = random_topology(rng, n_leaves, arity)
        assign_labels(root, rng)
        texts.append(to_newick(root))
    names1, names2 = ([name for name in parse_tree(t)[1]._names if name]
                      for t in texts)
    spaced = texts[0].replace(";", "\u2003;")
    assert newick._fast_scan(spaced) is None
    for text1 in texts[0], spaced:
        ranks = parse_pair(text1, texts[1]).ranks
        assert ranks.dtype == np.int32
        assert sorted(ranks.tolist()) == list(range(1, n_leaves + 1))
        assert [names2[r - 1] for r in ranks.tolist()] == names1


# ----------------------------------------------------------------------
# the accepting pass against the error pass


def _outcome(parse, *args, **kw):
    """What a parse gives, as comparable values: its result with the
    weights' exact bytes, or its error's type, message, offset and tree."""
    try:
        r = parse(*args, **kw)
    except ValueError as e:
        return type(e), str(e), getattr(e, "offset", None), \
            getattr(e, "tree_index", None)

    def w(a):
        return None if a is None else (a.dtype.str, a.tobytes())

    if isinstance(r, TreePair):
        return (r.t1.to01().tobytes(), r.t2.to01().tobytes(),
                r.code_map.dtype.str, r.code_map.tobytes(),
                r.ranks.dtype.str, r.ranks.tobytes(), w(r.w1), w(r.w2),
                r.mode)
    tree, labels, weights = r
    return tree.to01().tobytes(), tuple(labels._names), w(weights)


def _both_passes(parse, *args, **kw):
    """The outcome as parse gives it, and with the accepting pass made to
    give up, so that _scan reads every text."""
    fast = _outcome(parse, *args, **kw)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(newick, "_fast_scan", lambda *a, **k: None)
        slow = _outcome(parse, *args, **kw)
    return fast, slow


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30),
       st.sampled_from(["binary", "mixed"]), st.booleans(), st.booleans(),
       st.sampled_from(["leaf", "full"]), st.booleans())
def test_fast_path_matches_error_pass(seed, n_leaves, arity, full, weights,
                                      mode, weighted):
    _check_random_pair(seed, n_leaves, arity, full, weights, mode, weighted)


def _check_random_pair(seed, n_leaves, arity, full, weights, mode,
                       weighted):
    rng = random.Random(seed)
    texts = []
    for _ in range(2):
        root = random_topology(rng, n_leaves, arity)
        assign_labels(root, rng, full=full, weights=weights)
        texts.append(to_newick(root, weights=weights))
    fast, slow = _both_passes(parse_pair, *texts, mode=mode,
                              weighted=weighted)
    assert fast == slow
    if not isinstance(slow[0], type):  # a pair accepted, by both passes
        assert newick._fast_pair(*texts, mode, weighted) is not None
    for text in texts:
        fast, slow = _both_passes(parse_tree, text)
        assert fast == slow
        # every tree here is accepted, and by the accepting pass
        assert newick._fast_scan(text) is not None


# characters that make and break tokens, odd whitespace and non-ASCII
# among them (label characters and a digit too), and fragments that make
# whole tokens
_FUZZ = list("(),;:[]' \t\n\r\x0b\x0c\x1c\x1f\xa0\u2003AB1.5e-+_\x00"
             "\xe9\u0661\u6728\U0001f332") + [
    "L1", "I1", "L2", ":0.5", ":-0", "1e999", ":nan", ")I2"]


def _mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 and chars:
            del chars[min(i, len(chars) - 1)]
        elif op == 1:
            chars.insert(i, rng.choice(_FUZZ))
        elif chars:
            chars[min(i, len(chars) - 1)] = rng.choice(_FUZZ)
    return "".join(chars)


def test_fast_path_matches_error_pass_on_mutants():
    assert _check_mutants(random.Random(20261019), 1500) > 300


def _check_mutants(rng, rounds):
    """Both passes on rounds random pairs, mostly one text mutated; the
    number of pairs accepted."""
    accepted = 0
    for _ in range(rounds):
        n_leaves = rng.randint(1, 10)
        arity = rng.choice(["binary", "mixed"])
        full, weights = rng.random() < 0.5, rng.random() < 0.5
        texts = []
        for _ in range(2):
            root = random_topology(rng, n_leaves, arity)
            assign_labels(root, rng, full=full, weights=weights)
            texts.append(to_newick(root, weights=weights))
        k = rng.randrange(3)  # 2: neither text mutated
        if k < 2:
            texts[k] = _mutate(rng, texts[k])
        # mostly the mode and weighting that fit the texts
        mode = "full" if full != (rng.random() < 0.1) else "leaf"
        weighted = weights != (rng.random() < 0.1)
        fast, slow = _both_passes(parse_pair, *texts, mode=mode,
                                  weighted=weighted)
        assert fast == slow, texts
        accepted += not isinstance(fast[0], type)
        for text in texts:
            fast, slow = _both_passes(parse_tree, text)
            assert fast == slow, text
    return accepted


@pytest.mark.parametrize("full,weights", [(False, False), (True, False),
                                          (False, True), (True, True)])
def test_fast_path_taken(full, weights):
    # if the accepting pass gave up on ordinary input, every answer would
    # stay right and only the benchmark would show it
    mode = "full" if full else "leaf"
    text = generate_tree_text(3000, 11, "random", full, weights)
    a, b = generate_pair_texts(3000, 12, "random", full, weights)
    # labels of one, two, three and four UTF-8 bytes a character take the
    # same pass, and come out as the error pass reads them
    wide = [t.replace("L", "Lé").replace("I", "Iλ木🌲")
            for t in (text, a, b)]
    for t, u, v in ((text, a, b), wide):
        assert newick._fast_scan(t) is not None
        assert newick._fast_scan(t, mode, weights) is not None
        with pytest.MonkeyPatch.context() as m:
            m.setattr(newick, "_scan", None)  # any fallback fails the test
            parse_pair(u, v, mode, weights)
            parse_tree(t)
    fast, slow = _both_passes(parse_pair, *wide[1:], mode=mode,
                              weighted=weights)
    assert fast == slow
    fast, slow = _both_passes(parse_tree, wide[0])
    assert fast == slow
    assert "Lé1" in parse_tree(wide[0])[1]._names


@pytest.mark.parametrize("text", [
    "((A\xa0,B),C);",          # a space that is not ASCII
    "((A,B)\u3000,C);",
    "((A:1,B:\u0661),C);",     # an Arabic-Indic digit, which float reads
    "((A:1,B:2\u00e9),C);",
])
def test_wide_space_and_digit_left_to_error_pass(text):
    assert newick._fast_scan(text) is None
    fast, slow = _both_passes(parse_tree, text)
    assert fast == slow


def test_fast_path_taken_on_deep_caterpillar():
    # depth 69,999: the sort keys stay int32; as int16 the levels 65,536
    # apart would share a key and internal labels would land on the
    # wrong nodes
    n = 70_000
    text = ("(" * (n - 1) + "L0"
            + "".join(f",L{i})I{i}:{i}" for i in range(1, n)) + ";")
    scan = newick._fast_scan(text, "full", True)
    assert scan is not None
    fbits, data, start, length, at, fw = scan
    bits, table, w, _ = newick._scan(text, 1)
    assert fbits.tobytes() == bytes(bits)
    # the label spans, decoded, are the labels _scan read, node for node
    raw = data.tobytes()
    names = [raw[a:a + k].decode() for a, k in
             zip(start.tolist(), length.tolist())]
    assert len(names) == len(table)
    assert dict(zip(names, at.tolist())) == table
    assert fw.tolist() == w.tolist()


@pytest.mark.parametrize("a,b,mode", [
    ("(A,A,B);", "(A,B);", "leaf"),        # tree 1's table has 2 labels
    ("(A,B,C);", "(A,A,C);", "leaf"),      # tree 2's labels all in tree 1
    ("((A,B)A,C)R;", "((A,B)X,C)R;", "full"),
    ("((A,B)X,C)R;", "((A,B)X,C)A;", "full"),
])
def test_repeated_label_left_to_error_pass(a, b, mode):
    fast, slow = _both_passes(parse_pair, a, b, mode=mode)
    assert fast == slow
    assert fast[0] is ParseError and "duplicate label" in fast[1]


# ----------------------------------------------------------------------
# the label join: sorted hashes, then a byte-for-byte check


def _length_hash(lb, pos, lead, length):
    """A label hash under which every two labels of one length collide."""
    return length.astype(np.uint64)


_JOIN_PAIRS = [
    (T4, T5, "leaf"),
    (T2, T3, "full"),
    ("(A,(BB,CCC));", "((CCC,A),BB);", "leaf"),     # lengths all differ
    ("(A,(BB,CCC));", "(X,(BB,CCC));", "leaf"),     # same lengths, not labels
    ("(A,(B,C));", "(A\x00,(B,C));", "leaf"),       # a trailing NUL
    ("(A,A\x00,B);", "(B,(A\x00,A));", "leaf"),
    ("(AB,(BA,C));", "(BA,(AB,C));", "leaf"),       # byte order
    ("(AB,C,D);", "(BA,C,D);", "leaf"),
    ("(Lé,(Lè,C));", "(Lè,(Lé,C));", "leaf"),       # non-ASCII, same length
    ("(Lé,(L,C));", "(Lè,(L,C));", "leaf"),
    ("((A,B)é,C)R;", "((A,B)è,C)R;", "full"),
    ("(A,B,C);", "(A,A,B);", "leaf"),               # repeated in tree 2
    ("(A,B,B);", "(A,B,C);", "leaf"),               # repeated in tree 1
]


@pytest.mark.parametrize("a,b,mode", _JOIN_PAIRS)
def test_join_edge_cases(a, b, mode):
    fast, slow = _both_passes(parse_pair, a, b, mode=mode)
    assert fast == slow
    if fast[0] is LabelMismatchError:
        assert set(newick._LABEL.findall(a)) != set(newick._LABEL.findall(b))


@pytest.mark.parametrize("a,b,mode", _JOIN_PAIRS)
def test_hash_collision_sent_to_error_pass(a, b, mode):
    _check_collision(a, b, mode)


def _check_collision(a, b, mode):
    # with every two labels of a length colliding, the answer is the
    # same: a collision costs time, never a wrong join
    want = _outcome(parse_pair, a, b, mode=mode)
    calls = []
    checked = newick._checked_pair
    with pytest.MonkeyPatch.context() as m:
        m.setattr(newick, "_label_hashes", _length_hash)
        m.setattr(newick, "_checked_pair",
                  lambda *args: calls.append(1) or checked(*args))
        assert _outcome(parse_pair, a, b, mode=mode) == want
    lengths = [len(s.encode()) for s in newick._LABEL.findall(a)]
    if len(set(lengths)) < len(lengths):
        assert calls  # the collision gave the pair to the error pass


def test_hash_collision_on_generated_pairs():
    _check_collision_generated()


def _check_collision_generated():
    for full, weights in ((False, False), (True, True)):
        mode = "full" if full else "leaf"
        a, b = generate_pair_texts(300, 5, "random", full, weights)
        want = _outcome(parse_pair, a, b, mode=mode, weighted=weights)
        assert not isinstance(want[0], type)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(newick, "_label_hashes", _length_hash)
            assert newick._fast_pair(a, b, mode, weights) is None
            assert _outcome(parse_pair, a, b, mode=mode,
                            weighted=weights) == want


def test_long_labels_join():
    # labels past 8 bytes, two past 10,000 that differ only in their last
    # byte, and one longer than a chunk, which is hashed and checked as a
    # chunk of its own, take the accepting pass and join as _scan does
    long = "L" * 10_000
    huge = "H" * 70_000
    assert len(huge) > newick._BYTES
    names = [f"label{i:05d}" for i in range(40)] + [long + "a", long + "b",
                                                     huge]
    rng = random.Random(7)
    a, b = (_named_tree(rng, names) for _ in range(2))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(newick, "_scan", None)  # the accepting pass only
        pair = parse_pair(a, b)
    assert np.count_nonzero(pair.code_map) == len(names)
    fast, slow = _both_passes(parse_pair, a, b)
    assert fast == slow
    # the two long labels swapped in tree 2, and one of them changed in
    # its last byte
    swapped = b.replace(long + "a", "X").replace(long + "b", long + "a")
    swapped = swapped.replace("X", long + "b")
    for other in (swapped, b.replace(long + "b", long + "c")):
        fast, slow = _both_passes(parse_pair, a, other)
        assert fast == slow
    assert fast[0] is LabelMismatchError
    assert _outcome(parse_pair, a, swapped) != _outcome(parse_pair, a, b)


def _named_tree(rng, names):
    """A random multifurcating tree with the given leaf names, shuffled."""
    root = random_topology(rng, len(names), "mixed")
    leaves = [v for v in preorder(root) if not v.children]
    for v, name in zip(leaves, rng.sample(names, len(names))):
        v.label = name
    return to_newick(root)


# ----------------------------------------------------------------------
# chunks: the accepting pass makes its index arrays and its per-byte
# label and literal products _BYTES slots or bytes at a time.  With
# _BYTES made small, every label, literal and token array of these texts
# crosses chunk edges, and the answers stay the error pass's

_CHUNK_SIZES = (1, 7, 64)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_CHUNK_SIZES), st.integers(0, 2**32 - 1),
       st.integers(1, 30), st.sampled_from(["binary", "mixed"]),
       st.booleans(), st.booleans(), st.sampled_from(["leaf", "full"]),
       st.booleans())
def test_chunk_edges_match_error_pass(size, seed, n_leaves, arity, full,
                                      weights, mode, weighted):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(newick, "_BYTES", size)
        _check_random_pair(seed, n_leaves, arity, full, weights, mode,
                           weighted)


@pytest.mark.parametrize("size", _CHUNK_SIZES)
def test_chunk_edges_on_mutants(size, monkeypatch):
    monkeypatch.setattr(newick, "_BYTES", size)
    assert _check_mutants(random.Random(size), 300) > 60


@pytest.mark.parametrize("size", _CHUNK_SIZES)
def test_chunk_edges_hash_collision(size, monkeypatch):
    monkeypatch.setattr(newick, "_BYTES", size)
    for a, b, mode in _JOIN_PAIRS:
        _check_collision(a, b, mode)
    _check_collision_generated()
    # labels of twelve lengths, 78 bytes: tree 2's last label in text
    # order, in the last chunk, has its namesake's length and hash but
    # not its bytes
    a = _named_tree(random.Random(size), [chr(64 + k) * k
                                          for k in range(1, 13)])
    last = newick._LABEL.findall(a)[-1]
    b = a.replace(last, "z" * len(last))
    assert _outcome(parse_pair, a, b)[0] is LabelMismatchError
    _check_collision(a, b, "leaf")


def test_literals_across_chunks():
    # 20k weight literals of about 9 bytes fill several chunks of the
    # default size, and so do the labels
    a, b = generate_pair_texts(10_000, 7, full=True, weights=True)
    assert len(":".join(a.split(":")[1:])) > 2 * newick._BYTES
    with pytest.MonkeyPatch.context() as m:
        m.setattr(newick, "_scan", None)  # the accepting pass only
        pair = parse_pair(a, b, "full", True)
    assert np.count_nonzero(pair.w1) == pair.n - 1
    fast, slow = _both_passes(parse_pair, a, b, mode="full", weighted=True)
    assert fast == slow
    # a literal the grammar rejects, in a later chunk, sends the text to
    # the error pass
    cut = a.rindex(":") + 1
    bad = a[:cut] + "1x" + a[cut:]
    assert newick._fast_scan(bad) is None
    fast, slow = _both_passes(parse_pair, bad, b, mode="full", weighted=True)
    assert fast == slow and fast[0] is ParseError


def test_weighted_parse_peak():
    # a fully-labelled weighted 30k-leaf pair spans several chunks; its
    # parse peaked at 1775 bits/node with whole-text label hashes and
    # literal spans, and reads 1254 in chunks (bound: that plus 15%)
    a, b = generate_pair_texts(30_000, 3, full=True, weights=True)
    tracemalloc.start()
    try:
        pair = parse_pair(a, b, "full", True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak * 8 / pair.n < 1442


_EDGE_SIZES = [0, 1, newick._BYTES - 1, newick._BYTES, newick._BYTES + 1,
               2 * newick._BYTES, 3 * newick._BYTES + 5]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_EDGE_SIZES) | st.integers(0, 3 * newick._BYTES),
       st.integers(0, 2**32 - 1), st.sampled_from([np.uint8, np.int32]),
       st.floats(0, 1))
def test_pick_is_compress(size, seed, dtype, density):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size).astype(dtype)
    mask = rng.random(size) < density
    got = newick._pick(a, mask)
    assert got.dtype == a.dtype
    assert np.array_equal(got, a.compress(mask))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_CHUNK_SIZES),
       st.lists(st.tuples(st.integers(1, 100), st.integers(0, 5)),
                min_size=1, max_size=60))
def test_chunks_cover_spans_in_order(size, spans):
    # spans in text order, each run as long as it may be without its text
    # passing size bytes, and a span longer than that a run of its own
    length = np.array([k for k, _ in spans], np.int32)
    gaps = np.array([g for _, g in spans], np.int32)
    start = np.add.accumulate(gaps + length) - length
    with pytest.MonkeyPatch.context() as m:
        m.setattr(newick, "_BYTES", size)
        runs = list(newick._chunks(start, length))
    assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]]
    assert runs[-1][1] == length.size
    for lo, hi in runs:
        text = int(start[hi - 1] + length[hi - 1] - start[lo])
        assert text <= size or hi == lo + 1
        if hi < length.size:
            assert int(start[hi] + length[hi] - start[lo]) > size
