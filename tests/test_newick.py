"""Parser tests: frozen join tables, error offsets, round trips."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bprf import newick
from bprf.baseline import parse_plain
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
    code_map,
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
    # slot i-1 holds node i's name, as the weights hold its weight
    assert labels == (None, None, None, "A", "B", "C", None, "D", "E", "F")


def test_code_map_frozen():
    pair = parse_pair(T4, T5)
    assert pair.mode == "leaf"
    assert code_map(pair).dtype == np.int32
    assert code_map(pair).tolist() == [0, 0, 0, 9, 7, 10, 0, 3, 4, 5]
    assert pair.n == 10
    assert not pair.weighted


def test_code_map_full_mode():
    pair = parse_pair(T2, T3, mode="full")
    assert pair.mode == "full"
    # every slot is mapped and the mapping preserves labels
    code = code_map(pair)
    assert all(code > 0)
    labels1, labels2 = parse_tree(T2)[1], parse_tree(T3)[1]
    for i in range(1, pair.n + 1):
        j = int(code[i - 1])
        assert labels2[j - 1] == labels1[i - 1]


def test_weights_and_sum():
    pair = parse_pair(W1, W1, mode="full", weighted=True)
    expect = [0.0, 0.6, 0.3, 0.2, 0.2, 0.5, 0.6, 0.5, 0.5]
    assert pair.w1.tolist() == expect
    assert pair.w2.tolist() == expect
    assert math.fsum(pair.w1) + math.fsum(pair.w2) == \
        pytest.approx(6.8, abs=1e-12)
    # two 3-byte payloads, nine ranks up to 9 packed at 4 bits in
    # ceil(36 / 8) = 5 bytes, and two weight vectors
    assert (pair.rank_width, pair.n_slots) == (4, 9)
    assert pair.nbytes == 3 + 3 + 5 + 2 * 9 * 8


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


_PARSE_ERRORS = [
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
]


@pytest.mark.parametrize("text,offset,what", _PARSE_ERRORS)
def test_parse_errors(text, offset, what):
    with pytest.raises(ParseError) as ei:
        parse_tree(text)
    assert ei.value.offset == offset
    assert what in str(ei.value)
    # an rf read places no label or weight on its node, and still checks
    # every literal, the root's included
    for k, pair in ((1, (text, "(A,B);")), (2, ("(A,B);", text))):
        with pytest.raises(ParseError) as ei:
            parse_pair(*pair, "leaf", False)
        assert (ei.value.tree_index, ei.value.offset) == (k, offset)
        assert what in str(ei.value)
    if what == "not finite":
        assert newick._fast_scan(text, "leaf") is None


# a node with one child repeats its child's cluster; such inputs once gave
# rf -1 for "((A),B);" against "(A,B);" (Day and the oracle give 1)
_UNARY_NODES = [
    ("((A),B);", 3),
    ("(((A,B)),C);", 7),
    ("((A)X,B)Y;", 3),
    ("((A,B));", 6),
    ("(A);", 2),
    ("((A:1):2,B:1);", 5),
]


@pytest.mark.parametrize("text,offset", _UNARY_NODES)
def test_unary_node_rejected(text, offset):
    with pytest.raises(ParseError) as ei:
        parse_tree(text)
    assert ei.value.offset == offset
    assert "single child" in str(ei.value)
    for k, (a, b) in ((1, (text, "(A,B);")), (2, ("(A,B);", text))):
        with pytest.raises(ParseError) as ei:
            parse_pair(a, b)
        assert (ei.value.tree_index, ei.value.offset) == (k, offset)


@pytest.mark.parametrize("text", [t for t, *_ in _PARSE_ERRORS + _UNARY_NODES]
                         + ["(A,B);junk", "(A,(B,C)", "(A,B)[x];"])
def test_plain_reader_raises_the_error_pass_error(text):
    # the oracle's pointer trees come from the error pass: what parse_tree
    # rejects, parse_plain rejects with the same type, message and offset
    with pytest.raises(ParseError) as strict:
        parse_tree(text)
    with pytest.raises(ParseError) as plain:
        parse_plain(text)
    assert (type(plain.value), str(plain.value), plain.value.offset) == \
        (type(strict.value), str(strict.value), strict.value.offset)


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
    # whitespace; of several, the first in pre-order, though in the second
    # case (A,B) closes before the root
    for a, b, k, offset in (
            ("((A:1, B:2)X:1,(C,D))R;", "((A,B)X,(C,D)Y)R;", 1, 15),
            ("(((A,B),C)Y,D);", "(((A,B)X,C)Y,D)R;", 1, 0),
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
    # the pair keeps two encodings, the packed ranks and the weights; the
    # label bytes and the join arrays die inside parse_pair.  A leaf pair
    # packs one 14-bit rank per leaf, about 12.3 bits/node at 10k leaves,
    # so int32 ranks (8 bits/node more) fail the bound.  A full weighted
    # pair packs a 15-bit rank per node and holds two float64 weight
    # vectors, about 148.0; int32 ranks (17 more) fail its bound too
    for full, bound in ((False, 13), (True, 149)):
        a, b = generate_pair_texts(10_000, 3, full=full, weights=full)
        tracemalloc.start()
        try:
            pair = parse_pair(a, b, mode="full" if full else "leaf",
                              weighted=full)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert pair.rank_width == (15 if full else 14)
        assert held * 8 / pair.n < bound


def test_whitespace_tolerated():
    pair = parse_pair(" ( (A , B) ,\n\tC ) ;", "(C,(B,A));")
    assert code_map(pair).tolist() == [0, 0, 5, 4, 2]
    # every character str.isspace accepts is whitespace, ASCII (the
    # accepting pass) or not (the error pass)
    for ws in "\x0b\x0c\x1c\x1d\x1e\x1f\xa0\u2003":
        pair = parse_pair(f"({ws}(A,{ws}B),C{ws}){ws};", "(C,(B,A));")
        assert code_map(pair).tolist() == [0, 0, 5, 4, 2]
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

    code = code_map(pair)
    nonzero = 0
    for i in range(1, pair.n + 1):
        j = int(code[i - 1])
        name = labels1[i - 1]
        if name is None:
            assert j == 0
        else:
            nonzero += 1
            assert labels2[j - 1] == name
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
    names1, names2 = ([name for name in parse_tree(t)[1] if name]
                      for t in texts)
    spaced = texts[0].replace(";", "\u2003;")
    assert newick._fast_scan(spaced) is None
    for text1 in texts[0], spaced:
        ranks = parse_pair(text1, texts[1]).ranks
        assert ranks.dtype == np.int32
        assert sorted(ranks.tolist()) == list(range(1, n_leaves + 1))
        assert [names2[r - 1] for r in ranks.tolist()] == names1


_SLOT_EDGES = [1, 7, 8, 9, newick._SLOTS - 1, newick._SLOTS,
               newick._SLOTS + 1, 2 * newick._SLOTS + 3]


def _bit_stream(values, width):
    """values as a little-endian stream of width-bit slots, by Python
    ints: the reference for _pack."""
    bits = "".join(format(v, f"0{width}b")[::-1] for v in values)
    return int(bits[::-1] or "0", 2).to_bytes((len(bits) + 7) // 8, "little")


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 31), st.sampled_from(_SLOT_EDGES),
       st.integers(0, 2**32 - 1))
def test_pack_roundtrip(width, count, seed):
    # slots on both sides of every chunk edge, each value in [0, 2**width),
    # with 0 and 2**width - 1 among them
    rng = np.random.default_rng(seed)
    top = (1 << width) - 1
    values = rng.integers(0, top, count, endpoint=True).astype(np.int32)
    values[rng.integers(0, count, 2)] = (0, top)
    data = newick._pack(values, width)
    assert data.dtype == np.uint8 and not data.flags.writeable
    assert data.tobytes() == _bit_stream(values.tolist(), width)
    assert len(data) == (width * count + 7) // 8
    got = newick._unpack(data, width, count)
    assert got.dtype == np.int32
    assert np.array_equal(got, values)


@pytest.mark.parametrize("top", (0, 1, 2, 6, 255, 256, 2**31 - 1))
def test_pair_packs_ranks_at_their_bit_length(top):
    tree = parse_tree(T4)[0]
    ranks = np.array([top, 0, top // 2], np.int32)
    pair = TreePair(tree, tree, ranks, None, None, "leaf")
    width = max(1, top.bit_length())
    assert (pair.rank_width, pair.n_slots) == (width, 3)
    assert len(pair.rank_bytes) == (3 * width + 7) // 8
    assert pair.nbytes == 3 + 3 + len(pair.rank_bytes)
    # every read is a new array
    assert np.array_equal(pair.ranks, ranks)
    assert pair.ranks is not pair.ranks
    for bad in ranks - top - 1, ranks.astype(np.int64) + 2**31 - top:
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*31\)"):
            TreePair(tree, tree, bad, None, None, "leaf")


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
        code = code_map(r)
        return (r.t1.to01().tobytes(), r.t2.to01().tobytes(),
                code.dtype.str, code.tobytes(),
                r.ranks.dtype.str, r.ranks.tobytes(), r.rank_width,
                r.rank_bytes.tobytes(), r.nbytes, w(r.w1), w(r.w2), r.mode)
    tree, labels, weights = r
    return tree.to01().tobytes(), labels, w(weights)


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
    # weighted files are read unweighted too, as rf and erf read them
    for weighted in {weights, False}:
        for t, u, v in ((text, a, b), wide):
            assert newick._fast_scan(t) is not None
            scan = newick._fast_scan(t, mode, weighted)
            assert scan is not None
            if not weighted:  # weights read unweighted are not placed
                assert scan[5] is None
            if not (full or weighted):  # no node index: nothing placed
                assert scan[4] is None
            with pytest.MonkeyPatch.context() as m:
                m.setattr(newick, "_scan", None)  # any fallback fails
                parse_pair(u, v, mode, weighted)
                parse_tree(t)
        fast, slow = _both_passes(parse_pair, *wide[1:], mode=mode,
                                  weighted=weighted)
        assert fast == slow
    fast, slow = _both_passes(parse_tree, wide[0])
    assert fast == slow
    assert "Lé1" in parse_tree(wide[0])[1]


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
    bits, table, w, _, _ = newick._scan(text, 1)
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
# the label join: sorted keys; a label of at most 7 bytes is its own key,
# a longer one's key is a hash, and the pairs of long labels are then
# checked byte for byte


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

# the same trees with every label 8 bytes longer, so every label is hashed
_LONG_PREFIX = "LongName"


def _lengthen(text):
    return newick._LABEL.sub(lambda mo: _LONG_PREFIX + mo.group(), text)


_LONG_JOIN_PAIRS = [(_lengthen(a), _lengthen(b), mode)
                    for a, b, mode in _JOIN_PAIRS]


@pytest.mark.parametrize("a,b,mode", _JOIN_PAIRS + _LONG_JOIN_PAIRS)
def test_join_edge_cases(a, b, mode):
    fast, slow = _both_passes(parse_pair, a, b, mode=mode)
    assert fast == slow
    if fast[0] is LabelMismatchError:
        assert set(newick._LABEL.findall(a)) != set(newick._LABEL.findall(b))


@pytest.mark.parametrize("a,b,mode", _JOIN_PAIRS + _LONG_JOIN_PAIRS)
def test_hash_collision_sent_to_error_pass(a, b, mode):
    _check_collision(a, b, mode)


def _check_collision(a, b, mode):
    # with every two long labels of a length colliding, the answer is the
    # same: a collision costs time, never a wrong join.  Short labels are
    # not hashed, so only two long labels of one length in tree 1 send a
    # pair that the accepting pass takes to the error pass
    want = _outcome(parse_pair, a, b, mode=mode)
    accepted = newick._fast_pair(a, b, mode, False) is not None
    calls = []
    checked = newick._checked_pair
    with pytest.MonkeyPatch.context() as m:
        m.setattr(newick, "_label_hashes", _length_hash)
        m.setattr(newick, "_checked_pair",
                  lambda *args: calls.append(1) or checked(*args))
        assert _outcome(parse_pair, a, b, mode=mode) == want
    lengths = [k for k in map(len, map(str.encode, newick._LABEL.findall(a)))
               if k >= 8]
    collide = len(set(lengths)) < len(lengths)
    assert bool(calls) == (collide or not accepted)


def test_hash_collision_on_generated_pairs():
    _check_collision_generated()


def _check_collision_generated():
    for full, weights in ((False, False), (True, True)):
        mode = "full" if full else "leaf"
        a, b = (t.replace("L", _LONG_PREFIX).replace("I", "Internal")
                for t in generate_pair_texts(300, 5, "random", full,
                                             weights))
        want = _outcome(parse_pair, a, b, mode=mode, weighted=weights)
        assert not isinstance(want[0], type)
        assert newick._fast_pair(a, b, mode, weights) is not None
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
    assert np.count_nonzero(code_map(pair)) == len(names)
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
    for a, b, mode in _JOIN_PAIRS + _LONG_JOIN_PAIRS:
        _check_collision(a, b, mode)
    _check_collision_generated()
    # labels of twelve lengths, 78 bytes: tree 2's last long label in
    # text order, in the last chunk of long labels, has its namesake's
    # length and hash but not its bytes
    a = _named_tree(random.Random(size), [chr(64 + k) * k
                                          for k in range(1, 13)])
    last = [s for s in newick._LABEL.findall(a) if len(s) >= 8][-1]
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


# ----------------------------------------------------------------------
# weight literals: a chunk whose literals share one shape, one length of
# at most 16 bytes with '.' at one offset and digits elsewhere, is read
# by one integer product; any other chunk by _NUMBERS and np.fromstring

_LITERAL_CHUNKS = (1, 7, 64, newick._BYTES)


@st.composite
def _shaped(draw, lengths=st.integers(2, 17)):
    """(k, q, literals): literals of k bytes with '.' at offset q."""
    k = draw(lengths)
    q = draw(st.integers(0, k - 1))
    digits = st.sampled_from(["9" * (k - 1), "0" * (k - 1)]) | st.text(
        "0123456789", min_size=k - 1, max_size=k - 1)
    return k, q, [d[:q] + "." + d[q:]
                  for d in draw(st.lists(digits, min_size=1, max_size=12))]


def _star(literals):
    """A star tree whose leaf edges carry literals, in order."""
    return "(" + ",".join(f"L{i}:{x}" for i, x in enumerate(literals)) \
        + ",Z);"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_LITERAL_CHUNKS), _shaped())
# 15 nines, the most the product holds; 16 nines pass 2**53
@example(64, (16, 1, ["9.99999999999999", "0.00000000000001"]))
@example(64, (17, 1, ["9.999999999999999", "0.000000000000001"]))
@example(7, (8, 1, ["0.000000"]))
def test_shaped_literals_are_floats(size, shape):
    k, q, literals = shape
    text = _star(literals)
    want = np.array([float(x) for x in literals] + [0.0])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(newick, "_BYTES", size)
        if k <= 16:  # the product reads every chunk
            m.setattr(newick, "_NUMBERS", None)
        w = newick._fast_scan(text, "leaf", True)[5]
    assert w[1:].tobytes() == want.tobytes()


def _odd(literal, kind, at):
    """literal with one change of kind; a second '.' or a character not
    ASCII goes at offset at."""
    if kind == "longer":
        return literal + "5"
    if kind == "sign":
        return "-" + literal[1:]
    if kind == "exponent":
        return literal[:-2] + "e" + literal[-1]
    if kind == "integer":
        return literal.replace(".", "7")
    if kind == ".":
        return kind
    if kind == "dot":  # 1.2.3, or 1..2 beside the first
        return literal[:at] + "." + literal[at + 1:]
    return literal[:at] + kind + literal[at + 1:]  # a character not ASCII


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_LITERAL_CHUNKS), _shaped(st.integers(2, 16)),
       st.sampled_from(["longer", "sign", "exponent", "integer", "dot",
                        ".", "é", "١"]), st.integers(0, 11),
       st.integers(0, 14))
@example(64, (3, 1, ["1.5", "2.5"]), "longer", 1, 0)
@example(64, (3, 1, ["1.5", "2.5"]), "integer", 1, 0)
@example(64, (3, 1, ["1.5", "2.5"]), "dot", 1, 0)
@example(1, (2, 1, ["5.", "5."]), ".", 0, 0)
def test_odd_literal_leaves_the_product(size, shape, kind, i, at):
    # one literal unlike the others sends its chunk to _NUMBERS and
    # np.fromstring, whose grammar accepts or rejects it as _scan does;
    # it is literal i, changed at the at-th offset that holds a digit
    k, q, literals = shape
    i %= len(literals)
    literals[i] = _odd(literals[i], kind,
                       [j for j in range(k) if j != q][at % (k - 1)])
    text = _star(literals)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(newick, "_BYTES", size)
        tree, tree_slow = _both_passes(parse_tree, text)
        fast, slow = _both_passes(parse_pair, text, text, weighted=True)
    assert tree == tree_slow and fast == slow
    if kind in ("dot", "."):
        assert fast[0] is ParseError
    if not isinstance(fast[0], type):  # fast[9] is w1's dtype and bytes
        assert fast[9][1] == np.array(
            [0.0] + [float(x) for x in literals] + [0.0]).tobytes()


def test_generated_literals_take_the_product():
    # the :.6f literals of bprf gen never reach _NUMBERS
    a, b = generate_pair_texts(3000, 5, "random", True, True)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(newick, "_scan", None)
        m.setattr(newick, "_NUMBERS", None)
        pair = parse_pair(a, b, "full", True)
        parse_tree(a)
    assert np.count_nonzero(pair.w1) == pair.n - 1
    fast, slow = _both_passes(parse_pair, a, b, mode="full", weighted=True)
    assert fast == slow


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


# ----------------------------------------------------------------------
# labels at the short keys' edges: 7 and 8 bytes, a 2-byte character
# across that edge, a NUL at the end of a 7-byte label, a short label
# that ends at the text's ';', texts shorter than one key, and short and
# long labels in one pair
_KEY_PAIRS = [
    ("(ABCDEé,(ABCDEFé,C));", "(ABCDEFé,(C,ABCDEé));", "leaf"),
    ("(ABCDEé,C);", "(ABCDEFé,C);", "leaf"),
    ("(ABCDEé,C);", "(ABCDEè,C);", "leaf"),
    ("(ABCDEFé,C);", "(ABCDEFè,C);", "leaf"),
    ("(ABCDEFG,(ABCDEFGH,C));", "((C,ABCDEFGH),ABCDEFG);", "leaf"),
    ("(ABCDEFG,C);", "(ABCDEFH,C);", "leaf"),
    ("(ABCDEFGH,C);", "(ABCDEFGI,C);", "leaf"),
    ("(ABCDEF,C);", "(ABCDEF\x00,C);", "leaf"),
    ("(ABCDEF\x00,C);", "(ABCDEF,C);", "leaf"),
    ("(ABCDEF,(ABCDEF\x00,C));", "((ABCDEF\x00,ABCDEF),C);", "leaf"),
    ("(ABCDEF,ABCDEF\x00,ABCDEF);", "(ABCDEF,(ABCDEF\x00,C));", "leaf"),
    ("((A,B)X,(C,D)Y)ROOT;", "((A,C)X,(B,D)Y)ROOT;", "full"),
    ("((A,B)X,(C,D)Y)ROOT;", "((A,C)X,(B,D)Y)ROOU;", "full"),
    ("((A,B)X,(C,D)Y)ROOTÉ;", "((A,C)X,(B,D)Y)ROOTÉ;", "full"),
    ("((A,B)X,(C,D)Y)ROOTÉ;", "((A,C)X,(B,D)Y)ROOTÈ;", "full"),
    ("((A,B)X,C)LongRoot;", "((A,C)X,B)LongRoot;", "full"),
    ("(A,B)R;", "(B,A)R;", "full"),
    ("(A,B)R;", "(B,A)S;", "full"),
    ("(A,B);", "(B,A);", "leaf"),
    ("(A,B);", "(B,\x00);", "leaf"),
    ("(A,\x00);", "(\x00,A);", "leaf"),
    ("(A, B);\n", "(B,A); ", "leaf"),
    ("(short,(LongLabel1,(x,LongLabel2)));",
     "((LongLabel2,short),(x,LongLabel1));", "leaf"),
    ("(short,(LongLabel1,(x,LongLabel2)));",
     "((LongLabel2,short),(y,LongLabel1));", "leaf"),
    ("(short,(LongLabel1,(x,LongLabel2)));",
     "((LongLabel2,short),(x,LongLabel3));", "leaf"),
    ("(short,(LongLabel1,(x,LongLabel2)));",
     "((LongLabel2,short),(x,LongLabel2));", "leaf"),
    ("((short,LongLabel1)I,(x,y)LongInner)R;",
     "((x,LongLabel1)I,(short,y)LongInner)R;", "full"),
]


@pytest.mark.parametrize("size", (newick._BYTES,) + _CHUNK_SIZES)
@pytest.mark.parametrize("a,b,mode", _KEY_PAIRS)
def test_short_label_keys(a, b, mode, size, monkeypatch):
    monkeypatch.setattr(newick, "_BYTES", size)
    fast, slow = _both_passes(parse_pair, a, b, mode=mode)
    assert fast == slow
    # a pair both passes accept is accepted by the accepting pass
    assert (newick._fast_pair(a, b, mode, False) is None) == \
        isinstance(slow[0], type)


def test_short_label_keys_exact():
    # the key of a label of at most 7 bytes is its bytes and its length
    text = "(ABCDEé,ABCDEF\x00,ABCDEF,A,LongLabel);"
    bits, data, start, length, at, w = newick._fast_scan(text)
    keys, long = newick._labels(data, start, length)
    for key, name in zip(keys[:4].tolist(), newick._LABEL.findall(text)):
        raw = name.encode()
        assert key == int.from_bytes(raw, "little") | len(raw) << 56
    assert long.tolist() == [4]
    assert keys[4] >> 63 == 1


# the characters of the random labels: ASCII label bytes, NUL and other
# controls that are not whitespace, and characters of 2, 3 and 4 UTF-8
# bytes, whose bytes are all 0x80 or more
_LABEL_ALPHABET = "ABab09_-.\x00\x01\x7f\xe9\xe8\xffλ木\U0001f332"


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_CHUNK_SIZES), st.integers(0, 2**32 - 1),
       st.lists(st.text(_LABEL_ALPHABET, min_size=1, max_size=12).filter(
           lambda s: len(s.encode()) <= 12), min_size=1, max_size=12,
           unique=True),
       st.integers(0, 3))
def test_label_keys_match_error_pass(size, seed, names, change):
    # two trees over random labels of 1 to 12 bytes; tree 2 has, by
    # change, its labels as they are, one label made another's bytes
    # (which repeats it), one label cut to its first character, or one
    # label with a NUL appended
    rng = random.Random(seed)
    other = list(names)
    k = rng.randrange(len(other))
    if change == 1:
        other[k] = rng.choice(names)
    elif change == 2:
        other[k] = other[k][0]
    elif change == 3:
        other[k] += "\x00"
    a, b = _named_tree(rng, names), _named_tree(rng, other)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(newick, "_BYTES", size)
        fast, slow = _both_passes(parse_pair, a, b)
        assert fast == slow
        assert (newick._fast_pair(a, b, "leaf", False) is None) == \
            isinstance(slow[0], type)
