import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bprf.bitvec import BitVector

from conftest import rank1_scan, select_scan

# parenthesis bits of the two worked trees used throughout the test suite
T4_BITS = [int(c) for c in "11110100100110101000"]
T5_BITS = [int(c) for c in "11101010011011010000"]


def test_known_ranks():
    bv = BitVector(T4_BITS)
    assert bv.rank1(8) == 5
    assert bv.rank1(0) == 0
    assert bv.rank1(20) == 10


def test_known_selects():
    bv = BitVector(T4_BITS)
    assert bv.select1(4) == 4
    assert bv.select1(5) == 6
    assert bv.select1(10) == 17
    assert BitVector(T5_BITS).select1(9) == 14


def test_select_out_of_range():
    bv = BitVector(T4_BITS)
    with pytest.raises(ValueError):
        bv.select1(11)
    with pytest.raises(ValueError):
        bv.select1(0)
    with pytest.raises(ValueError):
        bv.rank1(21)


def test_bit_access():
    bv = BitVector(T4_BITS)
    assert bv.to01().tolist() == T4_BITS


@given(st.lists(st.integers(0, 1), min_size=1, max_size=400))
@settings(max_examples=150)
def test_rank_matches_scan(bits):
    """rank1 agrees with a linear scan at every position."""
    bv = BitVector(bits)
    for p in range(len(bits) + 1):
        assert bv.rank1(p) == rank1_scan(bits, p)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=400))
@settings(max_examples=150)
def test_select_matches_scan(bits):
    bv = BitVector(bits)
    ones = sum(bits)
    for i in range(1, ones + 1):
        assert bv.select1(i) == select_scan(bits, 1, i)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
@settings(max_examples=100)
def test_rank_select_roundtrip(bits):
    """select is a right inverse of rank."""
    bv = BitVector(bits)
    for i in range(1, sum(bits) + 1):
        p = bv.select1(i)
        assert bv.rank1(p) == i
        assert bv.rank1(p - 1) == i - 1  # the bit at p is a one


def test_large_vector_against_scan():
    """A vector long enough to exercise several superblocks."""
    import random

    rng = random.Random(99)
    bits = [rng.randint(0, 1) for _ in range(50_000)]
    bv = BitVector(bits)
    for p in [0, 1, 63, 64, 65, 1024, 4096, 9999, 49_999, 50_000]:
        assert bv.rank1(p) == rank1_scan(bits, p)
    ones = sum(bits)
    for i in [1, 2, 1000, ones // 2, ones]:
        assert bv.select1(i) == select_scan(bits, 1, i)


def test_multiword_blocks_every_position():
    """rank1 and select1 at every position of a 70,000-bit vector,
    against numpy prefix sums."""
    bits = np.random.default_rng(70).integers(0, 2, 70_000, dtype=np.uint8)
    bv = BitVector(bits)
    ones = np.concatenate([[0], np.cumsum(bits)]).tolist()
    for p in range(len(bits) + 1):
        assert bv.rank1(p) == ones[p]
    for i, p in enumerate((np.flatnonzero(bits) + 1).tolist(), start=1):
        assert bv.select1(i) == p


def test_packed_bytes_layout():
    """Position 1 lands in the high bit of byte 0."""
    bv = BitVector([1, 0, 0, 0, 0, 0, 0, 0, 1])
    data = bv.packed_bytes
    assert len(data) == 2
    assert data[0] == 0x80
    assert data[1] == 0x80

