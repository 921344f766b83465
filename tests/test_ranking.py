"""Lyndon ranking against the enumeration oracle."""

from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cutdown.counting import count_lyndon
from cutdown.ranking import enumerate_lyndon, rank_lyndon, unrank_lyndon
from cutdown.words import is_necklace, least_rotation, period, rotate

from refdata import to_word


@pytest.mark.parametrize("text, expected", [
    ("000011", 1),
    ("000101", 2),
    ("100101", 2),  # least rotation 001011 in {000111, 001011, 001101}
])
def test_rank_examples(text, expected):
    assert rank_lyndon(to_word(text)) == expected


def test_rank_rejects_periodic_words():
    with pytest.raises(ValueError):
        rank_lyndon(to_word("010101"))
    with pytest.raises(ValueError):
        rank_lyndon(to_word("0000"))


def test_rank_rejects_symbols_outside_the_alphabet():
    with pytest.raises(ValueError, match="word over"):
        rank_lyndon(to_word("0102"))
    with pytest.raises(ValueError, match="word over"):
        rank_lyndon((), 2)
    for word in ((0, 1.0, 1), (0, 0.5, 1), ("0", "1", "1")):
        with pytest.raises(ValueError, match="word over"):
            rank_lyndon(word)


def test_rank_rejects_a_non_int_alphabet():
    # a float k used to raise AttributeError from inside the count
    for k in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="k must be an int"):
            rank_lyndon((0, 1), k)


@pytest.mark.parametrize("n, w, r", [
    (6, 2, 0), (6, 2, 3), (6, 7, 1), (6, -1, 1), (1, 2, 1),
    (6, 2, 1.5), (4.0, 1, 1), (6, 2.0, 1), (6, 2, "1"),
])
def test_unrank_rejects_out_of_range_ranks(n, w, r):
    ints = all(isinstance(x, int) for x in (n, w, r))
    with pytest.raises(ValueError,
                       match="out of range" if ints else "must be ints"):
        unrank_lyndon(n, w, r)


@pytest.mark.parametrize("n, w, k, expected", [
    (6, 2, 2, ["000011", "000101"]),
    (6, 3, 2, ["000111", "001011", "001101"]),
    (1, 0, 2, ["0"]),
])
def test_enumerate_examples(n, w, k, expected):
    assert enumerate_lyndon(n, w, k) == [to_word(t) for t in expected]


def test_enumerate_refuses_above_limit():
    with pytest.raises(ValueError, match="limit"):
        enumerate_lyndon(40, 20, 2)
    with pytest.raises(ValueError, match="limit"):
        enumerate_lyndon(24, 12, 2)  # refused before it enumerates


def test_enumerate_validates_arguments_like_count_lyndon():
    # these used to return [] or raise TypeError
    for n, w, k in ((3, 1.5, 2), (3, 1, 1), (0, 0, 2), (3.0, 1, 2),
                    (3, 1, 2.0), (-1, 0, 2), (3, 1, 0)):
        with pytest.raises(ValueError):
            count_lyndon(n, w, k)
        with pytest.raises(ValueError):
            enumerate_lyndon(n, w, k)
    for w in (-1, 4, 10):
        assert enumerate_lyndon(3, w, 2) == []
    assert enumerate_lyndon(True, False, 2) == [(0,)]


@pytest.mark.parametrize("n, k", [(n, 2) for n in range(1, 13)]
                         + [(5, 3), (4, 4), (3, 5)])
def test_enumeration_matches_counts_and_order(n, k):
    for w in range((k - 1) * n + 1):
        listing = enumerate_lyndon(n, w, k)
        assert len(listing) == count_lyndon(n, w, k)
        assert listing == sorted(listing)
        for word in listing:
            assert is_necklace(word) == n and sum(word) == w


@pytest.mark.parametrize("n", range(1, 13))
def test_rank_agrees_with_enumeration_binary(n):
    tables = {}
    for word in product((0, 1), repeat=n):
        if period(word) != n:
            continue
        w = sum(word)
        if w not in tables:
            tables[w] = {s: i + 1
                         for i, s in enumerate(enumerate_lyndon(n, w, 2))}
        assert rank_lyndon(word) == tables[w][least_rotation(word)]


@pytest.mark.parametrize("n, k", [(n, 2) for n in range(1, 15)]
                         + [(n, 3) for n in range(1, 9)])
def test_rank_and_unrank_walk_the_listing(n, k):
    for w in range((k - 1) * n + 1):
        for r, word in enumerate(enumerate_lyndon(n, w, k), start=1):
            assert rank_lyndon(word, k) == r
            assert unrank_lyndon(n, w, r, k) == word


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
def test_unrank_inverts_rank(symbols):
    word = tuple(symbols)
    assume(period(word) == len(word))
    r = rank_lyndon(word)
    assert unrank_lyndon(len(word), sum(word), r) == least_rotation(word)


def test_rank_agrees_with_enumeration_kary():
    for k in (3, 4):
        for word in product(range(k), repeat=4):
            if period(word) != 4:
                continue
            listing = enumerate_lyndon(4, sum(word), k)
            assert rank_lyndon(word, k) == \
                listing.index(least_rotation(word)) + 1


def test_rank_is_rotation_invariant():
    for word in product((0, 1), repeat=9):
        if period(word) != 9:
            continue
        r = rank_lyndon(word)
        for j in range(1, 9):
            assert rank_lyndon(rotate(word, j)) == r


def test_largest_rank_selection_matches_tail_of_listing():
    # the "t lexicographically largest" test used by the successor rule:
    # count - rank + 1 <= t, and equally word >= tau for the threshold
    # word tau of rank count - t + 1, hold exactly for the last t entries
    n, w = 8, 4
    listing = enumerate_lyndon(n, w, 2)
    total = count_lyndon(n, w, 2)
    for t in range(0, total + 1):
        chosen = [s for s in listing
                  if total - rank_lyndon(s) + 1 <= t]
        assert chosen == listing[total - t:]
        if t:
            tau = unrank_lyndon(n, w, total - t + 1)
            assert [s for s in listing if s >= tau] == chosen
