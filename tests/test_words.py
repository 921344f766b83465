"""Word primitives: examples plus exhaustive cross-checks against brute force."""

from itertools import product

import pytest

from cutdown.words import (
    format_word,
    is_necklace,
    least_rotation,
    period,
    prenecklace_period,
    rotate,
    weight,
)

from refdata import to_word


def brute_least_rotation(word):
    return min(rotate(word, j) for j in range(len(word)))


def brute_period(word):
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[:p] * (n // p):
            return p
    raise AssertionError("unreachable")


def brute_is_lyndon(word):
    return bool(word) and all(word < rotate(word, j)
                              for j in range(1, len(word)))


def brute_prenecklace_period(word, k):
    # a prenecklace is a prefix of some necklace.  Padding one with k-1s
    # keeps it a prenecklace until it turns Lyndon, which it then stays,
    # unless it is all k-1; so word + (k-1)^n is a necklace exactly when
    # word is a prenecklace.  One k-1 is too few: 010 + 1 is not Lyndon, and 0110 +
    # 1 is no necklace.  The period is the length of the longest Lyndon
    # prefix
    if not word:
        return 1
    padded = word + (k - 1,) * len(word)
    if padded != brute_least_rotation(padded):
        return 0
    return max(j for j in range(1, len(word) + 1)
               if brute_is_lyndon(word[:j]))


@pytest.mark.parametrize("k", [2, 3])
def test_prenecklace_period_against_brute_force(k):
    for n in range(10):
        for word in product(range(k), repeat=n):
            assert prenecklace_period(word) == brute_prenecklace_period(
                word, k), word


def test_empty_and_non_tuple_words():
    assert prenecklace_period(()) == 1
    assert is_necklace(()) == 1
    assert period(()) == 0
    assert least_rotation(()) == ()
    assert least_rotation([]) == ()
    for word in ([1, 0, 1, 0], "1010"):
        assert prenecklace_period(word) == 0
        assert is_necklace(word) is None
        assert period(word) == 2
        assert least_rotation(word) == tuple(word[1:] + word[:1])
    assert prenecklace_period([0, 1, 1, 0]) == 3
    assert is_necklace("0011") == 4
    assert period([2, 2, 2]) == 1


@pytest.mark.parametrize("text, expected", [
    ("000101", 6),
    ("010101", 2),
    ("001010", None),
    ("000000", 1),
])
def test_is_necklace_examples(text, expected):
    assert is_necklace(to_word(text)) == expected


@pytest.mark.parametrize("text, expected", [
    ("001001", 3),
    ("000101", 6),
    ("111111", 1),
])
def test_period_examples(text, expected):
    assert period(to_word(text)) == expected


@pytest.mark.parametrize("text, expected", [
    ("110100", "001101"),
    ("000011", "000011"),
    ("100101", "001011"),
])
def test_least_rotation_examples(text, expected):
    assert least_rotation(to_word(text)) == to_word(expected)


def test_rotate_examples():
    assert rotate((0, 1, 1), 1) == (1, 1, 0)
    assert rotate([0, 1, 1], -1) == (1, 0, 1)
    assert rotate((), 3) == ()


def test_weight_examples():
    assert weight(to_word("000111")) == 3
    assert weight((0, 0, 3, 3)) == 6
    assert weight(to_word("000000")) == 0


@pytest.mark.parametrize("n, k", [(1, 2), (6, 2), (9, 2), (12, 2),
                                  (5, 3), (7, 3), (4, 4), (3, 5)])
def test_exhaustive_against_brute_force(n, k):
    for word in product(range(k), repeat=n):
        lr = least_rotation(word)
        assert lr == brute_least_rotation(word)
        p = brute_period(word)
        assert period(word) == p
        res = is_necklace(word)
        if word == lr:
            assert res == p
        else:
            assert res is None


@pytest.mark.parametrize("n, k", [(8, 2), (5, 3)])
def test_rotation_invariants(n, k):
    for word in product(range(k), repeat=n):
        lr = least_rotation(word)
        assert least_rotation(lr) == lr
        p = period(word)
        assert n % p == 0
        assert period(lr) == p
        for j in range(n):
            rot = rotate(word, j)
            assert least_rotation(rot) == lr
            assert weight(rot) == weight(word)


def test_format_word_uses_commas_beyond_ten_symbols():
    assert format_word((0, 9, 1), 10) == "091"
    assert format_word((11, 0, 11), 12) == "11,0,11"
