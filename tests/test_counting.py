"""Counting: worked values, brute-force cross-checks, and sum identities."""

from itertools import product
from math import comb

import pytest

from cutdown.counting import (
    count_lyndon,
    count_strings,
    count_weight_at_most,
    count_weight_period,
    count_weight_period_at_most,
    divisors,
    mobius,
)
from cutdown.words import is_necklace, period

from refdata import (
    strings_reference,
    weight_at_most_reference,
    weight_period_at_most_reference,
)


def brute_by_weight(n, k):
    counts = {}
    for word in product(range(k), repeat=n):
        counts[sum(word)] = counts.get(sum(word), 0) + 1
    return counts


@pytest.mark.parametrize("n, w, k, expected", [
    (6, 4, 2, 15),
    (2, 2, 3, 3),   # {02, 20, 11}
    (3, 7, 2, 0),
])
def test_count_strings_examples(n, w, k, expected):
    assert count_strings(n, w, k) == expected


@pytest.mark.parametrize("n, k", [(1, 2), (6, 2), (10, 2), (5, 3), (4, 4), (3, 6)])
def test_count_strings_brute(n, k):
    counts = brute_by_weight(n, k)
    for w in range((k - 1) * n + 2):
        assert count_strings(n, w, k) == counts.get(w, 0)


def test_count_strings_binary_is_binomial():
    for n in range(1, 16):
        for w in range(n + 1):
            assert count_strings(n, w, 2) == comb(n, w)


def test_mobius_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0,
                9: 0, 10: 1, 11: -1, 12: 0, 30: -1, 36: 0, 210: 1}
    for i, value in expected.items():
        assert mobius(i) == value
    with pytest.raises(ValueError, match="positive"):
        mobius(0)


@pytest.mark.parametrize("n, w, k, expected", [
    (6, 2, 2, 2),   # {000011, 000101}
    (6, 3, 2, 3),   # {000111, 001011, 001101}
    (1, 0, 2, 1),   # the word 0
])
def test_count_lyndon_examples(n, w, k, expected):
    assert count_lyndon(n, w, k) == expected


@pytest.mark.parametrize("n, k", [(1, 2)] + [(n, 2) for n in range(2, 15)]
                         + [(5, 3), (7, 3), (4, 4), (5, 4)])
def test_count_lyndon_brute(n, k):
    by_weight = {}
    for word in product(range(k), repeat=n):
        if is_necklace(word) == n:
            w = sum(word)
            by_weight[w] = by_weight.get(w, 0) + 1
    for w in range((k - 1) * n + 1):
        assert count_lyndon(n, w, k) == by_weight.get(w, 0)


@pytest.mark.parametrize("w, n, k, expected", [
    (3, 6, 2, 42),
    (4, 6, 2, 57),
    (-1, 6, 2, 0),
])
def test_count_weight_at_most_examples(w, n, k, expected):
    assert count_weight_at_most(w, n, k) == expected


@pytest.mark.parametrize("w, p, n, k, expected", [
    (4, 3, 6, 2, 3),
    (4, 6, 6, 2, 12),
    (4, 4, 6, 2, 0),
    (4, 5, 6, 2, 0),
])
def test_count_weight_period_examples(w, p, n, k, expected):
    assert count_weight_period(w, p, n, k) == expected


@pytest.mark.parametrize("w, p, n, k, expected", [
    (4, 5, 6, 2, 3),
    (4, 6, 6, 2, 15),
    (4, 0, 6, 2, 0),
])
def test_count_weight_period_at_most_examples(w, p, n, k, expected):
    assert count_weight_period_at_most(w, p, n, k) == expected


@pytest.mark.parametrize("n, k", [(12, 2), (8, 2), (6, 3), (5, 4)])
def test_count_weight_period_brute(n, k):
    found = {}
    for word in product(range(k), repeat=n):
        key = (sum(word), period(word))
        found[key] = found.get(key, 0) + 1
    for w in range((k - 1) * n + 1):
        for p in range(1, n + 1):
            assert count_weight_period(w, p, n, k) == found.get((w, p), 0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sum_identities(k):
    for n in range(1, 11):
        total = sum(count_strings(n, w, k) for w in range((k - 1) * n + 1))
        assert total == k ** n
        for w in range((k - 1) * n + 1):
            by_period = sum(count_weight_period(w, p, n, k)
                            for p in range(1, n + 1))
            assert by_period == count_strings(n, w, k)


@pytest.mark.parametrize("k", [2, 3])
def test_period_count_at_most_equals_the_sum_over_every_period(k):
    # the sum runs over the divisors of n only; the reference over q <= p
    for n in range(1, 41):
        for w in range((k - 1) * n + 1):
            for p in range(-1, n + 2):
                assert (count_weight_period_at_most(w, p, n, k)
                        == weight_period_at_most_reference(w, p, n, k)), (
                    w, p, n)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_string_count_equals_the_sum_at_every_weight(k):
    # above half the largest weight the count goes through the complement
    for n in list(range(1, 41)) + [63, 64, 100]:
        for w in range(-2, (k - 1) * n + 3):
            assert count_strings(n, w, k) == strings_reference(n, w, k), (
                w, n)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_weight_count_at_most_equals_the_sum_at_every_weight(k):
    # above half the largest weight the count goes through the complement
    for n in list(range(1, 41)) + [63, 64, 100]:
        for w in range(-2, (k - 1) * n + 3):
            assert (count_weight_at_most(w, n, k)
                    == weight_at_most_reference(w, n, k)), (w, n)


def test_monotonicity():
    for n in range(2, 9):
        values = [count_weight_at_most(w, n, 2) for w in range(-1, n + 1)]
        assert values == sorted(values)
        for w in range(n + 1):
            cs = [count_weight_period_at_most(w, p, n, 2) for p in range(n + 1)]
            assert cs == sorted(cs)


def test_closed_forms_equal_the_row_recurrence():
    # the length/weight table T(n, w) = sum(T(n - 1, w - c), 0 <= c < k),
    # built row by row, against both closed forms up to n = 64
    for k, n_max in ((2, 64), (3, 64), (5, 64), (300, 12)):
        row = [1]
        for n in range(1, n_max + 1):
            row = [sum(row[max(0, w - k + 1):w + 1])
                   for w in range((k - 1) * n + 1)]
            total = 0
            for w in range(-1, (k - 1) * n + 2):
                assert count_strings(n, w, k) == (
                    row[w] if 0 <= w < len(row) else 0), (k, n, w)
                total += row[w] if 0 <= w < len(row) else 0
                assert count_weight_at_most(w, n, k) == total, (k, n, w)
    # both validate their arguments alike
    for n, k in ((0, 2), (3, 1), (3, 0)):
        with pytest.raises(ValueError, match="need n >= 1 and k >= 2"):
            count_strings(n, 2, k)
        with pytest.raises(ValueError, match="need n >= 1 and k >= 2"):
            count_weight_at_most(2, n, k)
    # count_lyndon checks n itself, and k through count_strings
    with pytest.raises(ValueError, match="need n >= 1"):
        count_lyndon(0, 0, 2)
    # non-int arguments raise ValueError, not TypeError; bools are ints
    for n, w, k in ((2.5, 1, 2), (4, 2.0, 2), (4, 2, 2.0), (4, "2", 2)):
        with pytest.raises(ValueError, match="must be ints"):
            count_strings(n, w, k)
        with pytest.raises(ValueError, match="must be ints"):
            count_weight_at_most(w, n, k)
        with pytest.raises(ValueError, match="must be ints"):
            count_lyndon(n, w, k)
    assert count_strings(4, True, 2) == count_weight_at_most(True, 4, 2) - 1
    assert count_lyndon(True, False, 2) == 1


def test_divisor_and_period_counts_reject_non_ints():
    # these used to answer: mobius(2.5) gave -1, divisors(6.0) gave
    # [1, 2, 3.0, 6.0] and count_weight_period(2, 3, 4.5, 2) gave 0
    for call in (lambda: mobius(2.5), lambda: divisors(6.0),
                 lambda: divisors("6"),
                 lambda: count_weight_period(2, 3, 4.5, 2),
                 lambda: count_weight_period(2.0, 3, 6, 2),
                 lambda: count_weight_period(2, 3, 6, 2.0),
                 lambda: count_weight_period_at_most(2, 2.5, 4, 2),
                 lambda: count_weight_period_at_most(2, 2, 4, "2")):
        with pytest.raises(ValueError, match="must be ints"):
            call()
    # and these answered [] or 0: n >= 1 and k >= 2 hold for them too
    for call in (lambda: divisors(0), lambda: divisors(-4),
                 lambda: count_weight_period(1, 1, 0, 2),
                 lambda: count_weight_period(0, 3, 4, 1),
                 lambda: count_weight_period_at_most(1, 5, 0, 2),
                 lambda: count_weight_period_at_most(1, 1, 4, 1)):
        with pytest.raises(ValueError, match="need n >= 1 and k >= 2"):
            call()
    # bools are ints, as elsewhere in the module
    assert mobius(True) == 1
    assert divisors(True) == [1]
    assert count_weight_period(True, 1, 2, 2) == 0
    assert count_weight_period_at_most(True, 2, 2, 2) == 2
