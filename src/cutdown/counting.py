"""Exact enumeration of k-ary strings and Lyndon words by length, weight, period.

All results are exact Python integers (arbitrary precision), so counts are
valid up to and beyond k^n for any supported (n, k).

Words of length n and weight w are counted in closed form, by
inclusion-exclusion over the symbols that exceed k - 1:

    count_strings(n, w, k) = sum((-1)^j C(n, j) C(w - jk + n - 1, n - 1)
                                 for j in 0..min(n, w // k))

and the words of weight at most w by the same sum over C(w - jk + n, n).
The complement c -> k-1-c keeps both sums short: above half the largest
weight, words of weight w are counted as those of weight (k-1)n - w, and
words of weight at most w as k^n less those of weight at most
(k-1)n - w - 1, which the complement maps onto those heavier than w.
Nothing is cached, so the module holds no state.  Every function here
raises ValueError for an argument that is not an int, for a length n < 1
or an alphabet size k < 2, as ``words.check_ints`` decides, and ``mobius``
for an i < 1.
"""

from __future__ import annotations

from math import comb, gcd

from .words import check_ints


def count_strings(n: int, w: int, k: int) -> int:
    """Number of k-ary words of length n with weight (symbol sum) w.

    Equals the binomial coefficient C(n, w) when k == 2.  Returns 0 for
    weights outside [0, (k-1)*n].
    """
    check_ints(n=n, w=w, k=k)
    if w < 0 or w > (k - 1) * n:
        return 0
    # the symbol complement c -> k-1-c keeps the sum below short
    w = min(w, (k - 1) * n - w)
    return sum((-1) ** j * comb(n, j) * comb(w - j * k + n - 1, n - 1)
               for j in range(min(n, w // k) + 1))


def mobius(i: int) -> int:
    """Standard Moebius function: 0 on non-squarefree i, else (-1)^#primes."""
    check_ints(i=i)
    if i < 1:
        raise ValueError("mobius is defined for positive integers")
    result = 1
    d = 2
    while d * d <= i:
        if i % d == 0:
            i //= d
            if i % d == 0:
                return 0
            result = -result
        d += 1
    if i > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    """Divisors of n in increasing order."""
    check_ints(n=n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def count_lyndon(n: int, w: int, k: int) -> int:
    """Number of k-ary Lyndon words (aperiodic necklaces) of length n, weight w.

    Moebius inversion over the string counts:

        (1/n) * sum(mobius(i) * count_strings(n/i, w/i, k)
                    for i dividing gcd(n, w))

    With the convention gcd(n, 0) == n, so the only weight-0 Lyndon word is
    the single-symbol word (0,).
    """
    check_ints(n=n, w=w, k=k)
    total = 0
    for i in divisors(gcd(n, w)):
        total += mobius(i) * count_strings(n // i, w // i, k)
    if total % n:
        raise RuntimeError(f"Moebius sum {total} not divisible by n={n}")
    return total // n


def count_weight_at_most(w: int, n: int, k: int) -> int:
    """Number of length-n words with weight <= w; 0 when w < 0."""
    check_ints(w=w, n=n, k=k)
    if w < 0:
        return 0
    if 2 * w > (k - 1) * n:
        # the symbol complement c -> k-1-c keeps the sum below short
        return k ** n - count_weight_at_most((k - 1) * n - w - 1, n, k)
    return sum((-1) ** j * comb(n, j) * comb(w - j * k + n, n)
               for j in range(min(n, w // k) + 1))


def count_weight_period(w: int, p: int, n: int, k: int) -> int:
    """Number of length-n words with weight exactly w and period exactly p.

    Nonzero only when p divides n and w*p/n is an integer, in which case the
    words are the p distinct rotations of each of the count_lyndon(p, w*p/n)
    repeated Lyndon words.
    """
    check_ints(w=w, p=p, n=n, k=k)
    if p < 1 or p > n or n % p or (w * p) % n:
        return 0
    return p * count_lyndon(p, w * p // n, k)


def count_weight_period_at_most(w: int, p: int, n: int, k: int) -> int:
    """Number of length-n words with weight w and period <= p; 0 when p < 1.

    Public on purpose, though nothing in the package calls it: it is the
    paper's count of weight-w words of period at most p, which
    ``cutplan.derive_params`` adds up divisor by divisor through
    ``count_weight_period``."""
    check_ints(w=w, p=p, n=n, k=k)
    # only a divisor of n is the period of a length-n word
    return sum(count_weight_period(w, q, n, k) for q in divisors(n) if q <= p)
