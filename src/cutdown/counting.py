"""Exact enumeration of k-ary strings and Lyndon words by length, weight, period.

All results are exact Python integers (arbitrary precision), so counts are
valid up to and beyond k^n for any supported (n, k).

The length/weight table is built once per alphabet size by dynamic
programming over the recurrence

    T(n, w) = sum(T(n-1, w-c) for c in range(min(k-1, w) + 1))

and grown lazily as larger lengths are requested.  Rows are never mutated
after being appended, so concurrent readers always observe consistent data.
"""

from __future__ import annotations

import threading
from math import gcd

_tables: dict[int, list[list[int]]] = {}
_grow_lock = threading.Lock()


def _table(k: int, n: int) -> list[list[int]]:
    rows = _tables.get(k)
    if rows is not None and len(rows) > n:
        return rows
    with _grow_lock:
        rows = _tables.setdefault(k, [[1]])
        while len(rows) <= n:
            length = len(rows)
            prev = rows[-1]
            row = []
            for w in range((k - 1) * length + 1):
                lo = max(0, w - (k - 1))
                hi = min(w, len(prev) - 1)
                row.append(sum(prev[lo:hi + 1]))
            rows.append(row)
    return rows


def count_strings(n: int, w: int, k: int) -> int:
    """Number of k-ary words of length n with weight (symbol sum) w.

    Equals the binomial coefficient C(n, w) when k == 2.  Returns 0 for
    weights outside [0, (k-1)*n].
    """
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    if w < 0 or w > (k - 1) * n:
        return 0
    return _table(k, n)[n][w]


def mobius(i: int) -> int:
    """Standard Moebius function: 0 on non-squarefree i, else (-1)^#primes."""
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

    Moebius inversion over the length/weight table:

        (1/n) * sum(mobius(i) * count_strings(n/i, w/i, k)
                    for i dividing gcd(n, w))

    With the convention gcd(n, 0) == n, so the only weight-0 Lyndon word is
    the single-symbol word (0,).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    total = 0
    for i in divisors(gcd(n, w)):
        total += mobius(i) * count_strings(n // i, w // i, k)
    if total % n:
        raise RuntimeError(f"Moebius sum {total} not divisible by n={n}")
    return total // n


def count_weight_at_most(w: int, n: int, k: int) -> int:
    """Number of length-n words with weight <= w; 0 when w < 0."""
    if w < 0:
        return 0
    row = _table(k, n)[n]
    return sum(row[:min(w, len(row) - 1) + 1])


def count_weight_period(w: int, p: int, n: int, k: int) -> int:
    """Number of length-n words with weight exactly w and period exactly p.

    Nonzero only when p divides n and w*p/n is an integer, in which case the
    words are the p distinct rotations of each of the count_lyndon(p, w*p/n)
    repeated Lyndon words.
    """
    if p < 1 or p > n or n % p or (w * p) % n:
        return 0
    return p * count_lyndon(p, w * p // n, k)


def count_weight_period_at_most(w: int, p: int, n: int, k: int) -> int:
    """Number of length-n words with weight w and period <= p; 0 when p < 1."""
    total = 0
    for q in range(1, min(p, n) + 1):
        total += count_weight_period(w, q, n, k)
    return total
