"""Primitive operations on fixed-length words over {0, ..., k-1}.

A word is a plain sequence (tuple or list) of small non-negative integers;
functions that return words return tuples.  Only ``pack`` and
``format_word`` take the alphabet size, and all functions are pure, so they
are safe for unrestricted concurrent use.

Terminology: a *necklace* is a word that is lexicographically <= every
rotation of itself; the *period* of a word is the smallest p dividing its
length such that the word is its length-p prefix repeated; an aperiodic
necklace is a *Lyndon word*; the *weight* of a word is the sum of its
symbols.
"""

from __future__ import annotations

from collections.abc import Sequence

Word = tuple[int, ...]


def weight(word: Sequence[int]) -> int:
    """Sum of the symbols of ``word``."""
    return sum(word)


def pack(word: Sequence[int], k: int = 2) -> int:
    """The k-ary ``word`` as a base-k int, first symbol most significant, so
    that comparing packed words of equal length compares the words."""
    value = 0
    for c in word:
        value = value * k + c
    return value


def format_word(word: Sequence[int], k: int) -> str:
    """``word`` as text: a digit string for k <= 10, comma-separated
    decimals beyond, as the command line reads and writes words."""
    return ("" if k <= 10 else ",").join(map(str, word))


def rotate(word: Sequence[int], j: int) -> Word:
    """Left rotation by ``j``: rotate((a1,...,an), 1) == (a2,...,an,a1)."""
    j = j % len(word) if word else 0
    return tuple(word[j:]) + tuple(word[:j])


def is_necklace(word: Sequence[int]) -> int | None:
    """Return the period of ``word`` if it is a necklace, else None.

    Single left-to-right scan maintaining the period of the prefix read so
    far; worst case O(n), with early exit at the first symbol that proves
    some rotation is smaller, and no allocation.  ``ranking`` uses it to
    filter candidates in its enumeration oracle.
    """
    p = 1
    for i in range(1, len(word)):
        c = word[i - p]
        d = word[i]
        if c > d:
            return None
        if c < d:
            p = i + 1
    if len(word) % p:
        return None
    return p


def period(word: Sequence[int]) -> int:
    """Smallest p dividing len(word) with word == word[:p] * (len(word)//p).

    Returns len(word) for aperiodic words.  Only divisor periods exist for
    cyclic words, so candidates are checked in increasing divisor order.
    """
    n = len(word)
    for p in range(1, n // 2 + 1):
        if n % p == 0 and all(word[i] == word[i - p] for i in range(p, n)):
            return p
    return n


def least_rotation(word: Sequence[int]) -> Word:
    """Lexicographically smallest rotation of ``word`` (Booth's algorithm).

    Runs in O(n) time; the result is always a necklace.
    """
    s = tuple(word)
    n = len(s)
    ss = s + s
    f = [-1] * (2 * n)
    start = 0
    for j in range(1, 2 * n):
        sj = ss[j]
        i = f[j - start - 1]
        while i != -1 and sj != ss[start + i + 1]:
            if sj < ss[start + i + 1]:
                start = j - i - 1
            i = f[i]
        if sj != ss[start + i + 1]:
            if sj < ss[start]:
                start = j
            f[j - start] = -1
        else:
            f[j - start] = i + 1
    return ss[start:start + n]
