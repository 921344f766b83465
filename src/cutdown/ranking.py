"""Lexicographic ranking and unranking of fixed-weight Lyndon words, plus the
brute-force enumeration oracle used to validate them.

Ranks are 1-based positions in the lexicographic listing of all Lyndon words
of one length n and weight w, but the listing is never built: the rank of a
Lyndon word x is the number of Lyndon words <= x, which is counted.

Counting.  A word's least rotation is <= x exactly when some rotation is, so
it suffices to count the words y all of whose cyclic length-n windows are
> x.  When x is a prenecklace (a prefix of some necklace), matching x
against y has no failure transitions beyond "back to the empty prefix": at
matched prefix x[:j] the next symbol c either extends the match (c == x[j]),
proves the window smaller (c < x[j]) or proves it larger and restarts
(c > x[j]).  So y qualifies exactly when it splits, cyclically, into blocks
x[:j] c with j < n and c > x[j].  One dynamic programme over block
sequences, a packed big int per length with one slot per weight, counts
those words for every divisor of n at once, and Moebius inversion over the
divisors turns word counts into the Lyndon count.  That is O(n^2) big-int
operations on integers of about w * log2(k^n) bits.

``unrank_lyndon`` fixes one symbol per position: the r-th word has prefix
p c for the smallest c whose count up to p c (k-1)^* reaches r.  Every such
bound that can hold a Lyndon word is itself a prenecklace, so c starts at
the least symbol that keeps p c one, read off ``words.prenecklace_period``,
and it needs at most k - 1 counts per position.  After Kociumaka,
Radoszewski and Rytter (CPM 2014) and Hartman and Sawada (TCS 2019).

``enumerate_lyndon`` is the independent oracle: it filters every k-ary word,
so it refuses to run above a candidate-count limit.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product
from math import gcd

from .counting import count_lyndon, divisors, mobius
from .words import (Word, check_ints, check_word, is_necklace,
                    least_rotation, period, prenecklace_period, weight)

ORACLE_LIMIT = 10 ** 7


def enumerate_lyndon(n: int, w: int, k: int) -> list[Word]:
    """All Lyndon words of length n and weight w in increasing lexicographic
    order, found by filtering all k^n candidate words.

    Raises ValueError, as ``count_lyndon`` does, when n, w or k is not an
    int, n < 1 or k < 2; an out-of-range w gives [].  Refuses (ValueError)
    when k^n exceeds ``ORACLE_LIMIT``; this is an oracle for validation,
    not a production enumerator.
    """
    check_ints(n=n, w=w, k=k)
    if k ** n > ORACLE_LIMIT:
        raise ValueError(f"k^n = {k ** n} exceeds the oracle limit "
                         f"{ORACLE_LIMIT}")
    out = []
    for cand in product(range(k), repeat=n):
        if sum(cand) == w and is_necklace(cand) == n:
            out.append(cand)
    return out


def _lyndon_at_most(x: Word, w: int, k: int) -> int:
    """Number of Lyndon words of length len(x) and weight w that are <= x.

    ``x`` must be a prenecklace over {0, ..., k-1}.
    """
    n = len(x)
    bits = (k ** n).bit_length()  # every slot below holds a count < k^n
    # blocks x[:j] c with c > x[j], as (length, weight shift), by length
    blocks = []
    prefix = 0
    for j, a in enumerate(x):
        for c in range(a + 1, k):
            blocks.append((j + 1, (prefix + c) * bits))
        prefix += a
    # seqs[i] counts block sequences of total length i; slot v holds those
    # of weight w - v, so heavier sequences drop off the low end
    seqs = [1 << (w * bits)]
    for i in range(1, n + 1):
        total = 0
        for length, shift in blocks:
            if length > i:
                break
            total += seqs[i - length] >> shift
        seqs.append(total)
    # n * (Lyndon words > x) = sum of mobius(i) * (words of length n/i and
    # weight w/i whose windows all exceed x); a word read from inside its
    # first block is counted once per starting offset
    above = 0
    for i in divisors(gcd(n, w)):
        mu = mobius(i)
        if not mu:
            continue
        e = n // i
        acc = 0
        for length, shift in blocks:
            if length > e:
                break
            acc += length * (seqs[e - length] >> shift)
        above += mu * ((acc >> ((w - w // i) * bits)) & ((1 << bits) - 1))
    if above % n:
        raise RuntimeError(f"block count {above} not divisible by n={n}")
    return count_lyndon(n, w, k) - above // n


def rank_lyndon(word: Sequence[int], k: int = 2) -> int:
    """1-based rank of the Lyndon rotation of ``word`` among all Lyndon words
    of the same length and weight, in lexicographic order: the number of
    those Lyndon words that are <= ``least_rotation(word)``.

    The input must pass ``words.check_word`` and be aperiodic (periodic
    words have no Lyndon rotation), else ValueError; rotations of the same
    word therefore all share one rank.
    """
    word = check_word(word, k)
    n = len(word)
    if period(word) != n:
        raise ValueError(f"{word} is periodic; it has no Lyndon rotation")
    return _lyndon_at_most(least_rotation(word), weight(word), k)


def unrank_lyndon(n: int, w: int, r: int, k: int = 2) -> Word:
    """The Lyndon word of length n and weight w with 1-based lexicographic
    rank r; the inverse of ``rank_lyndon``.

    Raises ValueError when n, w or r is not an int, or unless
    1 <= r <= count_lyndon(n, w, k).
    """
    check_ints(n=n, w=w, r=r)
    total = count_lyndon(n, w, k)
    if not 1 <= r <= total:
        raise ValueError(f"rank {r} out of range [1, {total}] for "
                         f"n={n}, w={w}, k={k}")
    word: Word = ()
    for i in range(n):
        # a prefix word + (c,) of a necklace needs c >= word[-p], with p
        # the period of the longest Lyndon prefix of word
        lo = word[-prenecklace_period(word)] if word else 0
        c = k - 1
        for d in range(lo, k - 1):
            if _lyndon_at_most(word + (d,) + (k - 1,) * (n - i - 1), w, k) >= r:
                c = d
                break
        word += (c,)
    return word
