"""Primitive operations on fixed-length words over {0, ..., k-1}.

A word is a plain sequence (tuple, list or bytes) of small non-negative
integers; functions that return words return tuples.  All functions are
pure, so they are safe for unrestricted concurrent use.

The package's argument policy lives here too: ``check_word`` decides what
counts as a window over {0, ..., k-1}, and every rule entry point in
``successor``, ``ranking`` and ``engine`` calls it, so each takes any
sequence of int symbols and refuses any other with one message;
``check_ints`` does the same for int arguments, and bounds every n and k
passed to it: a length n >= 1 and an alphabet size k >= 2, the only ones
the package's sequences, counts and ranks exist for.  ``check_word`` and
``engine.verify``'s spool ask ``int_symbols`` whether symbols are ints.

Terminology: a *necklace* is a word that is lexicographically <= every
rotation of itself, and a *prenecklace* is a prefix of one; the *period*
of a word is the smallest p dividing its length such that the word is its
length-p prefix repeated; an aperiodic necklace is a *Lyndon word*; the
*weight* of a word is the sum of its symbols.

One scan, ``prenecklace_period``, answers the necklace questions: the
necklace test, the period (of the least rotation, found by Duval's
factorization), and, in ``successor`` and ``ranking``, which symbols
extend a word to a necklace.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

Word = tuple[int, ...]


def check_ints(**args: int) -> None:
    """Raise ValueError unless every keyword argument is an int, with an
    argument named n (a window or word length) >= 1 and one named k (an
    alphabet size) >= 2; bools pass, as they do in ``engine.verify``."""
    if not all(isinstance(x, int) for x in args.values()):
        raise ValueError(f"arguments must be ints, not {args}")
    if args.get("n", 1) < 1 or args.get("k", 2) < 2:
        raise ValueError(f"need n >= 1 and k >= 2, not {args}")


def int_symbols(symbols: Iterable[int]) -> bool:
    """Are all ``symbols`` ints?  Then their sum is an int; a float or a
    NumPy int makes it something else, and a str, or a NumPy int beside an
    int beyond 64 bits, makes it raise.  Bools pass as ints."""
    try:
        return isinstance(sum(symbols), int)
    except (TypeError, OverflowError):
        return False


def check_word(word: Sequence[int], k: int, n: int | None = None) -> Word:
    """``word`` as a tuple, once it is a window over {0, ..., k-1}: k is an
    int >= 2, and ``word`` is non-empty, of length n when n is given, with
    every symbol an int in [0, k).  Else ValueError.  Bools pass as ints;
    NumPy ints and floats do not."""
    # once the symbols are ints, min and max compare them
    if not (isinstance(k, int) and k >= 2 and int_symbols(word)
            and len(word) > 0 and (n is None or len(word) == n)
            and min(word) >= 0 and max(word) < k):
        length = "" if n is None else f" of length n = {n}"
        raise ValueError(
            f"{word!r} is not a non-empty word over 0..k-1{length} with int "
            f"symbols in [0, k): k must be an int >= 2 and the symbols must "
            f"be ints in [0, {k!r})")
    return tuple(word)


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


def prenecklace_period(word: Sequence[int]) -> int:
    """Period of the longest Lyndon prefix of ``word`` if ``word`` is a
    prenecklace (a prefix of some necklace), else 0; 1 for the empty word.

    One left-to-right scan (Duval 1983) keeps the period p of the prefix
    read so far: a symbol equal to the one p back keeps p, a larger one
    makes the whole prefix Lyndon, and a smaller one proves that no
    necklace starts with the prefix.  By the fundamental theorem of
    necklaces a prenecklace is a necklace iff p divides its length, and
    appending c to a prenecklace keeps it one iff c >= word[-p].  Worst
    case O(n), with early exit and no allocation.
    """
    p = 1
    for i in range(1, len(word)):
        c, d = word[i - p], word[i]
        if c > d:
            return 0
        if c < d:
            p = i + 1
    return p


def is_necklace(word: Sequence[int]) -> int | None:
    """Return the period of ``word`` if it is a necklace, else None."""
    p = prenecklace_period(word)
    return p if p and len(word) % p == 0 else None


def period(word: Sequence[int]) -> int:
    """Smallest p dividing len(word) with word == word[:p] * (len(word)//p).

    Returns len(word) for aperiodic words and 0 for the empty word.  A
    rotation has the same period, and a necklace's is its scan's.
    """
    return prenecklace_period(least_rotation(word)) if word else 0


def least_rotation(word: Sequence[int]) -> Word:
    """Lexicographically smallest rotation of ``word``; always a necklace.

    Duval's factorization of the doubled word into non-increasing Lyndon
    words: the least rotation starts at the last factor that begins in the
    first half.  O(n) time, no table.
    """
    ss = tuple(word) * 2
    n = len(ss) // 2
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i  # ss[i:j] is a prenecklace of period j - k
        while j < 2 * n and ss[k] <= ss[j]:
            k = i if ss[k] < ss[j] else k + 1
            j += 1
        while i <= k:  # factors of length j - k, each Lyndon
            i += j - k
    return ss[start:start + n]
