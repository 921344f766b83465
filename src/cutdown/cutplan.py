"""Derive cut-down parameters (m, h, t, s) and the marker words that cut
small cycles out of the main cycle.

Given an order n, alphabet size k and a target length L with
k^(n-1) < L <= k^n, the main cycle joins

  * every pure-cycling-register cycle of weight < m,
  * every cycle of weight m and period < h, and
  * exactly t cycles of weight m and period h,

where m, h, t are minimal so the joined length A(m-1) + C(m, h-1) + t*h
reaches L (A = words of weight <= ., C = weight-m words of period <= .).
The surplus s is the overhang of that length over L; it is removed by
redirecting the successor at up to two marker words, each marker cutting
the small cycle [0..01] of a chosen length out of the main cycle.
"""

from __future__ import annotations

from collections import namedtuple

from .counting import count_weight_at_most, count_weight_period, divisors
from .words import Word, check_ints


class CutParams(namedtuple("CutParams", "n k L m h t s")):
    """Parameters driving one cut-down construction: the order n, alphabet
    size k and length L; the maximum window weight m on the main cycle;
    the period threshold h for weight-m cycles; the number t of weight-m,
    period-h cycles joined; and the surplus length s removed by cutting
    small cycles."""

    __slots__ = ()


class CutSet(namedtuple("CutSet", "markers sizes")):
    """Marker words at which the successor is redirected, with the length of
    the small cycle each marker excises.  0, 1 or 2 markers; sizes sum to s."""

    __slots__ = ()

    def total(self) -> int:
        return sum(self.sizes)


def derive_params(n: int, k: int, L: int) -> CutParams:
    """Compute the unique (m, h, t, s) for a length-L cut-down sequence.

    Raises ValueError when n, k or L is not an int, n < 2, k < 2, or L is
    outside the supported interval (k^(n-1), k^n]; shorter targets should
    reduce the order n instead.
    """
    check_ints(n=n, k=k, L=L)
    if n < 2:
        raise ValueError("need n >= 2 and k >= 2")
    lo, hi = k ** (n - 1), k ** n
    if not lo < L <= hi:
        raise ValueError(
            f"L={L} out of range: need k^(n-1) < L <= k^n, "
            f"i.e. {lo} < L <= {hi} for n={n}, k={k}")

    # the least m with A(m) >= L: A grows with m, and A((k-1)n) = k^n >= L,
    # so m counts the weights w with A(w) < L, found bit by bit from the
    # top, on plain ints: a range of (k-1)n + 1 weights can be longer than
    # bisect takes
    m = 0
    for bit in reversed(range(((k - 1) * n).bit_length())):
        m += (count_weight_at_most(m + (1 << bit) - 1, n, k) < L) << bit
    below = count_weight_at_most(m - 1, n, k)

    # the least h with A(m-1) + C(m, h) >= L: C grows only where h
    # divides n, so h is a divisor, and base is the length before it
    base = below
    for h in divisors(n):
        size = count_weight_period(m, h, n, k)
        if base + size >= L:
            break
        base += size
    # smallest t >= 1 with base + t*h >= L; base < L by minimality of h
    t = -((base - L) // h)

    s = base + t * h - L
    if not (t >= 1 and 0 <= s < h <= n):
        raise RuntimeError(f"derived t={t}, s={s}, h={h} violate t >= 1 and "
                           f"0 <= s < h <= n={n}")
    return CutParams(n=n, k=k, L=L, m=m, h=h, t=t, s=s)


def marker_word(i: int, n: int) -> Word:
    """First window visited on the small cycle [0^(i-1) 1], as a length-n word.

    For i == 1 this is the all-zero word.  When i divides n the window is the
    repeated pattern itself; otherwise the window starts at the phase with
    (n mod i) - 1 leading zeros, which is the first one reached by the main
    cycle: the last n symbols of the pattern repeated.  Only i == 1 or
    i <= ceil(n/2) are cuttable; larger cycles act as bridges between
    register cycles and cannot be removed this way.  Raises ValueError when
    i or n is not an int, n < 1 or i is not cuttable.
    """
    check_ints(i=i, n=n)
    if not (i == 1 or 2 <= i <= (n + 1) // 2):
        raise ValueError(f"cycle length {i} not cuttable for n={n}: "
                         f"need i == 1 or 2 <= i <= ceil(n/2)")
    cycle = (0,) * (i - 1) + (1,) if i > 1 else (0,)
    return (cycle * (n // i + 1))[-n:]


def cut_set(surplus: int, n: int) -> CutSet:
    """Markers cutting cycles whose lengths sum to ``surplus``.

    One marker suffices for surplus <= ceil(n/2); otherwise the surplus is
    split as ceil(n/2) + remainder across two disjoint cycles.  Raises
    ValueError when surplus or n is not an int or surplus is outside [0, n).
    """
    check_ints(surplus=surplus, n=n)
    if not 0 <= surplus < n:
        raise ValueError(f"surplus {surplus} out of range [0, {n})")
    if surplus == 0:
        return CutSet(markers=(), sizes=())
    j = (n + 1) // 2
    if surplus <= j:
        return CutSet(markers=(marker_word(surplus, n),), sizes=(surplus,))
    return CutSet(markers=(marker_word(j, n), marker_word(surplus - j, n)),
                  sizes=(j, surplus - j))
