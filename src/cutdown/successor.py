"""Feedback functions and the cut-down rules for cut-down de Bruijn sequences.

Everything operates on words as tuples of ints (first symbol = oldest).
``pcr3`` / ``pcr3_alt`` are the underlying de Bruijn successors for the pure
cycling register (binary / k-ary); ``mc_step`` restricts either to an
arbitrary window set.  The cut-down rules ``binary_next`` and ``kary_step``
take a *join decision* for the weight-m period-h cycles: ``counter_join``
(the first t met; it counts, so one pass from the start) or, for k = 2,
``threshold_join`` (Lyndon word >= tau; stateless), which makes
``cut_down_successor`` context-free.  These tuple rules are the readable
reference for the packed loop in ``engine``.  A ``counter_join`` must be
driven from a single thread; everything else here is safe to share.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from .counting import count_lyndon
from .cutplan import CutParams, CutSet
from .ranking import unrank_lyndon
from .words import Word, is_necklace, pack, period


def pcr3(word: Word) -> int:
    """Binary de Bruijn successor on the pure cycling register.

    Returns the complement of the first symbol when dropping it and
    appending 1 yields a necklace, else the first symbol unchanged.
    Iterated from any binary word it traces a full de Bruijn sequence.
    """
    # necklace scan of word[1:] + (1,) without building the probe word
    n = len(word)
    p = 1
    for i in range(1, n):
        c = word[i - p + 1]
        d = word[i + 1] if i + 1 < n else 1
        if c > d:
            return word[0]
        if c < d:
            p = i + 1
    if n % p:
        return word[0]
    return 1 - word[0]


def pcr3_alt(word: Word, k: int) -> int:
    """k-ary de Bruijn successor on the pure cycling register ("last symbol"
    joining; the rule catalogued as PCR3 (alt)).

    Let c be the smallest symbol in 1..k-1 such that dropping the first
    symbol and appending c yields a necklace (c = 0 if none).  Returns k-1
    when the first symbol is c-1, first symbol minus one when it is >= c > 0,
    else the first symbol unchanged.
    """
    a1 = word[0]
    tail = word[1:]
    c = 0
    for cand in range(1, k):
        if is_necklace(tail + (cand,)) is not None:
            c = cand
            break
    if c > 0:
        if a1 == c - 1:
            return k - 1
        if a1 >= c:
            return a1 - 1
    return a1


def mc_step(word: Word, member: Callable[[Word], bool], k: int = 2) -> int:
    """One step of the generic universal-cycle successor for a window set.

    Applies the underlying de Bruijn successor, then corrects the symbol when
    the candidate window falls outside the set: binary complements, k-ary
    picks the largest symbol that stays inside.  ``word`` itself must belong
    to the set; raises ValueError when no symbol keeps the successor inside.
    """
    tail = word[1:]
    if k == 2:
        x = pcr3(word)
        if not member(tail + (x,)):
            x = 1 - x
            if not member(tail + (x,)):
                raise ValueError(f"no successor of {word} stays in the set")
        return x
    x = pcr3_alt(word, k)
    if member(tail + (x,)):
        return x
    for x in range(k - 1, -1, -1):
        if member(tail + (x,)):
            return x
    raise ValueError(f"no successor of {word} stays in the set")


Join = Callable[[int], bool]


def counter_join(params: CutParams) -> Join:
    """Join decision of the counter algorithms: join the first t weight-m
    period-h cycles met, counting them (t') in the returned ``joins``.

    When k == 2 and n == 2m-1 the cycle of (01)^(m-1) 1 must be among them,
    so the last slot stays reserved until ``joins`` sees that candidate,
    packed as in ``pack``; for k > 2 ``cand`` is never read.
    """
    t = params.t
    reserved = params.k == 2 and params.n == 2 * params.m - 1
    special = pack((0, 1) * (params.m - 1) + (1,)) if reserved else -1
    joined = 0

    def joins(cand: int) -> bool:
        nonlocal joined, reserved
        if reserved and cand == special:
            reserved = False
        if joined == t or (reserved and joined + 1 == t):
            return False
        joined += 1
        return True

    return joins


@lru_cache(maxsize=16)
def _tau(params: CutParams) -> int:
    h, w = params.h, params.m * params.h // params.n
    return pack(unrank_lyndon(h, w, count_lyndon(h, w, 2) - params.t + 1))


def threshold_join(params: CutParams) -> Join:
    """Join decision of the context-free rule (k == 2): join the t weight-m
    period-h cycles with the largest Lyndon words of length h and weight
    m*h/n, which are those >= tau, the (N - t + 1)-th of all N of them.

    ``joins(cand)`` takes a period-h window packed as in ``pack`` and
    compares the least rotation of its first h bits with tau, which is
    unranked on first use and cached per parameter set.
    """
    def joins(cand: int) -> bool:
        # all work happens here: cut_down_successor builds a join per window
        h = params.h
        block = cand >> (params.n - h)
        low = (1 << h) - 1
        return min((block << i | block >> (h - i)) & low
                   for i in range(h)) >= _tau(params)

    return joins


def binary_next(word: Word, params: CutParams, cuts: CutSet,
                joins: Join) -> int:
    """Next symbol after ``word`` on the binary cut-down cycle.

    Starting from ``pcr3``, the rule stays below weight m + 1, never joins
    a weight-m cycle of period > h, asks ``joins`` about each weight-m
    cycle of period h it reaches from below, and finally redirects at the
    markers.  The candidate window is re-derived after each adjustment, so
    the marker test sees the window actually about to be entered.
    """
    m, h = params.m, params.h
    tail = word[1:]
    a1 = word[0]
    w = sum(word)

    x = pcr3(word)
    cw = w - a1 + x
    if w > m or (w == m and cw == m + 1):
        # block the branch onto a heavier cycle; w > m is off every cycle
        x = 1 - x
    elif w == m - 1 and cw == m:
        cand = tail + (x,)
        p = period(cand)
        if p > h or (p == h and not joins(pack(cand))):
            x = 1 - x

    if tail + (x,) in cuts.markers:
        x = 1 - x
    return x


def cut_down_successor(word: Word, params: CutParams, cuts: CutSet) -> int:
    """Context-free successor for a binary cut-down sequence: the next symbol
    is a pure function of the current window.

    This is ``binary_next`` with ``threshold_join``, so no joined-cycle
    counter is needed.  Defined for windows of the target cycle
    (``on_target_cycle``); behaviour elsewhere is unspecified.
    """
    if params.k != 2:
        raise ValueError("the context-free successor requires k == 2")
    return binary_next(word, params, cuts, threshold_join(params))


def on_target_cycle(word: Word, params: CutParams, cuts: CutSet) -> bool:
    """Is ``word`` a window of the binary cycle that ``cut_down_successor``
    traces?  Those are the windows of weight < m, of weight m and period
    < h, and of weight m and period h whose cycle ``threshold_join`` joins,
    less the windows of the small cycles the markers cut.
    """
    m, h = params.m, params.h
    w = sum(word)
    if w > m:
        return False
    if w == m:
        p = period(word)
        if p > h or (p == h and not threshold_join(params)(pack(word))):
            return False
    for size in cuts.sizes:
        cycle = (0,) * (size - 1) + (1,) if size > 1 else (0,)
        if any(all(c == cycle[(i + j) % size] for i, c in enumerate(word))
               for j in range(size)):
            return False
    return True


def kary_step(word: Word, params: CutParams, cuts: CutSet,
              joins: Join) -> int:
    """Next symbol after ``word`` on the k-ary (k > 2) cut-down cycle, with
    ``joins`` from ``counter_join``.

    The sequence starts one step after 0^n: usually at 0^(n-1)(k-1), but
    for small orders with k-1 >= m that window is too heavy for the main
    cycle and the step lands on the weight-capped start (possibly using a
    join).
    """
    k, m, h = params.k, params.m, params.h
    a1 = word[0]
    tail = word[1:]
    w = sum(word)

    x = pcr3_alt(word, k)
    if w - a1 + x >= m:
        if w == m:
            # weight cap degenerates to the in-cycle rotation; the period and
            # join tests apply only when arriving from below
            x = a1
        else:
            x = m - w + a1
            cand = tail + (x,)
            p = period(cand)
            if p > h or (p == h and not joins(cand)):
                x -= 1

    cand = tail + (x,)
    if cand in cuts.markers:
        if any(cand):
            x = 0
        else:
            # cutting the all-zero cycle: splice straight to the successor
            # the rule would pick at 0^n (not always symbol 0 for k > 2)
            x = kary_step(cand, params, cuts, joins)
    return x
