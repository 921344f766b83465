"""Feedback functions and the cut-down rule for cut-down de Bruijn sequences.

Every rule here takes its window as any sequence of int symbols (first
symbol = oldest), which ``words.check_word`` checks and makes a tuple.
``pcr3_alt`` is the underlying de Bruijn successor for the pure cycling
register over any alphabet (``pcr3`` is its binary case), decided by one
``words.prenecklace_period`` scan of the window's tail; ``mc_step``
restricts it to an arbitrary window set.  The one cut-down rule,
``kary_step``, serves every k >= 2 and takes a *join decision* for the
weight-m period-h cycles: ``counter_join`` (the first t met; it counts, so
one pass from the start) or ``threshold_join`` (Lyndon word >= tau, where
tau is unranked when the join is built; stateless), which makes
``cut_down_successor`` context-free.  The rule is the readable reference
for both loops in ``engine``; the k-ary loop also calls it, through this
module, for its rare steps that reach the weight cap from below or land
on a marker.  A ``counter_join`` must be driven from a single thread;
everything else here is safe to share.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache

from .counting import count_lyndon
from .cutplan import CutParams, CutSet
from .ranking import unrank_lyndon
from .words import (Word, check_word, least_rotation, pack, period,
                    prenecklace_period)


def pcr3(word: Sequence[int]) -> int:
    """Binary de Bruijn successor on the pure cycling register: ``pcr3_alt``
    at k = 2, which complements the first symbol when dropping it and
    appending 1 yields a necklace."""
    return pcr3_alt(word, 2)


def pcr3_alt(word: Sequence[int], k: int) -> int:
    """k-ary de Bruijn successor on the pure cycling register ("last symbol"
    joining; the rule catalogued as PCR3 (alt)).

    Let c be the smallest symbol in 1..k-1 such that dropping the first
    symbol and appending c yields a necklace (c = 0 if none).  Returns k-1
    when the first symbol is c-1, first symbol minus one when it is >= c > 0,
    else the first symbol unchanged.  Iterated from any word it traces a
    full de Bruijn sequence.  A word that ``words.check_word`` refuses
    raises ValueError.
    """
    word = check_word(word, k)
    # By the fundamental theorem of necklaces, with p the period of the
    # tail's longest Lyndon prefix and b = tail[-p], tail + (c,) is a
    # necklace iff c > b, or c == b and p divides n.  A tail that is not a
    # prenecklace extends to no necklace at all.
    n = len(word)
    a1 = word[0]
    p = prenecklace_period(word[1:])
    if not p:
        return a1
    b = word[n - p] if n > 1 else 0
    c = b if b and n % p == 0 else b + 1  # c == k: none joins, a1 stays
    if a1 == c - 1:
        return k - 1
    return a1 - 1 if a1 >= c else a1


def mc_step(word: Sequence[int], member: Callable[[Word], bool],
            k: int = 2) -> int:
    """One step of the generic universal-cycle successor for a window set.

    Applies ``pcr3_alt``, then, when the candidate window falls outside the
    set, picks the largest symbol that stays inside (for k = 2, the
    complement).  ``word`` itself must belong to the set; raises ValueError
    when no symbol keeps the successor inside, or for a word that
    ``words.check_word`` refuses.
    """
    x = pcr3_alt(word, k)  # checks the window
    word = tuple(word)
    tail = word[1:]
    if member(tail + (x,)):
        return x
    for x in range(k - 1, -1, -1):
        if member(tail + (x,)):
            return x
    raise ValueError(f"no successor of {word} stays in the set")


# joins(cand): join the weight-m period-h cycle that kary_step reaches from
# below at window cand, packed as in pack?  cand is always a necklace of
# period h: pcr3_alt must raise a1 to k - 1, so a1 = c - 1 for the least c
# that makes the tail a necklace, and cand appends a symbol >= c to it.
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
    k, h, w = params.k, params.h, params.m * params.h // params.n
    tau = unrank_lyndon(h, w, count_lyndon(h, w, k) - params.t + 1, k)
    return pack(tau * (params.n // h), k)


def threshold_join(params: CutParams) -> Join:
    """Join decision of the context-free rule: join the t weight-m period-h
    cycles with the largest Lyndon words of length h and weight m*h/n, which
    are those >= tau, the (N - t + 1)-th of all N of them.

    ``joins(cand)`` takes a necklace of period h packed as in ``pack`` (see
    ``Join``): its Lyndon block compares with tau as the whole window
    compares with tau repeated n/h times, so one comparison decides.  tau
    is unranked when the join is built and cached per parameter set.
    """
    return _tau(params).__le__


def cut_down_successor(word: Sequence[int], params: CutParams,
                       cuts: CutSet) -> int:
    """Context-free successor for a cut-down sequence over any alphabet: the
    next symbol is a pure function of the current window.

    This is ``kary_step`` with ``threshold_join``, so no joined-cycle
    counter is needed; the first call for a parameter set that asks the
    join unranks tau.  Defined for windows of the target cycle
    (``on_target_cycle``); a window that ``words.check_word`` refuses at
    length n raises ValueError before tau is unranked, and any other
    returns some symbol in {0, ..., k-1} or raises ValueError.
    """
    # the join reads tau only when kary_step asks it, after the check
    return kary_step(word, params, cuts, lambda cand: _tau(params) <= cand)


def on_target_cycle(word: Sequence[int], params: CutParams,
                    cuts: CutSet) -> bool:
    """Is ``word`` a window of the cycle that ``cut_down_successor`` traces?

    Those are the windows of weight < m, of weight m and period < h, and of
    weight m and period h whose cycle ``threshold_join`` joins, less the
    windows of the small cycles the markers cut.  A window that
    ``words.check_word`` refuses at length n raises ValueError, as in
    ``kary_step``.
    """
    k, m, h = params.k, params.m, params.h
    word = check_word(word, k, params.n)
    w = sum(word)
    if w > m:
        return False
    if w == m:
        p = period(word)
        if p > h or (p == h and
                     pack(least_rotation(word), k) < _tau(params)):
            return False
    # the windows of the small cycle [0^(i-1) 1] repeat every i symbols,
    # and their first i are a rotation of 0^(i-1) 1: with every symbol an
    # int >= 0, those that sum to 1 (to 0 at i = 1, the all-0 window)
    return not any(word[i:] == word[:-i] and sum(word[:i]) == (i > 1)
                   for i in cuts.sizes)


def kary_step(word: Sequence[int], params: CutParams, cuts: CutSet,
              joins: Join) -> int:
    """Next symbol after ``word`` on the cut-down cycle, for any k >= 2.

    Starting from ``pcr3_alt``, the rule caps the weight at m, never joins
    a weight-m cycle of period > h, asks ``joins`` about each weight-m
    cycle of period h it reaches from below (passing the candidate window
    packed as in ``pack``), and finally redirects at the markers.  A window
    heavier than m, which is on no cut-down cycle, raises ValueError when
    the cap is reached; so does a window that ``words.check_word`` refuses
    at length n.

    A sequence starts by default one step after 0^n, in either mode:
    usually at 0^(n-1)(k-1), but for small orders with k-1 >= m that window
    is too heavy for the main cycle and the step lands on the weight-capped
    start (possibly using a join).
    """
    k, m, h = params.k, params.m, params.h
    if len(word) != params.n:
        check_word(word, k, params.n)  # raises, naming the length
    x = pcr3_alt(word, k)  # the one check of the symbols
    word = tuple(word)
    a1 = word[0]
    tail = word[1:]
    w = sum(word)

    if w - a1 + x >= m:
        if w == m:
            # weight cap degenerates to the in-cycle rotation; the period and
            # join tests apply only when arriving from below
            x = a1
        elif w > m:
            raise ValueError(f"window {word} is heavier than m = {m}, so it "
                             "is on no cut-down cycle")
        else:
            x = m - w + a1
            cand = tail + (x,)
            p = period(cand)
            if p > h or (p == h and not joins(pack(cand, k))):
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
