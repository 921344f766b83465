"""Feedback functions and stepping rules for cut-down de Bruijn sequences.

Everything operates on words as tuples of ints (first symbol = oldest).
``pcr3`` / ``pcr3_alt`` are the underlying de Bruijn successors for the pure
cycling register (binary / k-ary); ``mc_step`` restricts either to an
arbitrary window set; the stateful steppers and the context-free
``cut_down_successor`` produce cut-down sequences of any target length.

The steppers mutate their GeneratorState in place and return the emitted
symbol; a state must be driven from a single thread.  The pure functions
here are safe to share.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from .counting import count_lyndon
from .cutplan import CutParams, CutSet
from .ranking import unrank_lyndon
from .words import Word, is_necklace, least_rotation, period


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


@dataclass
class GeneratorState:
    """Mutable stepping context for the counter-based generators."""

    alpha: Word
    params: CutParams
    cuts: CutSet
    t_prime: int = 0
    flag: bool = False
    _markers: frozenset[Word] = field(default_factory=frozenset)
    _special: Word | None = None


def binary_generator_state(params: CutParams, cuts: CutSet) -> GeneratorState:
    """Initial state for the binary cut-down stepper: alpha = 0^(n-1) 1, with
    the special-cycle flag armed when n == 2m-1 (the one case where a
    specific period-n cycle must be among the t joined cycles)."""
    if params.k != 2:
        raise ValueError("binary stepper requires k == 2")
    n, m = params.n, params.m
    flag = n == 2 * m - 1
    special = (0, 1) * (m - 1) + (1,) if flag else None
    return GeneratorState(
        alpha=(0,) * (n - 1) + (1,),
        params=params,
        cuts=cuts,
        t_prime=0,
        flag=flag,
        _markers=frozenset(cuts.markers),
        _special=special,
    )


def binary_step(state: GeneratorState) -> int:
    """Emit one symbol of the binary cut-down sequence and advance the state.

    The candidate window is re-derived after every adjustment of the next
    symbol, so the final marker test always sees the window actually about
    to be entered.
    """
    alpha = state.alpha
    params = state.params
    m, h, t = params.m, params.h, params.t
    tail = alpha[1:]
    a1 = alpha[0]
    w = sum(alpha)

    x = pcr3(alpha)
    cw = w - a1 + x
    if w == m and cw == m + 1:
        # block the branch onto a heavier cycle; stay on the current one
        x = 1 - x
    elif w == m - 1 and cw == m:
        cand = tail + (x,)
        p = period(cand)
        if p > h:
            x = 1 - x
        elif p == h:
            if cand == state._special:
                state.flag = False
            if state.t_prime == t or (state.t_prime + 1 == t and state.flag):
                x = 1 - x
            else:
                state.t_prime += 1

    if tail + (x,) in state._markers:
        x = 1 - x

    state.alpha = tail + (x,)
    return a1


@lru_cache(maxsize=16)
def _threshold(params: CutParams) -> Word:
    # tau: the smallest of the t largest Lyndon words of length h and weight
    # m*h/n, i.e. the (N - t + 1)-th of all N of them
    h, w = params.h, params.m * params.h // params.n
    return unrank_lyndon(h, w, count_lyndon(h, w, 2) - params.t + 1)


def cut_down_successor(word: Word, params: CutParams, cuts: CutSet) -> int:
    """Context-free successor for a binary cut-down sequence: the next symbol
    is a pure function of the current window.

    The t joined weight-m period-h cycles are pinned to the t
    lexicographically largest Lyndon words of length h and weight m*h/n:
    a cycle is joined when its Lyndon word is >= the threshold word tau,
    unranked once per parameter set, so no joined-cycle counter is needed.
    Defined for windows of the target cycle (``on_target_cycle``);
    behaviour elsewhere is unspecified.
    """
    if params.k != 2:
        raise ValueError("the context-free successor requires k == 2")
    m, h = params.m, params.h
    tail = word[1:]
    a1 = word[0]
    w = sum(word)

    x = pcr3(word)
    cw = w - a1 + x
    if w > m or (w == m and cw == m + 1):
        # w > m cannot occur on the cycle; kept as a defensive complement
        x = 1 - x
    elif w == m - 1 and cw == m:
        cand = tail + (x,)
        p = period(cand)
        if p > h:
            x = 1 - x
        elif p == h:
            # cand repeats its first h symbols, an aperiodic block
            if least_rotation(cand[:h]) < _threshold(params):
                x = 1 - x

    if tail + (x,) in cuts.markers:
        x = 1 - x
    return x


def on_target_cycle(word: Word, params: CutParams, cuts: CutSet) -> bool:
    """Is ``word`` a window of the binary cycle that ``cut_down_successor``
    traces?  Those are the windows of weight < m, of weight m and period
    < h, and of weight m and period h whose period block has a Lyndon
    rotation >= tau, less the windows of the small cycles the markers cut.
    """
    m, h = params.m, params.h
    w = sum(word)
    if w > m:
        return False
    if w == m:
        p = period(word)
        if p > h or (p == h and least_rotation(word[:h]) < _threshold(params)):
            return False
    for size in cuts.sizes:
        cycle = (0,) * (size - 1) + (1,) if size > 1 else (0,)
        if any(all(c == cycle[(i + j) % size] for i, c in enumerate(word))
               for j in range(size)):
            return False
    return True


def kary_generator_state(params: CutParams, cuts: CutSet) -> GeneratorState:
    """Initial state for the k-ary cut-down stepper (k > 2).

    The start window is the successor of the all-zero window under the full
    stepping rule, computed by one silent step from 0^n.  When k-1 < m this
    is exactly 0^(n-1)(k-1); for small orders with k-1 >= m that window is
    too heavy to lie on the main cycle and the silent step lands on the
    correct weight-capped start instead (possibly consuming a joined-cycle
    slot, which the silent step records in t_prime).
    """
    if params.k <= 2:
        raise ValueError("k-ary stepper requires k > 2")
    n = params.n
    state = GeneratorState(
        alpha=(0,) * n,
        params=params,
        cuts=cuts,
        t_prime=0,
        flag=False,
        _markers=frozenset(cuts.markers),
    )
    x = _kary_next_symbol(state, (0,) * n, 0)
    state.alpha = (0,) * (n - 1) + (x,)
    return state


def _kary_next_symbol(state: GeneratorState, alpha: Word, w: int) -> int:
    params = state.params
    k, m, h, t = params.k, params.m, params.h, params.t
    a1 = alpha[0]
    tail = alpha[1:]

    x = pcr3_alt(alpha, k)
    if w - a1 + x >= m:
        if w == m:
            # weight cap degenerates to the in-cycle rotation; the period and
            # joined-cycle tests apply only when arriving from below
            x = a1
        else:
            x = m - w + a1
            cand = tail + (x,)
            p = period(cand)
            if p > h:
                x -= 1
            elif p == h:
                if state.t_prime == t:
                    x -= 1
                else:
                    state.t_prime += 1

    cand = tail + (x,)
    if cand in state._markers:
        if any(cand):
            x = 0
        else:
            # cutting the all-zero cycle: splice straight to the successor
            # the rule would pick at 0^n (not always symbol 0 for k > 2)
            x = _kary_next_symbol(state, cand, 0)
    return x


def kary_step(state: GeneratorState) -> int:
    """Emit one symbol of the k-ary (k > 2) cut-down sequence and advance."""
    alpha = state.alpha
    a1 = alpha[0]
    x = _kary_next_symbol(state, alpha, sum(alpha))
    state.alpha = alpha[1:] + (x,)
    return a1
