"""Drive the cut-down rules to stream a sequence; verify candidates.

``generate`` yields symbols one at a time and keeps only O(n) state, so
arbitrarily long sequences stream without being materialized.  A mode
picks only the join decision.  Binary sequences run one packed-integer loop
(a machine word holds the window for n <= 63, a Python big int beyond)
implementing ``successor.kary_step`` at k = 2, which the test suite checks
against the tuple rule by exhaustive output comparison; other alphabets
step ``kary_step`` on tuples.

``verify`` checks the defining property directly: every length-n window of
the cyclic sequence occurs at most once, all symbols are in range, and the
length matches when a target is given.  Windows are rolling base-k
integers marked in a table of k^n bytes, which is less than k bytes per
symbol for any L > k^(n-1); inputs shorter than k^(n-1) use a set of
window values instead, O(L).  Beyond its input, verify keeps at most the
table and O(n) state, on the accepting and the rejecting path alike.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, islice

from . import successor
from .cutplan import CutParams, CutSet, cut_set, derive_params
from .words import Word, pack

_CHUNK = 8192
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class SequenceSpec:
    """What to generate: order, alphabet, length, and which rule drives it.

    mode "counter" joins the first t weight-m period-h cycles met; mode
    "successor" uses the context-free rule and accepts an optional start
    window.  Either mode, for any k, starts by default one step after 0^n
    (0^(n-1) 1 for k = 2).  A successor-mode start must be a window of the
    target cycle; ``generate`` raises ValueError for any other window.
    """

    n: int
    k: int
    L: int
    mode: str = "counter"
    start: Word | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("counter", "successor"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.start is not None:
            if self.mode != "successor":
                raise ValueError("start window applies to successor mode only")
            if len(self.start) != self.n:
                raise ValueError("start window must have length n")
            if not all(0 <= c < self.k for c in self.start):
                raise ValueError("start window has out-of-range symbols")


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a verification: ok iff no duplicate cyclic window, no
    out-of-range symbol, and the expected length (when given) matches.
    Positions are 1-based."""

    ok: bool
    length: int
    first_duplicate: tuple[Word, tuple[int, int]] | None = None
    out_of_range_symbol: int | None = None


def generate(spec: SequenceSpec) -> Iterator[int]:
    """Stream the L symbols of the cut-down sequence described by ``spec``.

    Range errors from parameter derivation propagate unchanged; a
    successor-mode start window off the target cycle raises ValueError.
    """
    params = derive_params(spec.n, spec.k, spec.L)
    cuts = cut_set(params.s, params.n)
    joins = (successor.counter_join(params) if spec.mode == "counter"
             else successor.threshold_join(params))
    if spec.start is None:
        zero = (0,) * params.n
        start = zero[1:] + (successor.kary_step(zero, params, cuts, joins),)
    elif successor.on_target_cycle(tuple(spec.start), params, cuts):
        start = tuple(spec.start)
    else:
        raise ValueError(
            f"start window {''.join(map(str, spec.start))} is not on the "
            f"target cycle for n={spec.n}, L={spec.L}")
    if spec.k == 2:
        return _binary_symbols(params, cuts, pack(start), joins)
    return _kary_symbols(params, cuts, start, joins)


def _binary_symbols(params: CutParams, cuts: CutSet, start: int,
                    joins: successor.Join) -> Iterator[int]:
    # successor.kary_step at k = 2 on packed ints, oldest symbol in the MSB.
    # When the probe word[1:] + (1,) is not a necklace (the common case) the
    # next symbol repeats the first one and no guard can fire.  A necklace
    # begins with its longest run of 0s, so the probe test compares the
    # probe only with its rotations that start with as many 0s; the first
    # equal one gives the period the guards need.
    #
    # Between necklace probes the window only rotates, so such runs of
    # steps are copied out of the window in one go.  The probe at step t is
    # the window rotated to start at position t + 1 with bit t set.  It can
    # be a necklace only if position t + 1 starts a longest 0-run of the
    # window (bit t is 1), or, when the window has a single longest run of
    # z 0s, lies in that run's first (z + 1) // 2 + 1 positions (bit t is 0
    # and splits the run; the part after t must be no shorter than the part
    # before).  cmask marks those positions, MSB = position 0; steps at
    # other positions are plain rotations, unless the window is a rotation
    # of a marker, where every position is marked.
    n, L, m, h = params.n, params.L, params.m, params.h
    mask = (1 << n) - 1
    top = n - 1
    low = mask >> 1
    markers = [pack(w) for w in cuts.markers]
    r1 = markers[0] if len(markers) > 0 else -1
    r2 = markers[1] if len(markers) > 1 else -1
    marked = {((r << j) | (r >> (n - j))) & mask
              for r in markers for j in range(n)}

    def candidates(a: int) -> int:
        zeros = mask ^ a
        if zeros == 0 or zeros == mask or a in marked:
            return mask
        runs, z = zeros, 1  # runs: starts of z-long runs of 0s
        while True:
            longer = runs & (((zeros << z) & mask) | (zeros >> (n - z)))
            if not longer:
                break
            runs, z = longer, z + 1
        if runs & (runs - 1):
            return runs
        u = n - runs.bit_length()
        c = (z + 1) // 2
        span = ((2 << c) - 1) << (top - c)  # positions 0..c
        return ((span >> u) | (span << (n - u))) & mask

    alpha = start
    w = start.bit_count()
    cmask = candidates(alpha)
    # symbols go out as bytes: 0/1 from single steps, ASCII digits from runs
    buf = bytearray()
    append = buf.append
    # each block from the second on matches all symbols made so far, from 64
    # up to _CHUNK: a short prefix comes out early, and block ends still
    # fall on every multiple of _CHUNK
    remaining = L
    while remaining:
        block = min(max(L - remaining, 64), _CHUNK, remaining)
        remaining -= block
        while block:
            c = cmask & low
            q = min(top - c.bit_length() if c else top, block)
            if q:
                buf += bin((alpha >> (n - q)) | (1 << q))[3:].encode()
                alpha = ((alpha << q) & mask) | (alpha >> (n - q))
                cmask = ((cmask << q) & mask) | (cmask >> (n - q))
                block -= q
                if not block:
                    break
            block -= 1
            a1 = alpha >> top
            append(a1)
            shifted = (alpha << 1) & mask
            # p := period of probe = shifted|1 if it is a necklace, else 0
            if shifted >> top:
                p = 1 if (shifted | 1) == mask else 0
            else:
                probe = shifted | 1
                zeros = mask ^ probe
                starts = zeros & low  # later starts of as many 0s
                for j in range(1, n - probe.bit_length()):
                    starts &= ((zeros << j) & mask) | (zeros >> (n - j))
                p = n
                while starts:
                    b = starts.bit_length()
                    turned = ((probe << (n - b)) & mask) | (probe >> b)
                    if turned <= probe:
                        p = n - b if turned == probe else 0
                        break
                    starts ^= 1 << (b - 1)
            if p:
                x = 1 - a1
                cw = w - a1 + x
                if cw == m + 1:
                    x = 0  # w == m: the complement blocks the heavier branch
                elif cw == m and w == m - 1:
                    # x == 1 here, so the candidate is the probe itself and
                    # p is its period
                    if p > h or (p == h and not joins(shifted | 1)):
                        x = 0
                cand = shifted | x
                if cand == r1 or cand == r2:
                    x = 1 - x
                    cand = shifted | x
                alpha = cand
                w += x - a1
            else:
                # next symbol repeats a1; only the marker test can still fire
                cand = shifted | a1
                if cand == r1 or cand == r2:
                    alpha = shifted | (1 - a1)
                    w += 1 - 2 * a1
                else:
                    alpha = cand
            if alpha == shifted | a1:
                cmask = ((cmask << 1) & mask) | (cmask >> top)
            else:
                cmask = candidates(alpha)
        yield from buf.translate(_DIGITS)
        buf.clear()


def _kary_symbols(params: CutParams, cuts: CutSet, start: Word,
                  joins: successor.Join) -> Iterator[int]:
    # successor.kary_step is looked up on the module at every call, so a
    # wrapper installed there sees each step
    alpha = start
    for _ in range(params.L):
        yield alpha[0]
        alpha = alpha[1:] + (successor.kary_step(alpha, params, cuts, joins),)


def verify(seq: Iterable[int], n: int, k: int,
           expected_len: int | None = None) -> VerifyReport:
    """Check that ``seq`` is a valid cut-down sequence body for (n, k).

    All len(seq) cyclic length-n windows (including wraparound) must be
    pairwise distinct and every symbol must lie in [0, k).  A list, tuple,
    bytes or bytearray is read in place; any other iterable is copied into
    a list first.  Failures are reported, not raised; n < 1 or k < 2 raises
    ValueError.
    """
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    symbols: Sequence[int] = (
        seq if isinstance(seq, (list, tuple, bytes, bytearray)) else list(seq))
    length = len(symbols)
    if length < 1:
        raise ValueError("empty sequence")
    if min(symbols) < 0 or max(symbols) >= k:
        bad = next(idx for idx, c in enumerate(symbols, 1) if not 0 <= c < k)
        return VerifyReport(ok=False, length=length, out_of_range_symbol=bad)

    size = k ** n
    if k * length < size:
        # shorter than any cut-down body: k^n bytes would outweigh the input
        seen: set[int] | bytearray = set(_window_values(symbols, n, k))
        distinct = len(seen)
    else:
        # one pass without branches: mark every window, count the marks
        seen = bytearray(size)
        value = next(_window_values(symbols, n, k))
        seen[value] = 1
        for c in _incoming(symbols, n):
            value = (value * k + c) % size
            seen[value] = 1
        distinct = seen.count(1)

    duplicate = None
    if distinct < length:
        second, value = _first_repeat(_window_values(symbols, n, k), seen)
        values = _window_values(symbols, n, k)
        first = next(pos for pos, v in enumerate(values, 1) if v == value)
        window = tuple(symbols[(second - 1 + j) % length] for j in range(n))
        duplicate = (window, (first, second))

    ok = duplicate is None and (expected_len is None or length == expected_len)
    return VerifyReport(ok=ok, length=length, first_duplicate=duplicate)


def _incoming(symbols: Sequence[int], n: int) -> Iterator[int]:
    # the symbols entering windows 2..L: symbols[n:] and then the n - 1
    # wrapped ones, read in place; a short input wraps repeatedly
    length = len(symbols)
    if length >= n:
        return chain(islice(symbols, n, None), islice(symbols, n - 1))
    return (symbols[j % length] for j in range(n, n + length - 1))


def _window_values(symbols: Sequence[int], n: int, k: int) -> Iterator[int]:
    # base-k values of the cyclic windows at positions 1, 2, ..., L
    size = k ** n
    value = 0
    for j in range(n):
        value = value * k + symbols[j % len(symbols)]
    yield value
    for c in _incoming(symbols, n):
        value = (value * k + c) % size
        yield value


def _first_repeat(values: Iterator[int],
                  seen: set[int] | bytearray) -> tuple[int, int]:
    # 1-based position and value of the first window seen before; the marks
    # of the counting pass are set aside (the set is emptied, the table's
    # 1s are passed over by marking 2s), so no memory is added
    if isinstance(seen, set):
        seen.clear()
        for pos, value in enumerate(values, 1):
            if value in seen:
                return pos, value
            seen.add(value)
    else:
        for pos, value in enumerate(values, 1):
            if seen[value] == 2:
                return pos, value
            seen[value] = 2
    raise RuntimeError("the counting pass saw a repeated window; none found")
