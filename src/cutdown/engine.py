"""Stream cut-down sequences and verify candidates.

``generate``, ``verify`` and their records ``SequenceSpec`` and
``VerifyReport`` are the public part.  Two loops stand behind
``generate``, each ``successor.kary_step`` with the plain rotations
between the steps that can change a window's class copied in runs:
``_binary_symbols`` at k = 2, on packed ints (one machine word for
n <= 63, a big int beyond), which records only the steps that change a
symbol and builds each block from them in a few big-int operations, and
``_list_symbols`` with ``_tail_starts`` and ``_tail_scanner`` for larger
k.  README "How it works" explains both.

``verify`` marks each window's base-k value in one pass: at n = 22 on
Python 3.11 a test for a repeat on every symbol, or marking through a
generator such as ``_window_values``, made it 15-26% slower.  So a repeat
is looked for only when the marks count fewer distinct windows than
symbols, in two more passes.  Every pass reads ``_cyclic``'s stream, the
input and then its first n - 1 symbols, whose linear windows are the
input's cyclic ones, so no pass treats the windows that wrap around
apart.  At k = 2, 4 and 16, while a window fits in 64 bits, the marking
pass reads the window values off big ints in lanes (``_lane_marker``),
the word-level parallelism of shift-or string matching (Baeza-Yates and
Gonnet, 1992), so a window costs only its mark; at any other k or n a
loop rolls the window value a symbol at a time.

The records here and in ``cutplan`` are named tuples, which import less
than dataclasses do; each equals the plain tuple of its fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, cycle, islice
from sys import byteorder

from . import successor
from .cutplan import CutParams, CutSet, cut_set, derive_params
from .words import (Word, check_ints, check_word, format_word,
                    int_symbols, pack)

_CHUNK = 8192
# verify reads an iterable in lists this long: with the growth of the list
# as it fills, a block then stays small beside even a 64 KiB table
_PIECE = 1024
_LANE = 4096  # verify's pieces for bytes() and the lanes of _lane_marker
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_BYTES = bytes(range(256))
_HEX = bytes.maketrans(_BYTES[:16], b"0123456789abcdef")
_BITS = bytes.maketrans(b"\x00\x01", b"01")


class SequenceSpec(namedtuple("SequenceSpec", "n k L mode start")):
    """What to generate: order, alphabet, length, and which rule drives it.

    mode "counter" joins the first t weight-m period-h cycles met; mode
    "successor" uses the context-free rule and accepts an optional start
    window.  Either mode, for any k, starts by default one step after 0^n
    (0^(n-1) 1 for k = 2).  A successor-mode start must be a window of the
    target cycle; ``generate`` raises ValueError for any other window.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, L: int, mode: str = "counter",
                start: Sequence[int] | None = None) -> SequenceSpec:
        if mode not in ("counter", "successor"):
            raise ValueError(f"unknown mode {mode!r}")
        if start is not None:
            if mode != "successor":
                raise ValueError("start window applies to successor mode only")
            start = check_word(start, k, n)  # a tuple keeps it hashable
        return super().__new__(cls, n, k, L, mode, start)

    @classmethod
    def _make(cls, iterable: Iterable) -> SequenceSpec:
        # _replace builds through _make: validate there too
        return cls(*iterable)


class VerifyReport(namedtuple("VerifyReport", "ok length first_duplicate "
                              "out_of_range_symbol", defaults=(None, None))):
    """Outcome of a verification: ok iff no duplicate cyclic window, no
    out-of-range symbol, and the expected length (when given) matches.
    Positions are 1-based: first_duplicate is (window, (first, second)),
    out_of_range_symbol the position of the first bad symbol."""

    __slots__ = ()


def generate(spec: SequenceSpec) -> Iterator[int]:
    """Stream the L symbols of the cut-down sequence described by ``spec``.

    Range errors from parameter derivation propagate unchanged; a
    successor-mode start window off the target cycle raises ValueError.
    Set-up runs before this returns and includes, in successor mode,
    unranking tau (see ``successor.threshold_join``), so no symbol waits
    for it.
    """
    return chain.from_iterable(_blocks(spec))


def _blocks(spec: SequenceSpec) -> Iterator[Sequence[int]]:
    # generate's blocks: bytes for k = 2, lists for larger k, from 64
    # up to _CHUNK symbols.  All set-up runs here, before the loop starts.
    params = derive_params(spec.n, spec.k, spec.L)
    cuts = cut_set(params.s, params.n)
    joins = (successor.counter_join(params) if spec.mode == "counter"
             else successor.threshold_join(params))
    if spec.start is None:
        zero = (0,) * params.n
        start = zero[1:] + (successor.kary_step(zero, params, cuts, joins),)
    elif successor.on_target_cycle(spec.start, params, cuts):
        start = spec.start
    else:
        raise ValueError(
            f"start window {format_word(spec.start, spec.k)} is not on the "
            f"target cycle for n={spec.n}, L={spec.L}")
    return (_binary_symbols(params, cuts, pack(start), joins) if spec.k == 2
            else _list_symbols(params, cuts, start, joins))


def _block_sizes(L: int) -> Iterator[int]:
    # the sizes of generate's blocks: each from the second on matches all
    # symbols made so far, from 64 up to _CHUNK, so a short prefix comes
    # out early, and block ends still fall on every multiple of _CHUNK
    made = 0
    while made < L:
        block = min(max(made, 64), _CHUNK, L - made)
        yield block
        made += block


def _binary_symbols(params: CutParams, cuts: CutSet, start: int,
                    joins: successor.Join) -> Iterator[bytes]:
    # successor.kary_step at k = 2 on packed ints, oldest symbol in the MSB.
    # When the probe word[1:] + (1,) is not a necklace (the common case) the
    # next symbol repeats the first one and no guard can fire.  A necklace
    # begins with its longest run of 0s, so the probe test compares the
    # probe only with its rotations that start with as many 0s; the first
    # equal one gives the period the guards need.  Those rotations start
    # where the other z0-long runs do, which the probe finds by doubling:
    # at large n the opening stretch's probes lead with hundreds of 0s.
    # The search stays inline, and so does the class change below, as a
    # helper call per probe or per class change would cost a few percent.
    #
    # Only a necklace probe that adds a 1 can reach the weight cap, so only
    # that step counts the window's weight.
    #
    # Symbol t + n of a block is symbol t unless step t changed it, and
    # only a class change does.  So a block records its first window,
    # head, and a flag for each step that changes a symbol.  At its end
    # the bits of head followed by the flags, less their last n, are
    # xored with themselves shifted by n, 2n, 4n, ..., which carries each
    # change on to every later symbol it reaches.  The flags cut off fall
    # past the block; the next block's head holds their changes.
    #
    # Between necklace probes the window only rotates, so such runs of
    # steps only rotate alpha and cmask, in one go.  The probe at step t is
    # the window rotated to start at position t + 1 with bit t set, so it
    # can be a necklace only where _tail_starts would mark position t + 1.
    # cmask holds marks that cover those positions, MSB = position 0; steps
    # at other positions are plain rotations.  A class change after a
    # necklace probe lands on the probe (up: the probe dropped a 0) or on
    # the probe with its last 1 cleared (down: it dropped a 1).  The
    # classes form a tree, a class's parent being that of its necklace
    # with the last 1 cleared, so a step down from a class entered by a
    # step up lands on the window that step left, turned by one.  So a
    # step up pushes the class it leaves on stack: its marks turned by
    # one, neck (its necklace) and z2.  It takes the new marks and neck
    # from what the probe test found: the probe's other runs of 0s as long
    # as its leading ones (runs) and its period p.  A step down pops them.
    # With several longest runs only the multiples of p are marked, as
    # every other run start probes a rotation that is not the necklace.  A
    # single longest run of z is marked at positions 0..c: the probe at u
    # drops a 0 of that run, leads with z - u 0s and keeps the class's
    # other runs, so c = min((z + 1) // 2, z - z2), where z2 is a lower
    # bound on the longest run of 0s after the leading one: the class left
    # keeps its own, and the probe adds the u - 1 0s before its last 1.
    # At weight m the cap keeps every 0, so only the multiples of p, where
    # a 1 drops, are marked (probe_class_mask_reference in tests/refdata.py
    # spells the marks out).  A marked step that drops a 1 probes the
    # window turned by one, so where neck is known it is one comparison.
    # The start window and the rare other class changes mark every
    # position, leave neck unknown (0), set z2 = 0 and empty stack: the
    # all-0 window, the two windows after the all-1 probe, the rotations of
    # a marker, where a redirect can fire at any step, and marker redirects
    # after a failed probe.  The rarer step down with stack empty also
    # marks every position and leaves neck unknown; z2 is 0 there already,
    # as every class met with stack empty is reached from such a fallback
    # by steps down.  Missing knowledge only widens the marks, so the
    # symbols are the same either way.
    n, L, m, h = params.n, params.L, params.m, params.h
    mask = (1 << n) - 1
    top = n - 1
    low = mask >> 1
    markers = [pack(w) for w in cuts.markers]
    r1 = markers[0] if len(markers) > 0 else -1
    r2 = markers[1] if len(markers) > 1 else -1
    marked = _rotations(cuts, n)

    alpha = start
    cmask, neck, z2 = mask, 0, 0
    stack: list[tuple[int, int, int]] = []
    for size in _block_sizes(L):
        head = alpha
        flips = bytearray(size)  # 1 at each step that changes the symbol
        block = size
        while block:
            c = cmask & low
            q = top - c.bit_length() if c else top
            if q > block:
                q = block
            if q:
                alpha = ((alpha << q) & mask) | (alpha >> (n - q))
                cmask = ((cmask << q) & mask) | (cmask >> (n - q))
                block -= q
                if not block:
                    break
            block -= 1
            a1 = alpha >> top
            shifted = (alpha << 1) & mask
            # p := period of probe = shifted|1 if it is a necklace, else 0
            if a1 and neck:
                # the probe is the window turned by one, so a necklace iff
                # it is the class necklace; with a1 = 1 only p's truth is
                # read
                p = shifted | 1 == neck
            elif shifted >> top:
                p = 1 if (shifted | 1) == mask else 0
            else:
                probe = shifted | 1
                z0 = n - probe.bit_length()
                # later starts of as many 0s, by doubling: the starts of
                # z-long runs, and-ed with themselves shifted by d <= z,
                # are those of (z + d)-long runs, so z doubles while it
                # fits in z0 and one last shift adds z0 - z.  No run wraps,
                # since the probe ends with a 1, so from the 0s after the
                # leading run (starts of 1-long runs) shifts alone find them
                starts = probe ^ (mask >> z0)
                z = 1
                while z + z <= z0:
                    starts &= starts << z
                    z += z
                starts &= starts << (z0 - z)
                runs = starts
                p = n
                while starts:
                    b = starts.bit_length()
                    turned = ((probe << (n - b)) & mask) | (probe >> b)
                    if turned <= probe:
                        p = n - b if turned == probe else 0
                        break
                    starts ^= 1 << (b - 1)
            x = a1
            if p:
                x = 1 - a1
                if x:
                    # a1 = 0, so shifted keeps the weight w of alpha
                    w = shifted.bit_count()
                    if w == m or w == m - 1 and (
                            p > h or p == h and not joins(shifted | 1)):
                        x = 0
            alpha = shifted | x
            if alpha == r1 or alpha == r2:
                alpha ^= 1
            if alpha == shifted | a1:
                cmask = ((cmask << 1) & mask) | (cmask >> top)
            elif p and 0 < alpha <= low and alpha not in marked:
                flips[~block] = 1
                # alpha is the probe or the probe with its last 1 cleared
                if alpha & 1:
                    # up into the probe's class
                    stack.append((((cmask << 1) & mask) | (cmask >> top),
                                  neck, z2))
                    neck = alpha
                    if runs or w == m - 1:
                        # the multiples of p: with several longest runs, or
                        # at weight m, where the cap keeps every 0
                        cmask = mask // ((1 << p) - 1) << (p - 1)
                    else:
                        # a single longest run of z; the probe keeps the
                        # other runs of the class left and adds the u - 1
                        # 0s before its last 1
                        z = n - alpha.bit_length()
                        before = (shifted & -shifted).bit_length() - 2
                        if before > z2:
                            z2 = before
                        c = min((z + 1) >> 1, z - z2)
                        cmask = ((2 << c) - 1) << (top - c)
                elif stack:
                    cmask, neck, z2 = stack.pop()
                else:
                    cmask, neck = mask, 0
            else:
                cmask, neck, z2 = mask, 0, 0
                flips[~block] = 1
                stack.clear()
        out = (head << size | int(flips.translate(_BITS), 2)) >> n
        shift = n
        while shift < size:
            out ^= out >> shift
            shift += shift
        yield _bit_symbols(out | 1 << size)


def _rotations(cuts: CutSet, n: int) -> set[int]:
    # every rotation of every marker, packed: markers are 0/1 words
    mask = (1 << n) - 1
    return {((r << j) | (r >> (n - j))) & mask
            for r in map(pack, cuts.markers) for j in range(n)}


def _bit_symbols(bits: int) -> bytes:
    # the bits of an int after its leading 1, which keeps their number, as
    # the symbols 0 and 1
    return bin(bits)[3:].encode().translate(_DIGITS)


def _tail_starts(least: int, n: int) -> int:
    # The positions of a cyclic length-n window (MSB = position 0) where a
    # tail, the n - 1 symbols from there on, can be a prenecklace, given
    # the positions of the window's least symbol.  A prenecklace begins
    # with a longest run of its least symbol.  So a tail can start only at
    # the start of a longest run of that symbol (the dropped symbol is
    # larger), or, when the window has a single longest run of z, in that
    # run's first (z + 1) // 2 + 1 positions (the dropped symbol splits the
    # run, and the part after it must be no shorter than the part before).
    # A constant window marks every position.
    full = (1 << n) - 1
    if least == full:
        return full
    # runs: the starts of z-long runs of the least symbol.  And-ed with
    # the starts of d-long runs turned by z, they give those of z + d.  So
    # z doubles while such runs exist, keeping each power's starts, and
    # then adds z/2, z/4, ..., 1 wherever the runs still reach.
    runs, z = least, 1
    powers = []
    while True:
        longer = runs & (((runs << z) & full) | (runs >> (n - z)))
        if not longer:
            break
        powers.append(runs)
        runs, z = longer, z + z
    d = z
    for part in reversed(powers):
        d >>= 1
        longer = runs & (((part << z) & full) | (part >> (n - z)))
        if longer:
            runs, z = longer, z + d
    if runs & (runs - 1):
        return runs
    # a single longest run of z from position u: its first (z + 1) // 2 + 1
    # positions
    c = (z + 1) // 2
    u = n - runs.bit_length()
    span = ((2 << c) - 1) << (n - 1 - c)  # positions 0..c
    return ((span >> u) | (span << (n - u))) & full


def _tail_scanner(n: int) -> Callable[[int], tuple[int, int]]:
    # tail_scan(least): what a marked step of _list_symbols compares, from
    # the positions of the window's least symbol v (MSB = position 0), for
    # windows of length n, with the masks computed once: the later v that
    # can start a suffix no larger than the tail's prefix of its length,
    # and p, the tail's period if none of them is smaller or equal.  The
    # tail is a prenecklace iff it starts with v and no later v starts a
    # smaller suffix; the first equal one gives the period.  When the tail
    # starts with a run of z0 >= 2 v's, a later v whose run is shorter and
    # ends inside the window starts a larger suffix, so only the starts of
    # z0-long runs, found by doubling as in _binary_symbols, are kept, and
    # the first position from 2 on of the trailing run of v, which ends
    # with the window and can equal the prefix.  The suffix [v] at the
    # last position equals the prefix, so it sets p to n - 2 and is not
    # compared.  A tail that does not start with v gets p = 0, which keeps
    # the symbol, as pcr3_alt does outside the class of v (v + 1)^(n - 1);
    # only the start window and hot classes mark such steps, and in a hot
    # class kary_step decides them.
    top = n - 1
    low = (1 << n) - 1 >> 1
    second = low + 1 >> 1  # position 1
    third = second >> 1  # 0 at n = 2
    rest = low >> 1  # positions 2 on

    def tail_scan(least: int) -> tuple[int, int]:
        if not least & second:
            return 0, 0
        later = least & rest
        if least & third:  # the tail starts v v
            z0 = top - (low & ~least).bit_length()
            starts, z = least, 1
            while z + z <= z0:
                starts &= starts << z
                z += z
            later &= starts & (starts << (z0 - z))
            if least & 1:
                tr = (least ^ (least + 1)).bit_length() - 1
                later |= (1 << min(tr, top - 1) >> 1) & rest
        return later & ~1, top - (later & 1)

    return tail_scan


def _list_symbols(params: CutParams, cuts: CutSet, start: Word,
                  joins: successor.Join) -> Iterator[list[int]]:
    # successor.kary_step for any k on a list holding the current block:
    # seq holds i + n symbols, so the window at step i is seq[i:], read in
    # place.  cmask (MSB = position 0) marks where _tail_starts says a tail
    # can be a prenecklace of the window's least symbol v, and, as in
    # _binary_symbols, the plain rotations between marks are copied as
    # slices.  least, the positions of v, rotates with cmask; a step that
    # changes a symbol updates it, rescanning only when the last v leaves.
    # A step that drops a lone v changes it only in the class of
    # v (v + 1)^(n - 1), which is hot, so a lone v marks only its own
    # position, and every other marked tail starts with v.
    # A marked step runs pcr3_alt: the scan from _tail_scanner, memoised by
    # least where masks repeat, gives the later v to compare and p's start
    # value.  A suffix from a later v and the tail's prefix both start with
    # v, so their second symbols settle most compares, and the slices are
    # built only on a tie.
    # The symbol stands when it is the dropped one, or keeps the weight
    # below m and lands on no marker (only a candidate of a marker's
    # weight is compared).  A window of weight m keeps a1 in place of a
    # heavier symbol, as kary_step's weight cap does; its candidate is
    # then a rotation of the window, so no marker.  Other steps, and all
    # while the window is a rotation of a marker or of v (v + 1)^(n - 1)
    # (hot), go to successor.kary_step.  Only kary_step is looked up on the
    # module, at every call, so a wrapper installed there sees each call.
    n, k, L, m = params.n, params.k, params.L, params.m
    full = (1 << n) - 1
    top = n - 1
    low = full >> 1
    markers = [list(w) for w in cuts.markers]
    marked = _rotations(cuts, n)
    marker_weights = {sum(w) for w in cuts.markers}
    # the marks and the scan plan, each by least, up to 4,096 masks each.
    # At n = 10, k = 4 a whole run meets 293 masks at a marked step.  Plans
    # are stored to n = 64 only: at k = 3..5 storing them gains 2-20% to
    # n = 64 and nothing at n = 96, and at n = 128 and 512 filling the
    # dict with plan tuples costs more than the rare hits save
    keep_plans = n <= 64
    memo: dict[int, int] = {}
    plans: dict[int, tuple[int, int]] = {}
    tail_scan = _tail_scanner(n)

    def scan(window: list[int]) -> tuple[int, int]:
        v = min(window)
        return v, pack([c == v for c in window])

    seq = list(start)
    w = sum(start)
    v, least = scan(seq)
    # a rotation of a marker has v = 0 and every other symbol 1, so its 1s
    # are the positions least leaves out
    hot = (not least & (least - 1) and w == n * v + top
           or w in marker_weights and w + least.bit_count() == n
           and full ^ least in marked)
    cmask = full  # as in the binary loop, the start marks every position
    i = 0
    for block in _block_sizes(L):
        while block:
            c = cmask & low
            q = top - c.bit_length() if c else top
            if q > block:
                q = block
            if q:
                seq += seq[i:i + q]
                i += q
                cmask = ((cmask << q) & full) | (cmask >> (n - q))
                least = ((least << q) & full) | (least >> (n - q))
                block -= q
                if not block:
                    break
            block -= 1
            a1 = x = seq[i]
            plan = plans.get(least)
            if plan is None:
                plan = tail_scan(least)
                if keep_plans and len(plans) < 4096:
                    plans[least] = plan
            later, p = plan  # p: the tail's period, or 0 if no prenecklace
            while later:
                b = later.bit_length()  # v at position n - b
                later ^= 1 << (b - 1)
                # both start with v, so the next symbols mostly decide
                suffix, prefix = seq[1 - b], seq[i + 2]
                if suffix == prefix:
                    suffix, prefix = seq[-b:], seq[i + 1:i + b + 1]
                    if suffix == prefix:
                        p = top - b
                        break
                if suffix < prefix:
                    p = 0
                    break
            if p:
                b = seq[-p]
                c = b if b and n % p == 0 else b + 1
                x = k - 1 if a1 == c - 1 else a1 - 1 if a1 >= c else a1
            if x > a1 and w == m and not hot:
                x = a1  # the weight cap keeps a weight-m window's class
            if hot or x != a1 and (
                    w - a1 + x >= m or w - a1 + x in marker_weights
                    and seq[i + 1:] + [x] in markers):
                x = successor.kary_step(tuple(seq[i:]), params, cuts, joins)
            seq.append(x)
            i += 1
            least = ((least << 1) & full) | (least >> top)
            if x == a1:
                cmask = ((cmask << 1) & full) | (cmask >> top)
                continue
            w += x - a1
            if x < v:
                v, least = x, 1
            elif x == v:
                least |= 1
            else:
                least &= ~1
                if not least:
                    v, least = scan(seq[i:])
            # a lone v in a window of weight n v + n - 1 is v (v + 1)^(n - 1):
            # the cheaper test, so it comes first
            hot = (not least & (least - 1) and w == n * v + top
                   or w in marker_weights and w + least.bit_count() == n
                   and full ^ least in marked)
            cmask = full if hot else memo.get(least)
            if cmask is None:
                cmask = (_tail_starts(least, n) if least & (least - 1)
                         else least)
                if len(memo) < 4096:
                    memo[least] = cmask
        yield seq[:i]
        del seq[:i]
        i = 0


class _Blocks:
    """Symbols that arrive in blocks, each a sequence of ints, for
    ``verify`` to read as they come.  A re-iterable ``blocks`` is read
    again for each pass; an iterator is read once, and ``verify`` spools
    what it reads."""

    def __init__(self, blocks: Iterable[Sequence[int]]) -> None:
        self.blocks = blocks


class _Spool:
    """The blocks of an iterator, pickled to ``file`` as they are read, so
    that every iteration after the first replays them and then reads on.
    A block of 0s and 1s is written as an int, 8 symbols a byte: its bits
    after a leading 1, which keeps the length.  Any other block whose
    symbols all fit in a byte is written as bytes, any other as it is.
    A block whose symbols fit in a byte is also yielded as those bytes, so
    the marking pass reads it without converting it again."""

    def __init__(self, blocks: Iterator[Sequence[int]], file) -> None:
        self._blocks = blocks
        self._file = file

    def __iter__(self) -> Iterator[Sequence[int]]:
        import pickle

        file = self._file
        end = file.seek(0, 2)
        file.seek(0)
        while file.tell() < end:
            data = pickle.load(file)
            if isinstance(data, int):
                data = _bit_symbols(data)
            yield data
        for block in self._blocks:
            # bytes() takes any symbol with __index__, and the later passes
            # would read it back as an int: so the symbols must be ints
            if not int_symbols(block):
                raise _not_ints()
            try:
                block = bytes(block)
            except ValueError:  # a symbol outside [0, 256)
                data: Sequence[int] | int = block
            else:
                data = block
                if block and not block.translate(None, b"\x00\x01"):
                    data = int(b"1" + block.translate(_BITS), 2)
            pickle.dump(data, file)
            yield block


def verify(seq: Iterable[int], n: int, k: int,
           expected_len: int | None = None) -> VerifyReport:
    """Check that ``seq`` is a valid cut-down sequence body for (n, k).

    All len(seq) cyclic length-n windows (including wraparound) must be
    pairwise distinct and every symbol must lie in [0, k).  One pass marks
    the windows, in a table of k^n bytes or, when the input has fewer
    than k^n / 64 symbols, in a dict, and records the first symbol out of
    range, which then decides the report.  Otherwise a repeated window
    takes two more passes, to find it and where it first occurred.  A
    sequence (a list, tuple, range, bytes, array.array and the like) is
    read in place as one block; any other iterable is read in blocks of
    1024 symbols and pickled to a temporary file for those passes, 8
    symbols a byte where they are all 0 or 1.  At k <= 256 the marking
    pass reads the symbols as bytes, 4096 at a time, and at k = 2, 4 and
    16 with n log2(k) <= 64 it takes the windows of 4096 symbols from a
    few big-int operations, with no per-symbol arithmetic.
    Failures are reported, not raised; n or k not an int, n < 1, k < 2,
    expected_len neither None nor an int, an empty input or a symbol that
    is not an int raises ValueError.
    """
    check_ints(n=n, k=k)
    if expected_len is not None:
        check_ints(expected_len=expected_len)
    if isinstance(seq, _Blocks):
        blocks = seq.blocks
    elif isinstance(seq, Sequence):
        blocks = (seq,)
    else:
        symbols = iter(seq)
        blocks = iter(lambda: list(islice(symbols, _PIECE)), [])
    if iter(blocks) is not blocks:
        return _verify_blocks(blocks, n, k, expected_len)
    import tempfile  # only a stream needs it, so start-up does not wait

    with tempfile.TemporaryFile() as file:
        return _verify_blocks(_Spool(blocks, file), n, k, expected_len)


def _verify_blocks(blocks: Iterable[Sequence[int]], n: int, k: int,
                   expected_len: int | None) -> VerifyReport:
    # verify on a re-iterable of blocks: each iteration is one pass
    size = k ** n
    # A dict entry takes 64 bytes or more, so count up to k^n / 64 symbols:
    # an input that ends before then marks its windows in a dict, any
    # other in the table of k^n bytes, which is never the larger one.
    length = 0
    for block in blocks:
        length += len(block)
        if length * 64 >= size:
            break
    if not length:
        raise ValueError("empty sequence")
    seen: dict[int, int] | bytearray = (
        bytearray(size) if length * 64 >= size else {})
    # One pass marks every window and records the first symbol outside
    # [0, k) in bad; after that it only checks that the symbols are ints.
    # It reads _cyclic's stream, so the windows that wrap around are marked
    # like any other, by the lanes' last call or the roll, and length then
    # leaves out the n - 1 symbols that _cyclic added.
    # At k <= 256 it reads each block as bytes: one translate finds a
    # symbol out of range, and bytes() raises ValueError at one outside a
    # byte.  A block is read _LANE symbols at a time, so no piece copies a
    # whole input: bytes, a bytearray, a list or a tuple by slices, any
    # other element by element, as bytes() of an array or a memoryview
    # would copy its raw memory.
    head: list[int] = []  # the roll's first n - 1 symbols, to prime value
    value = length = bad = 0
    mark = _lane_marker(n, k, seen)
    allowed = _BYTES[:k]
    buf = bytearray()  # from the first window the lanes have not marked
    for block in _cyclic(blocks, n):
        raw = isinstance(block, (bytes, bytearray))
        if not (raw or int_symbols(block)):
            raise _not_ints()
        if not bad:
            if k > 256:
                pieces = (block,)
            elif raw or isinstance(block, (list, tuple)):
                pieces = (bytes(block[i:i + _LANE])
                          for i in range(0, len(block), _LANE))
            else:
                it = iter(block)
                pieces = iter(lambda: bytes(islice(it, _LANE)), b"")
            try:
                for piece in pieces:
                    if (piece.translate(None, allowed) if k <= 256 else
                            piece and (min(piece) < 0 or max(piece) >= k)):
                        raise ValueError
                    if mark:
                        buf += piece
                        start = 0
                        while len(buf) - start >= _LANE + n - 1:
                            mark(buf[start:start + _LANE + n - 1])
                            start += _LANE
                        del buf[:start]
                    else:
                        symbols = iter(piece)
                        if len(head) < n - 1:
                            head += islice(symbols, n - 1 - len(head))
                            value = pack(head, k)
                        for c in symbols:
                            value = (value * k + c) % size
                            seen[value] = 1
            except ValueError:  # a symbol outside [0, k)
                bad = length + next(i for i, c in enumerate(block, 1)
                                    if not 0 <= c < k)
        length += len(block)
    if mark and len(buf) >= n and not bad:
        mark(buf)
    length -= n - 1  # the wrapped symbols that _cyclic added
    if bad:
        return VerifyReport(ok=False, length=length, out_of_range_symbol=bad)
    distinct = len(seen) if isinstance(seen, dict) else seen.count(1)
    # fewer distinct windows than symbols: some window repeats
    duplicate = (_first_duplicate(blocks, n, k, seen) if distinct < length
                 else None)
    ok = duplicate is None and (expected_len is None or length == expected_len)
    return VerifyReport(ok=ok, length=length, first_duplicate=duplicate)


def _lane_marker(n: int, k: int, seen: dict[int, int] | bytearray
                 ) -> Callable[[bytes], None] | None:
    # mark(data) at k = 2, 4 or 16 (b = log2(k) bits a symbol) while a
    # window's n b bits fit in 64, else None: it marks in seen the windows
    # of data, at most _LANE of them.
    # data is read as one base-k int x.  A lane is width bits, the least of
    # 8, 16, 32 and 64 that holds a window, so per = width / b symbols; x
    # shifted by r symbols and masked to the low n b bits of each lane holds
    # the windows that end r, r + per, r + 2 per, ... symbols before the end
    # of data, one a lane.  Its bytes, cast to lanes, give their values with
    # no per-symbol arithmetic.
    b = k.bit_length() - 1
    if k not in (2, 4, 16) or n * b > 64:
        return None
    width = max(8, 1 << (n * b - 1).bit_length())
    code = {8: "B", 16: "H", 32: "I", 64: "Q"}[width]
    per = width // b
    window = (1 << n * b) - 1
    nbytes = _LANE // per * width // 8  # a piece's lanes
    lanes = int.from_bytes(window.to_bytes(width // 8, "little")
                           * (_LANE // per), "little")

    def mark(data: bytes) -> None:
        x = int(data.translate(_HEX), k)
        windows = len(data) - n + 1
        for r in range(min(per, windows)):
            y = (x >> r * b) & lanes
            for v in memoryview(y.to_bytes(nbytes, byteorder)).cast(code)[
                    :(windows - r + per - 1) // per]:
                seen[v] = 1

    return mark


def _not_ints() -> ValueError:
    return ValueError("symbols must be ints")


def _cyclic(blocks: Iterable[Sequence[int]],
            n: int) -> Iterator[Sequence[int]]:
    # the blocks, then one block of their first n - 1 symbols, cycled where
    # the input is shorter: the linear windows of this stream are the
    # cyclic windows of the input, at positions 1, 2, ..., L
    head: list[int] = []
    for block in blocks:
        if len(head) < n - 1:
            head += islice(block, n - 1 - len(head))
        yield block
    yield list(islice(cycle(head), n - 1))


def _window_values(blocks: Iterable[Sequence[int]], n: int,
                   k: int) -> Iterator[int]:
    # base-k values of the cyclic windows at positions 1, 2, ..., L
    size = k ** n
    symbols = chain.from_iterable(_cyclic(blocks, n))
    value = pack(list(islice(symbols, n - 1)), k)
    for c in symbols:
        value = (value * k + c) % size
        yield value


def _first_duplicate(blocks: Iterable[Sequence[int]], n: int, k: int,
                     seen: dict[int, int] | bytearray
                     ) -> tuple[Word, tuple[int, int]]:
    # the first window seen before and the 1-based positions of its first
    # two occurrences, in two passes.  The marking pass set every window
    # to 1; marking 2s passes over those, so no memory is added, in the
    # table and the dict alike.
    for second, value in enumerate(_window_values(blocks, n, k), 1):
        if seen[value] == 2:
            values = _window_values(blocks, n, k)
            first = next(pos for pos, v in enumerate(values, 1) if v == value)
            window = tuple(value // k ** (n - 1 - j) % k for j in range(n))
            return window, (first, second)
        seen[value] = 2
    raise RuntimeError("the marking pass saw a repeated window; none found")
