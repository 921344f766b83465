"""Shared reference sequences and small helpers for the test suite.

The long strings are known-good sequences for specific (n, k): two full
de Bruijn sequences (every window exactly once), the 51-window universal
cycle joined from all windows of weight < 4 plus the period-<6 and one
period-6 cycle of weight 4 (n=6), and cut-down sequences of lengths 46
and 52.  Tests treat them as frozen expected values.

``verify_reference`` is the direct verifier the table-based
``engine.verify`` is checked against: one dict from window value to its
first position, O(L) memory.  ``weight_period_at_most_reference`` and
``derive_params_reference`` sum the period counts over every period, not
only over the divisors of n.  ``weight_at_most_reference`` is the
inclusion-exclusion sum at every weight, with no complement.
``probe_class_mask_reference`` is the class change that
``engine._binary_symbols`` computes inline after a necklace probe, and
``tail_period_reference`` the plain period search that the k-ary loop of
``engine`` filters.
"""

from bisect import bisect_left
from math import comb

from cutdown.counting import count_weight_at_most, count_weight_period
from cutdown.cutplan import CutParams
from cutdown.engine import VerifyReport

# full de Bruijn sequence, n=6, k=2, traced from 000000
DB_N6_K2 = "0000001111110111100111000110110100110000101110101100101010001001"

# full de Bruijn sequence, n=3, k=4, traced from 000
DB_N3_K4 = "0003303203103002302202102001301201133132131123122333232221211101"

# universal cycle of length 51 for the main-cycle window set of (n=6, L=46)
MC_N6_L46 = "000000111100111000110110100110000101100101010001001"

# cut-down sequence of length 46, n=6, k=2, from start window 000001
CUT_N6_L46 = "0000011110011100011011010011000010110010100010"

# a valid cut-down sequence of length 52 for n=6, k=2 (verifier input only)
CUT_N6_L52 = "0000001111001110001101101001100001011101011001010001"


def to_word(text):
    return tuple(int(c) for c in text)


def to_symbols(text):
    return [int(c) for c in text]


def rotations(seq):
    return [seq[i:] + seq[:i] for i in range(len(seq))]


def iterate(word, fn, steps):
    """Step ``word`` through ``fn`` (window -> next symbol) ``steps`` times;
    return the emitted first symbols and the final window."""
    out = []
    for _ in range(steps):
        out.append(word[0])
        word = word[1:] + (fn(word),)
    return out, word


def verify_reference(seq, n, k, expected_len=None):
    """``engine.verify`` by a {window value: first position} dict."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    symbols = list(seq)
    length = len(symbols)
    if length < 1:
        raise ValueError("empty sequence")
    for idx, c in enumerate(symbols):
        if not 0 <= c < k:
            return VerifyReport(ok=False, length=length,
                                out_of_range_symbol=idx + 1)

    modulus = k ** n
    value = 0
    for j in range(n):  # first window; wraps (repeatedly) when length < n
        value = value * k + symbols[j % length]

    seen = {value: 1}
    duplicate = None
    for pos in range(2, length + 1):
        incoming = symbols[(pos + n - 2) % length]
        value = (value * k + incoming) % modulus
        first = seen.get(value)
        if first is not None:
            window = tuple(symbols[(pos - 1 + j) % length] for j in range(n))
            duplicate = (window, (first, pos))
            break
        seen[value] = pos

    ok = duplicate is None and (expected_len is None or length == expected_len)
    return VerifyReport(ok=ok, length=length, first_duplicate=duplicate)


def strings_reference(n, w, k):
    """``counting.count_strings`` as one sum at every weight."""
    if w < 0 or w > (k - 1) * n:
        return 0
    return sum((-1) ** j * comb(n, j) * comb(w - j * k + n - 1, n - 1)
               for j in range(min(n, w // k) + 1))


def weight_at_most_reference(w, n, k):
    """``counting.count_weight_at_most`` as one sum at every weight."""
    if w < 0:
        return 0
    return sum((-1) ** j * comb(n, j) * comb(w - j * k + n, n)
               for j in range(min(n, w // k) + 1))


def weight_period_at_most_reference(w, p, n, k):
    """``counting.count_weight_period_at_most`` summed over q = 1..p."""
    return sum(count_weight_period(w, q, n, k)
               for q in range(1, min(p, n) + 1))


def derive_params_reference(n, k, L):
    """``cutplan.derive_params`` with h found by trying h = 1, 2, ... in
    turn, each against the weight-m words of period <= h counted anew."""
    m = bisect_left(range((k - 1) * n + 1), L,
                    key=lambda w: count_weight_at_most(w, n, k))
    below = count_weight_at_most(m - 1, n, k)
    h = 1
    while below + weight_period_at_most_reference(m, h, n, k) < L:
        h += 1
    base = below + weight_period_at_most_reference(m, h - 1, n, k)
    t = -((base - L) // h)
    return CutParams(n=n, k=k, L=L, m=m, h=h, t=t, s=base + t * h - L)


def probe_class_mask_reference(alpha, runs, p, n, z2=0, top_weight=False):
    """The marks, the necklace and z2 of the class of a binary window alpha
    (MSB = position 0) that ``engine._binary_symbols`` reaches from a
    necklace probe of period p, whose leading z0 >= 1 0s recur at runs,
    the starts of its other z0-long runs: alpha is the probe, or the probe
    with its last 1 cleared.  z2 is a lower bound on the longest run of 0s
    after the leading run of the class left, and top_weight says the probe
    has the weight m of the cap.

    A necklace begins with its longest run of 0s, so the probe's longest
    runs start at position 0 and at runs.  With several, every tail that
    can be a prenecklace starts at one of them and drops the 1 before it,
    so it is a rotation of the probe, and a necklace only where that
    rotation is the probe: at the multiples of p.  With a single longest
    run of z from position 0, a mark u > 0 drops a 0 of that run, and its
    probe leads with z - u 0s, ends with u - 1 0s and a 1, and keeps the
    class's other runs.  So the marks are positions 0 to the least of
    (z + 1) // 2 and z - z2, where the probe's own z2 is the larger of the
    z2 of the class left (whose other runs it keeps) and the run of 0s
    before its last 1.  At weight m the cap keeps every symbol a probe
    would raise, so only the positions that drop a 1, the multiples of p,
    are marked.  Clearing the last 1 joins it and the tz 0s before it to
    the leading run: a single longest run of z0 + tz 0s, from position
    n - tz, where the necklace starts, whose other runs are not known, so
    z2 is 0 and its marks are that run's first (z + 1) // 2 + 1
    positions.  runs, p, z2 and top_weight are read for the probe only.
    ``engine._binary_symbols`` takes these marks on a step up; a step down
    restores its class from the stack, or marks every position where the
    stack is empty."""
    full = (1 << n) - 1

    def split_run(c, u):
        span = ((2 << c) - 1) << (n - 1 - c)  # positions 0..c
        return ((span >> u) | (span << (n - u))) & full

    z0 = n - alpha.bit_length()
    if alpha & 1:
        if runs or top_weight:
            return full // ((1 << p) - 1) << (p - 1), alpha, z2
        bits = [alpha >> (n - 1 - j) & 1 for j in range(n)]
        inner = bits[z0 + 1:-1]  # between the first and the last 1
        before = 0
        while before < len(inner) and not inner[-1 - before]:
            before += 1
        z2 = max(z2, before)
        return split_run(min((z0 + 1) // 2, z0 - z2), 0), alpha, z2
    tz = (alpha & -alpha).bit_length() - 1
    neck = ((alpha << (n - tz)) & full) | (alpha >> tz)
    return split_run((z0 + tz + 1) // 2, n - tz), neck, 0


def tail_period_reference(window):
    """The period of the longest Lyndon prefix of the tail window[1:],
    which starts with its least symbol v, or 0 if the tail is no
    prenecklace: the suffix from every later v in turn against the tail's
    prefix of its length, where the first smaller one gives 0 and the
    first equal one the period; with neither, the tail is Lyndon."""
    tail = list(window[1:])
    for j in range(1, len(tail)):
        if tail[j] == tail[0]:
            suffix, prefix = tail[j:], tail[:len(tail) - j]
            if suffix < prefix:
                return 0
            if suffix == prefix:
                return j
    return len(tail)
