"""Feedback functions and stepping rules."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutdown.cutplan import cut_set, derive_params
from cutdown.engine import SequenceSpec, generate, verify
from cutdown.ranking import rank_lyndon
from cutdown.successor import (
    counter_join,
    cut_down_successor,
    kary_step,
    mc_step,
    on_target_cycle,
    pcr3,
    pcr3_alt,
    threshold_join,
)
from cutdown.words import is_necklace, least_rotation, period, weight

from refdata import (
    CUT_N6_L46,
    DB_N3_K4,
    DB_N6_K2,
    MC_N6_L46,
    iterate,
    rotations,
    to_word,
)


# --- pcr3 ---------------------------------------------------------------

@pytest.mark.parametrize("text, expected", [
    ("000000", 1),
    ("111111", 0),
    ("000001", 1),
])
def test_pcr3_examples(text, expected):
    assert pcr3(to_word(text)) == expected


def test_pcr3_matches_definition_exhaustively():
    for n in (1, 2, 5, 8):
        for word in product((0, 1), repeat=n):
            probe = word[1:] + (1,)
            expect = 1 - word[0] if is_necklace(probe) else word[0]
            assert pcr3(word) == expect


def test_pcr3_traces_full_de_bruijn_sequence():
    out, final = iterate((0,) * 6, pcr3, 64)
    assert "".join(map(str, out)) == DB_N6_K2
    assert final == (0,) * 6


@pytest.mark.parametrize("n", range(1, 12))
def test_pcr3_de_bruijn_property(n):
    out, final = iterate((0,) * n, pcr3, 2 ** n)
    assert final == (0,) * n
    assert verify(out, n, 2, expected_len=2 ** n).ok


# --- pcr3_alt -----------------------------------------------------------

@pytest.mark.parametrize("text, expected", [
    ("000", 3),
    ("303", 2),
    ("033", 0),
    ("203", 1),
    ("112", 3),
])
def test_pcr3_alt_examples_k4(text, expected):
    assert pcr3_alt(to_word(text), 4) == expected


def test_pcr3_alt_reproduces_all_reference_transitions():
    doubled = DB_N3_K4 + DB_N3_K4
    for i in range(64):
        window = to_word(doubled[i:i + 3])
        assert pcr3_alt(window, 4) == int(doubled[i + 3])


def test_pcr3_alt_reduces_to_pcr3_for_k2():
    for n in (2, 4, 7):
        for word in product((0, 1), repeat=n):
            assert pcr3_alt(word, 2) == pcr3(word)


def pcr3_alt_by_probes(word, k):
    # the definition: c is the smallest symbol in 1..k-1 such that dropping
    # the first symbol and appending c gives a necklace, else 0
    a1, tail = word[0], word[1:]
    c = next((c for c in range(1, k) if is_necklace(tail + (c,))), 0)
    if c and a1 == c - 1:
        return k - 1
    return a1 - 1 if c and a1 >= c else a1


@pytest.mark.parametrize("k, nmax", [(2, 10), (3, 7), (4, 6), (5, 5),
                                     (6, 5)])
def test_pcr3_alt_matches_definition_exhaustively(k, nmax):
    for n in range(1, nmax + 1):
        for word in product(range(k), repeat=n):
            assert pcr3_alt(word, k) == pcr3_alt_by_probes(word, k), word
            if k == 2:
                assert pcr3(word) == pcr3_alt_by_probes(word, 2), word


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pcr3_alt_matches_definition_at_large_n(data):
    # a random tail is almost never a prenecklace, so most tails are drawn
    # as prefixes of a power of a necklace, which always are
    k = data.draw(st.integers(2, 9), label="k")
    n = data.draw(st.integers(1, 40), label="n")
    symbols = st.integers(0, k - 1)
    block = data.draw(st.lists(symbols, min_size=1, max_size=n), label="block")
    tail = least_rotation(block) * n
    if data.draw(st.booleans(), label="perturb"):
        i = data.draw(st.integers(0, n - 1), label="at")
        tail = tail[:i] + (data.draw(symbols, label="symbol"),) + tail[i + 1:]
    word = (data.draw(symbols, label="a1"),) + tail[:n - 1]
    assert pcr3_alt(word, k) == pcr3_alt_by_probes(word, k)


@pytest.mark.parametrize("k, nmax", [(2, 12), (3, 8), (4, 6), (5, 5),
                                     (6, 4)])
def test_pcr3_alt_when_the_first_symbol_is_the_unique_least(k, nmax):
    # the closed form engine's k-ary loop uses: with every tail symbol above
    # v = word[0], pcr3_alt changes the symbol only at v (v + 1)^(n - 1),
    # and to k - 1
    for n in range(2, nmax + 1):
        for v in range(k - 1):
            for tail in product(range(v + 1, k), repeat=n - 1):
                x = pcr3_alt((v,) + tail, k)
                assert (x != v) == (tail == (v + 1,) * (n - 1)), (v, tail)
                assert x in (v, k - 1), (v, tail)


@pytest.mark.parametrize("n, k", [(2, 3), (3, 3), (4, 3), (5, 3),
                                  (2, 4), (3, 4), (4, 4),
                                  (2, 5), (3, 5), (2, 6), (3, 6),
                                  (2, 7), (1, 8), (12, 2)])
def test_pcr3_alt_de_bruijn_property(n, k):
    out, final = iterate((0,) * n, lambda w: pcr3_alt(w, k), k ** n)
    assert final == (0,) * n
    assert verify(out, n, k, expected_len=k ** n).ok


# --- mc_step ------------------------------------------------------------

def test_mc_step_reproduces_reference_main_cycle():
    t_cycle = set(rotations(to_word("001111")))

    def member(word):
        w = weight(word)
        if w != 4:
            return w < 4
        return period(word) < 6 or word in t_cycle

    alpha = (0,) * 6
    out = []
    for _ in range(51):
        out.append(alpha[0])
        alpha = alpha[1:] + (mc_step(alpha, member),)
    assert "".join(map(str, out)) == MC_N6_L46
    assert alpha == (0,) * 6


def test_mc_step_on_full_set_equals_pcr3():
    for word in product((0, 1), repeat=6):
        assert mc_step(word, lambda w: True) == pcr3(word)


def test_mc_step_low_weight_universe():
    member = lambda w: weight(w) <= 1
    alpha = (0,) * 6
    seen = [alpha]
    for _ in range(7):
        alpha = alpha[1:] + (mc_step(alpha, member),)
        seen.append(alpha)
    assert seen[-1] == seen[0]
    assert len(set(seen[:-1])) == 7 == len(seen) - 1
    assert all(weight(w) <= 1 for w in seen)


def test_mc_step_raises_outside_any_set():
    with pytest.raises(ValueError):
        mc_step((1, 1, 1), lambda w: False)


def test_empty_word_has_no_successor():
    # these used to raise IndexError
    for call in (lambda: pcr3_alt((), 2), lambda: pcr3(()),
                 lambda: mc_step((), lambda w: True, 3)):
        with pytest.raises(ValueError, match="empty word"):
            call()


def test_bad_alphabet_or_symbol_raises():
    # these used to return a symbol: 4, 0, -1, and on_target_cycle True
    params = derive_params(4, 2, 12)
    cuts = cut_set(params.s, 4)
    for call in (lambda: pcr3_alt((5,), 2), lambda: pcr3((0, 1, 1.5)),
                 lambda: mc_step((0, 1), lambda w: True, k=0),
                 lambda: pcr3_alt((0, -1, 1), 3), lambda: pcr3_alt((0, 3), 3),
                 lambda: pcr3_alt((0, 1), 2.0), lambda: pcr3_alt((0, 1), 1),
                 lambda: pcr3_alt((0, "1"), 2), lambda: pcr3((None, 1)),
                 lambda: on_target_cycle((0, 0, -1, 0), params, cuts),
                 lambda: on_target_cycle((0, 0, 2, 0), params, cuts),
                 lambda: on_target_cycle((0, 0, 0.0, 1), params, cuts),
                 lambda: on_target_cycle((0, "0", 0, 1), params, cuts)):
        with pytest.raises(ValueError, match=r"int symbols in \[0, k\)"):
            call()
    assert pcr3((False, True, True)) == pcr3((0, 1, 1))
    assert on_target_cycle((False, False, False, True), params, cuts)


def test_window_of_wrong_length_raises():
    # cut_down_successor used to return 1 here, and on_target_cycle True
    params = derive_params(4, 2, 12)
    cuts = cut_set(params.s, 4)
    for word in ((0, 0, 1), (0, 0, 0, 1, 0)):
        with pytest.raises(ValueError, match="length n = 4"):
            cut_down_successor(word, params, cuts)
        with pytest.raises(ValueError, match="length n = 4"):
            kary_step(word, params, cuts, counter_join(params))
        with pytest.raises(ValueError, match="length n = 4"):
            on_target_cycle(word, params, cuts)


def test_cut_down_successor_checks_the_window_before_the_join():
    # the join under a non-int k would raise count_strings' message
    params = derive_params(4, 2, 12)._replace(k=2.5)
    cuts = cut_set(params.s, 4)
    with pytest.raises(ValueError, match=r"not a non-empty word over"):
        cut_down_successor((0, 0, 0, 1), params, cuts)


class OverflowsOnAdd:
    """A symbol that, like a NumPy int beside an int beyond 64 bits,
    raises OverflowError when an int is added to it."""

    def __radd__(self, other):
        raise OverflowError("Python int too large to convert")


def _window_entry_points(k):
    # every rule entry point that takes a window, at alphabet k, with
    # n = 4 where it reads one: name -> (call, checks the length)
    params = derive_params(4, 2, 12)._replace(k=k)
    cuts = cut_set(params.s, 4)
    return {
        "pcr3": (pcr3, False),
        "pcr3_alt": (lambda w: pcr3_alt(w, k), False),
        "mc_step": (lambda w: mc_step(w, lambda v: True, k), False),
        "kary_step": (lambda w: kary_step(w, params, cuts,
                                          counter_join(params)), True),
        "cut_down_successor": (
            lambda w: cut_down_successor(w, params, cuts), True),
        "on_target_cycle": (lambda w: on_target_cycle(w, params, cuts), True),
        "rank_lyndon": (lambda w: rank_lyndon(w, k), False),
        "SequenceSpec": (
            lambda w: SequenceSpec(4, k, 12, "successor", w).start, True),
    }


def _outcome(call, word):
    try:
        return call(word)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("name", list(_window_entry_points(2)))
def test_window_entry_points_take_any_sequence_of_ints(name):
    # kary_step, cut_down_successor and mc_step used to raise TypeError for
    # a list or bytes window: they appended a tuple to it
    call, _ = _window_entry_points(2)[name]
    for word in product(range(2), repeat=4):
        expected = _outcome(call, word)
        assert _outcome(call, list(word)) == expected, word
        assert _outcome(call, bytes(word)) == expected, word
    assert _outcome(call, (0, 0, 0, 1)) is not ValueError


@pytest.mark.parametrize("name", list(_window_entry_points(2)))
def test_window_entry_points_refuse_bad_windows_alike(name):
    # one check, one message, whichever entry point is called
    call, has_n = _window_entry_points(2)[name]
    bad = [(), (0, 0, 1.0, 1), (0, "0", 0, 1), "0001", (0, -1, 0, 1),
           (0, 2, 0, 1), (0, 0, OverflowsOnAdd(), 1)]
    if has_n:
        bad += [(0, 0, 1), (0, 0, 0, 1, 0)]
    for word in bad:
        with pytest.raises(ValueError, match=r"not a non-empty word over"):
            call(word)
    if name != "pcr3":  # pcr3 has no alphabet argument
        with pytest.raises(ValueError):
            _window_entry_points(2.5)[name][0]((0, 0, 0, 1))


@pytest.mark.parametrize("name", list(_window_entry_points(2)))
def test_window_entry_points_refuse_numpy_ints(name):
    np = pytest.importorskip("numpy")
    call, _ = _window_entry_points(2)[name]
    for word in ((0, 0, 0, np.int64(1)), np.array([0, 0, 0, 1]),
                 (0, 0, np.int64(1), 2 ** 70)):
        with pytest.raises(ValueError, match=r"not a non-empty word over"):
            call(word)


def test_mc_step_kary_picks_largest_member():
    # keep windows of weight <= 4: from 003 the natural branch to 033 is
    # blocked and the largest in-set symbol follows instead
    member = lambda w: weight(w) <= 4
    assert pcr3_alt((0, 0, 3), 4) == 3
    assert mc_step((0, 0, 3), member, 4) == 1


# --- binary counter rule -------------------------------------------------

def run_binary(n, L):
    params = derive_params(n, 2, L)
    cuts = cut_set(params.s, n)
    joins = counter_join(params)
    return iterate((0,) * (n - 1) + (1,),
                   lambda w: kary_step(w, params, cuts, joins), L)[0]


def test_binary_stepper_reference_run():
    assert "".join(map(str, run_binary(6, 46))) == CUT_N6_L46


def test_binary_stepper_full_length_gives_de_bruijn_rotation():
    out = "".join(map(str, run_binary(6, 64)))
    assert out in DB_N6_K2 + DB_N6_K2


def test_binary_stepper_skips_all_zero_window():
    # any L for n=6 with s == 1 puts the all-zero word in the cut set
    params = derive_params(6, 2, 50)
    assert params.s == 1
    cuts = cut_set(params.s, 6)
    assert cuts.markers == ((0,) * 6,)
    seq = run_binary(6, 50)
    assert verify(seq, 6, 2, expected_len=50).ok
    assert "000000" not in "".join(map(str, seq + seq))  # 0^6 never a window
    # single step at 100000: natural candidate is 0^6, flipped to 000001
    assert kary_step(to_word("100000"), params, cuts,
                     counter_join(params)) == 1


def test_counter_join_counts_to_t():
    params = derive_params(6, 2, 46)  # t == 1, n != 2m - 1
    joins = counter_join(params)
    assert [joins(0b001111), joins(0b010111)] == [True, False]


def test_counter_join_reserves_a_slot_for_the_special_cycle():
    # n == 2m - 1: the last slot waits for (01)^(m-1) 1
    params = derive_params(7, 2, 68)
    assert (params.m, params.h, params.t) == (4, 7, 1)
    joins = counter_join(params)
    assert joins(0b0001111) is False
    assert joins(0b0101011) is True
    assert joins(0b0010111) is False


def test_threshold_join_keeps_the_t_largest_lyndon_words():
    # n=6, L=46: t == 1 of the weight-4 Lyndon words 001111 < 010111
    joins = threshold_join(derive_params(6, 2, 46))
    assert [joins(0b010111), joins(0b101110), joins(0b001111)] == [
        True, True, False]


@pytest.mark.parametrize("n", range(2, 10))
def test_binary_stepper_sweep(n):
    for L in range(2 ** (n - 1) + 1, 2 ** n + 1):
        seq = run_binary(n, L)
        report = verify(seq, n, 2, expected_len=L)
        assert report.ok, (n, L, report)


@pytest.mark.parametrize("n", range(2, 10))
def test_binary_window_weights_capped(n):
    for L in (2 ** (n - 1) + 1, (3 * 2 ** (n - 1) + 1) // 2, 2 ** n):
        params = derive_params(n, 2, L)
        seq = run_binary(n, L)
        doubled = seq + seq
        for i in range(L):
            assert sum(doubled[i:i + n]) <= params.m


def test_special_case_windows_present():
    # n = 2m: the alternating window (01)^(n/2) appears unless the surplus
    # cuts the length-2 cycle (that is what joining it guarantees: it is
    # there to cut); n = 2m-1: the cycle of (01)^(m-1) 1 is always joined,
    # losing at most one window to a length-2 cut
    for n in range(2, 12):
        for L in range(2 ** (n - 1) + 1, 2 ** n + 1):
            params = derive_params(n, 2, L)
            m = params.m
            cuts = cut_set(params.s, n)
            if n == 2 * m:
                seq = run_binary(n, L)
                text = "".join(map(str, seq + seq[:n]))
                if 2 in cuts.sizes:
                    assert "01" * (n // 2) not in text, (n, L)
                else:
                    assert "01" * (n // 2) in text, (n, L)
            elif n == 2 * m - 1:
                seq = run_binary(n, L)
                text = "".join(map(str, seq + seq[:n]))
                special = to_word("01" * (m - 1) + "1")
                present = sum("".join(map(str, rot)) in text
                              for rot in set(rotations(special)))
                expected = n - 1 if 2 in cuts.sizes else n
                assert present == expected, (n, L)


# --- context-free successor ----------------------------------------------

def run_successor(n, L, start=None):
    params = derive_params(n, 2, L)
    cuts = cut_set(params.s, n)
    alpha = start if start is not None else (0,) * (n - 1) + (1,)
    out = []
    for _ in range(L):
        out.append(alpha[0])
        alpha = alpha[1:] + (cut_down_successor(alpha, params, cuts),)
    return out


def canonical_rotation(seq):
    return min("".join(map(str, seq[i:] + seq[:i])) for i in range(len(seq)))


def test_successor_rule_produces_valid_cycle():
    seq = run_successor(6, 46)
    assert verify(seq, 6, 2, expected_len=46).ok


def test_successor_rule_all_starts_agree():
    n, L = 6, 46
    base = run_successor(n, L)
    canon = canonical_rotation(base)
    doubled = base + base
    for i in range(L):
        start = tuple(doubled[i:i + n])
        assert canonical_rotation(run_successor(n, L, start)) == canon


def test_successor_rule_full_length_is_de_bruijn():
    for n in range(2, 9):
        seq = run_successor(n, 2 ** n)
        assert verify(seq, n, 2, expected_len=2 ** n).ok


def test_successor_rule_is_stateless():
    params = derive_params(7, 2, 100)
    cuts = cut_set(params.s, 7)
    word = to_word("0000011")
    first = cut_down_successor(word, params, cuts)
    # interleave other evaluations, then repeat
    run_successor(7, 100)
    assert cut_down_successor(word, params, cuts) == first


# --- k-ary counter rule --------------------------------------------------

def run_kary(n, k, L):
    params = derive_params(n, k, L)
    cuts = cut_set(params.s, n)
    joins = counter_join(params)
    step = lambda w: kary_step(w, params, cuts, joins)
    _, start = iterate((0,) * n, step, 1)  # the start is one step after 0^n
    return iterate(start, step, L)[0]


def test_kary_full_length_gives_de_bruijn_rotation():
    out = "".join(map(str, run_kary(3, 4, 64)))
    assert out in DB_N3_K4 + DB_N3_K4


def test_kary_mid_length():
    seq = run_kary(3, 4, 50)
    report = verify(seq, 3, 4, expected_len=50)
    assert report.ok


def test_kary_marker_forces_zero():
    # with surplus 2 for n=3, k=4 the marker is the first window on the
    # cycle of 01; entering it is redirected to symbol 0
    params = derive_params(3, 4, 21)
    assert params.s == 2
    cuts = cut_set(2, 3)
    assert cuts.markers == (to_word("101"),)
    seq = run_kary(3, 4, 21)
    assert verify(seq, 3, 4, expected_len=21).ok
    text = "".join(map(str, seq + seq[:3]))
    assert "101" not in text and "010" not in text


@pytest.mark.parametrize("k, nmax", [(3, 4), (4, 3), (5, 3), (6, 2)])
def test_kary_sweep_small(k, nmax):
    for n in range(2, nmax + 1):
        for L in range(k ** (n - 1) + 1, k ** n + 1):
            seq = run_kary(n, k, L)
            report = verify(seq, n, k, expected_len=L)
            assert report.ok, (k, n, L)


def test_kary_heavy_start_window_configurations():
    # every (k, n, L) in this envelope where the weight cap already binds at
    # the conventional start window 0^(n-1)(k-1), i.e. k-1 >= m; these small
    # orders exercise the silent-step init and the all-zero-marker splice
    covered = 0
    zero_marker = 0
    for k in (3, 4, 5, 6, 12):
        for n in (2, 3):
            if k ** n > 2000:
                continue
            for L in range(k ** (n - 1) + 1, k ** n + 1):
                params = derive_params(n, k, L)
                if k - 1 < params.m:
                    continue
                covered += 1
                zero_marker += params.s == 1
                seq = run_kary(n, k, L)
                assert verify(seq, n, k, expected_len=L).ok, (k, n, L)
    assert covered > 100 and zero_marker > 20


# --- windows off the cycle -------------------------------------------------

@pytest.mark.parametrize("n, k", [(6, 2), (4, 3), (3, 4)])
def test_every_window_gives_a_symbol_or_value_error(n, k):
    # on-cycle windows give a symbol in range; a window heavier than m may
    # instead raise ValueError, but no window yields a symbol outside the
    # alphabet, under either join decision
    for mode, make_join in (("counter", counter_join),
                            ("successor", threshold_join)):
        for L in range(k ** (n - 1) + 1, k ** n + 1):
            params = derive_params(n, k, L)
            cuts = cut_set(params.s, n)
            seq = list(generate(SequenceSpec(n=n, k=k, L=L, mode=mode)))
            on_cycle = {tuple((seq + seq)[i:i + n]) for i in range(L)}
            for word in product(range(k), repeat=n):
                try:
                    x = kary_step(word, params, cuts, make_join(params))
                except ValueError:
                    assert word not in on_cycle and sum(word) > params.m, (
                        mode, L, word)
                else:
                    assert 0 <= x < k, (mode, L, word, x)


def unpack(value, n, k):
    word = []
    for _ in range(n):
        value, c = divmod(value, k)
        word.append(c)
    return tuple(reversed(word))


@pytest.mark.parametrize("k, n_max", [(2, 8), (3, 5), (4, 4), (5, 3)])
def test_join_candidates_are_necklaces_of_period_h(k, n_max):
    # the precondition threshold_join relies on: from every window of
    # weight <= m, each candidate kary_step asks about is a necklace whose
    # period is h
    asked = 0
    for n in range(2, n_max + 1):
        for L in range(k ** (n - 1) + 1, k ** n + 1):
            params = derive_params(n, k, L)
            cuts = cut_set(params.s, n)
            candidates = []

            def joins(cand):
                candidates.append(cand)
                return threshold_join(params)(cand)

            for word in product(range(k), repeat=n):
                if sum(word) <= params.m:
                    kary_step(word, params, cuts, joins)
            for cand in candidates:
                assert is_necklace(unpack(cand, n, k)) == params.h, (
                    k, n, L, unpack(cand, n, k))
            asked += len(candidates)
    assert asked > 100


def test_heavy_windows_raise():
    params = derive_params(4, 3, 60)
    cuts = cut_set(params.s, 4)
    for text in ("0222", "1222", "2222"):
        with pytest.raises(ValueError, match="heavier than m"):
            kary_step(to_word(text), params, cuts, counter_join(params))
    params = derive_params(6, 2, 46)
    with pytest.raises(ValueError, match="heavier than m"):
        cut_down_successor(to_word("111111"), params, cut_set(params.s, 6))
