"""Generation engine and verifier."""

import contextlib
import hashlib
import inspect
import itertools
import pickle
import sys
import tempfile
import time
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cutdown import engine, successor
from cutdown.cutplan import CutParams, CutSet, cut_set, derive_params
from cutdown.engine import SequenceSpec, VerifyReport, generate, verify
from cutdown.successor import (
    counter_join,
    cut_down_successor,
    kary_step,
    on_target_cycle,
    threshold_join,
)
from cutdown.words import is_necklace, least_rotation, pack, period

from refdata import (
    CUT_N6_L46,
    CUT_N6_L52,
    DB_N3_K4,
    DB_N6_K2,
    iterate,
    probe_class_mask_reference,
    tail_period_reference,
    to_symbols,
    verify_reference,
)


def collect(spec):
    return list(generate(spec))


def as_text(spec):
    return "".join(map(str, generate(spec)))


# --- generate -------------------------------------------------------------

def test_generate_reference_length_46():
    assert as_text(SequenceSpec(n=6, k=2, L=46)) == CUT_N6_L46


def test_generate_full_length_rotations():
    assert as_text(SequenceSpec(n=6, k=2, L=64)) in DB_N6_K2 + DB_N6_K2
    assert as_text(SequenceSpec(n=3, k=4, L=64)) in DB_N3_K4 + DB_N3_K4


def test_generate_propagates_range_errors():
    with pytest.raises(ValueError, match="32 < L <= 64"):
        collect(SequenceSpec(n=6, k=2, L=32))


def test_generate_successor_mode_default_start():
    seq = collect(SequenceSpec(n=6, k=2, L=46, mode="successor"))
    assert verify(seq, 6, 2, expected_len=46).ok
    assert seq[:6] == [0, 0, 0, 0, 0, 1]


def test_generate_successor_mode_custom_start():
    base = collect(SequenceSpec(n=6, k=2, L=40, mode="successor"))
    start = tuple((base + base)[7:13])
    seq = collect(SequenceSpec(n=6, k=2, L=40, mode="successor", start=start))
    assert verify(seq, 6, 2, expected_len=40).ok
    canon = {tuple((base + base)[i:i + 40]) for i in range(40)}
    assert tuple(seq) in canon


def test_successor_start_accepted_iff_on_the_cycle():
    # every window of every length: generate accepts exactly the windows
    # the default start visits, and rejects the rest before emitting
    for n in range(2, 9):
        for L in range(2 ** (n - 1) + 1, 2 ** n + 1):
            cycle = collect(SequenceSpec(n=n, k=2, L=L, mode="successor"))
            visited = {tuple((cycle + cycle)[i:i + n]) for i in range(L)}
            for start in itertools.product((0, 1), repeat=n):
                spec = SequenceSpec(n=n, k=2, L=L, mode="successor",
                                    start=start)
                if start in visited:
                    generate(spec)
                else:
                    with pytest.raises(ValueError, match="target cycle"):
                        generate(spec)


@pytest.mark.parametrize("n, k, L", [
    (30, 2, 2 ** 30),
    (30, 2, 3 * 2 ** 28),  # h == n: tau is one of 3,991,995 Lyndon words
    (60, 2, 3 * 2 ** 58),
    (30, 4, 3 * 4 ** 29),  # h == n
], ids=["30-1073741824", "30-805306368", "60-864691128455135232",
        "k4-30-864691128455135232"])
def test_successor_mode_streams_in_bounded_memory(n, k, L):
    tracemalloc.start()
    try:
        head = list(itertools.islice(
            generate(SequenceSpec(n=n, k=k, L=L, mode="successor")), 10 ** 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20
    assert head[:n] == [0] * (n - 1) + [k - 1]
    windows = {tuple(head[i:i + n]) for i in range(len(head) - n + 1)}
    assert len(windows) == len(head) - n + 1


def test_marker_rotations_take_as_much_memory_at_every_alphabet():
    # both loops keep a marker's n rotations as packed ints, n^2 / 8 bytes,
    # not as n-tuples, n^2 pointers: the first 10^3 symbols at (1024, 3),
    # with set-up outside the trace, take about what they take at k = 2
    peaks = {}
    for k in (2, 3):
        symbols = generate(SequenceSpec(n=1024, k=k,
                                        L=k ** 1024 - k ** 1023 // 3))
        tracemalloc.start()
        try:
            assert len(list(itertools.islice(symbols, 1000))) == 1000
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[3] < 2 * 2 ** 20
    assert peaks[3] <= 2 * peaks[2], peaks


def test_spec_validation():
    seq = collect(SequenceSpec(n=3, k=4, L=50, mode="successor"))
    assert verify(seq, 3, 4, expected_len=50).ok
    with pytest.raises(ValueError, match="mode"):
        SequenceSpec(n=3, k=2, L=5, mode="zigzag")
    with pytest.raises(ValueError, match="length n"):
        SequenceSpec(n=4, k=2, L=12, mode="successor", start=(0, 1))
    with pytest.raises(ValueError, match="start window applies"):
        SequenceSpec(n=4, k=2, L=12, mode="counter", start=(0, 0, 0, 1))
    # a list start is stored as a tuple, so the record stays hashable
    spec = SequenceSpec(n=4, k=2, L=12, mode="successor", start=[0, 0, 0, 1])
    assert spec.start == (0, 0, 0, 1)
    assert hash(spec) == hash(SequenceSpec(n=4, k=2, L=12, mode="successor",
                                           start=(0, 0, 0, 1)))
    assert collect(spec) == collect(SequenceSpec(n=4, k=2, L=12,
                                                 mode="successor"))
    for start in ((0, 0, 2, 1), (0, -1, 0, 1), (0, 0, 0.5, 1), (0, 0, 1.0, 1),
                  ("0", "0", "0", "1")):
        with pytest.raises(ValueError, match=r"must be ints in \[0, 2\)"):
            SequenceSpec(n=4, k=2, L=12, mode="successor", start=start)


@pytest.mark.parametrize("record, text", [
    (CutParams(n=6, k=2, L=46, m=4, h=6, t=1, s=5),
     "CutParams(n=6, k=2, L=46, m=4, h=6, t=1, s=5)"),
    (CutSet(markers=((0, 0, 1, 0, 0, 1),), sizes=(3,)),
     "CutSet(markers=((0, 0, 1, 0, 0, 1),), sizes=(3,))"),
    (SequenceSpec(n=4, k=2, L=12, mode="successor", start=(0, 0, 0, 1)),
     "SequenceSpec(n=4, k=2, L=12, mode='successor', start=(0, 0, 0, 1))"),
    (SequenceSpec(4, 2, 12),
     "SequenceSpec(n=4, k=2, L=12, mode='counter', start=None)"),
    (VerifyReport(ok=False, length=6, first_duplicate=((0, 0), (1, 5))),
     "VerifyReport(ok=False, length=6, first_duplicate=((0, 0), (1, 5)), "
     "out_of_range_symbol=None)"),
], ids=["CutParams", "CutSet", "SequenceSpec", "SequenceSpec-defaults",
        "VerifyReport"])
def test_records(record, text):
    # frozen, hashable named tuples whose repr reads as their constructor
    assert repr(record) == text
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict
    twin = type(record)(*record)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    assert pickle.loads(pickle.dumps(record)) == record
    assert type(pickle.loads(pickle.dumps(record))) is type(record)
    # a named tuple equals the plain tuple of its fields
    assert record == tuple(record)


def test_spec_replace_validates():
    spec = SequenceSpec(n=4, k=2, L=12, mode="successor")
    with pytest.raises(ValueError, match="unknown mode 'zigzag'"):
        spec._replace(mode="zigzag")
    with pytest.raises(ValueError, match="length n"):
        spec._replace(start=(0, 1))
    with pytest.raises(ValueError, match="start window applies"):
        spec._replace(start=(0, 0, 0, 1), mode="counter")
    moved = spec._replace(start=[0, 0, 0, 1])
    assert moved.start == (0, 0, 0, 1)
    assert moved == SequenceSpec(4, 2, 12, "successor", (0, 0, 0, 1))
    with pytest.raises(ValueError, match="unknown mode"):
        SequenceSpec._make((4, 2, 12, "zigzag", None))
    # unpickling builds through __new__, so it validates too
    forged = pickle.dumps(spec).replace(b"successor", b"zigzag___")
    with pytest.raises(ValueError, match="unknown mode"):
        pickle.loads(forged)


def test_successor_mode_unranks_tau_at_set_up(monkeypatch):
    # tau is set-up data: generate has unranked it once by the time it
    # returns, and the stream never asks again; counter mode never does
    calls = []

    def counted(*args):
        calls.append(args)
        return unrank(*args)

    unrank = successor.unrank_lyndon
    monkeypatch.setattr(successor, "unrank_lyndon", counted)
    for n, k, L in ((20, 2, 2 ** 20 - 3000), (8, 4, 4 ** 8 - 700)):
        for mode, want in (("successor", 1), ("counter", 0)):
            successor._tau.cache_clear()
            calls.clear()
            gen = generate(SequenceSpec(n=n, k=k, L=L, mode=mode))
            assert len(calls) == want, (n, k, mode)
            assert len(list(itertools.islice(gen, 10 ** 4))) == 10 ** 4
            assert len(calls) == want, (n, k, mode)


def test_generate_is_lazy():
    # both loops hand out blocks, chained into one plain iterator
    for spec, first in ((SequenceSpec(n=20, k=2, L=2 ** 20), 1),
                        (SequenceSpec(n=10, k=4, L=4 ** 10 - 5000), 3)):
        gen = generate(spec)
        assert iter(gen) is gen
        head = list(itertools.islice(gen, 25))
        assert head[:spec.n] == [0] * (spec.n - 1) + [first]
        assert len(head) == 25


@pytest.mark.parametrize("n", range(2, 12))
def test_generate_verify_round_trip_binary(n):
    for L in range(2 ** (n - 1) + 1, 2 ** n + 1):
        seq = collect(SequenceSpec(n=n, k=2, L=L))
        report = verify(seq, n, 2, expected_len=L)
        assert report.ok, (n, L, report)


# (k, n_max) for k > 2 of the sweeps that compare the engine loops with the
# tuple rule at every L
KARY_SWEEP = [(3, 6), (4, 4), (5, 3), (6, 3)]


def start_after_zero(params, cuts, joins):
    # the engine's default start: one step of the rule after 0^n
    zero = (0,) * params.n
    return zero[1:] + (kary_step(zero, params, cuts, joins),)


def test_fast_loop_equals_stepper_everywhere():
    # engine loops (packed for k = 2, list for k > 2) vs the tuple rule
    # with counter_join
    for k, n_max in [(2, 9), *KARY_SWEEP]:
        for n in range(2, n_max + 1):
            for L in range(k ** (n - 1) + 1, k ** n + 1):
                params = derive_params(n, k, L)
                cuts = cut_set(params.s, n)
                joins = counter_join(params)
                stepped, _ = iterate(
                    start_after_zero(params, cuts, joins),
                    lambda w: kary_step(w, params, cuts, joins), L)
                assert stepped == collect(SequenceSpec(n=n, k=k, L=L)), (
                    k, n, L)


def test_successor_mode_equals_the_tuple_rule_everywhere():
    # engine loops vs iterating cut_down_successor, from five windows of
    # the cycle; the rule is a pure function of the window, so once the
    # reference run closes its cycle, the run from its i-th window is its
    # rotation by i
    for k, n_max in [(2, 10), *KARY_SWEEP]:
        for n in range(2, n_max + 1):
            for L in range(k ** (n - 1) + 1, k ** n + 1):
                params = derive_params(n, k, L)
                cuts = cut_set(params.s, n)
                first = start_after_zero(params, cuts, threshold_join(params))
                ref, last = iterate(
                    first, lambda w: cut_down_successor(w, params, cuts), L)
                assert last == first, (k, n, L)
                doubled = ref + ref
                for i in {0, 1, L // 3, L // 2, L - 1}:
                    spec = SequenceSpec(n=n, k=k, L=L, mode="successor",
                                        start=tuple(doubled[i:i + n]))
                    assert collect(spec) == doubled[i:i + L], (k, n, L, i)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_loop_equals_tuple_rule_at_large_n(data):
    # first 2000 symbols, k <= 10, with k^n between about 2^20 and 2^64;
    # successor runs start at a random window of weight m - 1, from where
    # the period-h join branch is soon reached
    k = data.draw(st.integers(2, 10), label="k")
    bits = (k - 1).bit_length()
    n = data.draw(st.integers(20 // bits, 64 // bits), label="n")
    L = data.draw(st.integers(k ** (n - 1) + 1, k ** n), label="L")
    mode = data.draw(st.sampled_from(["counter", "successor"]), label="mode")
    params = derive_params(n, k, L)
    cuts = cut_set(params.s, n)
    joins = (counter_join if mode == "counter" else threshold_join)(params)
    start = None
    if mode == "successor":
        word, budget = [], params.m - 1
        for left in range(n - 1, -1, -1):
            word.append(data.draw(st.integers(
                max(0, budget - (k - 1) * left), min(k - 1, budget))))
            budget -= word[-1]
        word = tuple(data.draw(st.permutations(word), label="start"))
        if on_target_cycle(word, params, cuts):
            start = word
    alpha = start or start_after_zero(params, cuts, joins)
    ref, _ = iterate(alpha, lambda w: kary_step(w, params, cuts, joins),
                     2000)
    spec = SequenceSpec(n=n, k=k, L=L, mode=mode, start=start)
    assert list(itertools.islice(generate(spec), 2000)) == ref


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_packed_loop_equals_tuple_rule_at_wide_n(data):
    # first 2000 symbols at k = 2, n = 256..1024: counter runs from the
    # default start, where the probes' leading runs of 0s are longest, and
    # successor runs from a random on-cycle window of weight m - 1, where
    # longest runs of 0s often tie: 2000 symbols, 2n or more, let the
    # probe meet those ties.
    # Unranking tau at h = n >= 256 takes seconds to minutes, and the loop
    # treats every threshold alike, so successor runs join above a drawn
    # weight-m necklace instead
    n = data.draw(st.integers(256, 1024), label="n")
    L = data.draw(st.integers(2 ** (n - 1) + 1, 2 ** n), label="L")
    mode = data.draw(st.sampled_from(["counter", "successor"]), label="mode")
    params = derive_params(n, 2, L)
    cuts = cut_set(params.s, n)
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    start, tau = None, None
    if mode == "successor":
        def word(w):
            ones = set(rng.sample(range(n), w))
            return tuple(int(i in ones) for i in range(n))
        tau = pack(least_rotation(word(params.m)))
        start = word(params.m - 1)
        assume(on_target_cycle(start, params, cuts))
    with mock.patch.object(successor, "_tau", lambda params: tau):
        joins = (counter_join if mode == "counter" else threshold_join)(params)
        ref, _ = iterate(start or start_after_zero(params, cuts, joins),
                         lambda w: kary_step(w, params, cuts, joins), 2000)
        spec = SequenceSpec(n=n, k=2, L=L, mode=mode, start=start)
        assert list(itertools.islice(generate(spec), 2000)) == ref


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_list_loop_equals_tuple_rule_at_wide_n(data):
    # first 1000 symbols at k = 3, n = 96..256, or k = 4, n = 96..512, past
    # the k^n <= 2^64 of the large-n test: counter runs from the default
    # start, successor runs from a random on-cycle window of weight m - 1
    # and, as at k = 2, join above a drawn weight-m necklace in place of tau
    k = data.draw(st.sampled_from([3, 4]), label="k")
    n = data.draw(st.integers(96, 256 if k == 3 else 512), label="n")
    L = data.draw(st.integers(k ** (n - 1) + 1, k ** n), label="L")
    mode = data.draw(st.sampled_from(["counter", "successor"]), label="mode")
    params = derive_params(n, k, L)
    cuts = cut_set(params.s, n)
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    start, tau = None, None
    if mode == "successor":
        def word(w):
            symbols = [0] * n
            for slot in rng.sample(range(n * (k - 1)), w):
                symbols[slot // (k - 1)] += 1
            return tuple(symbols)
        tau = pack(least_rotation(word(params.m)), k)
        start = word(params.m - 1)
        assume(on_target_cycle(start, params, cuts))
    with mock.patch.object(successor, "_tau", lambda params: tau):
        joins = (counter_join if mode == "counter" else threshold_join)(params)
        ref, _ = iterate(start or start_after_zero(params, cuts, joins),
                         lambda w: kary_step(w, params, cuts, joins), 1000)
        spec = SequenceSpec(n=n, k=k, L=L, mode=mode, start=start)
        assert list(itertools.islice(generate(spec), 1000)) == ref


@pytest.mark.parametrize("k", [257, 300])
def test_alphabets_beyond_a_byte(k):
    # symbols above 255 go through the list loop unchanged
    n = 2
    for L in (k + 1, k * k // 2, k * k - 1, k * k):
        params = derive_params(n, k, L)
        cuts = cut_set(params.s, n)
        for mode in ("counter", "successor"):
            joins = (counter_join if mode == "counter"
                     else threshold_join)(params)
            ref, _ = iterate(start_after_zero(params, cuts, joins),
                             lambda w: kary_step(w, params, cuts, joins), L)
            seq = collect(SequenceSpec(n=n, k=k, L=L, mode=mode))
            assert seq == ref, (k, L, mode)
            assert verify(seq, n, k, expected_len=L).ok, (k, L, mode)
            assert verify(iter(seq), n, k, expected_len=L).ok, (k, L, mode)
    # a stream over such an alphabet is spooled as lists of its symbols,
    # and a rejected one is read back from them
    bad = seq[:-1] + [(seq[-1] + 1) % k]
    assert verify(iter(bad), n, k) == verify_reference(bad, n, k)


@pytest.mark.parametrize("k, n", [(3, 4), (3, 5), (4, 3), (4, 4), (5, 3)])
def test_list_loop_class_changes_equal_the_tuple_rule(k, n):
    # successor runs from every window of the cycle whose least symbol is
    # unique.  At a class change the list loop updates the positions of the
    # least symbol: they empty when it leaves the window, and shrink to the
    # last position when a smaller one enters.  Both kinds occur in the
    # compared prefixes, which follow iterated kary_step
    kinds = set()
    for L in (k ** n, k ** n - k ** (n - 1) // 2 - 1):
        params = derive_params(n, k, L)
        cuts = cut_set(params.s, n)
        joins = threshold_join(params)
        for word in itertools.product(range(k), repeat=n):
            if (word.count(min(word)) > 1
                    or not on_target_cycle(word, params, cuts)):
                continue
            ref, _ = iterate(word, lambda w: kary_step(w, params, cuts, joins),
                             4 * n)
            spec = SequenceSpec(n=n, k=k, L=L, mode="successor", start=word)
            assert list(itertools.islice(generate(spec), 4 * n)) == ref, (
                k, n, L, word)
            for j in range(3 * n):
                win, x = ref[j:j + n], ref[j + n]
                if x < min(win):
                    kinds.add("enters")
                elif x > win[0] == min(win) and win.count(win[0]) == 1:
                    kinds.add("leaves")
    assert kinds == {"enters", "leaves"}, kinds


@pytest.mark.parametrize("k, n", [(3, 5), (4, 4)])
def test_list_loop_hands_kary_step_only_cap_and_marker_steps(k, n,
                                                            monkeypatch):
    # every L, both modes: the loop calls kary_step only where the window
    # is a rotation of a marker or of v (v + 1)^(n - 1), or pcr3_alt
    # changes the symbol and reaches the weight cap or a marker (and at
    # 0^n, for the default start and the splice after the all-0 marker),
    # and it calls pcr3_alt only through kary_step.  A window of weight m
    # keeps its class, as the cap does, inline unless it is a rotation of
    # a marker.  A full-length run calls kary_step at every rotation of an
    # on-cycle v (v + 1)^(n - 1)
    calls = {"kary_step": [], "pcr3_alt": 0}
    step, alt = successor.kary_step, successor.pcr3_alt

    def counted_step(word, *args):
        calls["kary_step"].append(word)
        return step(word, *args)

    def counted_alt(word, k):
        calls["pcr3_alt"] += 1
        return alt(word, k)

    monkeypatch.setattr(successor, "kary_step", counted_step)
    monkeypatch.setattr(successor, "pcr3_alt", counted_alt)
    # the rotations of each v (v + 1)^(n - 1)
    lone = {(v + 1,) * j + (v,) + (v + 1,) * (n - 1 - j)
            for v in range(k - 1) for j in range(n)}
    for L in range(k ** (n - 1) + 1, k ** n + 1):
        params = derive_params(n, k, L)
        cuts = cut_set(params.s, n)
        hot = lone | {w[j:] + w[:j] for w in cuts.markers for j in range(n)}
        for mode in ("counter", "successor"):
            calls["kary_step"], calls["pcr3_alt"] = [], 0
            collect(SequenceSpec(n=n, k=k, L=L, mode=mode))
            assert calls["pcr3_alt"] == len(calls["kary_step"]), (L, mode)
            if L == k ** n:
                assert {w for w in lone if on_target_cycle(w, params, cuts)
                        } <= set(calls["kary_step"]), mode
            for word in calls["kary_step"]:
                x = alt(word, k)
                cand = word[1:] + (x,)
                assert (word in hot or not any(word) or x != word[0] and (
                    sum(cand) >= params.m or cand in cuts.markers)), (
                    L, mode, word)
                assert sum(word) < params.m or word in hot, (L, mode, word)


def test_list_loop_caps_weight_m_windows_inline(monkeypatch):
    # the opening stretch at (4, 512) holds many windows of weight m whose
    # pcr3_alt symbol is heavier; the loop keeps their symbol itself, so
    # the first 5000 symbols call kary_step 17 times, not 1905
    calls = []
    step = successor.kary_step

    def counted_step(word, *args):
        calls.append(word)
        return step(word, *args)

    monkeypatch.setattr(successor, "kary_step", counted_step)
    n, k = 512, 4
    spec = SequenceSpec(n=n, k=k, L=k ** n - k ** (n - 1) // 3)
    head = list(itertools.islice(generate(spec), 5000))
    assert len(head) == 5000
    assert len(calls) <= 50, len(calls)


@pytest.mark.parametrize("mode", ["counter", "successor"])
def test_list_loop_keeps_the_trailing_run_of_the_least_symbol(mode):
    # at (3, 3, 24) a marked step's tail can start v v and end with a
    # shorter run of v: the run filter must still compare that run, which
    # can equal the tail's prefix, or the output leaves the tuple rule
    n, k, L = 3, 3, 24
    params = derive_params(n, k, L)
    cuts = cut_set(params.s, n)
    joins = (counter_join if mode == "counter" else threshold_join)(params)
    ref, _ = iterate(start_after_zero(params, cuts, joins),
                     lambda w: kary_step(w, params, cuts, joins), L)
    seq = collect(SequenceSpec(n=n, k=k, L=L, mode=mode))
    assert seq == ref
    assert verify(seq, n, k, expected_len=L).ok


# --- k-ary successor mode --------------------------------------------------

@pytest.mark.parametrize("k, n_max", [(3, 6), (4, 5), (5, 4), (6, 3)])
def test_kary_successor_mode_sweep(k, n_max):
    for n in range(2, n_max + 1):
        for L in range(k ** (n - 1) + 1, k ** n + 1):
            seq = collect(SequenceSpec(n=n, k=k, L=L, mode="successor"))
            assert verify(seq, n, k, expected_len=L).ok, (k, n, L)


@pytest.mark.parametrize("k, n_max", [(2, 9), (3, 5), (4, 4), (5, 3)])
def test_kary_successor_orbit_is_the_target_cycle(k, n_max):
    # the windows the default start visits are exactly the windows
    # on_target_cycle accepts
    for n in range(2, n_max + 1):
        for L in range(k ** (n - 1) + 1, k ** n + 1):
            params = derive_params(n, k, L)
            cuts = cut_set(params.s, n)
            seq = collect(SequenceSpec(n=n, k=k, L=L, mode="successor"))
            visited = {tuple((seq + seq)[i:i + n]) for i in range(L)}
            members = {word for word in itertools.product(range(k), repeat=n)
                       if on_target_cycle(word, params, cuts)}
            assert visited == members, (k, n, L)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_successor_mode_from_any_window_stays_on_the_cycle(data):
    # a random window of weight <= m; when off the cycle, its last nonzero
    # symbol is lowered once, which leaves only the cut small cycles.  The
    # cost hardly grows with n (about 2 s for 100 examples), so n reaches 20
    # for every k
    k = data.draw(st.integers(2, 5), label="k")
    n = data.draw(st.integers(2, 20), label="n")
    L = data.draw(st.integers(k ** (n - 1) + 1, k ** n), label="L")
    params = derive_params(n, k, L)
    cuts = cut_set(params.s, n)
    start, budget = [], params.m
    for _ in range(n):
        start.append(data.draw(st.integers(0, min(k - 1, budget))))
        budget -= start[-1]
    if not on_target_cycle(tuple(start), params, cuts) and any(start):
        i = max(j for j, c in enumerate(start) if c)
        start[i] -= 1
    assume(on_target_cycle(tuple(start), params, cuts))
    spec = SequenceSpec(n=n, k=k, L=L, mode="successor", start=tuple(start))
    head = list(itertools.islice(generate(spec), 2000))
    windows = [tuple(head[i:i + n]) for i in range(len(head) - n + 1)]
    assert all(on_target_cycle(w, params, cuts) for w in windows)
    assert len(set(windows)) == len(windows)


# sha256 over every k-ary sequence for 2 <= n <= n_max and every L, as
# emitted before the binary and k-ary tuple rules were merged into kary_step
KARY_SHA256 = {
    (3, 5): "8fa73128af83ec938f1c836d40ea4299cdf237f0cfdb9756f2998da6590432cb",
    (4, 4): "7239f36b756dfc863761b1adc91bc7f023ae86c52fb334919a3782fc89a9a058",
    (5, 3): "563f913c7f980da756a220b3bb096cb0b274bea28df29a8d072797a8f67155a0",
    (6, 3): "724193ec9148ddd1f5c2b9936b422eba147c314310598fb17c8ea44c7255f6d0",
}


@pytest.mark.parametrize("k, n_max", KARY_SHA256)
def test_kary_output_pinned(k, n_max):
    digest = hashlib.sha256()
    for n in range(2, n_max + 1):
        for L in range(k ** (n - 1) + 1, k ** n + 1):
            digest.update(bytes(generate(SequenceSpec(n=n, k=k, L=L))) + b"|")
    assert digest.hexdigest() == KARY_SHA256[k, n_max]


# sha256 of the first 10^5 symbols at wide n, L = 2^n - 2^(n-1) / 3, as
# emitted before the binary loop kept the classes it climbs through on a
# stack: that path does most of its work here, where the property tests
# draw few examples
WIDE_SHA256 = {
    (64, "counter"):
        "1881e564f8f7a2d6d2101eca7e6a16e128ad04f74ad47deabd695f7a99a8c2c1",
    (256, "counter"):
        "bee4e03cc5beee1ae17b76bde5bfea8bacb87108f6182117dce3e176a5636306",
    (1024, "counter"):
        "8c2bf0fe042f9cb50f51945e99fb9806c7ce2826dbf8206311cbf0fe24a1f637",
    (64, "successor"):
        "d3a10746ad9225c7a62a080d79222bba185c144f2fdff4e13a6457a13ba3dc52",
    (128, "successor"):
        "c044e1fef5e3ebe02d630a11d69b5fcdc60c03de96ff9b2d8756c330a6c14cda",
}


@pytest.mark.parametrize("n, mode", WIDE_SHA256)
def test_wide_binary_prefix_pinned(n, mode):
    spec = SequenceSpec(n=n, k=2, L=2 ** n - 2 ** (n - 1) // 3, mode=mode)
    head = bytes(itertools.islice(generate(spec), 10 ** 5))
    assert hashlib.sha256(head).hexdigest() == WIDE_SHA256[n, mode]


# sha256 of the benchmark's binary shapes, as emitted before the binary
# loop built its blocks from the steps that change a symbol: the whole
# counter run at n = 22 and the first 5 * 10^5 symbols in successor mode
# at n = 28
BENCH_SHA256 = {
    (SequenceSpec(22, 2, 3_550_000), None):
        "5cec36f72478bfcc12b5716d634b806d38a6a58b4c0c8b5a222ad84e8224c22c",
    (SequenceSpec(28, 2, 205_000_000, "successor"), 5 * 10 ** 5):
        "d4d8c55537735c42ef85c4cd068be288b70d0cef271a604733408d28b2dfabe3",
}


@pytest.mark.parametrize("spec, count", BENCH_SHA256,
                         ids=["counter-22", "successor-28"])
def test_benchmark_binary_shapes_pinned(spec, count):
    head = bytes(itertools.islice(generate(spec), count))
    assert hashlib.sha256(head).hexdigest() == BENCH_SHA256[spec, count]


@pytest.mark.parametrize("mode", ["counter", "successor"])
@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_binary_blocks_at_their_edges_equal_the_tuple_rule(n, mode):
    # a binary block is its first window and, from there, symbol t + n is
    # symbol t flipped where step t changed it.  Here the 64- and
    # 128-symbol blocks are shorter than n, as long, or one longer.  Each
    # block is bytes over {0, 1}, as long as _block_sizes says
    L = 2 ** n - 2 ** (n - 1) // 3
    spec = SequenceSpec(n=n, k=2, L=L, mode=mode)
    blocks = list(itertools.islice(engine._blocks(spec), 9))
    assert [len(block) for block in blocks] == list(
        itertools.islice(engine._block_sizes(L), 9))
    for block in blocks:
        assert type(block) is bytes
        assert not block.translate(None, b"\x00\x01")
    params = derive_params(n, 2, L)
    cuts = cut_set(params.s, n)
    joins = (counter_join if mode == "counter" else threshold_join)(params)
    ref, _ = iterate(start_after_zero(params, cuts, joins),
                     lambda w: kary_step(w, params, cuts, joins), 4160)
    assert list(b"".join(blocks)[:4160]) == ref


@pytest.mark.parametrize("spec", [
    SequenceSpec(16, 2, 40000), SequenceSpec(16, 2, 40000, "successor"),
    SequenceSpec(8, 4, 4 ** 8 - 100)], ids=["k2", "k2-successor", "k4"])
def test_blocks_double_from_64_up_to_8192(spec):
    sizes = [len(block) for block in engine._blocks(spec)]
    growing = [64, 64, 128, 256, 512, 1024, 2048, 4096]
    assert sizes[:8] == growing
    full = (spec.L - sum(growing)) // 8192
    assert sizes[8:] == [8192] * full + [spec.L - sum(growing) - 8192 * full]
    assert sum(sizes) == spec.L


def test_first_symbol_comes_before_a_full_block():
    # both loops' buffered blocks grow from 64 symbols, so the first symbol
    # costs far less than a full 8192-symbol block
    for spec in (SequenceSpec(n=60, k=2, L=3 * 2 ** 58),
                 SequenceSpec(n=30, k=4, L=3 * 4 ** 29)):
        first = block = float("inf")
        for _ in range(3):
            gen = generate(spec)
            t0 = time.perf_counter()
            next(gen)
            first = min(first, time.perf_counter() - t0)
            gen = generate(spec)
            t0 = time.perf_counter()
            list(itertools.islice(gen, 8192))
            block = min(block, time.perf_counter() - t0)
        assert first < block / 4, (spec.k, first, block)


def test_binary_cost_per_symbol_barely_grows_with_n():
    # the probe finds its runs of 0s by doubling, so the opening stretch
    # at n = 1024, where the probes' leading runs are hundreds long, costs
    # about what n = 64 does (2-3x on a 2-vCPU VM; z0 - 1 steps per probe
    # made about 50x).  Set-up is timed apart: derive_params walks only
    # the divisors of n for h, and its bisection for m counts the words
    # above half the largest weight by their complements, so at L near
    # 2^n, where it took up to 0.8 s, it now takes under 0.1 s
    def per_symbol(n, count):
        best = float("inf")
        for _ in range(2):
            gen = generate(SequenceSpec(n=n, k=2, L=2 ** n - 2 ** (n - 1) // 3))
            t0 = time.perf_counter()
            for _ in itertools.islice(gen, count):
                pass
            best = min(best, (time.perf_counter() - t0) / count)
        return best

    ratio = per_symbol(1024, 2 * 10 ** 4) / per_symbol(64, 10 ** 5)
    assert ratio < 6, ratio
    for L in (2 ** 1024 - 2 ** 1023 // 3, 2 ** 1024 - 1, 2 ** 1024):
        seconds = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            derive_params(1024, 2, L)
            seconds = min(seconds, time.perf_counter() - t0)
        assert seconds < 0.5, (L, seconds)


def test_full_length_window_sets_complete():
    # L == k^n must produce every window exactly once (k^n <= 5000)
    for n, k in [(2, 2), (3, 2), (4, 2), (8, 2), (12, 2),
                 (2, 3), (4, 3), (7, 2), (2, 5), (3, 4), (2, 6)]:
        if k ** n > 5000:
            continue
        seq = collect(SequenceSpec(n=n, k=k, L=k ** n))
        doubled = seq + seq
        windows = {tuple(doubled[i:i + n]) for i in range(k ** n)}
        assert len(windows) == k ** n


def zero_runs_after_lead(window):
    # the lengths of the runs of 0s between the first and the last 1 of a
    # window that ends with 1: the last is the run before the last 1
    text = "".join(map(str, window)).lstrip("0")
    return [len(run) for run in text.split("1")[1:-1]]


def test_probe_class_marks_hold_every_necklace_probe():
    # every binary necklace probe to n = 14 (leading 0, last 1), and the
    # two windows a class change reaches from it: the probe and the probe
    # with its last 1 cleared.  A mark at position j stands for the step
    # that drops position j - 1, whose probe is the window turned to start
    # at j with its last symbol set to 1.  The marks lie within
    # _tail_starts and hold every necklace probe; a marked step that drops
    # a 1 probes a rotation of the window, so the loop decides it by one
    # comparison with the class necklace, which must then be a necklace.
    # The probe is entered with z2 = 0 and with the exact z2 of the class
    # it leaves (its other runs but the one before its last 1); the latter
    # gives the probe's exact z2.  At weight m the probe's class marks only
    # the steps that drop a 1 and probe its necklace: position 0 alone
    # where it is aperiodic
    cases = top_cases = 0
    for n in range(2, 15):
        full = (1 << n) - 1
        for probe in range(1, 1 << (n - 1), 2):
            bits = [probe >> (n - 1 - j) & 1 for j in range(n)]
            if not is_necklace(bits):
                continue
            z0 = n - probe.bit_length()
            zeros = full ^ probe
            runs = zeros & (full >> 1)  # other starts of z0 0s
            for j in range(1, z0):
                runs &= ((zeros << j) & full) | (zeros >> (n - j))
            p = period(bits)
            other = zero_runs_after_lead(bits)
            left_z2 = max(other[:-1], default=0)
            exact = max(other, default=0)
            down = probe - 1
            entries = [(probe, z2, False) for z2 in (0, left_z2)]
            entries += [(probe, 0, True)] + [(down, 0, False)] * (down > 0)
            for alpha, z2, top_weight in entries:
                cases += 1
                marks, neck, z2_out = probe_class_mask_reference(
                    alpha, runs, p, n, z2, top_weight)
                window = [alpha >> (n - 1 - j) & 1 for j in range(n)]
                assert neck == pack(least_rotation(window)), (n, alpha)
                assert not marks & ~engine._tail_starts(full ^ alpha, n), (
                    n, alpha)
                if alpha & 1 and not runs and not top_weight:
                    assert z2_out <= exact, (n, alpha, z2)
                    assert z2 < left_z2 or z2_out == exact, (n, alpha)
                elif not alpha & 1:
                    assert z2_out == 0, (n, alpha)
                for j in range(n):
                    turned = window[j:] + window[:j]
                    necklace = is_necklace(turned[:-1] + [1])
                    marked = marks >> (n - 1 - j) & 1
                    if top_weight:
                        assert marked == bool(necklace and turned[-1]), (
                            n, alpha, j)
                    assert marked or not necklace or top_weight, (
                        n, alpha, j)
                    assert necklace or not (marked and turned[-1]), (
                        n, alpha, j)
                if top_weight:
                    top_cases += 1
                    assert p < n or marks == 1 << (n - 1), (n, alpha)
    assert (cases, top_cases) == (10335, 2587)


def tail_starts_reference(least, n):
    # _tail_starts from its definition, position by position: the starts
    # of the longest runs, or the first (z + 1) // 2 + 1 positions of a
    # single longest run of z
    bits = [least >> (n - 1 - i) & 1 for i in range(n)]
    if all(bits):
        return least

    def run(i):
        z = 0
        while bits[(i + z) % n]:
            z += 1
        return z

    lengths = [run(i) for i in range(n)]
    z = max(lengths)
    marks = [i for i in range(n) if lengths[i] == z]
    if len(marks) == 1:
        marks = [(marks[0] + j) % n for j in range((z + 1) // 2 + 1)]
    return sum(1 << (n - 1 - i) for i in marks)


def test_tail_starts_equals_the_reference():
    # every mask of the least symbol's positions to n = 14
    for n in range(1, 15):
        for least in range(1, 1 << n):
            assert (engine._tail_starts(least, n)
                    == tail_starts_reference(least, n)), (n, least)


def test_tail_scan_equals_the_plain_period_search():
    # every window with k <= 5, n <= 11 and k^n <= 3 * 10^5 whose tail
    # starts with its least symbol v: the later v that the k-ary loop
    # compares, from the scan of the positions of v that it memoises, and
    # p's start value give the period of the plain search over every later
    # v.  The loop compares as here, settling most compares on the symbols
    # after v
    windows = 0
    for k in range(2, 6):
        for n in range(2, 12):
            if k ** n > 3 * 10 ** 5:
                break
            tail_scan = engine._tail_scanner(n)
            for window in itertools.product(range(k), repeat=n):
                v = min(window)
                if window[1] != v:
                    continue
                windows += 1
                later, p = tail_scan(pack([c == v for c in window]))
                while later:
                    b = later.bit_length()  # v at position n - b
                    later ^= 1 << (b - 1)
                    suffix, prefix = window[-b:], window[1:b + 1]
                    if suffix <= prefix:
                        p = n - 1 - b if suffix == prefix else 0
                        break
                assert p == tail_period_reference(window), (k, n, window)
    assert windows == 216636


def test_lone_least_symbol_class_keeps_the_mark_after_it():
    # a step that drops a lone least symbol v changes it only at the
    # window v (v + 1)^(n - 1), to k - 1, so the k-ary loop marks that
    # position only in that window's class.  Successor runs started there,
    # at every L tried where it is on the target cycle, follow iterated
    # kary_step, and most of them take the k - 1
    cases = raised = 0
    for k in (3, 4, 5):
        for n in range(2, 7):
            span = k ** n - k ** (n - 1)
            for L in {k ** n - j * span // 8 for j in range(8)}:
                params = derive_params(n, k, L)
                cuts = cut_set(params.s, n)
                joins = threshold_join(params)
                for v in range(k - 1):
                    word = (v,) + (v + 1,) * (n - 1)
                    if not on_target_cycle(word, params, cuts):
                        continue
                    ref, _ = iterate(
                        word, lambda w: kary_step(w, params, cuts, joins),
                        2 * n)
                    spec = SequenceSpec(n=n, k=k, L=L, mode="successor",
                                        start=word)
                    assert (list(itertools.islice(generate(spec), 2 * n))
                            == ref), (k, n, L, v)
                    cases += 1
                    raised += ref[n] == k - 1
    assert (cases, raised) == (213, 133)


def test_binary_loop_takes_class_marks_from_the_probe(monkeypatch):
    # a class change after a necklace probe takes its marks and necklace
    # from the probe, or, on the way back down, from the stack of classes
    # the walk climbed through, in a block inline in the binary loop, and
    # the loop never calls _tail_starts.  A tracer on the loop's frame
    # reads (alpha, runs, p, z2, the weight, the stack) where that block
    # starts and (cmask, neck, z2, the stack) where it ends.  A step up
    # pushes one entry and must give probe_class_mask_reference's marks; a
    # step down pops one, where there is one, and restores its class:
    # neck is alpha's least rotation, the marks hold every necklace probe
    # of that class, and z2 is no longer than its runs of 0s after the
    # leading run; with the stack empty it marks every position and leaves
    # neck unknown, as a fallback does.
    # The tracer counts the other class changes, which mark every position
    # and clear the stack: the all-0 window, the two windows after the
    # all-1 probe, and marker redirects, which fire at most once from each
    # of the two windows before a marker.  At n = 9, 12 and 16 the loop
    # enters classes with several longest runs of 0s and a period p < n,
    # marked at the multiples of p only, and still follows the tuple rule
    tail_starts_of = engine._tail_starts

    def tail_starts(least, n):
        raise AssertionError("the binary loop called _tail_starts")

    monkeypatch.setattr(engine, "_tail_starts", tail_starts)
    code = engine._binary_symbols.__code__
    # the block runs from the line after its elif to the else: before the
    # fallback, which has no line event of its own
    lines, first = inspect.getsourcelines(engine._binary_symbols)
    text = [line.strip() for line in lines]
    enter = text.index("elif p and 0 < alpha <= low and alpha not in marked:")
    fallback = text.index("cmask, neck, z2 = mask, 0, 0", enter)
    assert text[fallback - 1] == "else:"
    enter += first
    fallback += first
    served, fallbacks = [], []

    def trace_line(frame, event, arg):
        if event != "line":
            return trace_line
        f = frame.f_locals
        if enter < frame.f_lineno < fallback:
            if not served or len(served[-1]) == 2:
                served.append([(f["alpha"], f["runs"], f["p"], f["n"],
                                f["z2"], f.get("w"), f["m"],
                                len(f["stack"]))])
        elif served and len(served[-1]) == 1:
            served[-1].append((f["cmask"], f["neck"], f["z2"],
                               len(f["stack"])))
        elif frame.f_lineno == fallback:
            fallbacks.append(f["alpha"])
        return trace_line

    def trace_call(frame, event, arg):
        return trace_line if frame.f_code is code else None

    restores = []
    for n, L in ((9, 2 ** 9), (12, 3000), (13, 7168), (16, 40000),
                 (16, 2 ** 15 + 1)):
        params = derive_params(n, 2, L)
        cuts = cut_set(params.s, n)
        full = (1 << n) - 1
        for mode in ("counter", "successor"):
            joins = (counter_join if mode == "counter"
                     else threshold_join)(params)
            served.clear()
            fallbacks.clear()
            before = sys.gettrace()
            sys.settrace(trace_call)
            try:
                seq = collect(SequenceSpec(n=n, k=2, L=L, mode=mode))
            finally:
                sys.settrace(before)
            ref, _ = iterate(start_after_zero(params, cuts, joins),
                             lambda w: kary_step(w, params, cuts, joins), L)
            assert seq == ref, (n, L, mode)
            popped = emptied = 0
            for (alpha, runs, p, _, z2, w, m, depth), got in served:
                marks, neck, z2_out, depth_out = got
                if alpha & 1:
                    assert depth_out == depth + 1, (n, L, mode, alpha)
                    assert got[:3] == probe_class_mask_reference(
                        alpha, runs, p, n, z2, w == m - 1), (
                        n, L, mode, alpha, got)
                elif not depth:
                    emptied += 1
                    assert depth_out == 0, (n, L, mode, alpha)
                    assert got[:3] == (full, 0, 0), (n, L, mode, alpha, got)
                else:
                    popped += 1
                    assert depth_out == depth - 1, (n, L, mode, alpha)
                    if not neck:  # a class entered by a fallback
                        assert (marks, z2_out) == (full, 0), (
                            n, L, mode, alpha)
                        continue
                    window = [alpha >> (n - 1 - j) & 1 for j in range(n)]
                    necklace = least_rotation(window)
                    assert neck == pack(necklace), (n, L, mode, alpha)
                    assert not marks & ~tail_starts_of(full ^ alpha, n), (
                        n, L, mode, alpha)
                    assert z2_out <= max(zero_runs_after_lead(necklace),
                                         default=0), (
                        n, L, mode, alpha)
                    for j in range(n):
                        turned = window[j:] + window[:j]
                        assert (marks >> (n - 1 - j) & 1
                                or not is_necklace(turned[:-1] + [1])), (
                            n, L, mode, alpha, j)
            changes = sum(seq[t] != seq[(t + n) % L] for t in range(L))
            assert changes == len(served) + len(fallbacks), (n, L, mode)
            assert changes - len(served) <= 4 + 2 * len(cuts.markers), (
                n, L, mode, changes, len(served))
            assert n == 13 or any(alpha & 1 and runs and p < n
                                  for (alpha, runs, p, *_), _ in served), (
                n, L, mode)
            restores.append((popped, emptied))
    # the steps down that restore their class from the stack, and those
    # that find it empty after a fallback, per (n, L) and mode
    assert restores == [(50, 7)] * 2 + [(254, 0)] * 2 + [(543, 5)] * 2 + [
        (2506, 4)] * 2 + [(2058, 0)] * 2, restores


# --- verify ---------------------------------------------------------------

def test_verify_reference_52():
    report = verify(to_symbols(CUT_N6_L52), 6, 2)
    assert report.ok and report.length == 52


def test_verify_tiny_ok():
    assert verify([0, 0, 1, 1], 2, 2).ok


def test_verify_duplicate_positions():
    report = verify([0, 0, 1, 0, 0], 3, 2)
    assert not report.ok
    window, positions = report.first_duplicate
    assert window == (0, 0, 0)
    assert positions == (4, 5)


def test_verify_out_of_range_symbol(monkeypatch):
    report = verify([0, 1, 2, 0], 2, 2)
    assert not report.ok
    assert report.out_of_range_symbol == 3
    assert report.first_duplicate is None
    # symbols outside a byte, out of range or not, from a stream: the
    # repeated window of the last one sends verify back to its spool
    for symbols in ([0, 1, 300, 0], [0, 1, -1, 0]):
        assert verify(iter(symbols), 2, 2) == report
        assert verify(iter(symbols), 2, 257) == verify_reference(symbols, 2,
                                                                 257)
    symbols = [0, 2 ** 70, 1, 2 ** 70]
    report = verify(iter(symbols), 1, 2 ** 71)
    assert report == verify_reference(symbols, 1, 2 ** 71)
    assert report.first_duplicate == ((2 ** 70,), (2, 4))
    # a symbol out of range in the first n - 1 symbols, in a later block
    # of a stream after a repeated window, and in two blocks, of which
    # only the first is reported: in the table (k = 2) and the dict
    # (k = 2^64 + 3), as a list, as bytes where the symbols fit, and as a
    # stream.  The marking pass decides alone: the passes that look for
    # the repeat never run.
    passes = []
    window_values = engine._window_values

    def counted(*args):
        passes.append(args)
        return window_values(*args)

    monkeypatch.setattr(engine, "_window_values", counted)
    seq = collect(SequenceSpec(n=12, k=2, L=3000))
    twice = seq[:1500] + seq[100:1600]  # position 1501 repeats window 101
    for k in (2, 2 ** 64 + 3):
        for bad in (-1, k):
            for where, positions in ((seq, (4,)), (twice, (2500,)),
                                     (twice, (700, 2100)), (seq, (3, 1030))):
                symbols = list(where)
                for pos in positions:
                    symbols[pos] = bad
                want = verify_reference(symbols, 12, k)
                assert want.out_of_range_symbol == positions[0] + 1
                inputs = [symbols, iter(symbols)]
                if 0 <= bad < 256:
                    inputs.append(bytes(symbols))
                for seq_in in inputs:
                    assert verify(seq_in, 12, k) == want, (k, bad, positions)
    assert not passes
    # k = 4, with a symbol out of range in a later piece, as a list, a
    # stream and an array('H'), which must be read by value, not as the raw
    # bytes of its 2-byte items
    piece = engine._LANE
    seq = collect(SequenceSpec(n=8, k=4, L=4 ** 8))
    assert verify(array("H", seq), 8, 4, expected_len=4 ** 8).ok
    for pos in (piece + 3, 2 * piece + 5):
        for bad in (-1, 4, 300):
            symbols = list(seq)
            symbols[pos] = bad
            want = verify_reference(symbols, 8, 4)
            assert want.out_of_range_symbol == pos + 1
            inputs = [symbols, iter(symbols)]
            if bad >= 0:
                inputs.append(array("H", symbols))
            for seq_in in inputs:
                assert verify(seq_in, 8, 4) == want, (pos, bad)


def test_verify_length_mismatch():
    report = verify([0, 0, 1, 1], 2, 2, expected_len=5)
    assert not report.ok and report.length == 4
    assert report.first_duplicate is None


def test_verify_shorter_than_window():
    assert verify([0, 1], 3, 2).ok
    report = verify([0, 0], 3, 2)
    assert not report.ok  # cyclic windows 000 at positions 1 and 2
    assert report.first_duplicate == ((0, 0, 0), (1, 2))


class IndexOnly:
    """A symbol with only __index__: bytes() takes it, nothing compares or
    adds it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class OverflowsOnAdd(IndexOnly):
    """A symbol that compares like an int but, like a NumPy int beside a
    Python int beyond 64 bits, raises OverflowError when one is added."""

    def __lt__(self, other):
        return self.value < other

    def __gt__(self, other):
        return self.value > other

    def __le__(self, other):
        return self.value <= other

    def __ge__(self, other):
        return self.value >= other

    def __radd__(self, other):
        raise OverflowError("Python int too large to convert")


def test_verify_rejects_bad_order_or_alphabet():
    with pytest.raises(ValueError, match="n >= 1"):
        verify([0, 1, 1], 0, 2)
    with pytest.raises(ValueError, match="k >= 2"):
        verify([0, 0], 2, 1)
    for n, k in ((2.0, 2), (2, 2.0), ("2", 2)):
        with pytest.raises(ValueError, match="ints"):
            verify([0, 1, 1, 0], n, k)
    for expected_len in ("4", 4.0):
        with pytest.raises(ValueError, match="expected_len"):
            verify([0, 1, 1, 0], 2, 2, expected_len=expected_len)
    # symbols that are not ints, as a list (read in place) and as an
    # iterator (spooled), in the window table (n = 2) and the dict (k huge),
    # with stand-ins for NumPy ints last; bools are ints
    for symbols in ([0.5, 1, 0.5], [0.5, 1, 0, 1], [0, 1, 1.0, 0], "0110",
                    [0, 1, "1", 0], [0, 1, 1, 0, 0, 1j],
                    [0, 1, IndexOnly(1), 0], [0, 1, OverflowsOnAdd(1), 0]):
        for n, k in ((2, 2), (1, 10 ** 12)):
            for seq in (symbols, iter(symbols)):
                with pytest.raises(ValueError, match="must be ints"):
                    verify(seq, n, k)
    # a non-int beside an out-of-range symbol, in either order, or in a
    # later block of a stream (above a byte, so the spool keeps the list)
    # or of blocks read in place, which the spool does not check
    for symbols in ([0.5, 3], [3, 0.5], [3] + [0] * 2000 + [300, 0.5]):
        for seq in (symbols, iter(symbols),
                    engine._Blocks([symbols[:-2], symbols[-2:]])):
            with pytest.raises(ValueError, match="must be ints"):
                verify(seq, 1, 2)
    # a symbol above a byte keeps a block out of the spool's bytes()
    with pytest.raises(ValueError, match="must be ints"):
        verify(iter([300, 0.5, 1, 0.5]), 1, 10 ** 12)
    # k = 4 lists longer than two pieces, with the symbol that is no int in
    # a later piece: one bytes() would take, and a float after a symbol out
    # of range, which must not end the checks
    piece = engine._LANE
    seq = collect(SequenceSpec(n=8, k=4, L=4 ** 8))[:3 * piece]
    for planted in ({2 * piece + 5: IndexOnly(1)},
                    {piece + 3: 4, 2 * piece: 0.5}):
        symbols = list(seq)
        for pos, bad in planted.items():
            symbols[pos] = bad
        for seq_in in (symbols, iter(symbols)):
            with pytest.raises(ValueError, match="must be ints"):
                verify(seq_in, 8, 4)
    assert verify([False, True, True, False], 2, 2).ok
    assert verify(iter([False, True, True, False]), 2, 2).ok


def test_verify_rejects_numpy_ints():
    # a NumPy int beside a value beyond 64 bits raised OverflowError, and a
    # NumPy array, read as a stream, reached the marks through the spool's
    # bytes() as ints
    np = pytest.importorskip("numpy")
    for symbols in ([0, 1, np.int64(1), 0], np.array([0, 1, 1, 0])):
        for k in (2, 2 ** 40):
            for seq in (symbols, iter(symbols)):
                with pytest.raises(ValueError, match="must be ints"):
                    verify(seq, 2, k)


def test_verify_rejects_empty():
    with pytest.raises(ValueError):
        verify([], 3, 2)


def test_verify_detects_wraparound_duplicates():
    # 0110 for n=2: windows 01, 11, 10, 00 ok; 0101 duplicates 01 cyclically
    assert verify([0, 1, 1, 0], 2, 2).ok
    report = verify([0, 1, 0, 1], 2, 2)
    assert not report.ok
    assert report.first_duplicate == ((0, 1), (1, 3))


# --- verify against the dict-based reference ------------------------------

def test_verify_equals_reference_exhaustively():
    # every sequence over {0, 1, 2} of length 1..8, at k = 2 (some symbols
    # out of range), k = 3 and k = 2^64 + 3, n = 1..4: L < n, L > k^n,
    # wraparound duplicates; the small alphabets mostly reach the table, the
    # large one the dict.  k = 3 also as bytes, and k = 3 and 2^64 + 3 as
    # a one-shot iterator.  To length 6 also in blocks of one symbol, so the
    # first n - 1 symbols span several blocks
    big = 2 ** 64 + 3
    for length in range(1, 9):
        for seq in itertools.product(range(3), repeat=length):
            for n in range(1, 5):
                for k in (2, 3, big):
                    want = verify_reference(seq, n, k, expected_len=5)
                    got = verify(seq, n, k, expected_len=5)
                    assert got == want, (seq, n, k)
                    if length <= 6:
                        ones = engine._Blocks([seq[i:i + 1]
                                               for i in range(length)])
                        assert verify(ones, n, k, expected_len=5) == want, (
                            seq, n, k)
                want = verify_reference(seq, n, 3)
                assert verify(bytes(seq), n, 3) == want
                assert verify(iter(seq), n, 3) == want
                want = verify_reference(seq, n, big)
                assert verify(iter(seq), n, big) == want, (seq, n)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_equals_reference_on_planted_faults(data):
    # a generated cut-down sequence (in full when L <= 2^14, else its
    # first 2^14 symbols), with a window copied over another or a symbol
    # out of range
    k = data.draw(st.sampled_from([2, 2, 3, 4]), label="k")
    n = data.draw(st.integers(2, 24 if k == 2 else 12), label="n")
    L = data.draw(st.integers(k ** (n - 1) + 1, k ** n), label="L")
    seq = list(itertools.islice(generate(SequenceSpec(n=n, k=k, L=L)),
                                2 ** 14))
    length = len(seq)
    fault = data.draw(st.sampled_from(["none", "duplicate", "symbol"]),
                      label="fault")
    if fault == "duplicate":
        src = data.draw(st.integers(0, length - 1), label="src")
        dst = data.draw(st.integers(0, length - 1), label="dst")
        window = [seq[(src + j) % length] for j in range(n)]
        for j in range(min(n, length)):
            seq[(dst + j) % length] = window[j]
    elif fault == "symbol":
        pos = data.draw(st.integers(0, length - 1), label="pos")
        seq[pos] = data.draw(st.integers(k, 255), label="bad")
    want = verify_reference(seq, n, k, expected_len=L)
    assert verify(seq, n, k, expected_len=L) == want
    assert verify(bytes(seq), n, k, expected_len=L) == want
    assert verify(iter(seq), n, k, expected_len=L) == want
    if fault == "none" and length == L:
        assert want.ok


@pytest.mark.parametrize("k, n", [(2, n) for n in (1, 8, 9, 16, 17, 32, 33,
                                                     64, 65)]
                         + [(4, n) for n in (4, 5, 8, 9, 16)]
                         + [(16, n) for n in range(1, 6)])
def test_verify_lanes_equal_the_reference_at_every_edge(monkeypatch, k, n):
    # the lanes at the edges of their widths (n = 65 at k = 2 is past them,
    # on the rolling loop), at lengths on either side of a piece of _LANE
    # symbols, against the reference, with a window copied over the last
    # window of a piece, one across a piece boundary, one across a block
    # boundary of a stream and a wraparound window, or over none; as a
    # list, bytes, a stream, and blocks of bytes as cutdown verify reads
    # them, of 64 KiB and of 1000 symbols.  A report can hide a window the
    # lanes drop or mismark where the input repeats one anyway, so the
    # marks, kept by the spy, must also be exactly the cyclic windows
    tables = []
    lane_marker = engine._lane_marker

    def spy(n, k, seen):
        tables.append(seen)
        return lane_marker(n, k, seen)

    monkeypatch.setattr(engine, "_lane_marker", spy)
    piece = engine._LANE
    # a full sequence, or the longest input's prefix of one
    full = (list(itertools.islice(generate(SequenceSpec(n=n, k=k, L=k ** n)),
                                  2 * piece + n)) if n > 1 else list(range(k)))
    for length in (piece - 1, piece, piece + 1, piece + n - 1,
                   2 * piece + n):
        base = list(itertools.islice(itertools.cycle(full), length))
        for dst in (None, piece - 1, piece - (n + 1) // 2,
                    3 * 1024 - (n + 1) // 2, length - (n + 1) // 2):
            seq = list(base)
            if dst is not None:
                for j in range(n):
                    seq[(dst + j) % length] = base[100 + j]
            want = verify_reference(seq, n, k)
            windows = set(engine._window_values([seq], n, k))
            data = bytes(seq)
            for seq_in in (seq, data, iter(seq),
                           engine._Blocks([data[i:i + 2 ** 16] for i in
                                           range(0, length, 2 ** 16)]),
                           engine._Blocks([data[i:i + 1000] for i in
                                           range(0, length, 1000)])):
                tables.clear()
                assert verify(seq_in, n, k) == want, (length, dst)
                (seen,) = tables
                marked = (set(seen) if isinstance(seen, dict)
                          else len(seen) - seen.count(0))
                assert marked == (windows if isinstance(seen, dict)
                                  else len(windows)), (length, dst)
                assert all(seen[v] for v in windows)


def test_verify_reads_arrays_and_ranges_in_place(monkeypatch):
    # neither is spooled, on the accepting or the rejecting path: a
    # temporary file cannot be made here, which only a stream notices
    def no_file(*args, **kwargs):
        raise OSError("no temporary file")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
    seq = collect(SequenceSpec(n=6, k=2, L=46))
    bad = seq[:-1] + [1 - seq[-1]]
    assert verify(array("B", seq), 6, 2, expected_len=46).ok
    assert verify(array("B", bad), 6, 2) == verify_reference(bad, 6, 2)
    assert not verify(array("B", bad), 6, 2).ok
    assert verify(range(7), 1, 7, expected_len=7).ok
    assert verify(range(0, 9, 3), 2, 9).ok
    assert verify(range(4), 1, 3) == verify_reference(range(4), 1, 3)
    with pytest.raises(OSError, match="no temporary file"):
        verify(iter(seq), 6, 2)


def test_verify_short_input_allocates_no_table():
    # k^n = 2^40 bytes would not fit; a 2-symbol input gets a dict instead,
    # also when its length is not known before it ends.  At n = 1 the
    # table would take k bytes, more than a dict of one or two windows.
    for symbols, n, k, length in (([0, 1], 40, 2, 2), (iter([0, 1]), 40, 2, 2),
                                  ([0], 1, 2 ** 64 + 3, 1),
                                  (iter([5, 7]), 1, 10 ** 12, 2)):
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            report = verify(symbols, n, k)
            seconds = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.length == length
        assert peak < 2 ** 16 and seconds < 0.5


def test_verify_memory_is_bounded_by_the_table():
    # a full n = 16 binary sequence, accepted and with its last symbol
    # flipped, as a list and streamed from generate: the 64 KiB table and
    # O(n + block) state on both paths, where the {window: position} dict
    # took about 7 MB (tracemalloc slows the verifier's int arithmetic too
    # much for a larger n here)
    n = 16
    spec = SequenceSpec(n=n, k=2, L=2 ** n)
    seq = collect(spec)
    bad = seq[:-1] + [1 - seq[-1]]

    def flipped():
        yield from itertools.islice(seq, 2 ** n - 1)
        yield 1 - seq[-1]

    # a stream a little shorter than k^n gets the table too, and so does
    # one at k = 257, n = 2 that decides only in its second block
    short = collect(SequenceSpec(n=n, k=2, L=2 ** n - 5))
    wide = collect(SequenceSpec(n=2, k=257, L=257 ** 2))
    # and a k = 4, n = 8 sequence, on the lanes 16 bits wide; bytes and a
    # bytearray are read in slices, as a list is
    seq4 = collect(SequenceSpec(n=8, k=4, L=4 ** 8))
    peaks, reports = [], []
    for symbols, order, k, L in (
            (seq, n, 2, 2 ** n), (bad, n, 2, 2 ** n),
            (generate(spec), n, 2, 2 ** n), (flipped(), n, 2, 2 ** n),
            (iter(short), n, 2, len(short)), (iter(wide), 2, 257, len(wide)),
            (seq4, 8, 4, 4 ** 8), (iter(seq4), 8, 4, 4 ** 8),
            (bytes(seq), n, 2, 2 ** n), (bytearray(seq), n, 2, 2 ** n)):
        tracemalloc.start()
        try:
            reports.append(verify(symbols, order, k, expected_len=L))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert reports[0].ok and reports[2].ok and reports[4].ok
    assert reports[5].ok and reports[6].ok and reports[7].ok
    assert reports[8].ok and reports[9].ok
    assert reports[1] == verify_reference(bad, n, 2, expected_len=2 ** n)
    assert reports[3] == reports[1]
    assert not reports[1].ok and reports[1].first_duplicate is not None
    assert max(peaks) < 2 * 2 ** n, peaks


def test_verify_spools_a_binary_stream_at_8_symbols_a_byte(monkeypatch):
    # a stream of 0s and 1s is spooled at 8 symbols a byte, with its
    # length: an accepted full n = 16 sequence fills at most L / 8 bytes
    # and 16 more a 1024-symbol block, for pickle's framing.  A rejected
    # one is read back from that spool, and a k = 3 stream whose blocks
    # mix the packed form with bytes is too, ending in a short block
    sizes = []
    temporary_file = tempfile.TemporaryFile

    @contextlib.contextmanager
    def measured(*args, **kwargs):
        with temporary_file(*args, **kwargs) as file:
            yield file
            sizes.append(file.seek(0, 2))

    monkeypatch.setattr(tempfile, "TemporaryFile", measured)
    n = 16
    L = 2 ** n
    assert verify(generate(SequenceSpec(n=n, k=2, L=L)), n, 2,
                  expected_len=L).ok
    assert sizes == [sizes[0]] and 0 < sizes[0] <= L // 8 + 16 * L // 1024, (
        sizes)
    seq = collect(SequenceSpec(n=12, k=2, L=3000))
    for t in (0, 1500, 2999):
        bad = seq[:t] + [1 - seq[t]] + seq[t + 1:]
        report = verify(iter(bad), 12, 2)
        assert report == verify(bad, 12, 2), t
        assert report.first_duplicate is not None, t
    mixed = seq[:2048] + [2] + seq[:700]
    assert verify(iter(mixed), 12, 3) == verify_reference(mixed, 12, 3)
    assert not verify(iter(mixed), 12, 3).ok
