"""Cut parameters, marker words, and cut sets."""

import random
import time

import pytest

from cutdown.counting import count_weight_at_most, count_weight_period_at_most
from cutdown.cutplan import CutSet, cut_set, derive_params, marker_word
from cutdown.words import weight

from refdata import derive_params_reference, to_word


@pytest.mark.parametrize("n, k, L, expected", [
    (6, 2, 46, (4, 6, 1, 5)),
    (6, 2, 52, (4, 6, 2, 5)),
    (6, 2, 64, (6, 1, 1, 0)),
])
def test_derive_params_examples(n, k, L, expected):
    params = derive_params(n, k, L)
    assert (params.m, params.h, params.t, params.s) == expected


@pytest.mark.parametrize("n, k, L", [
    (6, 2, 32), (6, 2, 65), (6, 2, 0), (3, 4, 16), (3, 4, 65),
    (1, 2, 2), (4, 1, 1),
    (4, 2, 12.5), (4.0, 2, 12), (4, 2.0, 12), (4, 2, None),
])
def test_derive_params_rejects_out_of_range(n, k, L):
    if not all(isinstance(x, int) for x in (n, k, L)):
        match = "must be ints"
    elif k < 2:
        match = "need n >= 1 and k >= 2"
    elif n < 2:
        match = "need n >= 2 and k >= 2"
    else:
        match = "<"
    with pytest.raises(ValueError, match=match):
        derive_params(n, k, L)


def test_derive_params_error_names_interval():
    with pytest.raises(ValueError, match=r"32 < L <= 64"):
        derive_params(6, 2, 20)


@pytest.mark.parametrize("n", range(2, 13))
def test_derive_params_invariants_binary(n):
    for L in range(2 ** (n - 1) + 1, 2 ** n + 1):
        p = derive_params(n, 2, L)
        a_prev = count_weight_at_most(p.m - 1, n, 2)
        assert a_prev < L <= count_weight_at_most(p.m, n, 2)
        c_prev = count_weight_period_at_most(p.m, p.h - 1, n, 2)
        assert a_prev + c_prev < L
        assert a_prev + count_weight_period_at_most(p.m, p.h, n, 2) >= L
        assert p.t >= 1
        assert a_prev + c_prev + p.t * p.h >= L
        assert a_prev + c_prev + (p.t - 1) * p.h < L
        assert p.s == a_prev + c_prev + p.t * p.h - L
        assert 0 <= p.s < p.h <= n


def test_derive_params_m_equals_the_linear_search():
    # m is found by a binary search on A(m), words of weight <= m; it is
    # the least m with A(m) >= L, as a step-by-step search finds it
    for n, k in [(2, 2), (7, 2), (3, 3), (5, 4), (2, 10), (4, 6), (2, 37)]:
        for L in range(k ** (n - 1) + 1, k ** n + 1):
            m = 0
            while count_weight_at_most(m, n, k) < L:
                m += 1
            assert derive_params(n, k, L).m == m, (n, k, L)


def test_derive_params_equals_the_search_over_every_period():
    # h is found among the divisors of n; the reference tries every h
    cases = [(n, 2, L) for n in range(2, 11)
             for L in range(2 ** (n - 1) + 1, 2 ** n + 1)]
    cases += [(n, k, L) for k in range(3, 6) for n in range(2, 6)
              for L in range(k ** (n - 1) + 1, k ** n + 1)]
    rng = random.Random(16)
    for _ in range(100):
        n, k = rng.randint(2, 200), rng.randint(2, 5)
        cases.append((n, k, rng.randint(k ** (n - 1) + 1, k ** n)))
    for n, k, L in cases:
        assert derive_params(n, k, L) == derive_params_reference(n, k, L), (
            n, k, L)


def test_derive_params_is_fast_for_a_huge_alphabet():
    # the step-by-step search made 2 * 10^5 counts, 0.24 s on a 2-vCPU VM
    t0 = time.perf_counter()
    params = derive_params(2, 10 ** 5, 10 ** 10 - 5)
    seconds = time.perf_counter() - t0
    assert (params.m, params.h, params.t, params.s) == (199996, 1, 1, 0)
    assert seconds < 0.05, seconds


@pytest.mark.parametrize("n, k, L, expected", [
    (2, 10 ** 5, 10 ** 5 + 1, (446, 2, 160, 1)),
    (3, 10 ** 4, 10 ** 8 + 1, (842, 3, 51319, 0)),
])
def test_derive_params_is_fast_at_the_low_end_of_a_huge_alphabet(n, k, L,
                                                                  expected):
    # the bisection for m makes about log2((k-1)n) counts; a walk of the
    # weights down from (k-1)n took 0.23 s and 0.03 s on a 2-vCPU VM
    t0 = time.perf_counter()
    params = derive_params(n, k, L)
    seconds = time.perf_counter() - t0
    assert (params.m, params.h, params.t, params.s) == expected
    assert seconds < 0.05, seconds


@pytest.mark.parametrize("i, n, expected", [
    (3, 6, "001001"),
    (2, 6, "010101"),
    (4, 8, "00010001"),
    (4, 11, "00100010001"),
    (1, 6, "000000"),
])
def test_marker_word_examples(i, n, expected):
    assert marker_word(i, n) == to_word(expected)


def test_marker_word_rejects_uncuttable_sizes():
    with pytest.raises(ValueError):
        marker_word(4, 6)  # ceil(6/2) == 3
    with pytest.raises(ValueError):
        marker_word(7, 11)


def test_marker_word_rejects_orders_below_1():
    # these used to return ()
    for n in (0, -3):
        with pytest.raises(ValueError, match="n >= 1"):
            marker_word(1, n)
    assert marker_word(1, 1) == (0,)


@pytest.mark.parametrize("n", range(2, 16))
def test_marker_word_lies_on_its_small_cycle(n):
    # reading n symbols of the infinite repetition of the small-cycle pattern
    # (the all-zero cycle for i == 1, else 0^(i-1) 1) from some offset must
    # reproduce the marker
    for i in range(1, (n + 1) // 2 + 1):
        word = marker_word(i, n)
        assert len(word) == n
        base = (0,) if i == 1 else (0,) * (i - 1) + (1,)
        windows = {tuple(base[(j + d) % i] for d in range(n))
                   for j in range(i)}
        assert word in windows
        if i == 1:
            assert weight(word) == 0
        else:
            assert weight(word) in ((n // i), (n // i) + 1)
            assert weight(word) <= (n + 1) // 2


@pytest.mark.parametrize("s, n, markers", [
    (5, 6, ("001001", "010101")),
    (2, 6, ("010101",)),
    (0, 6, ()),
])
def test_cut_set_examples(s, n, markers):
    cs = cut_set(s, n)
    assert cs.markers == tuple(to_word(m) for m in markers)
    assert cs.total() == s


@pytest.mark.parametrize("n", range(2, 16))
def test_cut_set_properties(n):
    for s in range(n):
        cs = cut_set(s, n)
        assert isinstance(cs, CutSet)
        assert cs.total() == s
        assert len(cs.markers) == len(cs.sizes) <= 2
        if len(cs.markers) == 2:
            i1, i2 = cs.sizes
            assert i1 != i2 and i1 >= 1 and i2 >= 1
            # window sets of the two small cycles must not intersect
            def windows(i):
                base = (0,) * (i - 1) + (1,)
                return {tuple(base[(j + d) % i] for d in range(n))
                        for j in range(i)}
            assert not windows(i1) & windows(i2)
    for s in (-1, n):
        with pytest.raises(ValueError, match="surplus"):
            cut_set(s, n)


def test_cut_set_and_marker_word_reject_non_ints():
    # cut_set(1.0, 4) used to return sizes=(1.0,), and marker_word(2.0, 4)
    # raised TypeError
    for s, n in ((1.0, 4), (1, 4.0), ("1", 4)):
        with pytest.raises(ValueError, match="must be ints"):
            cut_set(s, n)
    for i, n in ((2.0, 4), (1.0, 4), (2, 4.0), (1, "4")):
        with pytest.raises(ValueError, match="must be ints"):
            marker_word(i, n)
    assert cut_set(True, 4) == CutSet(markers=((0, 0, 0, 0),), sizes=(1,))
    assert marker_word(True, 3) == (0, 0, 0)
