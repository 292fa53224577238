import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

from dpuc import quant


def round_half_away_oracle(value, shift):
    # Fraction-based reimplementation, independent of the bit tricks.
    x = Fraction(int(value)) * Fraction(2) ** shift
    floor = x.numerator // x.denominator
    frac = x - floor
    if frac > Fraction(1, 2):
        return floor + 1
    if frac < Fraction(1, 2):
        return floor
    return floor + 1 if x > 0 else floor


def test_step_exponent_accepts_powers_of_two():
    assert quant.step_exponent(1.0) == 0
    assert quant.step_exponent(0.25) == -2
    assert quant.step_exponent(8.0) == 3


@pytest.mark.parametrize("bad", [0.0, -1.0, 0.3])
def test_step_exponent_rejects_non_powers(bad):
    with pytest.raises(ValueError):
        quant.step_exponent(bad)


def test_half_away_ties():
    assert quant.shift_round_half_away(np.array([5]), -1)[0] == 3
    assert quant.shift_round_half_away(np.array([-5]), -1)[0] == -3
    assert quant.shift_round_half_away(np.array([2]), -2)[0] == 1
    assert quant.shift_round_half_away(np.array([-2]), -2)[0] == -1


@given(st.integers(-(2**31), 2**31 - 1), st.integers(-12, 6))
def test_shift_matches_fraction_oracle(value, shift):
    got = int(quant.shift_round_half_away(np.array([value]), shift)[0])
    assert got == round_half_away_oracle(value, shift)


@st.composite
def acc_and_shift(draw):
    """An int64 array mixing random values in [-2**31, 2**31], exact ties
    of the drawn shift (odd multiples of 2**(k-1)), zeros and the int32
    edges, both signs."""
    shift = draw(st.integers(-20, 6))
    k = max(-shift, 1)
    tie = st.integers(-(2**(31 - k)), 2**(31 - k) - 1).map(
        lambda m: (2 * m + 1) << (k - 1))
    edge = st.sampled_from([0, 1, -1, 2**31, -(2**31), 2**31 - 1,
                            -(2**31) + 1])
    values = draw(st.lists(st.one_of(st.integers(-(2**31), 2**31), tie,
                                     edge), min_size=1, max_size=64))
    return np.array(values, np.int64), shift


@given(acc_and_shift())
def test_shift_and_requantize_match_oracle_on_arrays(case):
    acc, shift = case
    before = acc.copy()
    got = quant.shift_round_half_away(acc, shift)
    expect = [round_half_away_oracle(v, shift) for v in acc.tolist()]
    assert got.dtype == np.int64 and got.tolist() == expect
    out = quant.requantize(acc, shift)
    assert out.dtype == np.int8
    assert out.tolist() == [min(max(v, quant.INT8_MIN), quant.INT8_MAX)
                            for v in expect]
    assert np.array_equal(acc, before)   # the input is left untouched


@given(st.integers(-(2**20), 2**20), st.integers(-8, 0))
def test_requantize_saturates(value, shift):
    out = int(quant.requantize(np.array([value]), shift)[0])
    assert quant.INT8_MIN <= out <= quant.INT8_MAX


def int32_top(shift):
    """Largest |acc| that accumulator_dtype lets into int32 at shift."""
    return 2**31 - 1 - (1 << (-shift - 1) if shift < 0 else 0)


@st.composite
def int32_acc_and_shift(draw):
    """Values inside the int32 bound of a shift in [-30, 8]: random ones,
    the bound itself, exact ties (odd multiples of 2**(k-1)) and values
    next to the edges where the int8 result saturates, both signs."""
    shift = draw(st.integers(-30, 8))
    top = int32_top(shift)
    near = st.sampled_from([-1, 0, 1])
    pool = [st.integers(-top, top), st.sampled_from([top, -top, 0])]
    if shift < 0:
        k = -shift
        half = 1 << (k - 1)
        pool.append(st.integers(-(2**(31 - k)), 2**(31 - k) - 1).map(
            lambda m: (2 * m + 1) * half))
        # m·2**k rounds to m; the edges are m = -129, -128, 127, 128
        pool.append(st.tuples(st.integers(-130, 129),
                              st.sampled_from([-half, 0, half]), near).map(
            lambda t: (t[0] << k) + t[1] + t[2]))
    else:
        # v·2**shift crosses 127 and -128 at v = ±(128 >> shift)
        pool.append(st.tuples(st.integers(-130, 129), near).map(
            lambda t: (t[0] >> shift) + t[1]))
    values = draw(st.lists(st.one_of(*pool), min_size=1, max_size=64))
    return [max(-top, min(top, v)) for v in values], shift


@given(int32_acc_and_shift())
def test_requantize_int32_matches_int64(case):
    values, shift = case
    acc32 = np.array(values, np.int32)
    got = quant.requantize(acc32, shift)
    assert got.dtype == np.int8
    assert got.tolist() == quant.requantize(
        np.array(values, np.int64), shift).tolist()
    assert got.tolist() == [
        min(max(round_half_away_oracle(v, shift), quant.INT8_MIN),
            quant.INT8_MAX) for v in values]
    assert acc32.tolist() == values      # the input is left untouched
    if shift < 0:
        assert quant.shift_round_half_away(acc32, shift).dtype == np.int32


@given(st.integers(-30, 8), st.integers(0, 2**17), st.booleans())
def test_accumulator_dtype_is_int32_up_to_its_bound(shift, terms, negative):
    # terms·2**14 + max|bias| + half = 2**31 - 1 is the last int32 case
    top = int32_top(shift)
    terms = min(terms, top >> 14)
    bias = (top - (terms << 14)) * (-1 if negative else 1)
    assert quant.accumulator_dtype(terms, [0, bias], shift) == np.int32
    step = -1 if negative else 1
    assert quant.accumulator_dtype(terms, [0, bias + step], shift) \
        == np.int64
    assert quant.accumulator_dtype(terms + 1, [0, bias], shift) == np.int64


def test_accumulator_dtype_past_int32_shifts():
    # half = 2**30 still fits with nothing else; half = 2**31 never does
    assert quant.accumulator_dtype(0, 0, -31) == np.int32
    assert quant.accumulator_dtype(0, 0, -32) == np.int64


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_requantize_saturates_before_a_large_left_shift(dtype):
    # 2**31 - 1 shifted by 40 overflows int64; saturating first cannot
    acc = np.array([2**31 - 1, -(2**31 - 1), 1, -1, 0], dtype)
    assert quant.requantize(acc, 40).tolist() == [127, -128, 127, -128, 0]


def test_eltwise_add_aligns_scales():
    # 3 * 2^0 + 5 * 2^-1 = 5.5 at scale 2^-1 -> 11
    a = np.array([3], dtype=np.int32)
    b = np.array([5], dtype=np.int32)
    out = quant.eltwise_add(a, b, exp_a=0, exp_b=-1, out_exp=-1)
    assert out[0] == 11


def test_eltwise_add_requantizes_to_coarser_output():
    # 1 * 2^-2 + 1 * 2^-2 = 0.5; at output scale 2^0 -> round(0.5) = 1
    out = quant.eltwise_add(np.array([1]), np.array([1]), -2, -2, 0)
    assert out[0] == 1
