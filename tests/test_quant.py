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
