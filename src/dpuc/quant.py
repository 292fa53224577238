"""Fixed-point arithmetic model used by every execution path.

All tensors are int8 with a power-of-two scale (real value = int8 * step).
A conv sums K = kh·kw·c_in int8 products, each at most 2**14 in magnitude,
plus an int32 bias, and the data oracles check that K·2**14 < 2**53.  Its
accumulator is int32 when `accumulator_dtype` proves that the sum and the
rounding of `requantize` fit there, else int64; `requantize` computes in
the dtype it is given, with the same result in either.  Requantization
multiplies by the ratio of scales, rounds half away from zero, and
saturates to [-128, 127].  Keeping every rounding decision in this module
lets the policy be swapped in one place.
"""

import math

import numpy as np

INT8_MIN = -128
INT8_MAX = 127


def step_exponent(step):
    """Return e with step == 2**e, or raise ValueError.

    Scales are required to be powers of two so that every requantization
    is a shift; this is what makes the reference executor and the
    instruction-level simulator bit-compatible.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    e = math.log2(step)
    r = round(e)
    if abs(e - r) > 1e-9:
        raise ValueError(f"step {step} is not a power of two")
    return int(r)


def _as_accumulator(acc):
    """acc as an int32 array if it is one, else as an int64 array."""
    acc = np.asarray(acc)
    return acc if acc.dtype == np.int32 else acc.astype(np.int64, copy=False)


def shift_round_half_away(acc, shift):
    """Multiply int32 or int64 values by 2**shift with round-half-away-from-
    zero, in int32 for int32 values and in int64 for any other.

    shift >= 0 is an exact left shift; shift < 0 divides by 2**k, k = -shift,
    and rounds ties away from zero (so -2.5 -> -3, 2.5 -> 3).  For acc >= 0
    that is floor((acc + half) / 2**k) with half = 2**(k-1); for acc < 0 it
    is ceil((acc - half) / 2**k) = floor((acc - half + 2**k - 1) / 2**k),
    and 2**k - half = half, so both signs are (acc + half - (acc < 0)) >> k.
    acc + half must fit the dtype.  Returns a new array; acc is not
    modified.
    """
    acc = _as_accumulator(acc)
    if shift >= 0:
        return acc << shift
    k = -shift
    out = acc + acc.dtype.type(1 << (k - 1))
    out -= acc < 0
    out >>= k
    return out


def accumulator_dtype(terms, bias, shift):
    """np.int32 for an accumulator of `terms` int8 products plus a value of
    `bias` (an int or an array of them) when it fits int32 through
    `requantize(acc, shift)`, else np.int64.

    Such an accumulator has magnitude at most terms·2**14 + max|bias|.  A
    shift < 0 adds half = 2**(k-1), k = -shift, before its right shift,
    so int32 holds iff terms·2**14 + max|bias| + half < 2**31.  A shift
    >= 0 saturates before it shifts, so it adds nothing to the bound.
    """
    top = terms * 2**14 + int(np.abs(np.asarray(bias, np.int64)).max(
        initial=0))
    if shift < 0:
        top += 1 << (-shift - 1)
    return np.int32 if top < 2**31 else np.int64


def requantize(acc, shift):
    """int32 or int64 accumulator -> int8 at the target scale, computed in
    the accumulator's dtype (int64 for any other integer dtype).

    shift is the exponent of the scale ratio (source scale / target scale),
    i.e. result = sat(round(acc * 2**shift)).  An int32 accumulator must
    lie inside the `accumulator_dtype` bound for this shift.  For shift >=
    0 the values saturate first: sat(x·2**s) = sat(sat(x)·2**s), and a
    shift past 8 moves every nonzero int8 out of range just as 8 does, so
    the shift cannot overflow.
    """
    if shift >= 0:
        out = np.clip(_as_accumulator(acc), INT8_MIN, INT8_MAX)
        out <<= min(shift, 8)
    else:
        out = shift_round_half_away(acc, shift)
    np.clip(out, INT8_MIN, INT8_MAX, out=out)
    return out.astype(np.int8)


def conv_shift(in_exp, wgt_exp, out_exp):
    """Scale-ratio exponent from a conv accumulator to its output tensor.

    The accumulator of an int8 conv lives at scale 2**(in_exp + wgt_exp);
    biases are stored pre-scaled to the accumulator scale.
    """
    return in_exp + wgt_exp - out_exp


def eltwise_exponents(exp_a, exp_b, out_exp):
    """Alignment exponents for a two-operand add.

    Both operands are brought to the finest common scale exactly, summed in
    int64, then requantized once.  Returns (ea, eb, eo): operand left-shifts
    and the final requantization shift.
    """
    common = min(exp_a, exp_b)
    return exp_a - common, exp_b - common, common - out_exp


def eltwise_add(a, b, exp_a, exp_b, out_exp):
    ea, eb, eo = eltwise_exponents(exp_a, exp_b, out_exp)
    acc = (np.asarray(a, np.int64) << ea) + (np.asarray(b, np.int64) << eb)
    return requantize(acc, eo)
