"""Fixed-point arithmetic model used by every execution path.

All tensors are int8 with a power-of-two scale (real value = int8 * step).
Accumulators are int64: a conv sums K = kh·kw·c_in int8 products, each at
most 2**14 in magnitude, plus an int32 bias, and the data oracles check
that K·2**14 < 2**53.  Requantization multiplies by the ratio of scales,
rounds half away from zero, and saturates to [-128, 127].  Keeping every
rounding decision in this module lets the policy be swapped in one place.
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


def shift_round_half_away(acc, shift):
    """Multiply int64 values by 2**shift with round-half-away-from-zero.

    shift >= 0 is an exact left shift; shift < 0 divides by 2**k, k = -shift,
    and rounds ties away from zero (so -2.5 -> -3, 2.5 -> 3).  For acc >= 0
    that is floor((acc + half) / 2**k) with half = 2**(k-1); for acc < 0 it
    is ceil((acc - half) / 2**k) = floor((acc - half + 2**k - 1) / 2**k),
    and 2**k - half = half, so both signs are (acc + half - (acc < 0)) >> k.
    Returns a new array; acc is not modified.
    """
    acc = np.asarray(acc, dtype=np.int64)
    if shift >= 0:
        return acc << shift
    k = -shift
    out = acc + (np.int64(1) << (k - 1))
    out -= acc < 0
    out >>= k
    return out


def requantize(acc, shift):
    """int64 accumulator -> int8 at the target scale.

    shift is the exponent of the scale ratio (source scale / target scale),
    i.e. result = sat(round(acc * 2**shift)).
    """
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
