"""Elementwise power, log2 and complex modulus through the C library.

numpy's vectorised ``power`` and ``log2`` (and ``x ** 2``, which numpy turns
into ``x * x``) round differently from the C library's ``pow`` and ``log2``
in the last bit on a share of inputs. TD3 training amplifies such last-bit
differences in rewards and states into different learned policies, so the
array-valued formulas in ``channel`` and ``compute_energy`` take these
operations one element at a time, as Python floats: one C call per element,
filled into the result with ``np.fromiter``. The modulus is the exception:
``np.hypot`` gave the C library's ``hypot`` bit for bit on every input
``tests/test_libm.py`` draws, so it runs as one numpy call. A formula gives
the same bits for a scalar argument and for an array of them. Each function
takes a scalar, which gives a scalar, or an array of any shape, which gives
an array of that shape.

Overflow follows the operation that overflows. A power whose result
overflows raises ``OverflowError``, as Python's float ``**`` does. A modulus
that overflows is inf, with numpy's overflow warning, as ``np.hypot`` gives
it (``abs(complex(re, im))`` would raise instead); its square is then inf.

The callers keep the C calls per slot few: the env evaluates the link terms
once per slot and the D2D path loss once per episode (see ``env``).
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np


def is_array(x) -> bool:
    """True for an ndarray of at least one dimension (cheaper than np.ndim)."""
    return isinstance(x, np.ndarray) and x.ndim > 0


def _filled(values, like: np.ndarray) -> np.ndarray:
    """The iterable of like.size floats as an array of like's shape."""
    out = np.fromiter(values, float, like.size)
    return out if like.ndim == 1 else out.reshape(like.shape)


def power(x, y: float):
    """x ** y with the C library's pow, elementwise over x."""
    if not is_array(x):
        return x ** y
    return _filled(map(pow, x.ravel().tolist(), repeat(y)), x)


def log2(x):
    if not is_array(x):
        return math.log2(x)
    return _filled(map(math.log2, x.ravel().tolist()), x)


def abs_sq(re, im):
    """|re + i*im|^2: the modulus by hypot, squared by the C library's pow;
    re and im are both scalars or both arrays of one shape."""
    modulus = np.hypot(re, im)
    if not is_array(modulus):
        return float(modulus) ** 2
    return power(modulus, 2)
