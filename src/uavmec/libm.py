"""Elementwise power, log2 and complex modulus through the C library.

numpy's vectorised ``power``, ``log2`` and ``hypot`` (and ``x ** 2``, which
numpy turns into ``x * x``) round differently from the C library's ``pow``,
``log2`` and ``hypot`` in the last bit on a share of inputs. TD3 training
amplifies such last-bit differences in rewards and states into different
learned policies, so the array-valued formulas in ``channel`` and
``compute_energy`` take these three operations one element at a time, as
Python floats. A formula then gives the same bits for a scalar argument and
for an array of them. Each function takes a scalar, which gives a scalar,
or an array of any shape, which gives an array of that shape.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np


def is_array(x) -> bool:
    """True for an ndarray of at least one dimension (cheaper than np.ndim)."""
    return isinstance(x, np.ndarray) and x.ndim > 0


def _shaped(values: list, like: np.ndarray) -> np.ndarray:
    """The flat values as an array of like's shape."""
    out = np.array(values)
    return out if like.ndim == 1 else out.reshape(like.shape)


def power(x, y: float):
    """x ** y with the C library's pow, elementwise over x."""
    if not is_array(x):
        return x ** y
    return _shaped([v ** y for v in x.ravel().tolist()], x)


def log2(x):
    if not is_array(x):
        return math.log2(x)
    return _shaped([math.log2(v) for v in x.ravel().tolist()], x)


def abs_sq(re, im):
    """|re + i*im|^2, the modulus taken by the C library's hypot; re and im
    are both scalars or both arrays of one shape."""
    if not is_array(re):
        return abs(complex(re, im)) ** 2
    moduli = map(abs, map(complex, re.ravel().tolist(), im.ravel().tolist()))
    return _shaped(list(map(pow, moduli, repeat(2))), re)
