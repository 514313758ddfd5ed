"""The C-library operations of ``libm``: every array path gives the bits of
its scalar path, and ``np.hypot`` gives the C library's ``hypot``."""

import math
import warnings

import numpy as np
import pytest

from uavmec import libm


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _scalar_map(fn, *arrays):
    """fn applied to each element's Python floats, shaped like arrays[0]."""
    flat = [fn(*vals) for vals in zip(*(a.ravel().tolist() for a in arrays))]
    return np.array(flat).reshape(arrays[0].shape)


SHAPES = [(7,), (1,), (4, 9)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("y", [2, 3, -2.2, 0.08])
def test_power_array_equals_scalar(shape, y):
    x = np.random.default_rng(1).uniform(0.1, 300.0, shape)
    got = libm.power(x, y)
    assert got.shape == shape
    assert _bits(got) == _bits(_scalar_map(lambda v: libm.power(v, y), x))


@pytest.mark.parametrize("shape", SHAPES)
def test_log2_array_equals_scalar(shape):
    x = 1.0 + np.random.default_rng(2).exponential(1e3, shape)
    got = libm.log2(x)
    assert got.shape == shape
    assert _bits(got) == _bits(_scalar_map(libm.log2, x))


@pytest.mark.parametrize("shape", SHAPES)
def test_abs_sq_array_equals_scalar(shape):
    re, im = np.random.default_rng(3).standard_normal((2,) + shape)
    got = libm.abs_sq(re, im)
    assert got.shape == shape
    assert _bits(got) == _bits(_scalar_map(libm.abs_sq, re, im))


def test_hypot_is_the_c_library_modulus():
    # abs(complex) is C hypot; abs_sq takes np.hypot in one call on the
    # assumption that numpy's kernel for this CPU rounds the same way.
    re, im = np.random.default_rng(4).standard_normal((2, 100_000))
    want = [abs(complex(x, y)) for x, y in zip(re.tolist(), im.tolist())]
    assert _bits(np.hypot(re, im)) == _bits(want)
    assert _bits(libm.abs_sq(re, im)) == _bits([m ** 2 for m in want])


def test_overflowing_modulus_is_inf_with_a_warning():
    big = 1.7e308
    with pytest.raises(OverflowError):
        abs(complex(big, big))
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert np.hypot(big, big) == math.inf
    # abs_sq follows np.hypot on both paths.
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert libm.abs_sq(big, big) == math.inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = libm.abs_sq(np.array([big, 3.0]), np.array([big, 4.0]))
    assert got.tolist() == [math.inf, 25.0]


def test_overflowing_square_raises_on_both_paths():
    # A finite modulus whose square overflows raises, as Python's ** does.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            libm.abs_sq(1e200, 0.0)
        with pytest.raises(OverflowError):
            libm.abs_sq(np.array([1.0, 1e200]), np.zeros(2))
        with pytest.raises(OverflowError):
            libm.power(np.array([1e200]), 2)


def test_scalar_in_scalar_out():
    assert type(libm.power(3.0, 2)) is float
    assert type(libm.log2(8.0)) is float
    assert type(libm.abs_sq(3.0, 4.0)) is float
    assert libm.abs_sq(3.0, 4.0) == 25.0
