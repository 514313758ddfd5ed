"""Fading channel gains and Shannon rates for D2D and UD-to-UAV links.

The fading model superposes a unit-modulus line-of-sight component and a
zero-mean unit-variance complex Gaussian scatter component, mixed by the
Rician factor; rician_k = 0 degenerates to Rayleigh. Block fading: callers
draw one gain per link per slot.

A link's power gain is its path loss times its scatter gain,
``los_gain_sq(p, d) * scatter_gain_sq(p, n_re, n_im)``, multiplied in that
order. The path loss depends on the link length only, so a caller whose
link length is fixed for an episode (the env's D2D link) computes it once
and multiplies each slot's scatter gain into it, with the same bits as
:func:`fading_gain_sq`.

Every formula takes scalars or arrays (one element per link) and returns
the same shape; see ``libm`` for why powers and logarithms go element by
element.
"""

from __future__ import annotations

import math

import numpy as np

from . import libm
from .config import ChannelParams


def link_distance(a, b):
    """Euclidean distance between points, over the last axis of a - b."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    out = np.sqrt(np.vecdot(d, d))
    return float(out) if out.ndim == 0 else out


def los_gain_sq(p: ChannelParams, d):
    """Deterministic power gain beta0 * d^-chi (the rician_k -> inf limit)."""
    return p.beta0 * libm.power(d, -p.chi)


def scatter_gain_sq(p: ChannelParams, n_re, n_im):
    """The small-scale factor of |h|^2, given the two standard normals of
    each link's scatter component; its mean over the normals is 1."""
    k = p.rician_k
    los = math.sqrt(k / (1.0 + k)) if k > 0 else 0.0
    spread = math.sqrt(1.0 / (1.0 + k))
    re = los + spread * (n_re / math.sqrt(2.0))
    im = spread * (n_im / math.sqrt(2.0))
    return libm.abs_sq(re, im)


def fading_gain_sq(p: ChannelParams, d, n_re, n_im):
    """|h|^2 for links of length d, given the two standard normals of each
    link's scatter component. Mean over the normals is beta0 * d^-chi."""
    return los_gain_sq(p, d) * scatter_gain_sq(p, n_re, n_im)


def sample_gain_sq(p: ChannelParams, d: float, rng: np.random.Generator) -> float:
    """Draw |h|^2 for one link of length d. Mean equals beta0 * d^-chi."""
    return fading_gain_sq(p, d, rng.standard_normal(), rng.standard_normal())


def rate(bw: float, tx_power: float, gain_sq, noise: float):
    """Shannon rate bw * log2(1 + snr) in bits/s."""
    return bw * libm.log2(1.0 + tx_power * gain_sq / noise)
