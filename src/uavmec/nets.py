"""Small fully connected networks with analytic backprop, on plain numpy.

Hidden layers are rectified-linear; the output layer is either identity
(critics) or tanh (actors). ``backward`` computes, on request, the parameter
gradients (into ``grad``) and the gradient with respect to the input, which
it returns; the latter lets the actor update chain through a critic's action
input. Each caller asks only for what it reads: a net's own update skips the
layer-0 input-gradient product, and the actor's pass through a critic skips
the critic's parameter gradients.

Each network keeps all of its parameters in one contiguous float64 vector
``flat`` (``w0, b0, w1, b1, ...``, weights row-major); ``weights[i]`` and
``biases[i]`` are reshaped views into it, held in tuples so that a layer can
only be written in place (``net.weights[0][...] = w``), never rebound.
``backward`` writes the parameter gradients into ``grad``, a buffer with the
same layout that is allocated on the first ``backward`` (inference-only nets
never pay for it). So an optimizer step, a soft update or a finite check is
one array op per network.

An optimizer is built over the parameter arrays it updates and keeps them;
``step(grads)`` takes ``grads[i]`` for ``params[i]``. ``Adam.step`` allocates
nothing: it updates its moments and the parameters in place through two
scratch buffers it owns, in the same op order as the textbook expression, so
every bit of the result is unchanged.
"""

from __future__ import annotations

import numpy as np


def _views(flat: np.ndarray, sizes: list[int]):
    """(weights, biases) tuples of reshaped views into ``flat``."""
    weights, biases = [], []
    i = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[i:i + fan_in * fan_out].reshape(fan_in, fan_out))
        i += fan_in * fan_out
        biases.append(flat[i:i + fan_out])
        i += fan_out
    return tuple(weights), tuple(biases)


class Mlp:
    def __init__(self, sizes: list[int], out_activation: str, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if min(sizes) < 1:
            raise ValueError(f"layer sizes must be positive, got {list(sizes)}")
        if out_activation not in ("identity", "tanh"):
            raise ValueError("out_activation must be 'identity' or 'tanh'")
        self.sizes = list(sizes)
        self.out_activation = out_activation
        n_params = sum(fan_in * fan_out + fan_out
                       for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
        self.flat = np.zeros(n_params)
        self.weights, self.biases = _views(self.flat, self.sizes)
        for w in self.weights:
            # Same bits as rng.normal(0, scale), drawn in place: no temporary.
            rng.standard_normal(out=w)
            w *= np.sqrt(2.0 / w.shape[0])
        self.grad = None
        self._grad_views = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_cache(x)
        return y

    def forward_cache(self, x: np.ndarray):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"input width {x.shape[1]} != {self.sizes[0]}")
        activations = [x]
        h = x
        n = len(self.weights)
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            if li < n - 1:
                h = np.maximum(z, 0.0)
            elif self.out_activation == "tanh":
                h = np.tanh(z)
            else:
                h = z
            activations.append(h)
        return h, activations

    def backward(self, activations, grad_out: np.ndarray, *,
                 params: bool = True, inputs: bool = True):
        """Gradients of sum(grad_out * output) w.r.t. params and input.

        Writes the parameter gradients into ``grad`` and returns the input
        gradient. ``params=False`` leaves ``grad`` untouched; ``inputs=False``
        skips the layer-0 input-gradient product and returns ``None``. What is
        computed has the bits of the full pass.
        """
        grad_out = np.atleast_2d(np.asarray(grad_out, dtype=float))
        if self.out_activation == "tanh":
            delta = grad_out * (1.0 - activations[-1] ** 2)
        else:
            delta = grad_out
        if params and self.grad is None:
            self.grad = np.empty_like(self.flat)
            self._grad_views = _views(self.grad, self.sizes)
        w_grads, b_grads = self._grad_views if params else (None, None)
        for li in range(len(self.weights) - 1, -1, -1):
            if params:
                np.matmul(activations[li].T, delta, out=w_grads[li])
                delta.sum(axis=0, out=b_grads[li])
            if li == 0 and not inputs:
                return None
            delta = delta @ self.weights[li].T
            if li > 0:
                # delta is fresh from the matmul: mask it in place.
                delta *= activations[li] > 0.0
        return delta

    def copy(self) -> "Mlp":
        other = Mlp(self.sizes, self.out_activation, np.random.default_rng(0))
        other.flat[...] = self.flat
        return other


class Adam:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        # Two scratch buffers sized to the largest parameter; each parameter
        # works in a view of their leading elements, shaped like it.
        size = max((p.size for p in params), default=0)
        a, b = np.empty(size), np.empty(size)
        self._scratch = [(a[:p.size].reshape(p.shape), b[:p.size].reshape(p.shape))
                         for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        """One in-place step of every parameter; the grads are read, never
        written.

        Same ops in the same order as the textbook form, so the same bits:
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
        ``p -= (lr*(m/b1t)) / (sqrt(v/b2t) + eps)``.
        """
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for p, g, m, v, (s, u) in zip(self.params, grads, self.m, self.v,
                                      self._scratch):
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            np.divide(m, b1t, out=s)
            s *= self.lr
            np.divide(v, b2t, out=u)
            np.sqrt(u, out=u)
            u += self.EPS
            s /= u
            p -= s


class Sgd:
    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr

    def step(self, grads: list[np.ndarray]) -> None:
        for p, g in zip(self.params, grads):
            p -= self.lr * g


def make_optimizer(kind: str, params: list[np.ndarray], lr: float):
    if kind == "adam":
        return Adam(params, lr)
    if kind == "sgd":
        return Sgd(params, lr)
    raise ValueError(f"unknown optimizer '{kind}'")


def soft_update(target: Mlp, online: Mlp, tau: float) -> None:
    """theta' <- tau*theta + (1-tau)*theta', elementwise."""
    target.flat *= (1.0 - tau)
    target.flat += tau * online.flat


def all_finite(net: Mlp) -> bool:
    return bool(np.isfinite(net.flat).all())
