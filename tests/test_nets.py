import tracemalloc

import numpy as np
import pytest

from uavmec.nets import Adam, Mlp, Sgd, all_finite, make_optimizer, soft_update


def finite_diff_grads(net, x, loss_fn, h=1e-5):
    flat = net.flat.copy()
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        net.flat[...] = bumped
        up = loss_fn(net.forward(x))
        bumped[i] -= 2 * h
        net.flat[...] = bumped
        down = loss_fn(net.forward(x))
        grads[i] = (up - down) / (2 * h)
    net.flat[...] = flat
    return grads


def per_layer(net, buf):
    """Views of a buffer in the flat layout, one per w0, b0, w1, b1, ..."""
    views, i = [], 0
    for p in (p for wb in zip(net.weights, net.biases) for p in wb):
        views.append(buf[i:i + p.size].reshape(p.shape))
        i += p.size
    return views


class TestForward:
    def test_zero_net_gives_zero(self):
        net = Mlp([3, 4, 2], "identity", np.random.default_rng(0))
        net.flat[...] = 0.0
        assert np.all(net.forward(np.ones(3)) == 0.0)

    def test_identity_single_layer(self):
        net = Mlp([2, 2], "identity", np.random.default_rng(0))
        net.weights[0][...] = np.eye(2)
        net.biases[0][...] = np.zeros(2)
        x = np.array([0.3, -1.2])
        assert np.allclose(net.forward(x)[0], x)

    def test_hand_computed_matrix_product(self):
        net = Mlp([2, 2], "identity", np.random.default_rng(0))
        net.weights[0][...] = np.array([[1.0, 2.0], [3.0, 4.0]])
        net.biases[0][...] = np.array([0.5, -0.5])
        y = net.forward(np.array([1.0, 2.0]))[0]
        assert np.allclose(y, [1 + 6 + 0.5, 2 + 8 - 0.5])

    def test_tanh_output_bounded(self):
        net = Mlp([4, 8, 3], "tanh", np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for _ in range(100):
            y = net.forward(rng.normal(0, 10, 4))
            assert np.all(np.abs(y) <= 1.0)

    def test_width_mismatch_rejected(self):
        net = Mlp([3, 2], "identity", np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.ones(4))


class TestBackward:
    def test_constant_loss_zero_gradient(self):
        net = Mlp([2, 3, 1], "identity", np.random.default_rng(0))
        _, cache = net.forward_cache(np.ones((4, 2)))
        net.backward(cache, np.zeros((4, 1)))
        assert np.all(net.grad == 0)

    def test_linear_net_gradient_is_input(self):
        net = Mlp([3, 1], "identity", np.random.default_rng(0))
        x = np.array([[1.0, 2.0, 3.0]])
        _, cache = net.forward_cache(x)
        net.backward(cache, np.ones((1, 1)))
        # Layout w0 (3x1), b0 (1).
        assert np.allclose(net.grad[:3], x[0])
        assert np.allclose(net.grad[3], 1.0)

    @pytest.mark.parametrize("out_act", ["identity", "tanh"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, out_act, seed):
        rng = np.random.default_rng(seed)
        net = Mlp([3, 5, 4, 2], out_act, rng)
        x = rng.normal(size=(6, 3))
        g_out = rng.normal(size=(6, 2))

        def loss(y):
            return float(np.sum(y * g_out))

        _, cache = net.forward_cache(x)
        net.backward(cache, g_out)
        analytic = net.grad.copy()
        numeric = finite_diff_grads(net, x, loss)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        net = Mlp([3, 6, 2], "identity", rng)
        x = rng.normal(size=(1, 3))
        g_out = rng.normal(size=(1, 2))
        _, cache = net.forward_cache(x)
        grad_x = net.backward(cache, g_out)
        h = 1e-6
        for i in range(3):
            xp = x.copy(); xp[0, i] += h
            xm = x.copy(); xm[0, i] -= h
            num = (np.sum(net.forward(xp) * g_out)
                   - np.sum(net.forward(xm) * g_out)) / (2 * h)
            assert grad_x[0, i] == pytest.approx(num, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("out_act", ["identity", "tanh"])
    def test_inputs_false_gives_full_param_grads_and_no_input_grad(self, out_act):
        rng = np.random.default_rng(5)
        net = Mlp([4, 7, 6, 3], out_act, rng)
        x = rng.normal(size=(9, 4))
        g_out = rng.normal(size=(9, 3))
        _, cache = net.forward_cache(x)
        net.backward(cache, g_out)
        full_flat = net.grad.copy()
        net.grad[...] = np.nan
        assert net.backward(cache, g_out, inputs=False) is None
        assert net.grad.tobytes() == full_flat.tobytes()

    @pytest.mark.parametrize("out_act", ["identity", "tanh"])
    def test_params_false_gives_full_input_grad_and_leaves_grad(self, out_act):
        rng = np.random.default_rng(6)
        net = Mlp([4, 7, 6, 3], out_act, rng)
        x = rng.normal(size=(9, 4))
        g_out = rng.normal(size=(9, 3))
        _, cache = net.forward_cache(x)
        full_x = net.backward(cache, g_out)
        sentinel = rng.normal(size=net.flat.size)
        net.grad[...] = sentinel
        grad_x = net.backward(cache, g_out, params=False)
        assert grad_x.tobytes() == full_x.tobytes()
        assert net.grad.tobytes() == sentinel.tobytes()

    def test_params_false_allocates_no_grad_buffer(self):
        net = Mlp([3, 4, 2], "identity", np.random.default_rng(0))
        _, cache = net.forward_cache(np.ones((5, 3)))
        net.backward(cache, np.ones((5, 2)), params=False)
        assert net.grad is None


class TestSoftUpdate:
    def test_hard_copy_at_tau_one(self):
        rng = np.random.default_rng(0)
        online = Mlp([2, 3, 1], "identity", rng)
        target = Mlp([2, 3, 1], "identity", rng)
        soft_update(target, online, 1.0)
        assert np.allclose(target.flat, online.flat)

    def test_convex_combination(self):
        online = Mlp([1, 1], "identity", np.random.default_rng(0))
        target = Mlp([1, 1], "identity", np.random.default_rng(1))
        online.flat[...] = 1.0
        target.flat[...] = 0.0
        soft_update(target, online, 0.05)
        assert np.allclose(target.flat, 0.05)

    def test_tau_zero_no_change(self):
        rng = np.random.default_rng(0)
        online = Mlp([2, 2], "identity", rng)
        target = Mlp([2, 2], "identity", rng)
        before = target.flat.copy()
        soft_update(target, online, 0.0)
        assert np.array_equal(target.flat, before)

    def test_contraction_factor(self):
        rng = np.random.default_rng(4)
        online = Mlp([3, 4, 2], "tanh", rng)
        target = Mlp([3, 4, 2], "tanh", rng)
        gap_before = np.abs(target.flat - online.flat)
        soft_update(target, online, 0.05)
        gap_after = np.abs(target.flat - online.flat)
        assert np.allclose(gap_after, 0.95 * gap_before)


class TestOptimizers:
    def test_sgd_step(self):
        p = [np.array([1.0, 2.0])]
        Sgd(p, 0.1).step([np.array([1.0, -1.0])])
        assert np.allclose(p[0], [0.9, 2.1])

    def test_adam_converges_on_quadratic(self):
        p = [np.array([5.0])]
        opt = Adam(p, 0.1)
        for _ in range(500):
            opt.step([2 * p[0]])
        assert abs(p[0][0]) < 1e-3

    def test_make_optimizer_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", [], 0.1)

    def test_make_optimizer_accepts_no_params(self):
        make_optimizer("adam", [], 0.1).step([])

    def test_adam_is_bitwise_textbook_and_leaves_grads(self):
        # Two parameters of different sizes, as PPO's [mean_net.flat, log_std].
        rng = np.random.default_rng(11)
        params = [rng.normal(size=(7, 5)), rng.normal(size=3)]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        lr, b1, b2, eps = 3e-4, 0.9, 0.999, 1e-8
        opt = Adam(params, lr)
        for t in range(1, 26):
            # Magnitudes from 1e-12 to 1e6, signs mixed, some exact zeros.
            grads = [rng.normal(size=p.shape) * 10.0 ** rng.uniform(-12, 6, p.shape)
                     for p in params]
            grads[0][0, t % 5] = 0.0
            before = [g.copy() for g in grads]
            opt.step(grads)
            b1t, b2t = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i, g in enumerate(before):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                ref[i] = ref[i] - lr * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + eps)
            for p, r, g, g0 in zip(params, ref, grads, before):
                assert p.tobytes() == r.tobytes()
                assert g.tobytes() == g0.tobytes()
            for mine, theirs in zip(opt.m + opt.v, m + v):
                assert mine.tobytes() == theirs.tobytes()

    def test_adam_step_allocates_no_parameter_sized_temporary(self):
        n = 100_000
        rng = np.random.default_rng(12)
        p = [rng.normal(size=n)]
        g = [rng.normal(size=n)]
        opt = Adam(p, 1e-3)
        opt.step(g)
        tracemalloc.start()
        try:
            opt.step(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * p[0].itemsize / 4


def _assert_views_of_flat(net):
    for p in net.weights + net.biases:
        assert np.shares_memory(net.flat, p)
    # The views tile the buffer in the order w0, b0, w1, b1, ...
    assert np.array_equal(
        np.concatenate([p.ravel() for wb in zip(net.weights, net.biases)
                        for p in wb]),
        net.flat)


class TestFlatLayout:
    def test_views_after_construction(self):
        net = Mlp([3, 5, 4, 2], "tanh", np.random.default_rng(0))
        _assert_views_of_flat(net)
        assert net.flat.size == 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2

    def test_views_after_copy_and_flat_write(self):
        net = Mlp([3, 5, 2], "identity", np.random.default_rng(0))
        other = net.copy()
        _assert_views_of_flat(other)
        assert not np.shares_memory(other.flat, net.flat)
        assert np.array_equal(other.flat, net.flat)
        net.flat[...] = np.arange(net.flat.size, dtype=float)
        _assert_views_of_flat(net)
        assert net.biases[-1][0] == 3 * 5 + 5 + 5 * 2

    def test_views_after_load_actor(self, tmp_path):
        from uavmec.td3 import load_actor, save_actor
        path = str(tmp_path / "actor.npz")
        save_actor(path, Mlp([4, 6, 2], "tanh", np.random.default_rng(1)))
        _assert_views_of_flat(load_actor(path))

    def test_layer_item_assignment_raises(self):
        net = Mlp([2, 3, 1], "identity", np.random.default_rng(0))
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((2, 3))
        with pytest.raises(TypeError):
            net.biases[1] = np.zeros(1)

    def test_grad_buffer_is_lazy_and_shares_layout(self):
        net = Mlp([3, 4, 2], "identity", np.random.default_rng(0))
        assert net.grad is None
        _, cache = net.forward_cache(np.ones((5, 3)))
        net.backward(cache, np.ones((5, 2)))
        grad = net.grad
        assert grad.shape == net.flat.shape
        # Later passes write into the same buffer.
        net.backward(cache, np.zeros((5, 2)))
        assert net.grad is grad
        assert np.all(grad == 0.0)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            Mlp([3, 0, 1], "identity", np.random.default_rng(0))

    @pytest.mark.parametrize("opt_cls", [Adam, Sgd])
    def test_flat_step_equals_per_layer_step_bitwise(self, opt_cls):
        rng = np.random.default_rng(7)
        flat_net = Mlp([4, 8, 3], "tanh", rng)
        layer_net = flat_net.copy()
        layer_params = per_layer(layer_net, layer_net.flat)
        flat_opt = opt_cls([flat_net.flat], 0.01)
        layer_opt = opt_cls(layer_params, 0.01)
        for _ in range(5):
            x = rng.normal(size=(6, 4))
            g_out = rng.normal(size=(6, 3))
            _, cache = flat_net.forward_cache(x)
            flat_net.backward(cache, g_out)
            _, cache = layer_net.forward_cache(x)
            layer_net.backward(cache, g_out)
            flat_opt.step([flat_net.grad])
            layer_opt.step(per_layer(layer_net, layer_net.grad))
            assert np.array_equal(flat_net.flat, layer_net.flat)


def test_all_finite_detects_nan():
    net = Mlp([2, 2], "identity", np.random.default_rng(0))
    assert all_finite(net)
    net.weights[0][0, 0] = np.nan
    assert not all_finite(net)


def test_all_finite_detects_inf_in_last_bias():
    net = Mlp([2, 3, 2], "identity", np.random.default_rng(0))
    net.biases[-1][-1] = np.inf
    assert not all_finite(net)
