"""Dense nets: forward, hand-checked backward, Adam, conditioning, checkpoints."""

import copy
import json
import pickle

import numpy as np
import pytest

from noisegan import (AdamState, DenseNet, adam_step, backward, cond_input,
                      forward, init_dense, load_net, param_views, parameters,
                      save_net)
from noisegan import net as net_module
from noisegan.net import ForwardCache, _hidden, forward_from
from noisegan.gradcheck import check_isolated, pick_coords, rel_err
from test_gradcheck import fd_on_coords


def tiny_net():
    """Fixed 2-2-1 net used for the worked examples (leak 0.2)."""
    return DenseNet(
        weights=[np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[2.0, -1.0]])],
        biases=[np.array([0.0, -1.0]), np.array([0.5])],
    )


class TestForward:
    def test_worked_example(self):
        # x=(1,2): z0=(-1, 3.5), leaky -> (-0.2, 3.5), out = 2(-0.2) - 3.5 + 0.5
        out, cache = forward(tiny_net(), np.array([[1.0, 2.0]]))
        assert out == pytest.approx(np.array([[-3.4]]), rel=1e-15)
        assert cache.preacts[0] == pytest.approx(np.array([[-1.0, 3.5]]), rel=1e-15)
        assert cache.inputs[1] == pytest.approx(np.array([[-0.2, 3.5]]), rel=1e-15)

    def test_zero_weights_output_bias(self):
        net = DenseNet([np.zeros((3, 2)), np.zeros((1, 3))],
                       [np.zeros(3), np.array([0.625])])
        out, _ = forward(net, np.random.default_rng(0).standard_normal((5, 2)))
        assert np.all(out == 0.625)

    def test_single_affine_layer_is_linear(self):
        net = DenseNet([np.eye(2)], [np.zeros(2)])
        x = np.random.default_rng(1).standard_normal((4, 2))
        out, _ = forward(net, x)
        assert np.array_equal(out, x)

    def test_batch_rows_are_independent(self):
        rng = np.random.default_rng(2)
        net = init_dense([2, 8, 8, 1], rng)
        x = rng.standard_normal((6, 2))
        full, _ = forward(net, x)
        for i in range(6):
            row, _ = forward(net, x[i:i + 1])
            # single-row and batched BLAS paths may differ in the last ulp
            assert row == pytest.approx(full[i:i + 1], rel=1e-13)

    def test_empty_batch(self):
        net = tiny_net()
        out, _ = forward(net, np.zeros((0, 2)))
        assert out.shape == (0, 1)

    def test_rejects_wrong_width_or_rank(self):
        net = tiny_net()
        with pytest.raises(ValueError):
            forward(net, np.zeros((3, 5)))
        with pytest.raises(ValueError):
            forward(net, np.zeros(2))


class TestBackward:
    def test_worked_example(self):
        # gradients for the tiny net at x=(1,2), out_grad=1, derived by hand
        net = tiny_net()
        out, cache = forward(net, np.array([[1.0, 2.0]]))
        grads, x_grad = backward(net, cache, np.array([[1.0]]))
        gw0, gb0, gw1, gb1 = param_views(net, grads)
        assert gw1 == pytest.approx(np.array([[-0.2, 3.5]]), rel=1e-15)
        assert gb1 == pytest.approx([1.0], rel=1e-15)
        assert gw0 == pytest.approx(np.array([[0.4, 0.8], [-1.0, -2.0]]), rel=1e-15)
        assert gb0 == pytest.approx([0.4, -1.0], rel=1e-15)
        assert x_grad == pytest.approx(np.array([[-0.1, -2.4]]), rel=1e-13)

    def test_zero_out_grad_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        net = init_dense([2, 8, 1], rng)
        out, cache = forward(net, rng.standard_normal((4, 2)))
        grads, x_grad = backward(net, cache, np.zeros_like(out))
        assert all(np.all(g == 0) for g in grads)
        assert np.all(x_grad == 0)

    def test_grads_align_with_parameters(self):
        rng = np.random.default_rng(4)
        net = init_dense([3, 5, 2], rng)
        out, cache = forward(net, rng.standard_normal((7, 3)))
        flat_grads, _ = backward(net, cache, np.ones_like(out))
        assert flat_grads.shape == net.flat.shape
        grads = param_views(net, flat_grads)
        params = parameters(net)
        assert len(grads) == len(params)
        assert all(g.shape == p.shape for g, p in zip(grads, params))

    @pytest.mark.parametrize("sizes", [[2, 8, 8, 1], [3, 8, 8, 1], [2, 16, 2]])
    def test_finite_difference_oracle(self, sizes):
        # isolated nets over several seeds: max relative error <= 1e-6
        for seed in range(5):
            assert check_isolated(sizes, seed=seed) <= 1e-6

    def test_rejects_mismatched_cache_and_shapes(self):
        rng = np.random.default_rng(5)
        net = init_dense([2, 4, 1], rng)
        other = init_dense([2, 5, 1], rng)
        out, cache = forward(net, rng.standard_normal((3, 2)))
        with pytest.raises(ValueError):
            backward(net, cache, np.ones((4, 1)))       # wrong batch
        with pytest.raises(ValueError):
            backward(net, cache, np.ones((3, 2)))       # wrong width
        _, stale = forward(other, rng.standard_normal((3, 2)))
        with pytest.raises(ValueError):
            backward(net, stale, np.ones((3, 1)))       # stale cache


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        rng = np.random.default_rng(6)
        net = init_dense([2, 4, 1], rng)
        before = [p.copy() for p in parameters(net)]
        state = AdamState(lr=0.1, beta1=0.5)
        adam_step(net, np.zeros_like(net.flat), state)
        assert state.step == 1
        assert all(np.array_equal(a, b) for a, b in zip(parameters(net), before))

    def test_first_step_scalar_frozen(self):
        # p=1, g=2, lr=0.1: bias corrections cancel, p' = 1 - 0.1*2/(2+1e-8)
        net = DenseNet([np.array([[1.0]])], [np.array([0.0])])
        state = AdamState(lr=0.1, beta1=0.5)
        adam_step(net, np.array([2.0, 0.0]), state)
        assert net.weights[0][0, 0] == pytest.approx(0.9000000005, rel=1e-15, abs=0.0)

    def test_matches_reference_recurrence(self):
        # independent reimplementation of the update equations, 5 steps
        rng = np.random.default_rng(7)
        net = init_dense([2, 3, 1], rng)
        state = AdamState(lr=0.01, beta1=0.5)
        ref = [p.copy() for p in parameters(net)]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        for k in range(1, 6):
            grads = [rng.standard_normal(p.shape) for p in ref]
            for i, g in enumerate(grads):
                m[i] = 0.5 * m[i] + 0.5 * g
                v[i] = 0.999 * v[i] + 0.001 * g * g
                mhat = m[i] / (1 - 0.5 ** k)
                vhat = v[i] / (1 - 0.999 ** k)
                ref[i] = ref[i] - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
            adam_step(net, np.concatenate([g.ravel() for g in grads]), state)
            for got, want in zip(parameters(net), ref):
                assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_misaligned_grads(self):
        rng = np.random.default_rng(8)
        net = init_dense([2, 3, 1], rng)
        state = AdamState(lr=1e-4, beta1=0.5)
        with pytest.raises(ValueError):
            adam_step(net, [np.zeros((3, 2))], state)


class TestInitAndCheckpoint:
    def test_glorot_bounds_and_zero_bias(self):
        rng = np.random.default_rng(9)
        net = init_dense([10, 20, 5], rng)
        for w in net.weights:
            limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.abs(w).max() <= limit
        assert all(np.all(b == 0) for b in net.biases)
        assert net.sizes == [10, 20, 5]

    def test_init_rejects_bad_sizes(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            init_dense([3], rng)
        with pytest.raises(ValueError):
            init_dense([2, 0, 1], rng)

    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        net = init_dense([2, 16, 16, 2], rng)
        path = tmp_path / "net.json"
        save_net(net, path)
        back = load_net(path)
        assert all(np.array_equal(a, b)
                   for a, b in zip(parameters(back), parameters(net)))


class TestCondInput:
    def test_appends_normalized_level(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = cond_input(y, np.array([0, 500]), 1000)
        assert out == pytest.approx(np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.5]]), rel=1e-15)

    def test_scalar_level_broadcasts(self):
        out = cond_input(np.zeros((3, 2)), 250, 1000)
        assert np.all(out[:, 2] == 0.25)
        assert out.shape == (3, 3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cond_input(np.zeros(2), 1, 1000)
        with pytest.raises(ValueError):
            cond_input(np.zeros((2, 2)), 1, 0)


# ---------------------------------------------------- bitwise reference

def ref_forward(net, x, leak):
    """Textbook forward: leaky ReLU by ``np.where``, one fresh array per op."""
    inputs, preacts = [], []
    h = np.asarray(x, dtype=np.float64)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        z = h @ w.T + b
        preacts.append(z)
        h = z if i == last else np.where(z >= 0.0, z, leak * z)
    return h, inputs, preacts


def ref_backward(net, inputs, preacts, out_grad, leak):
    """Textbook backward: the slope is rebuilt from the pre-activation."""
    n_layers = len(net.weights)
    grads = [None] * (2 * n_layers)
    delta = out_grad
    for i in range(n_layers - 1, -1, -1):
        grads[2 * i] = delta.T @ inputs[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        x_grad = delta @ net.weights[i]
        if i > 0:
            delta = x_grad * np.where(preacts[i - 1] >= 0.0, 1.0, leak)
    return grads, x_grad


def ref_adam_step(params, grads, m, v, step, lr, b1=0.5, b2=0.999, eps=1e-8):
    """Textbook Adam on plain lists; returns the new step count."""
    step += 1
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= b1
        mm += (1.0 - b1) * g
        vv *= b2
        vv += (1.0 - b2) * g * g
        p -= lr * (mm / bc1) / (np.sqrt(vv / bc2) + eps)
    return step


def same_bits(a, b) -> bool:
    """Equal shape, dtype and every bit (tells -0.0 from 0.0, compares nans)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -1.5,
                     5e-324, -5e-324, 1e308, -1e308])


def batch_with_specials(rng, n, width):
    """A normal batch with about one entry in five replaced by a special value."""
    x = rng.standard_normal((n, width))
    mask = rng.random(x.shape) < 0.2
    x[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return x


LEAKS = [0.2]   # the one leak a net has


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf and nan inputs
class TestBitwiseReference:
    """The fast kernels against textbook copies of the same arithmetic."""

    @pytest.mark.parametrize("leak", LEAKS)
    def test_leaky_relu(self, leak):
        # the one activation, and the slope backward rebuilds from the
        # pre-activation, on every special value; -0.0 is here only, since
        # a matmul turns it into +0.0, and -5e-324 has an output that
        # reads >= 0 (LEAK * z underflows to -0.0) but the slope LEAK
        z = np.concatenate([SPECIALS, np.random.default_rng(19).standard_normal(50)])
        h = _hidden(z)
        assert same_bits(h, np.where(z >= 0.0, z, leak * z))
        # W1 and x0 of ones make layer 0's weight gradient the slope itself
        width = z.size
        net = DenseNet([np.ones((width, 1)), np.ones((1, width))],
                       [np.zeros(width), np.zeros(1)])
        cache = ForwardCache([np.ones((1, 1)), h[None]], [z[None], np.zeros((1, 1))])
        grads, _ = backward(net, cache, np.ones((1, 1)))
        assert same_bits(param_views(net, grads)[0][:, 0], np.where(z >= 0.0, 1.0, leak))

    @pytest.mark.parametrize("leak", LEAKS)
    def test_special_preactivations(self, leak):
        # layer 0 copies its one input to every unit (weight 1, bias -0.0),
        # so the hidden pre-activations are exactly the special values
        width = 6
        rng = np.random.default_rng(20)
        net = DenseNet([np.ones((width, 1)), rng.uniform(-1, 1, (2, width))],
                       [np.full(width, -0.0), np.zeros(2)])
        x = SPECIALS[:, None]
        out, cache = forward(net, x)
        want, inputs, preacts = ref_forward(net, x, leak)
        # the matmul turns -0.0 into +0.0; test_leaky_relu covers -0.0
        assert np.array_equal(cache.preacts[0][:, 0], SPECIALS, equal_nan=True)
        assert same_bits(cache.inputs[1], inputs[1])
        assert same_bits(out, want)
        g = rng.standard_normal(out.shape)
        grads, x_grad = backward(net, cache, g)
        rgrads, rx_grad = ref_backward(net, inputs, preacts, g, leak)
        assert all(same_bits(a, b) for a, b in zip(param_views(net, grads), rgrads))
        assert same_bits(x_grad, rx_grad)

    @pytest.mark.parametrize("leak", LEAKS)
    def test_cache_free_forward(self, leak):
        # a cache-free forward: hidden pre-activations that are exactly the
        # special values (the positive weights after them carry infinities
        # through to the output), then random nets on batches laced with them
        rng = np.random.default_rng(27)
        width = 6
        net = DenseNet([np.ones((width, 1)), rng.uniform(0.5, 1, (width, width)),
                        np.ones((1, width))],
                       [np.full(width, -0.0), rng.uniform(-1, 1, width), np.zeros(1)])
        for x in (SPECIALS[:, None], batch_with_specials(rng, 40, 1)):
            out, none = forward(net, x, cache=False)
            assert none is None and same_bits(out, ref_forward(net, x, leak)[0])
        for sizes in ([3, 16, 16, 2], [2, 128, 128, 1]):
            net = init_dense(sizes, rng)
            for b in net.biases:
                b[...] = rng.uniform(-0.5, 0.5, b.shape)
            x = batch_with_specials(rng, 33, sizes[0])
            assert same_bits(forward(net, x, cache=False)[0], ref_forward(net, x, leak)[0])

    @pytest.mark.parametrize("leak", LEAKS)
    @pytest.mark.parametrize("sizes", [[3, 16, 16, 2], [2, 128, 128, 1], [4, 5]])
    def test_forward_and_backward(self, leak, sizes):
        rng = np.random.default_rng(21)
        for trial in range(3):
            net = init_dense(sizes, rng)
            for b in net.biases:
                b[...] = rng.uniform(-0.5, 0.5, b.shape)
            x = (batch_with_specials(rng, 33, sizes[0]) if trial
                 else rng.standard_normal((33, sizes[0])))
            out, cache = forward(net, x)
            want, inputs, preacts = ref_forward(net, x, leak)
            assert same_bits(out, want)
            uncached, none = forward(net, x, cache=False)
            assert none is None and same_bits(uncached, want)
            assert all(same_bits(a, b) for a, b in zip(cache.inputs, inputs))
            assert all(same_bits(a, b) for a, b in zip(cache.preacts, preacts))
            g = rng.standard_normal(out.shape)
            grads, x_grad = backward(net, cache, g)
            rgrads, rx_grad = ref_backward(net, inputs, preacts, g, leak)
            assert all(same_bits(a, b) for a, b in zip(param_views(net, grads), rgrads))
            assert same_bits(x_grad, rx_grad)
            none, in_grad = backward(net, cache, g, param_grads=False)
            assert none is None
            assert same_bits(in_grad, x_grad)

    def test_backward_leaves_cache_and_out_grad_alone(self):
        rng = np.random.default_rng(22)
        net = init_dense([3, 8, 8, 1], rng)
        out, cache = forward(net, rng.standard_normal((5, 3)))
        kept = [a.copy() for a in cache.inputs + cache.preacts]
        g = rng.standard_normal(out.shape)
        g_kept = g.copy()
        first = backward(net, cache, g)
        second = backward(net, cache, g)
        assert all(same_bits(a, b) for a, b in
                   zip(cache.inputs + cache.preacts, kept))
        assert same_bits(g, g_kept)
        assert same_bits(first[1], second[1])

    @pytest.mark.parametrize("lr", [1e-4, 4e-3, 0.0])
    def test_adam_step(self, lr):
        rng = np.random.default_rng(23)
        net = init_dense([2, 16, 16, 3], rng)
        ref = [p.copy() for p in parameters(net)]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        state = AdamState(lr=lr, beta1=0.5)
        step = 0
        for k in range(6):
            grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-8, 3)
                     for p in ref]
            if k == 2:
                grads[0][:] = 0.0
                grads[1][:] = -0.0
            adam_step(net, np.concatenate([g.ravel() for g in grads]), state)
            step = ref_adam_step(ref, grads, m, v, step, lr)
            assert state.step == step
            assert all(same_bits(a, b) for a, b in zip(parameters(net), ref))
            assert all(same_bits(a, b) for a, b in zip(param_views(net, state.m), m))
            assert all(same_bits(a, b) for a, b in zip(param_views(net, state.v), v))

    def test_cond_input_into_slices(self):
        rng = np.random.default_rng(24)
        a, b = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        t = np.array([0, 3, 999, 1000])
        want = np.concatenate([np.column_stack([a, t / 1000.0]),
                               np.column_stack([b, t / 1000.0])])
        assert same_bits(np.concatenate([cond_input(a, t, 1000), cond_input(b, t, 1000)]),
                         want)
        assert same_bits(cond_input(a, t, 1000), want[:4])
        with pytest.raises(ValueError):
            cond_input(a, t[:3], 1000)


class TestLeakContract:
    def test_checkpoint_with_another_leak_is_refused(self, tmp_path):
        path = tmp_path / "net.json"
        save_net(init_dense([2, 4, 1], np.random.default_rng(25)), path)
        doc = json.loads(path.read_text())
        assert load_net(path).sizes == [2, 4, 1] and doc["leak"] == 0.2
        for leak in (0.0, 0.01, 0.5, 1.0, -0.1, np.nan, "0.2", None):
            path.write_text(json.dumps({**doc, "leak": leak}))
            with pytest.raises(ValueError, match=f"leak {leak!r} is not 0.2"):
                load_net(path)


class TestGradcheckHelpers:
    def test_rel_err_floors_small_gradients(self):
        a = np.array([0.0, 1.0])
        f = np.array([1e-11, 1.0 + 1e-7])
        assert rel_err(a, f) < 1e-6

    def test_fd_matches_analytic_on_quadratic(self):
        # f(params) = sum(w^2) has gradient 2w: central differences are exact
        net = DenseNet([np.array([[0.3, -0.7]])], [np.array([0.25])])
        coords = pick_coords(net, np.random.default_rng(0), 10)
        fd = fd_on_coords(lambda: float(sum((p ** 2).sum()
                                            for p in parameters(net))),
                          net, coords)
        analytic = 2 * net.flat
        assert rel_err(analytic[coords], fd) < 1e-9


class TestFlatLayout:
    """One parameter vector per net: the arrays, gradients and moments view it."""

    def nets(self, tmp_path):
        rng = np.random.default_rng(27)
        saved = init_dense([3, 7, 5, 2], rng)
        path = tmp_path / "net.json"
        save_net(saved, path)
        return {"init_dense": init_dense([2, 8, 8, 1], rng), "DenseNet": tiny_net(),
                "load_net": load_net(path)}

    def test_parameters_view_flat_in_order(self, tmp_path):
        for how, net in self.nets(tmp_path).items():
            params = parameters(net)
            pairs = [a for pair in zip(net.weights, net.biases) for a in pair]
            assert net.flat.dtype == np.float64 and net.flat.flags.c_contiguous, how
            assert len(params) == len(pairs) == 2 * len(net.weights), how
            assert all(np.shares_memory(p, net.flat) for p in params + pairs), how
            net.flat[...] = np.arange(net.flat.size)
            assert same_bits(np.concatenate([p.ravel() for p in params]), net.flat), how
            assert same_bits(np.concatenate([a.ravel() for a in pairs]), net.flat), how

    def test_construction_copies_its_arrays(self):
        w, b = np.array([[1.0, 2.0]]), np.array([3.0])
        net = DenseNet([w], [b])
        w[0, 0] = b[0] = 9.0
        assert same_bits(net.flat, np.array([1.0, 2.0, 3.0]))

    def test_rebinding_raises(self):
        net = tiny_net()
        before = net.flat.copy()
        with pytest.raises(AttributeError, match="weights"):
            net.weights = [np.zeros((2, 2)), np.zeros((1, 2))]
        with pytest.raises(AttributeError, match="biases"):
            net.biases = [np.zeros(2), np.zeros(1)]
        with pytest.raises(AttributeError, match="flat"):
            net.flat = np.zeros(9)
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((2, 2))
        assert same_bits(net.flat, before)
        assert all(np.shares_memory(p, net.flat) for p in parameters(net))

    def test_copies_get_their_own_vector(self):
        net = init_dense([2, 4, 1], np.random.default_rng(28))
        for other in (copy.copy(net), copy.deepcopy(net),
                      pickle.loads(pickle.dumps(net))):
            assert same_bits(other.flat, net.flat)
            assert not np.shares_memory(other.flat, net.flat)
            assert all(np.shares_memory(p, other.flat) for p in parameters(other))

    def test_param_views_line_up_with_parameters(self):
        net = init_dense([3, 5, 4, 2], np.random.default_rng(29))
        vec = np.random.default_rng(30).standard_normal(net.flat.size)
        views = param_views(net, vec)
        params = parameters(net)
        assert [v.shape for v in views] == [p.shape for p in params]
        assert all(np.shares_memory(v, vec) for v in views)
        assert same_bits(np.concatenate([v.ravel() for v in views]), vec)
        views[2][0, 1] = 42.0
        assert vec[params[0].size + params[1].size + 1] == 42.0
        with pytest.raises(ValueError):
            param_views(net, vec[:-1])

    @pytest.mark.parametrize("weights, biases", [
        ([], []),
        ([np.zeros((2, 3))], []),
        ([np.zeros((2, 3))], [np.zeros(3)]),
        ([np.zeros(3)], [np.zeros(3)]),
        ([np.zeros((4, 2)), np.zeros((1, 3))], [np.zeros(4), np.zeros(1)]),
    ])
    def test_inconsistent_arrays_are_rejected(self, weights, biases):
        with pytest.raises(ValueError):
            DenseNet(weights, biases)

    def test_backward_returns_a_fresh_flat_vector(self):
        rng = np.random.default_rng(31)
        net = init_dense([3, 6, 2], rng)
        out, cache = forward(net, rng.standard_normal((5, 3)))
        g = rng.standard_normal(out.shape)
        first, _ = backward(net, cache, g)
        second, _ = backward(net, cache, g)
        assert first.shape == net.flat.shape and first.dtype == np.float64
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, net.flat)
        assert same_bits(first, second)

    def test_adam_moments_are_flat(self):
        rng = np.random.default_rng(32)
        net = init_dense([2, 4, 1], rng)
        state = AdamState(lr=0.01, beta1=0.5)
        adam_step(net, rng.standard_normal(net.flat.size), state)
        assert state.m.shape == state.v.shape == net.flat.shape
        assert all(np.shares_memory(p, net.flat) for p in parameters(net))
        other = init_dense([2, 5, 1], rng)
        with pytest.raises(ValueError, match="another net"):
            adam_step(other, np.zeros_like(other.flat), state)
        with pytest.raises(ValueError):
            adam_step(net, np.zeros(net.flat.size + 1), state)

    def test_fd_on_coords_leaves_flat_bit_identical(self):
        net = init_dense([2, 8, 8, 1], np.random.default_rng(33))
        net.flat[3] = -0.0
        before = net.flat.copy()
        x = np.random.default_rng(34).standard_normal((6, 2))
        coords = list(range(net.flat.size))
        fd_on_coords(lambda: float(forward(net, x, cache=False)[0].sum()),
                     net, coords, h=1e-3)
        assert same_bits(net.flat, before)

        calls = []

        def failing():
            calls.append(net.flat.copy())
            if len(calls) == 3:
                raise RuntimeError("loss blew up")
            return 0.0

        with pytest.raises(RuntimeError):
            fd_on_coords(failing, net, [3, 5], h=0.5)
        assert same_bits(net.flat, before)
        # each call saw exactly one coordinate nudged by +-h
        assert [np.flatnonzero(c != before).tolist() for c in calls] == [[3], [3], [5]]


class TestStacks:
    """A stack (..., n, d) of batches gives each copy its own 2-d result."""

    @pytest.mark.parametrize("sizes", [[3, 16, 16, 2], [2, 128, 128, 2],
                                       [3, 128, 128, 1], [4, 5]])
    def test_cache_free_forward_per_copy(self, sizes):
        rng = np.random.default_rng(35)
        net = init_dense(sizes, rng)
        for b in net.biases:
            b[...] = rng.uniform(-0.5, 0.5, b.shape)
        for shape in ((16, 8), (2, 3, 8), (1, 8), (5, 33)):
            xs = rng.standard_normal(shape + (sizes[0],))
            out, none = forward(net, xs, cache=False)
            assert none is None and out.shape == shape + (sizes[-1],)
            copies = zip(out.reshape(-1, *out.shape[-2:]), xs.reshape(-1, *xs.shape[-2:]))
            assert all(same_bits(o, forward(net, x, cache=False)[0]) for o, x in copies)

    @pytest.mark.parametrize("sizes", [[3, 16, 16, 2], [2, 128, 128, 2], [4, 5]])
    def test_forward_from_any_layer(self, sizes):
        rng = np.random.default_rng(36)
        net = init_dense(sizes, rng)
        xs = rng.standard_normal((4, 8, sizes[0]))
        runs = [forward(net, x) for x in xs]
        for layer in range(len(net.weights)):
            zs = np.stack([cache.preacts[layer] for _, cache in runs])
            outs = forward_from(net, layer, zs)
            for z, o, (want, _) in zip(zs, outs, runs):
                assert same_bits(forward_from(net, layer, z), want)
                assert same_bits(o, want)

    def test_a_stack_needs_a_cache_free_forward(self):
        net = tiny_net()
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            forward(net, np.zeros((3, 4, 2)))
        with pytest.raises(ValueError, match=r"\(\.\.\., n, 2\)"):
            forward(net, np.zeros((3, 4, 5)), cache=False)
        with pytest.raises(ValueError):
            forward(net, np.zeros(2), cache=False)

    def test_cond_input_per_copy(self):
        rng = np.random.default_rng(37)
        ys = rng.standard_normal((6, 8, 2))
        t = rng.integers(0, 1001, 8)
        for level in (t, 250, np.int64(7)):
            out = cond_input(ys, level, 1000)
            assert out.shape == (6, 8, 3)
            assert all(same_bits(o, cond_input(y, level, 1000)) for o, y in zip(out, ys))
        with pytest.raises(ValueError):
            cond_input(ys, t[:5], 1000)


def row_blocks(n):
    """The block rule spelled out: cut every 2048 rows while at least
    4096 remain, so the tail shorter than 2048 joins the block before it."""
    cuts = [0]
    while n - cuts[-1] >= 2 * 2048:
        cuts.append(cuts[-1] + 2048)
    return list(zip(cuts, cuts[1:] + [n]))


class TestBlockedForward:
    """A cache-free forward runs its rows in blocks and writes only its own arrays."""

    def test_rows_per_pass(self, monkeypatch):
        assert net_module._BLOCK == 2048
        rng = np.random.default_rng(40)
        net = init_dense([2, 16, 16, 2], rng)
        passes = []
        one_pass = net_module._layers

        def counted(net_, h, start, kept):
            passes.append(h.shape[-2])
            return one_pass(net_, h, start, kept)

        monkeypatch.setattr(net_module, "_layers", counted)
        for n in (0, 1, 128, 2047, 2048, 4095, 4096, 5000, 6143, 6144, 10_000):
            passes.clear()
            assert forward(net, rng.standard_normal((n, 2)), cache=False)[0].shape == (n, 2)
            assert passes == [hi - lo for lo, hi in row_blocks(n)], n
        passes.clear()
        forward(net, rng.standard_normal((3, 5000, 2)), cache=False)   # a stack's rows
        assert passes == [2048, 2952]

    @pytest.mark.parametrize("n", [4096, 5000, 6143, 6144, 10_000])
    def test_equals_its_blocks_forwards(self, n):
        rng = np.random.default_rng(41)
        net = init_dense([2, 32, 32, 2], rng)
        for b in net.biases:
            b[...] = rng.uniform(-0.5, 0.5, b.shape)
        x = rng.standard_normal((n, 2))
        blocks = row_blocks(n)
        out = forward(net, x, cache=False)[0]
        assert same_bits(out, np.concatenate(
            [forward(net, x[lo:hi], cache=False)[0] for lo, hi in blocks]))
        for layer in range(len(net.weights)):
            z = forward(net, x)[1].preacts[layer]
            assert same_bits(forward_from(net, layer, z), np.concatenate(
                [forward_from(net, layer, z[lo:hi]) for lo, hi in blocks]))
        xs = np.stack([x, x[::-1]])
        outs = forward(net, xs, cache=False)[0]
        assert same_bits(outs[0], out)
        assert same_bits(outs[1], forward(net, xs[1], cache=False)[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf and nan inputs
    @pytest.mark.parametrize("n", [33, 5000])
    def test_inputs_keep_their_bits(self, n):
        rng = np.random.default_rng(42)
        net = init_dense([3, 16, 16, 2], rng)
        x = batch_with_specials(rng, n, 3)
        for given in (x, np.stack([x, -x])):
            before = given.copy()
            forward(net, given, cache=False)
            assert same_bits(given, before)
        for layer in range(len(net.weights)):
            z = forward(net, x)[1].preacts[layer]
            before = z.copy()
            forward_from(net, layer, z)
            assert same_bits(z, before)
