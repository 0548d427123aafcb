import math

import numpy as np
import pytest

from cogen import tensor as T
from cogen.tensor import (Adam, ContractError, ShapeError, Tensor, attention, concat,
                          cross_entropy, gradcheck, layer_norm, matmul)
from oracles import chain_attention


def softmax(x: Tensor):
    """Softmax over the last axis of `x` as the attention op computes it:
    one head of width 1, a unit query and the keys x, so the scores are x
    exactly. Returns the weights, shaped as x, and the output, whose values
    are ones, so that each of its rows is the sum of that row's weights."""
    sk = x.shape[-1]
    rows = x.data.size // sk
    out, weights = attention(Tensor(np.ones((rows, 1, 1))), x.reshape(rows, sk, 1),
                             Tensor(np.ones((rows, sk, 1))), 1)
    return weights.reshape(x.shape), out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, Tensor(np.eye(2)))
        assert np.allclose(out.data, [[1, 2], [3, 4]])

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert np.allclose(out.data, [[17], [39]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        with T.use_dtype(np.float64):
            rng = np.random.default_rng(0)
            a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            err = gradcheck(lambda a, b: matmul(a, b).sum(), [a, b])
        assert err < 1e-4


class TestSoftmax:
    """The softmax inside the attention op."""

    def test_symmetry(self):
        assert np.allclose(softmax(Tensor([0.0, 0.0]))[0], [0.5, 0.5])

    def test_analytic(self):
        weights, _ = softmax(Tensor([math.log(2), 0.0]))
        assert np.allclose(weights, [2 / 3, 1 / 3])

    def test_against_extended_precision_oracle(self):
        # independent oracle: longdouble exponentials, no max-subtraction
        x = np.array([1.0, 2.0, 3.0])
        e = np.exp(x.astype(np.longdouble))
        expected = (e / e.sum()).astype(np.float64)
        weights, _ = softmax(Tensor(x))
        assert np.allclose(weights, expected, atol=1e-6)
        assert np.allclose(weights, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_sums_to_one_large_magnitude(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = Tensor(rng.uniform(-1e3, 1e3, size=(4, 7)))
            assert np.allclose(softmax(x)[0].sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_ndarray_methods(self, dtype):
        rng = np.random.default_rng(4)
        for shape in [(4, 1, 32), (2, 2, 9, 9), (3, 5)]:
            with T.use_dtype(dtype):
                x = Tensor(rng.standard_normal(shape) * 20)
                e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
                expected = e / e.sum(axis=-1, keepdims=True)
                assert np.array_equal(softmax(x)[0], expected)


class TestLayerNorm:
    def test_constant_row(self):
        out = layer_norm(Tensor([[5.0, 5.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, 0.0)

    def test_already_normalized(self):
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)),
                         Tensor(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_direct_mean_variance_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = (x - x.mean()) / np.sqrt(x.var() + 1e-5)
        out = layer_norm(Tensor([x]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data[0], expected, atol=1e-6)
        assert np.allclose(out.data[0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_mean_and_var(self, dtype):
        """The fused statistics reproduce x.mean()/x.var() to the last bit,
        forward and backward, so training arithmetic is unchanged."""
        rng = np.random.default_rng(5)
        for shape in [(4, 1, 32), (16, 40, 32), (3, 7, 8)]:
            with T.use_dtype(dtype):
                x = Tensor(rng.standard_normal(shape) * rng.uniform(0.1, 30) + 3,
                           requires_grad=True)
                gain = Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
                bias = Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
                xd = x.data
                inv = 1.0 / np.sqrt(xd.var(axis=-1, keepdims=True) + 1e-5)
                xhat = (xd - xd.mean(axis=-1, keepdims=True)) * inv
                out = layer_norm(x, gain, bias)
                assert np.array_equal(out.data, xhat * gain.data + bias.data)
                g = rng.standard_normal(shape).astype(dtype)
                (out * Tensor(g)).sum().backward()
                gg = g * gain.data
                gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                            - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
                assert np.array_equal(x.grad, gx.astype(dtype))


class TestCrossEntropy:
    def test_perfect_logits(self):
        logits = Tensor([[100.0, 0.0, 0.0]])
        assert cross_entropy(logits, [0]).item() == pytest.approx(0.0, abs=1e-6)

    def test_uniform_logits(self):
        logits = Tensor(np.zeros((1, 4)))
        assert cross_entropy(logits, [2]).item() == pytest.approx(math.log(4), abs=1e-5)

    def test_softmax_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        e = np.exp(x - x.max())
        expected = -math.log(e[2] / e.sum())
        loss = cross_entropy(Tensor([x]), [2])
        assert loss.item() == pytest.approx(expected, abs=1e-6)
        assert loss.item() == pytest.approx(0.40761, abs=1e-5)

    def test_ignore_id_contributes_zero(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        full = cross_entropy(logits, [1, 0, 2], ignore_id=0).item()
        kept = cross_entropy(Tensor(logits.data[[0, 2]]), [1, 2], ignore_id=0).item()
        assert full == pytest.approx(kept, abs=1e-6)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((1, 4))), [7])


class TestBackward:
    def test_square(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_softmax_sum_has_zero_gradient(self):
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        softmax(x)[1].sum().backward()
        assert np.allclose(x.grad, 0.0, atol=1e-7)

    def test_unreachable_tensor_gets_no_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        (x * x).sum().backward()
        assert y.grad is None

    def test_accumulates_across_calls(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        (x * x).backward()
        (x * x).backward()
        assert x.grad == pytest.approx(8.0)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_shared_subexpression(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = x * x
        (y + y).backward()
        assert x.grad == pytest.approx(8.0)


    def test_interior_nodes_freed_leaves_keep_grads(self):
        x = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        w = Tensor([[0.3, 0.1], [-0.2, 0.4]], requires_grad=True)
        c = Tensor.const([[2.0, 1.0]])
        h = matmul(x, w)
        y = (h * c).exp()
        loss = (y * y).sum()
        loss.backward()
        for node in (h, y, loss):
            assert node.grad is None and node._backward_fn is None
            assert node._parents == ()
        assert x.grad is not None and w.grad is not None

    @pytest.mark.parametrize("op", ["add", "mul", "matmul"])
    def test_constant_parent_gets_no_gradient(self, op):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor.const(np.full((2, 2), 3.0))
        out = {"add": lambda: x + c, "mul": lambda: c * x,
               "matmul": lambda: matmul(c, x)}[op]()
        out.sum().backward()
        assert c.grad is None
        assert np.array_equal(x.grad, {"add": np.ones((2, 2)), "mul": c.data,
                                       "matmul": np.full((2, 2), 6.0)}[op])

    def test_constant_inputs_of_layer_norm_and_concat_get_no_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        c = Tensor.const(np.ones((2, 3)))
        gain, bias = Tensor(np.ones(3), requires_grad=True), Tensor.const(np.zeros(3))
        layer_norm(c, gain, bias).sum().backward()
        (concat([x, c], axis=-1) * concat([c, x], axis=-1)).sum().backward()
        assert c.grad is None and bias.grad is None
        assert gain.grad is not None and np.array_equal(x.grad, 2 * np.ones((2, 3)))

    def test_recorded_graph_back_propagates_under_no_grad(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = x * Tensor.const(3.0) + x
        with T.no_grad():
            y.backward()
        assert x.grad == pytest.approx(4.0)

    def test_first_write_owns_a_c_contiguous_copy(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        g = np.ones((2, 3), dtype=np.float32)
        t._accum(g)
        g[0, 0] = 7.0
        assert np.array_equal(t.grad, np.ones((2, 3)))
        u = Tensor(np.zeros((3, 2)), requires_grad=True)
        transposed = np.arange(6, dtype=np.float32).reshape(2, 3).T
        u._accum(transposed)
        assert u.grad.flags.c_contiguous
        assert np.array_equal(u.grad, transposed)


class TestAttention:
    """The fused op gives the outputs, weights and gradients of the op
    chain it replaced (head split, attention per head, head merge), to the
    bit."""

    def _stream(self, rng, b, s, layout):
        """A [b, s, 8] stream of two heads; "split" is a column slice of a
        wider array, as a stream split from a fused projection would be."""
        x = rng.standard_normal((b, s, 24)).astype(np.float32)[:, :, 8:16]
        return Tensor(x if layout == "split" else np.ascontiguousarray(x),
                      requires_grad=True)

    def _run(self, fn, q, k, v, mask, r):
        for t in (q, k, v):
            t.grad = None
        out, weights = fn(q, k, v, 2, mask)
        (out * r).sum().backward()
        return out.data, weights, [t.grad for t in (q, k, v)]

    @pytest.mark.parametrize("kv_batch", [3, 1])
    @pytest.mark.parametrize("layout", ["split", "contiguous"])
    @pytest.mark.parametrize("masking", ["none", "keys", "causal", "keys+causal-offset"])
    def test_matches_op_chain(self, kv_batch, layout, masking):
        rng = np.random.default_rng(kv_batch)
        sq, sk = (3, 5) if masking == "keys+causal-offset" else (5, 5)
        q = self._stream(rng, 3, sq, layout)
        k, v = self._stream(rng, kv_batch, sk, layout), self._stream(rng, kv_batch, sk, layout)
        keys = np.ones((3, sk), dtype=bool)
        keys[0, 1] = keys[2, 3:] = False
        mask = {"none": None, "keys": keys[:, None, None, :],
                "causal": np.tri(sq, sk, sk - sq, dtype=bool),
                "keys+causal-offset": keys[:, None, None, :]
                & np.tri(sq, sk, sk - sq, dtype=bool)}[masking]
        r = Tensor(rng.standard_normal((3, sq, 8)).astype(np.float32))
        new = self._run(attention, q, k, v, mask, r)
        old = self._run(chain_attention, q, k, v, mask, r)
        assert new[0].shape == (3, sq, 8) and new[1].shape == (3, 2, sq, sk)
        assert np.array_equal(new[0], old[0])
        assert np.array_equal(new[1], old[1])
        for t, a, b in zip((q, k, v), new[2], old[2]):
            assert a.shape == t.shape
            assert np.array_equal(a, b)
        if mask is not None:
            assert np.all(new[1][~np.broadcast_to(mask, new[1].shape)] == 0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            attention(Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 2, 3))),
                      Tensor(np.ones((1, 2, 3))), 1)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = Tensor(np.array(0.0), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.asarray(1.0)
        opt.step()
        assert p.item() == pytest.approx(-0.1, abs=1e-6)

    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array(1.5), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.asarray(0.0)
        opt.step()
        assert p.item() == pytest.approx(1.5)

    def test_three_steps_match_scalar_oracle(self):
        with T.use_dtype(np.float64):
            p = Tensor(np.array(1.0), requires_grad=True)
            opt = Adam({"p": p}, lr=0.1)
            trace = []
            for _ in range(3):
                opt.zero_grad()
                (p * p).backward()
                opt.step()
                trace.append(p.item())
        # independent scalar Adam
        w, m, v = 1.0, 0.0, 0.0
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
        expected = []
        for t in range(1, 4):
            g = 2 * w
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
            expected.append(w)
        assert np.allclose(trace, expected, atol=1e-10)


class TestGradcheck:
    def test_linear_map_near_exact(self):
        with T.use_dtype(np.float64):
            w = Tensor(np.random.default_rng(1).standard_normal((4, 4)),
                       requires_grad=True)
            x = Tensor(np.random.default_rng(2).standard_normal((2, 4)))
            err = gradcheck(lambda w: matmul(x, w).sum(), [w])
        assert err < 1e-8

    def test_softmax_cross_entropy(self):
        with T.use_dtype(np.float64):
            logits = Tensor(np.random.default_rng(5).standard_normal((4, 5)),
                            requires_grad=True)
            err = gradcheck(lambda l: cross_entropy(l, [0, 2, 4, 1]), [logits])
        assert err < 1e-4


class TestMisc:
    def test_concat_backward_splits(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0]], requires_grad=True)
        (concat([a, b], axis=-1) * Tensor([[1.0, 2.0, 3.0]])).sum().backward()
        assert np.allclose(a.grad, [[1, 2]])
        assert np.allclose(b.grad, [[3]])

    def test_determinism_same_seed(self):
        def run():
            rng = np.random.default_rng(42)
            a = Tensor(rng.standard_normal((2, 8, 8)), requires_grad=True)
            b = Tensor(rng.standard_normal((2, 8, 8)), requires_grad=True)
            out = attention(matmul(a, b), a, b, 2)[0].sum()
            out.backward()
            return out.data.copy(), a.grad.copy()
        (o1, g1), (o2, g2) = run(), run()
        assert np.array_equal(o1, o2)
        assert np.array_equal(g1, g2)

    def test_finite_after_forward_backward(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((1, 4, 6)), requires_grad=True)
        h = layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        out, _ = attention(h, h, h, 2)
        (out * out).sum().backward()
        assert np.isfinite(out.data).all()
        assert np.isfinite(x.grad).all()
