"""Tensor core semantics: construction, backward bookkeeping, optimizer."""

import importlib.util
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import distilldet.autodiff as ad
from distilldet import SGD, ShapeError, Tape, TapeError, Tensor, backward, imageops, roi
from distilldet.train import CLIP_GRAD_NORM, MOMENTUM, TrainConfig
from oracles import mse, sq_error_sum_chain


class TestTensorBasics:
    def test_shape_and_data_agree(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.shape == t.data.shape

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            Tensor([np.inf])

    def test_rejects_non_finite_in_any_block_of_a_large_array(self):
        n = 3 * ad.BLOCK + 5
        for pos in (0, ad.BLOCK - 1, ad.BLOCK, 2 * ad.BLOCK + 7, n - 1):
            for bad in (np.nan, np.inf, -np.inf):
                vals = np.zeros(n, dtype=np.float32)
                vals[pos] = bad
                with pytest.raises(ValueError):
                    Tensor(vals.reshape(-1, 1))
        assert Tensor(np.ones((n, 1))).shape == (n, 1)

    def test_rejects_zero_sized(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))

    def test_grad_matches_shape_after_backward(self):
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        backward(ad.tsum(t))
        assert t.grad.shape == t.data.shape

    def test_detach_shares_values_drops_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert np.array_equal(d.data, t.data)

    def test_elementwise_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_a_number_is_a_0d_tensor(self):
        for value, dtype in ((0.0, np.float64), (np.float32(2.5), np.float32), (3, np.float64)):
            t = Tensor(value)
            assert t.shape == () and t.data.dtype == dtype and t.item() == float(value)

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    def test_elementwise_ops_do_not_broadcast_a_single_element(self, op):
        for a, b in (((), (1,)), ((1,), ()), ((1,), (3,)), ((), (2, 2))):
            with pytest.raises(ShapeError):
                op(Tensor(np.ones(a)), Tensor(np.ones(b)))

    def test_data_is_copied_only_when_not_c_contiguous(self):
        arr = np.arange(6.0).reshape(2, 3)
        assert Tensor(arr).data is arr
        t = Tensor(arr.T)
        assert t.data.flags.c_contiguous and not np.shares_memory(t.data, arr)
        assert np.array_equal(t.data, arr.T)


class TestBackward:
    def test_sum_grad_all_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(ad.tsum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_mse_against_zero_hand_derivative(self):
        # mean of squares: grad = 2x / len(x)
        vals = np.array([1.0, -2.0, 0.5, 3.0])
        x = Tensor(vals, requires_grad=True)
        backward(mse(x, np.zeros(4)))
        assert np.allclose(x.grad, 2 * vals / 4, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(ad.add(x, 1.0))

    def test_second_backward_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ad.tsum(x * x)
        backward(loss)
        with pytest.raises(TapeError):
            backward(loss)

    def test_backward_through_consumed_subgraph_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        backward(ad.tsum(y))
        with pytest.raises(TapeError):
            backward(ad.tsum(y * 3.0))

    def test_leaf_params_survive_across_graphs(self):
        x = Tensor(np.ones(3), requires_grad=True)
        backward(ad.tsum(x * 2.0))
        g1 = x.grad.copy()
        x.grad = None
        backward(ad.tsum(x * 2.0))
        assert np.array_equal(g1, x.grad)

    def test_gradient_accumulates_on_shared_input(self):
        x = Tensor(np.ones(2), requires_grad=True)
        backward(ad.tsum(ad.add(x * 3.0, x * 4.0)))
        assert np.allclose(x.grad, [7.0, 7.0])

    def test_linearity_of_backward(self, rng):
        a, b = 2.5, -1.25
        base = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))

        def losses(x):
            y = ad.linear(x, Tensor(w), Tensor(np.zeros(2)))
            return mse(y, np.zeros((4, 2))), ad.tsum(ad.relu(y))

        x1 = Tensor(base, requires_grad=True)
        l1, l2 = losses(x1)
        backward(ad.add(l1 * a, l2 * b))

        x2 = Tensor(base, requires_grad=True)
        backward(losses(x2)[0])
        x3 = Tensor(base, requires_grad=True)
        backward(losses(x3)[1])
        combo = a * x2.grad + b * x3.grad
        assert np.allclose(x1.grad, combo, rtol=1e-12, atol=1e-14)

    def test_no_grad_inputs_build_no_graph(self):
        x = Tensor(np.ones((2, 2)))
        y = ad.relu(x * 3.0)
        assert not y.requires_grad
        assert y._backward is None

    def test_tape_topological_order(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 2.0
        z = ad.tsum(ad.add(y, 1.0))
        tape = Tape(z)
        pos = {id(n): i for i, n in enumerate(tape.nodes)}
        for node in tape.nodes:
            for p in node._parents:
                if p.requires_grad:
                    assert pos[id(p)] < pos[id(node)]
        assert len(tape) == 3


def _step_peaks_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "step_peaks.py"
    spec = importlib.util.spec_from_file_location("step_peaks", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


class TestGraphIsFreed:
    """``backward`` releases each operation's rule, saved buffers and parent
    links as it runs; held tensors keep their gradients."""

    def test_tensor_only_the_graph_reached_is_freed(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        h = x * 2.0
        held = ad.relu(h)
        loss = ad.tsum(held)
        # ndarrays take weak references, Tensors (slotted) do not: h.data is
        # held by h alone, so it dies exactly when h does.
        h_data = weakref.ref(h.data)
        del h
        backward(loss)
        assert h_data() is None
        assert loss._backward is None and loss._parents == ()
        assert loss._consumed and held._consumed
        assert np.array_equal(held.grad, np.ones((4, 3)))
        assert np.array_equal(x.grad, np.full((4, 3), 2.0))

    def test_tape_taken_before_backward_lists_no_operations_after(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ad.tsum(ad.relu(x * 2.0))
        tape = Tape(loss)
        assert len(tape) == 3
        backward(loss)
        assert tape.operations == [] and len(tape) == 0
        assert all(n._parents == () for n in tape.nodes)

    def test_new_graph_on_a_consumed_node_two_ops_deep_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        z = ad.relu(ad.add(y, 1.0))
        backward(ad.tsum(z))
        with pytest.raises(TapeError):
            backward(ad.tsum(ad.add(y * 3.0, 1.0)))
        with pytest.raises(TapeError):
            Tape(z)

    @pytest.mark.parametrize("op, saves_an_input_sized_array", [
        (lambda x, w, b, t: imageops.conv2d(x, w, b), False),  # im2col columns: 1.1 MB
        (lambda x, w, b, t: ad.relu(x), False),                # a bool mask: 30 KB
        (lambda x, w, b, t: ad.sq_error_sum(x, t), True),      # the difference: 123 KB
    ], ids=["conv2d", "relu", "sq_error_sum"])
    def test_recording_an_op_keeps_little_more_than_its_output(self, op, saves_an_input_sized_array):
        r = np.random.default_rng(5)
        x = Tensor(r.normal(size=(1, 32, 24, 40)).astype(np.float32), requires_grad=True)
        w = Tensor(r.normal(size=(32, 32, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
        t = r.normal(size=x.shape).astype(np.float32)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = op(x, w, b, t)
            alive = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        # The output, its Tensor and the rule's closure: about 1.8 KB beyond
        # the output's data, plus the one array the rule saves: sq_error_sum's
        # difference, the size of its input.
        saved = x.data.nbytes if saves_an_input_sized_array else 0
        assert alive <= out.data.nbytes + saved + 8192

    def test_train_steps_never_hold_two_graphs(self, tiny_scenes, tiny_student_cfg):
        # The same scene twice: the second step differs from the first only
        # in what the first left alive, and possibly a flipped image copy.
        steps = _step_peaks_tool().step_peaks(
            [tiny_scenes[0][0]] * 2, tiny_student_cfg, TrainConfig(epochs=1, lr_decay_epochs=(), seed=0))
        first, second = (max(s.values()) for s in steps)
        assert len(steps) == 2
        # A second graph alive during the second step adds about 60% here.
        assert second <= first + first // 10


def _backward_through(parents, rule):
    """Run ``backward`` from a scalar node on ``parents`` whose rule is ``rule``."""
    backward(Tensor._from_op(np.zeros(()), tuple(parents), rule))


def _held_intermediate(a, b):
    h = a * b
    return [h, ad.add(ad.relu(h), h)]


# An op on leaves, and which leaves keep the array its rule returns for them
# (the others get a copy of a view of the incoming gradient).
_KEEPING_OPS = {
    "relu": (ad.relu, [True]),
    "maxpool2x2": (imageops.maxpool2x2, [True]),
    "upsample2x": (imageops.upsample2x, [True]),
    "mul": (ad.mul, [True, True]),
    "tsum": (ad.tsum, [True]),
    "smooth_l1": (lambda p: ad.smooth_l1(p, np.full(p.shape, 0.25, p.data.dtype)), [True]),
    "sq_error_sum": (lambda p: ad.sq_error_sum(p, np.full(p.shape, 0.25, p.data.dtype)), [True]),
}


class TestGradientHandOff:
    """``backward`` alone applies the gradients a rule returns: it adds into
    an existing ``grad``, keeps a new array as a first gradient with the
    copying path's bits, lets an op output keep a view of its consumer's
    gradient, and copies anything else that is shared, cast or broadcast."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_gradients_match_the_copying_path(self, dtype):
        # The pointwise conv2d's kept gradients are checked bytewise
        # against the reference in test_imageops_bitexact.
        r = np.random.default_rng(3)

        def leaf(*shape):
            return Tensor(r.normal(size=shape).astype(dtype), requires_grad=True)

        x, w, b = leaf(3, 4), leaf(4, 2), leaf(2)
        g = Tensor(r.normal(size=(3, 2)).astype(dtype))
        g.data[:, 1] = -0.0
        backward(ad.tsum(ad.linear(x, w, b) * g))
        for t, raw in ((x, g.data @ w.data.T), (w, x.data.T @ g.data), (b, g.data.sum(axis=0))):
            assert t.grad.dtype == dtype
            assert t.grad.tobytes() == (np.zeros_like(t.data) + raw).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(_KEEPING_OPS))
    def test_kept_gradients_have_the_copying_paths_bits(self, name, dtype, monkeypatch):
        op, kept = _KEEPING_OPS[name]
        r = np.random.default_rng(11)
        leaves = [Tensor(r.normal(size=(1, 2, 4, 4)).astype(dtype), requires_grad=True) for _ in kept]
        seen = []  # what the op's rule returned, and a copy of it
        real = Tensor._from_op.__func__

        def spy(cls, data, parents, rule):
            def fed_negative_zeros(g):
                # Every grad backward hands on is free of -0.0, so write
                # some into the op's incoming gradient.
                fed = r.normal(size=g.shape).astype(dtype)
                fed.reshape(-1)[::3] = -0.0
                fed.reshape(-1)[1::5] = 0.0
                if fed.ndim == 4:
                    fed[0, 0, :2, :2] = -0.0  # a window of -0.0 sums to -0.0
                g[...] = fed
                grads = rule(g)
                seen.append((grads, [np.array(a, copy=True) for a in grads]))
                return grads
            return real(cls, data, parents, rule if seen else fed_negative_zeros)

        monkeypatch.setattr(Tensor, "_from_op", classmethod(spy))
        out = op(*leaves)
        seen.append("the op is made")
        backward(ad.tsum(out))
        returned, raws = seen[-1]
        for t, keeps, arr, raw in zip(leaves, kept, returned, raws, strict=True):
            assert (t.grad is arr) == keeps
            assert t.grad.dtype == dtype
            assert t.grad.tobytes() == (np.zeros_like(t.data) + raw).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_new_array_is_kept_with_negative_zero_cleared(self, dtype):
        t = Tensor(np.ones(4, dtype=dtype), requires_grad=True)
        g = np.array([-0.0, 0.0, -1.5, 2.0], dtype=dtype)
        want = (np.zeros_like(t.data) + g).tobytes()
        _backward_through([t], lambda _: (g,))
        assert t.grad is g and t.grad.tobytes() == want
        _backward_through([t], lambda _: (np.ones(4, dtype=dtype),))  # a second gradient adds in place
        assert t.grad is g and np.array_equal(t.grad, [1.0, 1.0, -0.5, 3.0])

    @pytest.mark.parametrize("build", [
        lambda a, b: [ad.add(a, b)], lambda a, b: [ad.add(a, a)],
        lambda a, b: [a * b],
        lambda a, b: [ad.linear(a, b, Tensor(np.zeros(3)))],
        lambda a, b: [ad.reshape(a, (9,))],
        lambda a, b: [ad.transpose(a, (1, 0)) * b],
        lambda a, b: [ad.concat([a, b], axis=1)],
        _held_intermediate,
    ], ids=["a+b", "a+a", "a*b", "linear", "reshape", "transpose", "concat", "held"])
    def test_leaf_gradients_are_their_own_arrays(self, build):
        a = Tensor(np.full((3, 3), 2.0), requires_grad=True)
        b = Tensor(np.full((3, 3), 5.0), requires_grad=True)
        made = build(a, b)
        backward(ad.tsum(made[-1]))
        grads = [t.grad for t in (a, b, *made) if t.grad is not None]
        assert len(grads) >= 2
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)
        before = [g.copy() for g in grads]
        grads[0][...] = 7.0
        for g, old in zip(grads[1:], before[1:]):
            assert np.array_equal(g, old)

    def test_one_array_returned_for_several_parents_is_copied_after_the_first(self):
        a, b, c = (Tensor(np.ones(3), requires_grad=True) for _ in range(3))
        returned = []

        def rule(g):
            returned.append(np.full(3, 2.0))
            return returned[0], returned[0], returned[0][:]

        _backward_through([a, b, c], rule)
        assert a.grad is returned[0]
        for t in (b, c):
            assert not np.shares_memory(t.grad, a.grad) and np.array_equal(t.grad, [2.0, 2.0, 2.0])

    def test_a_none_entry_leaves_that_parents_grad_none(self):
        a, b = (Tensor(np.ones(3), requires_grad=True) for _ in range(2))
        _backward_through([a, b], lambda g: (np.full(3, 2.0), None))
        assert np.array_equal(a.grad, [2.0, 2.0, 2.0]) and b.grad is None

    def test_a_rule_returning_the_wrong_count_raises(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            _backward_through([a], lambda g: (np.ones(3), np.ones(3)))

    def test_a_numpy_scalar_gradient_lands_as_an_array(self):
        c = Tensor(np.full(2, 3.0), requires_grad=True)
        b = ad.tsum(c)
        backward(ad.mul(b, 2.0))  # b is 0-d, so its gradient g * 2.0 is a numpy scalar
        assert type(b.grad) is np.ndarray and b.grad.shape == () and b.grad == 2.0
        assert np.array_equal(c.grad, [2.0, 2.0])

    def test_broadcast_or_other_dtype_or_layout_gradient_is_copied(self):
        t = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        g64 = np.full((2, 3), 1.0 + 2.0 ** -40)
        _backward_through([t], lambda _: (g64,))
        assert t.grad is not g64 and t.grad.dtype == np.float32
        assert t.grad.tobytes() == (np.zeros((2, 3), np.float32) + g64).astype(np.float32).tobytes()

        t = Tensor(np.ones((2, 3)), requires_grad=True)
        row = np.array([1.0, -0.0, 3.0])
        _backward_through([t], lambda _: (row,))
        assert t.grad.shape == (2, 3) and not np.shares_memory(t.grad, row)
        assert t.grad.tobytes() == (np.zeros((2, 3)) + row).tobytes()

        t = Tensor(np.ones((2, 3)), requires_grad=True)
        gt = np.arange(6.0).reshape(3, 2).T
        _backward_through([t], lambda _: (gt,))
        assert not np.shares_memory(t.grad, gt) and t.grad.flags.c_contiguous
        assert np.array_equal(t.grad, gt)

    def test_an_op_output_keeps_a_pass_through_gradient_as_a_view(self):
        a = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        h = a * 3.0
        r = ad.reshape(h, (6,))
        backward(ad.tsum(r * Tensor(np.arange(6.0))))
        assert np.shares_memory(h.grad, r.grad)
        assert np.array_equal(h.grad, np.arange(6.0).reshape(2, 3))
        assert not np.shares_memory(a.grad, h.grad) and np.array_equal(a.grad, 3.0 * h.grad)

    @pytest.mark.parametrize("view_first", [True, False])
    def test_a_later_gradient_for_a_kept_view_leaves_the_held_consumers_gradient(self, view_first):
        """``h`` keeps a view of ``m.grad`` when ``m``'s rule runs first; the
        gradient ``relu`` hands on later is then added into a new array."""
        a = Tensor(np.array([1.0, -2.0, 0.5, 4.0]), requires_grad=True)
        h = a * 3.0
        m = ad.add(h, 1.0)
        c = Tensor(np.array([0.5, -1.5, 2.0, -0.0]))
        terms = [ad.tsum(m * c), ad.tsum(ad.relu(h))]
        views = []
        real_hand_off = ad._hand_off

        def spy(node, grads):
            if node is m:
                views.append(h.grad is None)
            real_hand_off(node, grads)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_hand_off", spy)
            backward(ad.add(*terms) if view_first else ad.add(*terms[::-1]))
        held = (np.zeros(4) + c.data).tobytes()
        assert views == [view_first] and m.grad.tobytes() == held
        assert np.array_equal(h.grad, c.data + (h.data > 0)) and not np.shares_memory(h.grad, m.grad)
        assert np.array_equal(a.grad, 3.0 * h.grad)

    def test_adding_an_op_output_to_itself_hands_on_twice_the_gradient(self):
        a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        x = a * 2.0
        y = ad.add(x, x)
        c = Tensor(np.array([0.5, -1.5, 2.0]))
        backward(ad.tsum(y * c))
        assert np.array_equal(y.grad, c.data)
        assert np.array_equal(x.grad, 2.0 * c.data) and not np.shares_memory(x.grad, y.grad)
        assert np.array_equal(a.grad, 4.0 * c.data)

    def test_no_leaf_gradient_shares_memory_with_another_tensors(self):
        r = np.random.default_rng(2)
        a, b, c = (Tensor(r.normal(size=(3, 4)), requires_grad=True) for _ in range(3))
        h = a * b
        flat = ad.reshape(h, (12,))
        joined = ad.concat([flat, ad.reshape(b, (12,)), ad.reshape(ad.transpose(a, (1, 0)), (12,)),
                            ad.reshape(c, (12,))])
        shifted = ad.add(joined, 1.0)
        backward(ad.tsum(shifted * Tensor(r.normal(size=48))))
        tensors = [a, b, c, h, flat, joined, shifted]
        assert np.shares_memory(h.grad, joined.grad)  # op outputs keep views
        for leaf in (a, b, c):
            for t in tensors:
                assert t is leaf or not np.shares_memory(leaf.grad, t.grad)


class TestDeterminism:
    def test_same_seed_bit_identical_forward_and_grads(self):
        def build(seed):
            r = np.random.default_rng(seed)
            x = Tensor(r.normal(size=(3, 5)), requires_grad=True)
            w = Tensor(r.normal(size=(5, 4)), requires_grad=True)
            loss = mse(ad.relu(ad.linear(x, w, Tensor(np.zeros(4)))), np.zeros((3, 4)))
            backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = build(99)
        l2, gx2, gw2 = build(99)
        assert l1 == l2
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


class TestSgdStep:
    """train.SGD's first step, from zero velocity, is plain
    p <- p - lr * grad; each later step first scales the velocity by
    ``MOMENTUM``. Gradients of global L2 norm above ``CLIP_GRAD_NORM`` are
    first scaled down to it."""

    def test_basic_arithmetic(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.5])
        SGD({"p": p}).step(lr=0.002)
        assert np.allclose(p.data, [0.999])
        assert p.grad is None

    def test_second_step_adds_momentum_times_the_velocity(self):
        p = Tensor([1.0], requires_grad=True)
        opt = SGD({"p": p})
        for _ in range(2):
            p.grad = np.array([0.5])
            opt.step(lr=0.1)
        assert np.allclose(p.data, [1.0 - 0.1 * 0.5 - 0.1 * (MOMENTUM * 0.5 + 0.5)])

    def test_zero_lr_keeps_params(self):
        p = Tensor([3.0, -1.0], requires_grad=True)
        p.grad = np.array([10.0, 10.0])
        SGD({"p": p}).step(lr=0.0)
        assert np.array_equal(p.data, [3.0, -1.0])

    def test_missing_grad_leaves_param_untouched(self):
        p = Tensor([1.0], requires_grad=True)
        q = Tensor([2.0], requires_grad=True)
        q.grad = np.array([1.0])
        SGD({"p": p, "q": q}).step(lr=0.1)
        assert np.array_equal(p.data, [1.0])
        assert np.allclose(q.data, [1.9])

    def test_gradients_above_the_clip_norm_are_scaled_down_to_it(self):
        p, q, r = (Tensor([1.0], requires_grad=True) for _ in range(3))
        p.grad, q.grad = np.array([12.0]), np.array([16.0])  # global norm 20
        SGD({"p": p, "q": q, "r": r}).step(lr=1.0)
        assert CLIP_GRAD_NORM == 10.0
        assert p.data.tolist() == [1.0 - 6.0] and q.data.tolist() == [1.0 - 8.0]
        assert r.data.tolist() == [1.0] and r.grad is None

    @pytest.mark.parametrize("grads", [(3.0, 4.0), (6.0, 8.0)], ids=["norm-5", "norm-10"])
    def test_gradients_not_above_the_clip_norm_are_kept(self, grads):
        p, q = (Tensor([1.0], requires_grad=True) for _ in range(2))
        p.grad, q.grad = np.array([grads[0]]), np.array([grads[1]])
        SGD({"p": p, "q": q}).step(lr=1.0)
        assert p.data.tolist() == [1.0 - grads[0]] and q.data.tolist() == [1.0 - grads[1]]

    def test_quadratic_convergence(self):
        # minimize (x-3)^2 with lr 0.1; momentum 0.9 shrinks the error by
        # sqrt(0.9) a step
        x = Tensor([0.0], requires_grad=True)
        opt = SGD({"x": x})
        for _ in range(400):
            d = ad.add(x, -3.0)
            backward(ad.tsum(d * d))
            opt.step(lr=0.1)
        assert abs(x.item() - 3.0) < 1e-6


class TestOpExamples:
    def test_smooth_l1_at_half(self):
        v = ad.smooth_l1(Tensor([0.5, -0.5]), [0.0, 0.0])
        assert np.allclose(v.data, [0.125, 0.125])

    def test_smooth_l1_linear_branch(self):
        v = ad.smooth_l1(Tensor([2.0]), [0.0])
        assert np.allclose(v.data, [1.5])

    @pytest.mark.parametrize("op", [ad.smooth_l1, ad.sq_error_sum])
    def test_a_loss_target_is_an_array_and_no_parent(self, op):
        # a teacher map in PD/RD/LD, a regression target in the losses
        pred = Tensor(np.ones((2, 3)), requires_grad=True)
        out = op(pred, np.zeros((2, 3)))
        assert out._parents == (pred,) and len(out._backward(np.ones_like(out.data))) == 1
        with pytest.raises(ShapeError):
            op(pred, np.zeros((3, 2)))
        with pytest.raises(TypeError):
            op(pred, Tensor(np.zeros((2, 3))))

    def test_softmax_rows_sum_to_one(self, rng):
        # exp(-CE(z, k)) is softmax(z)[k], the probability the fused op uses
        for row in rng.normal(size=(4, 6)):
            probs = [math.exp(-ad.softmax_cross_entropy(Tensor(row[None]), [k]).item())
                     for k in range(6)]
            assert abs(sum(probs) - 1.0) < 1e-12

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[20.0, -20.0], [-20.0, 20.0]]))
        loss = ad.softmax_cross_entropy(logits, [0, 1])
        assert loss.item() < 1e-6

    def test_bce_perfect_prediction(self):
        loss = ad.bce_with_logits(Tensor([20.0, -20.0]), [1.0, 0.0])
        assert loss.item() < 1e-6

    def test_concat_and_split_gradients(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        c = ad.concat([a, b], axis=0)
        backward(ad.tsum(c * 2.0))
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)



class TestTake:
    """``take``, the one row-pick op: its values and the scatter-add of its
    gradient."""

    def test_1d_picks_elements_and_repeats_add_into_one(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        g = ad.take(t, [0, 0, 5])
        assert np.array_equal(g.data, [0.0, 0.0, 5.0])
        backward(ad.tsum(g))
        assert np.array_equal(t.grad, [2.0, 0, 0, 0, 0, 1.0])

    def test_2d_picks_rows_and_repeats_add_into_one_row(self):
        t = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        g = ad.take(t, [2, 0, 2])
        assert np.array_equal(g.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0], [6.0, 7.0, 8.0]])
        backward(ad.tsum(ad.mul(g, Tensor(np.array([[1.0], [2.0], [3.0]]).repeat(3, axis=1)))))
        assert np.array_equal(t.grad, [[2.0] * 3, [0.0] * 3, [4.0] * 3, [0.0] * 3])

    def test_a_transposed_input_gets_a_gradient_of_its_own_layout(self):
        # rpn_forward's deltas are such a view; its rule's buffer keeps the
        # F layout, which the rest of the backward pass reads in that order
        x = Tensor(np.arange(12.0, dtype=np.float32).reshape(3, 4), requires_grad=True)
        xt = ad.transpose(x, (1, 0))
        assert xt.data.flags.f_contiguous and not xt.data.flags.c_contiguous
        picked = ad.take(xt, [3, 1, 3])
        (ga,) = picked._backward(np.ones_like(picked.data))
        assert ga.flags.f_contiguous and not ga.flags.c_contiguous and ga.dtype == np.float32
        backward(ad.tsum(picked))
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0, 2.0]] * 3)


class TestSqErrorSum:
    """``sq_error_sum`` against the sub -> mul -> tsum graph it replaced."""

    @staticmethod
    def _operands(r, dtype, top):
        """Random pred and target with signed zeros and magnitudes from
        1e-20 to 10**top."""
        def draw(shape):
            vals = r.choice([-1.0, 1.0], size=shape) * 10.0 ** r.uniform(-20, top, size=shape)
            vals.reshape(-1)[r.integers(0, vals.size, size=3)] = r.choice([0.0, -0.0], size=3)
            return vals.astype(dtype)

        shape = tuple(int(n) for n in r.integers(1, 5, size=int(r.integers(1, 4))))
        return draw(shape), draw(shape)

    # float32 stops at 1e18, where a sum of squares still fits, since
    # backward refuses an infinite loss.
    @pytest.mark.parametrize("dtype, top", [(np.float32, 18), (np.float64, 20)])
    def test_value_and_gradient_bytes_match_the_earlier_graph(self, dtype, top):
        r = np.random.default_rng(21)
        for _ in range(2000):
            pred, target = self._operands(r, dtype, top)
            scale = 10.0 ** r.uniform(-6, 2)
            x = Tensor(pred, requires_grad=True)
            out = ad.sq_error_sum(x, target)
            backward(out * scale)
            value, grad = sq_error_sum_chain(pred, target, np.ones((), dtype) * scale)
            assert out.data.dtype == dtype and out.data.tobytes() == value.tobytes()
            assert x.grad.tobytes() == grad.tobytes()

    def test_a_nan_target_gives_a_nan_loss_that_backward_refuses(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = ad.sq_error_sum(x, np.array([0.0, np.nan, 1.0]))
        assert np.isnan(out.item())
        with pytest.raises(ValueError, match="non-finite loss"):
            backward(out)
        assert x.grad is None


def _leaf(shape, needs_grad, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=needs_grad)


# Every op that records a gradient rule, on fresh inputs that need (True)
# or do not need (False) a gradient.
_OPS = {
    "add": lambda rg: ad.add(_leaf((2, 3), rg), _leaf((2, 3), rg, 1)),
    "add_scalar": lambda rg: ad.add(_leaf((2, 3), rg), 1.5),
    "mul": lambda rg: ad.mul(_leaf((2, 3), rg), _leaf((2, 3), rg, 1)),
    "mul_scalar": lambda rg: ad.mul(_leaf((2, 3), rg), 1.5),
    "relu": lambda rg: ad.relu(_leaf((2, 3), rg)),
    "tsum": lambda rg: ad.tsum(_leaf((2, 3), rg)),
    "reshape": lambda rg: ad.reshape(_leaf((2, 3), rg), (3, 2)),
    "transpose": lambda rg: ad.transpose(_leaf((2, 3), rg), (1, 0)),
    "concat": lambda rg: ad.concat([_leaf((2, 3), rg), _leaf((1, 3), rg, 1)]),
    "take": lambda rg: ad.take(_leaf((4, 3), rg), [2, 0]),
    "take_1d": lambda rg: ad.take(_leaf((6,), rg), [5, 0, 5]),
    "linear": lambda rg: ad.linear(_leaf((2, 3), rg), _leaf((3, 4), rg, 1), _leaf((4,), rg, 2)),
    "softmax_cross_entropy": lambda rg: ad.softmax_cross_entropy(_leaf((2, 3), rg), [0, 2]),
    "bce_with_logits": lambda rg: ad.bce_with_logits(_leaf((2, 3), rg), np.ones((2, 3))),
    "smooth_l1": lambda rg: ad.smooth_l1(_leaf((2, 3), rg), _leaf((2, 3), False, 1).data),
    "sq_error_sum": lambda rg: ad.sq_error_sum(_leaf((2, 3), rg), _leaf((2, 3), False, 1).data),
    "conv2d": lambda rg: imageops.conv2d(_leaf((1, 2, 4, 4), rg), _leaf((3, 2, 3, 3), rg, 1),
                                         _leaf((3,), rg, 2)),
    "maxpool2x2": lambda rg: imageops.maxpool2x2(_leaf((1, 2, 4, 4), rg)),
    "upsample2x": lambda rg: imageops.upsample2x(_leaf((1, 2, 2, 2), rg)),
    "roi_align_batch": lambda rg: roi.roi_align_batch([_leaf((2, 8, 8), rg), _leaf((2, 4, 4), rg, 1)],
                                                      [[1.0, 1.0, 20.0, 24.0]], [4, 8], out_size=2),
    "roi_align_batch_single_level": lambda rg: roi.roi_align_batch(
        [_leaf((2, 8, 8), rg), _leaf((2, 4, 4), rg, 1)], [[1.0, 1.0, 20.0, 24.0], [0.0, 0.0, 9.0, 9.0]],
        [4, 8], out_size=2, box_levels=[1, 0]),
}


@pytest.fixture
def offered_rules(monkeypatch):
    """The rule each op hands ``Tensor._from_op``, in call order."""
    rules = []
    real = Tensor._from_op.__func__

    def spy(cls, data, parents, rule):
        rules.append(rule)
        return real(cls, data, parents, rule)

    monkeypatch.setattr(Tensor, "_from_op", classmethod(spy))
    return rules


class TestRulesRecordedByFromOp:
    """Ops hand their gradient rule to ``_from_op``, which alone decides
    whether the output records it."""

    @pytest.mark.parametrize("name", sorted(_OPS))
    def test_op_on_inputs_needing_a_gradient_records_its_rule(self, name, offered_rules):
        out = _OPS[name](True)
        assert callable(offered_rules[-1])
        assert out.requires_grad and out._backward is offered_rules[-1]

    @pytest.mark.parametrize("name", sorted(_OPS))
    def test_rule_returns_one_gradient_per_parent_and_sets_no_grad(self, name):
        out = _OPS[name](True)
        grads = out._backward(np.ones_like(out.data))
        assert len(grads) == len(out._parents)
        for p, g in zip(out._parents, grads):
            assert p.grad is None
            assert g is not None and np.shape(g) == p.data.shape

    @pytest.mark.parametrize("name", sorted(_OPS))
    def test_op_on_inputs_needing_no_gradient_records_no_rule(self, name, offered_rules):
        out = _OPS[name](False)
        assert callable(offered_rules[-1])  # offered, then dropped unrun
        assert not out.requires_grad and out._backward is None and out._parents == ()
        assert len(Tape(out)) == 0
