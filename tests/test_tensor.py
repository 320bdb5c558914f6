import ast
import inspect
import math

import numpy as np
import pytest

import oracles
from paracap import gradcheck
from paracap import tensor as T
from paracap.errors import NumericalError, ShapeError
from paracap.nn import MLP, Linear, MaskedMultiHeadAttention, SelfAttention
from paracap.tensor import Tensor
from paracap.training import AdamState


def leaf(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestForwardValues:
    def test_matmul_identity(self, rng):
        x = rng.normal(size=(2, 3))
        out = T.matmul(Tensor(np.eye(2)), Tensor(x))
        np.testing.assert_array_equal(out.values, x)

    def test_matmul_hand_case(self):
        out = T.matmul(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])),
                       Tensor(np.array([[1.0], [1.0]])))
        np.testing.assert_array_equal(out.values, [[3.0], [7.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"2, 3.*4, 2"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_softmax_constant_row(self):
        out = T.softmax(Tensor(np.array([2.5, 2.5, 2.5])))
        np.testing.assert_allclose(out.values, [1 / 3] * 3, rtol=0, atol=1e-15)

    def test_softmax_analytic_pair(self):
        out = T.softmax(Tensor(np.array([0.0, math.log(2.0)])))
        np.testing.assert_allclose(out.values, [1 / 3, 2 / 3], rtol=0, atol=1e-15)

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(scale=5.0, size=(6, 9))
        out = T.softmax(Tensor(x))
        np.testing.assert_allclose(out.values.sum(axis=1), np.ones(6),
                                   rtol=0, atol=1e-12)

    def test_softmax_family_normalizes_the_last_axis_of_a_3d_input(self, rng):
        x = rng.normal(scale=3.0, size=(2, 3, 5))
        p = T.softmax(Tensor(x)).values
        np.testing.assert_allclose(p.sum(axis=-1), np.ones((2, 3)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(p[1, 2], oracles.softmax_loop(x[1, 2]), atol=1e-15)
        np.testing.assert_allclose(np.exp(T.log_softmax(Tensor(x)).values), p,
                                   rtol=0, atol=1e-15)

    def test_softmax_rejects_nan(self):
        with pytest.raises(NumericalError):
            T.softmax(Tensor(np.array([0.0, np.nan])))

    def test_softmax_matches_loop(self, rng):
        x = rng.normal(size=7)
        out = T.softmax(Tensor(x))
        np.testing.assert_allclose(out.values, oracles.softmax_loop(x), atol=1e-15)

    def test_layer_norm_constant_slice_saturates_to_bias(self):
        gain = leaf(np.ones(3))
        bias = leaf(np.array([1.0, -2.0, 0.5]))
        out = T.layer_norm(Tensor(np.full(3, 4.2)), gain, bias)
        np.testing.assert_allclose(out.values, bias.values, rtol=0, atol=1e-12)

    def test_layer_norm_two_point_hand_case(self):
        out = T.layer_norm(Tensor(np.array([1.0, 3.0])), leaf(np.ones(2)),
                           leaf(np.zeros(2)))
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.values, [-expected, expected],
                                   rtol=0, atol=1e-15)

    def test_layer_norm_output_mean_near_zero(self, rng):
        x = rng.normal(scale=3.0, size=(4, 8))
        out = T.layer_norm(Tensor(x), leaf(np.ones(8)), leaf(np.zeros(8)))
        assert np.abs(out.values.mean(axis=-1)).max() <= 1e-9

    def test_layer_norm_matches_loop(self, rng):
        x = rng.normal(size=6)
        gain = rng.normal(size=6)
        bias = rng.normal(size=6)
        out = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
        np.testing.assert_allclose(out.values,
                                   oracles.layer_norm_loop(x, gain, bias),
                                   atol=1e-12)

    def test_l2_norm_rows_hand_case(self):
        out = T.l2_norm_rows(Tensor(np.array([[3.0, 4.0]])))
        np.testing.assert_array_equal(out.values, [5.0])

    def test_l2_norm_rows_zero_row_subgradient(self):
        x = leaf(np.zeros((1, 3)))
        out = T.l2_norm_rows(x)
        np.testing.assert_array_equal(out.values, [0.0])
        T.backward(T.tsum(out))
        np.testing.assert_array_equal(x.grad, np.zeros((1, 3)))

    def test_gelu_matches_erf_form(self, rng):
        # identity maps and zero biases leave the MLP's activation alone
        x = rng.normal(size=(1, 5))
        eye, zero = Tensor(np.eye(5)), Tensor(np.zeros(5))
        out = T.mlp(Tensor(x), eye, zero, eye, zero)
        expected = x * 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
        np.testing.assert_allclose(out.values, expected, atol=1e-15)

    def test_attention_bias_values(self, rng):
        # the mask adds exactly 0 to kept scores and -1e9 to masked ones:
        # row 0's masked raw score 1e9 lands on 0 and ties with its neighbour,
        # while row 1 keeps it and puts all its weight on key 1
        mask = np.array([[True, False], [True, True]])
        attn = SelfAttention(rng, 4)
        attn.wq.values = np.zeros((4, 4))
        attn.wq.values[:2, 0] = 1.0
        attn.wk.values = np.zeros((4, 4))
        attn.wk.values[1, 0] = 2e9       # times the 1/sqrt(4) scale: a raw score of 1e9
        attn.wv.values = np.eye(4)
        out = attn(Tensor(np.eye(4)[:2]), mask)
        np.testing.assert_array_equal(out.values, [[0.5, 0.5, 0, 0], [0.0, 1.0, 0, 0]])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        T.backward(T.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_backward_rejects_non_scalar(self):
        x = leaf(np.ones(3))
        with pytest.raises(ShapeError):
            T.backward(x + x)

    def test_take_rows_accumulates_duplicates(self):
        x = leaf(np.arange(6.0).reshape(3, 2))
        out = T.take_rows(x, [1, 1, 2])
        T.backward(T.tsum(out))
        np.testing.assert_array_equal(x.grad, [[0, 0], [2, 2], [1, 1]])

    def test_no_grad_blocks_recording(self):
        x = leaf(np.ones(3))
        with T.no_grad():
            out = T.tsum(x * x)
        assert out.parents == ()
        assert not out.requires_grad

    def test_broadcast_add_gradient(self):
        x = leaf(np.ones((3, 4)))
        b = leaf(np.arange(4.0))
        T.backward(T.tsum(x + b))
        np.testing.assert_array_equal(b.grad, np.full(4, 3.0))

    def test_backward_consumes_the_graph_and_keeps_leaf_gradients(self, rng):
        x, w = leaf(rng.normal(size=(3, 4))), leaf(rng.normal(size=(4, 2)))
        gain, bias = leaf(np.ones(2)), leaf(np.zeros(2))
        h = T.layer_norm(x @ w, gain, bias)
        loss = T.tsum(h * h * Tensor(rng.normal(size=(3, 2))) + h)
        nodes = T.toposort(loss)
        T.backward(loss)
        assert [id(n) for n in T.toposort(loss)] == [id(n) for n in nodes]
        interior = [n for n in nodes if n.op != "leaf"]
        assert len(interior) == 6
        for node in interior:
            assert node.grad is None and node._backward is None, node.op
            assert node.requires_grad and node.parents, node.op
        for p in (x, w, gain, bias):
            assert p.grad.shape == p.shape and (p.grad != 0.0).any()

    def test_second_backward_through_a_consumed_node_raises(self):
        # a silent second pass used to leave x.grad at 32, where two correct ones give 16
        x = leaf(np.ones(3))
        doubled = 2.0 * x
        loss = T.tsum(doubled * doubled)
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(3, 8.0))
        with pytest.raises(RuntimeError):
            T.backward(loss)
        with pytest.raises(RuntimeError):
            T.backward(T.tsum(doubled * Tensor(np.ones(3))))
        np.testing.assert_array_equal(x.grad, np.full(3, 8.0))

    def test_masked_attention_ignores_masked_content(self, rng):
        # causal mask: row 1 sees keys 0-1, so key 2 is masked for it; with
        # identity rows and no biases each head's q, k and v are its weights
        mask = np.tril(np.ones((3, 3), dtype=bool))
        row1 = Tensor(np.array([[0.0], [1.0], [0.0]]))
        wq, wk, wv = (leaf(rng.normal(size=(3, 4))) for _ in range(3))
        out = T.attention_heads(Tensor(np.eye(3)), [wq, wk, wv], None, mask, {})
        T.backward(T.tsum(out * row1))
        k2 = wk.values.copy()
        k2[2] += 100.0   # moves the masked score (1, 2)
        moved = [Tensor(wq.values), Tensor(k2), Tensor(wv.values)]
        out2 = T.attention_heads(Tensor(np.eye(3)), moved, None, mask, {})
        np.testing.assert_array_equal(out.values[1], out2.values[1])
        assert (wk.grad[2] == 0.0).all() and (wv.grad[2] == 0.0).all()
        assert (wk.grad[:2] != 0.0).any() and (wv.grad[:2] != 0.0).any()


class TestAttention:
    """``SelfAttention``, a one-head ``T.attention_heads`` without biases."""

    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_the_composed_oracle_bitwise(self, rng, masked):
        attn = SelfAttention(rng, 6)
        for p in attn.params().values():
            p.values = rng.normal(0.0, 0.3, size=p.shape)
        mask = np.tril(np.ones((5, 5), dtype=bool), k=1) if masked else None
        x_values = rng.normal(size=(5, 6))
        w = Tensor(rng.normal(size=(5, 6)))

        def composed(x, mask):
            return oracles.attention_composed(x @ attn.wq, x @ attn.wk, x @ attn.wv, mask)

        results = []
        for attend in (attn, composed):
            x = leaf(x_values)
            T.zero_grads(attn.params().values())
            out = attend(x, mask)
            T.backward(T.tsum(out * w))
            results.append((out.values, x.grad, attn.wq.grad, attn.wk.grad, attn.wv.grad))
        for fused, composed_result in zip(*results):
            np.testing.assert_array_equal(fused, composed_result)

    def test_rejects_nan_scores(self, rng):
        with pytest.raises(NumericalError):
            SelfAttention(rng, 2)(Tensor(np.array([[np.nan, 0.0], [1.0, 1.0]])))

    def test_one_call_records_one_node(self, rng):
        attn = SelfAttention(rng, 4)
        x = leaf(rng.normal(size=(3, 4)))
        out = attn(x, np.tril(np.ones((3, 3), dtype=bool)))
        assert [node.op for node in T.toposort(out) if node.op != "leaf"] == ["attention_heads"]
        assert out.parents == (x, attn.wq, attn.wk, attn.wv)
        assert sorted(attn.params()) == ["wk", "wq", "wv"]


def jittered_block(rng, d, n_heads):
    """A masked multi-head block with weights and biases far from the
    near-zero init, so every head's softmax is far from uniform."""
    block = MaskedMultiHeadAttention(rng, d, n_heads)
    for p in block_params(block):
        p.values = rng.normal(0.0, 0.3, size=p.shape)
    return block


def block_params(block):
    return list(block.params().values())


class TestAttentionHeads:
    @pytest.mark.parametrize("d,n_heads", [(24, 2), (32, 4), (64, 4)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_the_per_head_oracle_bitwise(self, rng, d, n_heads, masked):
        block = jittered_block(rng, d, n_heads)
        x_values = rng.normal(size=(7, d))
        w = Tensor(rng.normal(size=(7, d)))
        mask = np.tril(np.ones((7, 7), dtype=bool)) if masked else None
        results = []
        for attend in (block, lambda *a: oracles.masked_multi_head_loop(block, *a)):
            x = leaf(x_values)
            T.zero_grads(block_params(block))
            out = attend(x, mask, {})
            T.backward(T.tsum(out * w))
            results.append([out.values, x.grad] + [p.grad for p in block_params(block)])
        assert len(results[0]) == 6 * n_heads + 4   # output, x, per-head q/k/v, wo
        for fused, looped in zip(*results):
            np.testing.assert_array_equal(fused, looped)

    def test_cached_step_matches_the_last_row_of_a_full_pass(self, rng):
        block = jittered_block(rng, 24, 2)
        x = rng.normal(size=(6, 24))
        cache = {}
        with T.no_grad():
            full = block(Tensor(x), np.tril(np.ones((6, 6), dtype=bool)), {})
            block(Tensor(x[:5]), np.tril(np.ones((5, 5), dtype=bool)), cache)
            step = block(Tensor(x[5:]), None, cache)
        assert cache["k"].shape == cache["v"].shape == (2, 6, 12)
        np.testing.assert_allclose(step.values[0], full.values[5], rtol=1e-12, atol=0)

    def test_one_block_call_records_two_nodes(self, rng):
        block = jittered_block(rng, 32, 4)
        out = block(leaf(rng.normal(size=(5, 32))), None, {})
        ops = sorted(node.op for node in T.toposort(out) if node.op != "leaf")
        assert ops == ["attention_heads", "linear"]

    def test_cached_call_refused_while_recording(self, rng):
        block = jittered_block(rng, 8, 2)
        cache = {}
        with T.no_grad():
            block(Tensor(rng.normal(size=(3, 8))), None, cache)
        with pytest.raises(RuntimeError, match="no_grad"):
            block(leaf(rng.normal(size=(1, 8))), None, cache)
        assert cache["k"].shape == (2, 3, 4)   # the refused call stored nothing

    @pytest.mark.parametrize("cached_rows,shape", [(0, (3, 4)), (0, (4, 3)), (1, (3, 3))])
    def test_mask_must_cover_cached_and_new_rows(self, rng, cached_rows, shape):
        block = jittered_block(rng, 8, 2)
        cache = {}
        with T.no_grad():
            if cached_rows:
                block(Tensor(rng.normal(size=(cached_rows, 8))), None, cache)
            with pytest.raises(ShapeError):
                block(Tensor(rng.normal(size=(3, 8))), np.ones(shape, dtype=bool), cache)


class TestFusedAffine:
    """``T.linear`` and ``T.mlp`` against the compositions they replaced."""

    @pytest.mark.parametrize("zeroed", [False, True], ids=["fresh", "zeroed"])
    @pytest.mark.parametrize("layer", ["linear", "mlp"])
    def test_matches_the_composition_bitwise(self, rng, layer, zeroed):
        """Values and the gradients of x and every parameter, accumulated
        into fresh leaf grads or into pre-zeroed views of one buffer (as
        training's ``AdamState`` sets them up)."""
        module = Linear(rng, 6, 4) if layer == "linear" else MLP(rng, 6, 12, 4)
        composed = oracles.linear_composed if layer == "linear" else oracles.mlp_composed
        for p in module.params().values():
            p.values = rng.normal(0.0, 0.5, size=p.shape)
        x = leaf(rng.normal(size=(5, 6)))
        params = [x] + list(module.params().values())
        ws = [Tensor(rng.normal(size=(5, 4))) for _ in range(3)]

        def run(apply):
            T.zero_grads(params)
            if zeroed:
                AdamState({str(i): p for i, p in enumerate(params)})
            # three uses, so every gradient sums three contributions
            outs = [apply(x) for _ in ws]
            total = T.tsum(outs[0] * ws[0])
            for out, w in zip(outs[1:], ws[1:]):
                total = total + T.tsum(out * w)
            T.backward(total)
            return [outs[0].values] + [p.grad.copy() for p in params]

        for got, want in zip(run(module), run(lambda t: composed(t, module))):
            np.testing.assert_array_equal(got, want)

    def test_one_call_records_one_node(self, rng):
        x = leaf(rng.normal(size=(3, 4)))
        for module, op in ((Linear(rng, 4, 2), "linear"), (MLP(rng, 4, 8, 2), "mlp")):
            out = module(x)
            assert [node.op for node in T.toposort(out) if node.op != "leaf"] == [op]
            assert out.parents == (x, *module.params().values())

    @pytest.mark.parametrize("bias_shape", [(1, 2), (3, 2), (3,)])
    def test_bias_must_match_the_weight_columns(self, rng, bias_shape):
        x, w, b = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2))), Tensor(np.ones(bias_shape))
        with pytest.raises(ShapeError, match="bias"):
            T.linear(x, w, b)
        with pytest.raises(ShapeError, match="bias"):
            T.mlp(x, w, Tensor(np.ones(2)), Tensor(np.ones((2, 2))), b)

    def test_mlp_hidden_width_must_match(self):
        x = Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError, match=r"inner extents"):
            T.mlp(x, Tensor(np.ones((4, 5))), Tensor(np.ones(5)),
                  Tensor(np.ones((6, 2))), Tensor(np.ones(2)))


class TestLayerNormSums:
    """``T.layer_norm``'s hand-written sums against ``ndarray.mean``/``.var``."""

    # a width of 6, where dividing by it and multiplying by its reciprocal differ
    @pytest.mark.parametrize("case", ["vector", "rows", "constant-rows", "offset-rows"])
    def test_matches_the_numpy_methods_bitwise(self, rng, case):
        if case == "vector":
            x_values = rng.normal(size=6)
        else:
            x_values = rng.normal(size=(5, 6))
            if case == "constant-rows":
                x_values[1] = 4.2
                x_values[3] = -1e6
            elif case == "offset-rows":
                x_values = 1e6 + x_values
        x, gain, bias = leaf(x_values), leaf(rng.normal(size=6)), leaf(rng.normal(size=6))
        w = Tensor(rng.normal(size=x_values.shape))
        results = []
        for norm in (T.layer_norm, oracles.layer_norm_numpy):
            T.zero_grads([x, gain, bias])
            out = norm(x, gain, bias)
            T.backward(T.tsum(out * w))
            results.append([out.values, x.grad, gain.grad, bias.grad])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)


class TestConcatBackward:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_pieces_match_np_split(self, rng, axis):
        extents = [2, 1, 3]
        parts = [leaf(rng.normal(size=(e, 4) if axis == 0 else (4, e))) for e in extents]
        w = rng.normal(size=(6, 4) if axis == 0 else (4, 6))
        T.backward(T.tsum(T.concat(parts, axis=axis) * Tensor(w)))
        for part, piece in zip(parts, np.split(w, np.cumsum(extents)[:-1], axis=axis)):
            np.testing.assert_array_equal(part.grad, piece)


class TestFiniteDifference:
    def test_linear_function_error_is_rounding_only(self, rng):
        # no truncation error on a linear map, only float rounding of x +- h
        x = leaf(rng.normal(size=5))
        assert T.finite_diff_check(T.tsum, x) <= 1e-10

    def test_softmax_pick_within_tolerance(self, rng):
        x = leaf(rng.normal(size=6))

        def pick(t):
            return T.tsum(T.softmax(t) * Tensor(np.eye(6)[2]))

        assert T.finite_diff_check(pick, x) <= 1e-6

    def test_wrong_gradient_is_flagged(self, rng):
        x = leaf(rng.normal(size=4))

        def wrong_square_sum(t):
            # claims d(sum t^2)/dt = 3t instead of 2t
            return T._make(np.sum(t.values ** 2), "wrong", (t,),
                           lambda g: T._accum(t, 3.0 * t.values * g))

        assert T.finite_diff_check(wrong_square_sum, x) > 1e-2

    def test_rejects_nondeterministic_function(self, rng):
        x = leaf(rng.normal(size=3))
        state = {"calls": 0}

        def flaky(t):
            state["calls"] += 1
            return T.tsum(t * float(state["calls"]))

        with pytest.raises(NumericalError):
            T.finite_diff_check(flaky, x)

    @pytest.mark.parametrize("name,f", [
        ("exp_log_mix", lambda t: T.tsum(T.texp(t * 0.3) + T.tlog(T.clamp_min(t, 0.5)))),
        ("sigmoid_chain", lambda t: T.tsum(T.texp(T.log_sigmoid(t)) * T.log_sigmoid(t))),
        ("norm_mean", lambda t: T.tmean(T.l2_norm_rows(T.reshape(t, (2, 3))))),
        ("log_softmax", lambda t: T.tsum(T.log_softmax(T.reshape(t, (2, 3)))
                                         * Tensor(np.arange(6.0).reshape(2, 3)))),
        ("concat_stack", lambda t: stacked_square_sum(t)),
    ])
    def test_composite_functions(self, name, f):
        gen = np.random.default_rng(hashable_seed(name))
        x = leaf(gen.normal(size=6) + 1.2)
        assert T.finite_diff_check(f, x) <= 1e-6

    def test_primitive_cases_cover_exactly_the_recorded_ops(self):
        # every op name tensor.py records has a finite-difference case, and no
        # case reaches an op the substrate no longer has
        tree = ast.parse(inspect.getsource(T))
        recorded = {node.args[1].value for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_make"}
        checked = set()
        for _, builder in gradcheck._primitive_cases():
            f, x = builder(np.random.default_rng(0))
            checked.update(node.op for node in T.toposort(f(x)))
        assert checked - {"leaf"} == recorded

    def test_only_the_arithmetic_ops_wrap_raw_operands(self):
        # scalar operands such as ``1.0 - probs`` and ``/ float(n)`` reach
        # only these; every other primitive takes tensors as its callers pass
        tree = ast.parse(inspect.getsource(T))
        wrapping = set()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    visit(child, child.name if not scope else f"{scope}.{child.name}")
                    continue
                if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_wrap":
                    wrapping.add(scope)
                visit(child, scope)

        visit(tree, "")
        assert wrapping == {"add", "sub", "mul", "div",
                            "Tensor.__rsub__", "Tensor.__rtruediv__"}


def hashable_seed(name):
    return sum(ord(c) for c in name)


def stacked_square_sum(t):
    mat = T.reshape(t, (2, 3))
    rows = [T.reshape(T.take_rows(mat, [i]), (3,)) for i in (0, 1)]
    both = T.concat([mat, T.stack(rows, axis=0)], axis=0)
    return T.tsum(both * both)


class TestTensorIndexing:
    def test_transpose_reshape_round_trip(self, rng):
        x = leaf(rng.normal(size=(3, 4)))
        out = T.transpose(T.transpose(x))
        T.backward(T.tsum(out * out))
        np.testing.assert_allclose(x.grad, 2.0 * x.values, atol=1e-15)
