import ast
import inspect
import math

import numpy as np
import pytest

import oracles
from paracap import gradcheck
from paracap import tensor as T
from paracap.errors import NumericalError, ShapeError
from paracap.tensor import Tensor


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
        x = rng.normal(size=5)
        out = T.gelu(Tensor(x))
        expected = x * 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
        np.testing.assert_allclose(out.values, expected, atol=1e-15)

    def test_attention_bias_values(self):
        # the mask adds exactly 0 to kept scores and -1e9 to masked ones:
        # row 0's masked raw score 1e9 lands on 0 and ties with its neighbour,
        # while row 1 keeps it and puts all its weight on key 1
        mask = np.array([[True, False], [True, True]])
        q, k = Tensor(np.ones((2, 1))), Tensor(np.array([[0.0], [1e9]]))
        out = T.attention(q, k, Tensor(np.eye(2)), mask)
        np.testing.assert_array_equal(out.values, [[0.5, 0.5], [0.0, 1.0]])


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

    def test_masked_attention_ignores_masked_content(self, rng):
        # causal mask: row 1 sees keys 0-1, so key 2 is masked for it
        mask = np.tril(np.ones((3, 3), dtype=bool))
        row1 = Tensor(np.array([[0.0], [1.0], [0.0]]))
        q, k, v = (leaf(rng.normal(size=(3, 4))) for _ in range(3))
        out = T.attention(q, k, v, mask)
        T.backward(T.tsum(out * row1))
        k2 = k.values.copy()
        k2[2] += 100.0   # moves the masked score (1, 2)
        out2 = T.attention(Tensor(q.values), Tensor(k2), Tensor(v.values), mask)
        np.testing.assert_array_equal(out.values[1], out2.values[1])
        assert (k.grad[2] == 0.0).all() and (v.grad[2] == 0.0).all()
        assert (k.grad[:2] != 0.0).any() and (v.grad[:2] != 0.0).any()


class TestAttention:
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_the_composed_oracle_bitwise(self, rng, masked):
        mask = np.tril(np.ones((4, 5), dtype=bool), k=1) if masked else None
        w = rng.normal(size=(4, 3))
        draws = [rng.normal(size=shape) for shape in ((4, 6), (5, 6), (5, 3))]
        results = []
        for attend in (T.attention, oracles.attention_composed):
            q, k, v = (leaf(d) for d in draws)
            out = attend(q, k, v, mask)
            T.backward(T.tsum(out * Tensor(w)))
            results.append((out.values, q.grad, k.grad, v.grad))
        for fused, composed in zip(*results):
            np.testing.assert_array_equal(fused, composed)

    def test_rejects_nan_scores(self):
        q = Tensor(np.array([[np.nan, 0.0]]))
        with pytest.raises(NumericalError):
            T.attention(q, Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))


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
