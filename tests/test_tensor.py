import inspect
import math
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mevid import tensor as T
from mevid.tensor import (
    GraphError,
    Parameter,
    ShapeError,
    Tape,
    Tensor,
    grad_check,
    record_op,
)


# the `test_every_op_grad` cases; each is named after the public op it
# checks (an "attention" case checks `scaled_dot_attention`), plus a suffix
# for a variant
GRAD_CASES = [
    "matmul", "softmax", "log_softmax", "layer_norm", "gelu", "add", "sub",
    "mul", "scale", "bias_add", "concat", "narrow", "take_rows", "reshape",
    "swap_last", "normalize_rows", "sum_all", "attention", "matmul_seq",
    "matmul_seq_left", "matmul_grouped", "matmul_grouped_left", "bias_add_seq",
    "layer_norm_seq", "take_rows_seq", "take_rows_distinct", "normalize_rows_seq",
    "attention_seq",
    "attention_heads", "attention_query_seq",
]


def matmul_oracle(a, b):
    """Naive triple loop, the reference for small products."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += float(a[i, p]) * float(b[p, j])
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(a), Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.astype(np.float32))

    def test_against_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = matmul_oracle(a, b)
        assert np.array_equal(expected, np.array([[19.0, 22.0], [43.0, 50.0]]))
        assert np.allclose(T.matmul(Tensor(a), Tensor(b)).data, expected)

    def test_zero_annihilates(self):
        rng = np.random.default_rng(0)
        out = T.matmul(Tensor(np.zeros((2, 3))), Tensor(rng.standard_normal((3, 4))))
        assert np.array_equal(out.data, np.zeros((2, 4), dtype=np.float32))

    def test_random_sizes_match_oracle(self):
        rng = np.random.default_rng(1)
        for m, k, n in [(1, 1, 1), (5, 7, 3), (64, 64, 64), (17, 2, 33)]:
            a = rng.uniform(-1, 1, (m, k))
            b = rng.uniform(-1, 1, (k, n))
            got = T.matmul(Tensor(a), Tensor(b)).data.astype(np.float64)
            want = matmul_oracle(a.astype(np.float32), b.astype(np.float32))
            assert np.abs(got - want).max() <= 1e-5 * max(1.0, np.abs(want).max())

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_batched_and_mixed_rank(self):
        rng = np.random.default_rng(2)
        a2 = rng.standard_normal((2, 3))
        b3 = rng.standard_normal((4, 3, 5))
        out = T.matmul(Tensor(a2), Tensor(b3))
        assert out.shape == (4, 2, 5)
        assert np.allclose(out.data, a2.astype(np.float32) @ b3.astype(np.float32))


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [1 / 3] * 3)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        a = T.softmax(Tensor(x), axis=1).data
        b = T.softmax(Tensor(x + 7.5), axis=1).data
        assert np.allclose(a, b, atol=1e-7)

    def test_large_input_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0]), axis=0)
        assert np.isfinite(out.data).all()
        assert np.abs(out.data - np.array([1.0, 0.0])).max() < 1e-6

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=2, max_size=12))
    def test_rows_sum_to_one(self, values):
        out = T.softmax(Tensor(np.array(values)), axis=0)
        assert abs(float(out.data.sum()) - 1.0) < 1e-6
        # float32 underflows to exactly 0 for extreme gaps; never negative
        assert (out.data >= 0).all()

    def test_moderate_inputs_strictly_positive(self):
        rng = np.random.default_rng(11)
        out = T.softmax(Tensor(rng.uniform(-20, 20, (3, 9))), axis=1)
        assert (out.data > 0).all()

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor(np.zeros((2, 2))), axis=2)


class TestLayerNorm:
    def _ones(self, d):
        return Tensor(np.ones(d)), Tensor(np.zeros(d))

    def test_constant_vector_guarded_by_eps(self):
        g, b = self._ones(4)
        out = T.layer_norm(Tensor([3.0, 3.0, 3.0, 3.0]), g, b, eps=1e-5)
        assert np.allclose(out.data, 0.0)

    def test_already_normalized(self):
        g, b = self._ones(2)
        out = T.layer_norm(Tensor([1.0, -1.0]), g, b, eps=0.0)
        assert np.allclose(out.data, [1.0, -1.0], atol=1e-6)

    def test_scalar_oracle(self):
        x = np.array([2.0, 4.0, 6.0])
        mean = x.mean()
        std = np.sqrt(((x - mean) ** 2).mean())
        expected = (x - mean) / std
        g, b = self._ones(3)
        out = T.layer_norm(Tensor(x), g, b, eps=0.0)
        assert np.allclose(out.data, expected, atol=1e-5)
        assert np.allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_mean_zero_var_one(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 8))
        g, b = self._ones(8)
        out = T.layer_norm(Tensor(x), g, b, eps=1e-12).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-5
        assert np.abs((out * out).mean(axis=-1) - 1.0).max() < 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byte_identical_to_mean_form(self, dtype):
        # the reference is the earlier `.mean`-based formula; the fewer-pass
        # op must round every output and gradient float exactly as it did
        def reference(x, gamma, beta, g, eps=1e-5):
            d = x.shape[-1]
            mu = x.mean(axis=-1, keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(var + eps)
            xhat = centered * inv
            out = (xhat * gamma + beta).astype(x.dtype)
            dxhat = g * gamma
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            dx = (inv * (dxhat - m1 - xhat * m2)).astype(g.dtype)
            dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
            dbeta = g.reshape(-1, d).sum(axis=0)
            return out, dx, dgamma, dbeta

        rng = np.random.default_rng(29)
        widths = [1, 2, 3, 7, 64, 128, 129, 255, 300] + list(rng.integers(1, 301, 11))
        for d in widths:
            lead = (int(rng.integers(1, 9)),) + ((int(rng.integers(1, 7)),) if d % 2 else ())
            x, g = (rng.standard_normal((*lead, d)) * rng.uniform(0.1, 10) for _ in range(2))
            gamma, beta = (rng.standard_normal(d) for _ in range(2))
            x, g, gamma, beta = (a.astype(dtype) for a in (x, g, gamma, beta))
            px, pg, pb = (Parameter(n, a, dtype=dtype)
                          for n, a in (("x", x), ("gamma", gamma), ("beta", beta)))
            with Tape() as tape:
                out = T.layer_norm(px, pg, pb)
                loss = T.sum_all(T.mul(out, Tensor(g, dtype=dtype)))
            tape.backward(loss)
            want = reference(x, gamma, beta, g)
            assert out.data.tobytes() == want[0].tobytes(), (d, lead)
            for param, ref in zip((px, pg, pb), want[1:]):
                # a Parameter's grad is zeros plus the contribution
                assert param.grad.tobytes() == (np.zeros_like(ref) + ref).tobytes(), (
                    param.name, d, lead)


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_derivative_at_zero(self):
        x = Parameter("x", [0.0])
        with Tape() as tape:
            loss = T.sum_all(T.gelu(x))
        tape.backward(loss)
        assert abs(x.grad[0] - 0.5) < 1e-7

    def test_matches_erf_form(self):
        v = np.linspace(-3, 3, 13)
        out = T.gelu(Tensor(v)).data
        want = v * 0.5 * (1 + np.array([math.erf(t / math.sqrt(2)) for t in v]))
        assert np.allclose(out, want, atol=1e-6)

    def test_float32_erf_within_5e7(self):
        z = np.linspace(-6, 6, 240_001).astype(np.float32)
        got = T._erf(z)
        assert got.dtype == np.float32
        want = np.array([math.erf(t) for t in z.astype(np.float64)])
        assert np.abs(got.astype(np.float64) - want).max() <= 5e-7

    def test_float64_erf_is_math_erf(self):
        z = np.concatenate([np.linspace(-7, 7, 2001), [np.inf, -np.inf, 0.0, -0.0]])
        got = T._erf(z)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([math.erf(t) for t in z]).tobytes()

    def test_non_finite_and_signed_zero(self):
        v = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0], dtype=np.float32)
        with np.errstate(invalid="ignore"):
            out = T.gelu(Tensor(v)).data
        assert out[0] == np.inf
        assert np.isnan(out[1]) and np.isnan(out[2])
        assert out[3] == 0.0 and not np.signbit(out[3])
        assert out[4] == 0.0 and np.signbit(out[4])

    def test_agrees_with_float64_erf_form(self):
        # the reference is the erf-form GELU and its derivative in float64,
        # with the standard library's exact erf
        rng = np.random.default_rng(31)
        x = (rng.standard_normal((8, 24, 512)) * 3).astype(np.float32)
        up = rng.standard_normal(x.shape).astype(np.float32)
        p = Parameter("x", x)
        with Tape() as tape:
            out = T.gelu(p)
            loss = T.sum_all(T.mul(out, Tensor(up)))
        tape.backward(loss)
        x64 = x.astype(np.float64)
        cdf = 0.5 * (1 + np.vectorize(math.erf)(x64 / math.sqrt(2)))
        pdf = np.exp(-0.5 * x64 * x64) / math.sqrt(2 * math.pi)
        assert np.abs(out.data - x64 * cdf).max() <= 2e-6
        assert np.abs(p.grad - up * (cdf + x64 * pdf)).max() <= 2e-6


class TestAttention:
    def test_single_key_value_returns_value(self):
        rng = np.random.default_rng(5)
        q = Tensor(rng.standard_normal((3, 4)))
        k = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((1, 6)))
        out, weights = T.scaled_dot_attention(q, k, v)
        assert np.allclose(out.data, np.tile(v.data, (3, 1)), atol=1e-7)
        assert np.array_equal(weights, np.ones((3, 1), dtype=np.float32))

    def test_identical_values_collapse(self):
        rng = np.random.default_rng(6)
        q = Tensor(rng.standard_normal((2, 4)))
        k = Tensor(rng.standard_normal((5, 4)))
        row = rng.standard_normal((1, 3)).astype(np.float32)
        v = Tensor(np.tile(row, (5, 1)))
        out, _ = T.scaled_dot_attention(q, k, v)
        assert np.allclose(out.data, np.tile(row, (2, 1)), atol=1e-6)

    def test_query_key_width_mismatch_rejected(self):
        q, k = Tensor(np.ones((2, 4))), Tensor(np.ones((5, 3)))
        with pytest.raises(ShapeError, match="inner dimensions"):
            T.scaled_dot_attention(q, k, k)


class TestBackward:
    def test_sum_of_squares(self):
        x = Parameter("x", [1.0, -2.0, 3.0])
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        tape.backward(loss)
        assert np.allclose(x.grad, [2.0, -4.0, 6.0])

    def test_constant_loss_leaves_grad_zero(self):
        x = Parameter("x", [1.0, 2.0])
        y = Parameter("y", [3.0])
        with Tape() as tape:
            loss = T.sum_all(T.mul(y, y))
        tape.backward(loss)
        assert np.array_equal(x.grad, np.zeros(2, dtype=np.float32))

    def test_non_scalar_loss_rejected(self):
        x = Parameter("x", [1.0, 2.0])
        with Tape() as tape:
            out = T.mul(x, x)
        with pytest.raises(GraphError, match="scalar"):
            tape.backward(out)

    def test_tape_single_use(self):
        x = Parameter("x", [1.0])
        with Tape() as tape:
            loss = T.sum_all(x)
        tape.backward(loss)
        with pytest.raises(GraphError):
            tape.backward(loss)

    def test_untracked_inputs_untouched(self):
        x = Tensor([1.0, 2.0])
        w = Parameter("w", [2.0, 2.0])
        with Tape() as tape:
            loss = T.sum_all(T.mul(x, w))
        tape.backward(loss)
        assert not x.requires_grad and not hasattr(x, "grad")
        assert np.array_equal(w.grad, [1.0, 2.0])

    def test_matmul_grads_match_finite_differences(self):
        rng = np.random.default_rng(7)
        params = {
            "a": Parameter("a", rng.uniform(-1, 1, (3, 4))),
            "b": Parameter("b", rng.uniform(-1, 1, (4, 2))),
        }

        def f(p):
            return T.sum_all(T.matmul(p["a"], p["b"]))

        report = grad_check(f, params, step=1e-6, tol=1e-5)
        assert report.passed, report


class TestGradCheck:
    def test_softmax_sum_is_constant(self):
        rng = np.random.default_rng(8)
        params = {"x": Parameter("x", rng.uniform(-1, 1, (2, 5)))}

        def f(p):
            return T.sum_all(T.softmax(p["x"], axis=1))

        report = grad_check(f, params)
        assert report.passed
        # gradient of a constant function is zero everywhere
        with Tape() as tape:
            loss = f(params)
        tape.backward(loss)
        assert np.abs(params["x"].grad).max() < 1e-6

    def test_corrupted_gradient_flagged(self):
        def doubled_identity(x):
            return record_op(x.data.copy(), (x,), lambda g: (2.0 * g,))

        rng = np.random.default_rng(9)
        params = {"x": Parameter("x", rng.uniform(-1, 1, 5))}

        def f(p):
            return T.sum_all(T.mul(doubled_identity(p["x"]), p["x"]))

        report = grad_check(f, params)
        assert not report.passed
        assert report.max_rel_error > 0.2

    def test_every_public_op_has_a_grad_case(self):
        # the public ops as the benchmark's tracer lists them
        ops = sorted(
            name for name, fn in vars(T).items()
            if inspect.isfunction(fn) and fn.__module__ == T.__name__
            and not name.startswith("_") and name not in ("record_op", "grad_check"))
        checked = [case.replace("attention", "scaled_dot_attention", 1)
                   for case in GRAD_CASES]
        missing = [op for op in ops
                   if not any(case == op or case.startswith(op + "_") for case in checked)]
        assert ops and missing == []

    @pytest.mark.parametrize("name", GRAD_CASES)
    def test_every_op_grad(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = Parameter("x", rng.uniform(-1, 1, (3, 4)))
        w = Parameter("w", rng.uniform(-1, 1, (4, 4)))
        b = Parameter("b", rng.uniform(-1, 1, 4))
        # three sequences of three rows; "_seq" cases stack them on axis 0
        xs = Parameter("xs", rng.uniform(-1, 1, (3, 3, 4)))

        builders = {
            "matmul": lambda p: T.matmul(p["x"], p["w"]),
            "softmax": lambda p: T.softmax(p["x"], axis=1),
            "log_softmax": lambda p: T.log_softmax(p["x"], axis=0),
            "layer_norm": lambda p: T.layer_norm(p["x"], p["b"], p["b"]),
            "gelu": lambda p: T.gelu(p["x"]),
            "add": lambda p: T.add(p["x"], p["x"]),
            "sub": lambda p: T.sub(p["x"], T.gelu(p["x"])),
            "mul": lambda p: T.mul(p["x"], p["x"]),
            "scale": lambda p: T.scale(p["x"], -1.7),
            "bias_add": lambda p: T.bias_add(p["x"], p["b"]),
            "concat": lambda p: T.concat([p["x"], p["x"]], axis=1),
            "narrow": lambda p: T.narrow(p["x"], 1, 1, 2),
            "take_rows": lambda p: T.take_rows(p["x"], np.array([2, 0, 2])),
            "reshape": lambda p: T.reshape(p["x"], (2, 6)),
            "swap_last": lambda p: T.swap_last(p["x"]),
            "normalize_rows": lambda p: T.normalize_rows(p["x"]),
            "sum_all": lambda p: T.sum_all(T.gelu(p["xs"])),
            "attention": lambda p: T.scaled_dot_attention(p["x"], p["x"], p["x"])[0],
            "matmul_seq": lambda p: T.matmul(p["xs"], p["w"]),
            "matmul_seq_left": lambda p: T.matmul(p["w"], T.swap_last(p["xs"])),
            # nine one-row slices in one row-merged gemm; nine one-column
            # slices, where the 2-D gradient sums nine per-slice partials
            "matmul_grouped": lambda p: T.matmul(T.reshape(p["xs"], (9, 1, 4)), p["w"]),
            "matmul_grouped_left": lambda p: T.matmul(
                p["w"], T.reshape(p["xs"], (9, 4, 1))),
            "bias_add_seq": lambda p: T.bias_add(p["xs"], p["b"]),
            "layer_norm_seq": lambda p: T.layer_norm(p["xs"], p["b"], p["b"]),
            "take_rows_seq": lambda p: T.take_rows(p["xs"], np.array([2, 0, 2])),
            "take_rows_distinct": lambda p: T.take_rows(p["xs"], np.array([-1, 0])),
            "normalize_rows_seq": lambda p: T.normalize_rows(p["xs"]),
            "attention_seq": lambda p: T.scaled_dot_attention(p["xs"], p["xs"], p["xs"])[0],
            "attention_heads": lambda p: T.scaled_dot_attention(
                p["xs"], T.gelu(p["xs"]), p["xs"], heads=2)[0],
            # one query set shared by three sequences, at a sharper scale
            "attention_query_seq": lambda p: T.scaled_dot_attention(
                p["x"], p["xs"], T.gelu(p["xs"]), score_scale=2.0)[0],
        }

        # weight by a fixed random tensor so no case degenerates to a
        # constant (e.g. normalized rows have constant squared norm)
        params = {"x": x, "w": w, "b": b, "xs": xs}
        probe_shape = builders[name](params).shape
        weights = np.random.default_rng(0).uniform(-1, 1, probe_shape)

        def f(p):
            out = builders[name](p)
            c = Tensor(weights, dtype=out.dtype)
            return T.add(T.sum_all(T.mul(out, c)), T.sum_all(T.mul(out, out)))

        report = grad_check(f, params)
        assert report.passed, f"{name}: {report}"

    @pytest.mark.parametrize("name", ["matmul", "matmul_left", "matmul_grouped",
                                      "bias_add", "layer_norm"])
    def test_sequence_axis_matches_one_op_per_sequence(self, name):
        # the gradient of an operand broadcast over stacked sequences, one
        # reduction over them, agrees with what a tape holding one op per
        # sequence accumulates to float32 rounding, not bit for bit
        rng = np.random.default_rng(11)
        xs = rng.standard_normal((6, 2, 4, 4)).astype(np.float32)  # 6 sequences, 2 frames
        up = rng.standard_normal((6, 2, 4, 4)).astype(np.float32)
        shape = (4,) if name in ("bias_add", "layer_norm") else (4, 4)
        init = rng.standard_normal((2, *shape)).astype(np.float32)
        ops = {
            "matmul": lambda x, p, q: T.matmul(x, p),
            "matmul_left": lambda x, p, q: T.matmul(p, x),
            "matmul_grouped": lambda x, p, q: T.matmul(x, p),
            "bias_add": lambda x, p, q: T.bias_add(x, p),
            "layer_norm": lambda x, p, q: T.layer_norm(x, p, q),
        }

        def grad(parts):
            p, q = Parameter("p", init[0]), Parameter("q", init[1])
            with Tape() as tape:
                loss = None
                for x, g in parts:
                    part = T.sum_all(T.mul(ops[name](Tensor(x), p, q), Tensor(g)))
                    loss = part if loss is None else T.add(loss, part)
            tape.backward(loss)
            return p.grad, q.grad

        if name == "matmul_grouped":
            # twelve two-frame slices in one op against six ops of two slices
            batched = [(xs.reshape(12, 4, 4), up.reshape(12, 4, 4))]
            one_by_one = [(xs[s], up[s]) for s in range(6)]
        else:
            batched = [(xs[:, 0], up[:, 0])]
            one_by_one = [(xs[s, 0], up[s, 0]) for s in range(6)]
        got, want = grad(batched), grad(one_by_one)
        largest = max(float(np.abs(w).max()) for w in want)
        gap = max(float(np.abs(a - b).max()) for a, b in zip(got, want))
        assert gap <= 1e-5 * largest, (gap, largest)


class TestMisc:
    def test_forward_deterministic(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 6)).astype(np.float32)
        a = T.softmax(Tensor(x), axis=1).data
        b = T.softmax(Tensor(x), axis=1).data
        assert np.array_equal(a, b)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=4, max_size=8))
    def test_no_nan_on_finite_inputs(self, values):
        x = Tensor(np.array(values))
        g = Tensor(np.ones(len(values)))
        b = Tensor(np.zeros(len(values)))
        for out in (T.softmax(x, 0), T.log_softmax(x, 0), T.gelu(x),
                    T.layer_norm(x, g, b)):
            assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("indices", [[4, 0, 2], [2, 0, 2], [3, -2], [-1, 0, 1, 2, 3]],
                             ids=["distinct", "repeated", "negative_alias", "all_rows"])
    def test_take_rows_backward_scatters_as_add_at(self, indices):
        # distinct rows get their gradient by assignment, repeats by add.at
        rng = np.random.default_rng(12)
        x = Parameter("x", rng.standard_normal((2, 5, 3)))
        g = rng.standard_normal((2, len(indices), 3)).astype(np.float32)
        with Tape() as tape:
            loss = T.sum_all(T.mul(T.take_rows(x, np.array(indices)), Tensor(g)))
        tape.backward(loss)
        want = np.zeros((2, 5, 3), dtype=np.float32)
        np.add.at(want, (Ellipsis, np.array(indices), slice(None)), g)
        assert np.array_equal(x.grad, want)

    def test_softmax_flushes_below_floor(self):
        # exp(-70) is about 4e-31, below the floor; exp(-40) is about 4e-18
        x = np.array([[0.0, -70.0, -40.0, 0.0], [-70.0, 0.0, -120.0, -1.0]])
        out = T.softmax(Tensor(x), axis=1).data
        exact = np.exp(x - x.max(axis=1, keepdims=True))
        exact /= exact.sum(axis=1, keepdims=True)
        below = exact < T.SOFTMAX_FLOOR
        assert below.sum() == 3
        assert (out[below] == 0.0).all()
        assert (out[~below] > 0.0).all()
        assert np.abs(out.astype(np.float64).sum(axis=1) - 1.0).max() <= 1e-6

    def test_normalize_rows_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            T.normalize_rows(Tensor(np.zeros((2, 3))))

    def test_ops_do_not_record_without_tape(self):
        x = Parameter("x", [1.0, 2.0])
        out = T.mul(x, x)  # no active tape
        assert out.requires_grad
        with Tape() as tape:
            pass
        assert len(tape) == 0

    def test_mixed_dtype_rejected(self):
        a = Tensor([1.0], dtype=np.float32)
        b = Tensor([1.0], dtype=np.float64)
        with pytest.raises(ShapeError, match="dtype"):
            T.add(a, b)
