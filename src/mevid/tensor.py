"""Dense float tensors with taped reverse-mode differentiation.

The operation set is deliberately small: exactly what the video model
needs. Matrix products (2-D and batched 3-D), row-stochastic softmax,
layer normalization, Gaussian-CDF GELU, concatenation, slicing, and a few
elementwise helpers. Storage is float32; `grad_check` re-runs a graph in
float64, where central finite differences are meaningful. GELU's float32
`erf` is a rational approximation accurate to 5e-7; float64 uses the
standard library's exact `erf`.

Sequence axis: a 3-D operand of `matmul`, `bias_add` or `layer_norm`
stacks independent sequences along its leading axis. A 3-D activation
times a 2-D weight runs as one [B*N, k] product, forward and backward,
and an operand broadcast over the sequences gets its gradient as one
reduction over them. Results agree with one op per sequence to float32
rounding, not bit for bit.

Tensors are immutable after creation except for a Parameter: its
gradient accumulates in place, and the optimizer updates its data.
A Tape and the tensors recorded on it belong to a single thread: the
active tape is one process-wide slot.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
SOFTMAX_FLOOR = 1e-20  # softmax probabilities below this are flushed to 0
# float32 erf(z) = z * P(z^2) / Q(z^2) on z clipped to [-4, 4] (the rational
# form Eigen uses for float32); coefficients highest order first, for Horner.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class GraphError(RuntimeError):
    """Backward-pass contract violation (non-scalar loss, reused tape...)."""


class Tensor:
    """N-dimensional float array. `data` is row-major and never mutated by
    operations. `requires_grad` is False for a constant and, for an op
    output, whether any input is tracked."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = "param" if isinstance(self, Parameter) else "tensor"
        return f"<{tag} shape={self.shape} dtype={self.data.dtype}>"


class Parameter(Tensor):
    """Named tracked leaf; `Tape.backward` adds its gradient into `grad`."""

    __slots__ = ("name", "grad")

    def __init__(self, name: str, data, dtype=np.float32):
        super().__init__(data, dtype=dtype)
        self.requires_grad = True
        self.grad = np.zeros_like(self.data)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


_active_tape: "Tape | None" = None


class Tape:
    """Ordered record of executed differentiable operations.

    Entering the tape makes it the active recorder until it exits.
    `backward` walks the record once, in reverse execution
    order, accumulating gradients into Parameters.
    """

    def __init__(self):
        self._ops: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._used = False

    def __enter__(self) -> "Tape":
        global _active_tape
        self._outer = _active_tape
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active_tape
        _active_tape = self._outer

    def __len__(self) -> int:
        return len(self._ops)

    def backward(self, loss: Tensor) -> None:
        if loss.data.shape != ():
            raise GraphError(f"loss must be scalar, got shape {loss.data.shape}")
        if self._used:
            raise GraphError("tape already replayed; record a fresh forward pass")
        self._used = True

        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
        for out, inputs, backward_fn in reversed(self._ops):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for tensor, contribution in zip(inputs, backward_fn(g)):
                if contribution is None:
                    continue
                if isinstance(tensor, Parameter):
                    tensor.grad += contribution
                elif tensor.requires_grad:
                    key = id(tensor)
                    if key in grads:
                        grads[key] = grads[key] + contribution
                    else:
                        grads[key] = contribution


def record_op(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Wrap an op result, recording it on the active tape when tracked.

    `backward_fn(g)` must return one gradient array (or None) per input.
    Exposed so tests can construct deliberately wrong gradients.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(t.requires_grad for t in inputs)
    if out.requires_grad and _active_tape is not None:
        _active_tape._ops.append((out, tuple(inputs), backward_fn))
    return out


def _same_dtype(*tensors: Tensor) -> None:
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"mixed dtypes {dt} and {t.data.dtype}")


# ---------------------------------------------------------------------------
# linear algebra


def _vector_grad(g: np.ndarray) -> np.ndarray:
    """Gradient of a vector added along the trailing axis of g."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def matmul(a: Tensor, b: Tensor, high_precision: bool = False) -> Tensor:
    """Matrix product of 2-D operands, batched 3-D ones, or a 3-D activation
    and a 2-D weight; a 2-D operand left of a 3-D one is rejected.

    With `high_precision` the contraction runs in float64 and rounds back,
    which keeps attention mixes stable under reorderings of the summed axis.
    A 3-D activation times a 2-D weight is one [B*N, k] gemm, and so are
    its input and weight gradients.
    """
    _same_dtype(a, b)
    ashape, bshape = a.data.shape, b.data.shape
    if not 2 <= b.ndim <= a.ndim <= 3:
        raise ShapeError(f"matmul needs 2-D or 3-D operands, the left one of no lower "
                         f"rank, got {ashape} x {bshape}")
    if ashape[-1] != bshape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {ashape} x {bshape}")
    if a.ndim == 3 and b.ndim == 3 and ashape[0] != bshape[0]:
        raise ShapeError(f"matmul batch dimensions disagree: {ashape} x {bshape}")

    rows_merged = a.ndim == 3 and b.ndim == 2
    a_arr, b_arr = a.data, b.data
    if rows_merged:
        a_arr = a_arr.reshape(-1, ashape[-1])
    if high_precision and a_arr.dtype == np.float32:
        data = (a_arr.astype(np.float64) @ b_arr.astype(np.float64)).astype(np.float32)
    else:
        data = a_arr @ b_arr
    if rows_merged:
        data = data.reshape(*ashape[:-1], bshape[-1])

    def backward(g):
        if rows_merged:
            g = g.reshape(-1, bshape[-1])
        da = db = None
        if a.requires_grad:
            da = g @ np.swapaxes(b_arr, -1, -2)
            if rows_merged:
                da = da.reshape(ashape)
        if b.requires_grad:
            db = np.swapaxes(a_arr, -1, -2) @ g
        return da, db

    return record_op(data, (a, b), backward)


def swap_last(x: Tensor) -> Tensor:
    """Transpose the trailing two axes."""
    if x.ndim < 2:
        raise ShapeError(f"swap_last needs rank >= 2, got shape {x.data.shape}")
    data = np.ascontiguousarray(np.swapaxes(x.data, -1, -2))

    def backward(g):
        return (np.swapaxes(g, -1, -2),)

    return record_op(data, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.data.shape
    data = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(old),)

    return record_op(data, (x,), backward)


def take_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows (the second-to-last axis) by strictly increasing in-range
    indices, in every leading slice; the backward assigns the gradient rows."""
    if x.ndim not in (2, 3):
        raise ShapeError(f"take_rows needs a 2-D or 3-D tensor, got shape {x.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    xshape = x.data.shape
    if (idx.ndim != 1 or not idx.size or idx[0] < 0 or idx[-1] >= xshape[-2]
            or (np.diff(idx) <= 0).any()):
        raise ShapeError(f"take_rows needs strictly increasing rows of 0..{xshape[-2] - 1}, "
                         f"got {idx.tolist()}")
    rows = (Ellipsis, idx, slice(None))
    data = x.data[rows]

    def backward(g):
        dx = np.zeros(xshape, dtype=g.dtype)
        dx[rows] = g
        return (dx,)

    return record_op(data, (x,), backward)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    if not 0 <= axis < x.ndim:
        raise ShapeError(f"narrow axis {axis} out of range for shape {x.data.shape}")
    if start < 0 or start + length > x.data.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}] exceeds axis {axis} of shape {x.data.shape}"
        )
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    data = np.ascontiguousarray(x.data[sl])
    xshape = x.data.shape

    def backward(g):
        dx = np.zeros(xshape, dtype=g.dtype)
        dx[sl] = g
        return (dx,)

    return record_op(data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat of zero tensors")
    _same_dtype(*tensors)
    if not 0 <= axis < tensors[0].ndim:
        raise ShapeError(f"concat axis {axis} out of range for rank {tensors[0].ndim}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, offsets, axis=axis))

    return record_op(data, tuple(tensors), backward)


# ---------------------------------------------------------------------------
# elementwise and affine


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes disagree: {a.data.shape} vs {b.data.shape}")

    def backward(g):
        return g if a.requires_grad else None, g if b.requires_grad else None

    return record_op(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shapes disagree: {a.data.shape} vs {b.data.shape}")

    def backward(g):
        return g if a.requires_grad else None, -g if b.requires_grad else None

    return record_op(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    _same_dtype(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes disagree: {a.data.shape} vs {b.data.shape}")
    a_arr, b_arr = a.data, b.data

    def backward(g):
        da = g * b_arr if a.requires_grad else None
        db = g * a_arr if b.requires_grad else None
        return da, db

    return record_op(a_arr * b_arr, (a, b), backward)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        return (g * s,)

    return record_op(x.data * np.asarray(s, dtype=x.data.dtype), (x,), backward)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a vector along the trailing dimension (the only broadcast allowed)."""
    _same_dtype(x, b)
    if b.ndim != 1 or b.data.shape[0] != x.data.shape[-1]:
        raise ShapeError(
            f"bias shape {b.data.shape} does not match trailing dim of {x.data.shape}"
        )

    def backward(g):
        dx = g if x.requires_grad else None
        db = _vector_grad(g) if b.requires_grad else None
        return dx, db

    return record_op(x.data + b.data, (x, b), backward)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    data = np.asarray(x.data.sum(dtype=np.float64), dtype=x.data.dtype)
    xshape = x.data.shape

    def backward(g):
        return (np.full(xshape, g, dtype=g.dtype),)

    return record_op(data, (x,), backward)


def _horner(z2: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    """The polynomial in z2 with `coefficients`, highest order first."""
    acc = z2 * coefficients[0]
    for c in coefficients[1:-1]:
        acc += c
        acc *= z2
    acc += coefficients[-1]
    return acc


def _erf(z: np.ndarray) -> np.ndarray:
    """Elementwise erf in z's dtype: the rational form within 5e-7 for
    float32, the standard library's `math.erf` otherwise."""
    if z.dtype != np.float32:
        return np.vectorize(math.erf, otypes=[z.dtype])(z)
    z = np.clip(z, -4.0, 4.0)
    z2 = z * z
    p = _horner(z2, _ERF_P)
    p *= z
    p /= _horner(z2, _ERF_Q)
    return p


def gelu(x: Tensor) -> Tensor:
    """Gaussian-CDF GELU: x * Phi(x)."""
    x_arr = x.data
    cdf = _erf(x_arr * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5

    def backward(g):
        d = x_arr * -0.5
        d *= x_arr
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= x_arr
        d += cdf
        d *= g
        return (d,)

    return record_op(x_arr * cdf, (x,), backward)


# ---------------------------------------------------------------------------
# normalization


def softmax(x: Tensor, axis: int) -> Tensor:
    """Max-stabilized softmax along `axis`; rows are nonnegative and sum to 1.

    The exponentials are accumulated in float64 so that permuting entries
    along the reduced axis cannot perturb the normalizer. Probabilities
    below `SOFTMAX_FLOOR` become exactly 0: every row holds a weight of at
    least 1/N, so one that small cannot move an output at float32
    resolution, while the backward products w*g of such weights fall into
    float32's subnormal range, where arithmetic is slow. A floor at the
    smallest normal float32 would not do: products of small normal weights
    still underflow.
    """
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {x.data.shape}")
    z = x.data.astype(np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)
    p[p < SOFTMAX_FLOOR] = 0.0
    out = p.astype(x.data.dtype)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return record_op(out, (x,), backward)


def log_softmax(x: Tensor, axis: int) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"log_softmax axis {axis} out of range for shape {x.data.shape}")
    z = x.data.astype(np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = (z - lse).astype(x.data.dtype)

    def backward(g):
        p = np.exp(out)
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return record_op(out, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the trailing dimension to mean 0 / variance 1, then affine."""
    _same_dtype(x, gamma, beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match trailing dim {d} of {x.data.shape}"
        )
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xhat = x.data - mu
    inv = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data
    g_arr = gamma.data

    def backward(g):
        dgamma = _vector_grad(g * xhat) if gamma.requires_grad else None
        dbeta = _vector_grad(g) if beta.requires_grad else None
        dx = None
        if x.requires_grad:
            dx = g * g_arr
            m1 = np.add.reduce(dx, axis=-1, keepdims=True) / d
            m2 = np.add.reduce(dx * xhat, axis=-1, keepdims=True) / d
            dx -= m1
            dx -= xhat * m2
            dx *= inv
        return dx, dgamma, dbeta

    return record_op(out, (x, gamma, beta), backward)


def normalize_rows(x: Tensor) -> Tensor:
    """Scale each row (along the last axis) of a 2-D or 3-D tensor to unit
    Euclidean norm.

    Raises on (near-)zero rows: cosine similarity is undefined there.
    """
    if x.ndim not in (2, 3):
        raise ShapeError(f"normalize_rows needs a 2-D or 3-D tensor, got {x.data.shape}")
    norms = np.sqrt((x.data.astype(np.float64) ** 2).sum(axis=-1, keepdims=True))
    if norms.min() < 1e-12:
        raise ValueError("normalize_rows: zero-norm row, cosine similarity undefined")
    out = (x.data / norms).astype(x.data.dtype)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner * out) / norms.astype(g.dtype),)

    return record_op(out, (x,), backward)


def _regroup_heads(x: Tensor, heads: int, merge: bool = False) -> Tensor:
    """[B, N, h*d] -> [B*h, N, d], head-major per sequence; `merge` undoes
    it. Gradients leave contiguous, as a slice's zero-padded ones do."""
    def split(a):
        a = a.reshape(*a.shape[:2], heads, -1).swapaxes(1, 2)
        return np.ascontiguousarray(a).reshape(-1, *a.shape[2:])

    def join(a):
        a = a.reshape(-1, heads, *a.shape[1:]).swapaxes(1, 2)
        return np.ascontiguousarray(a).reshape(*a.shape[:2], -1)

    forward, backward = (join, split) if merge else (split, join)
    return record_op(forward(x.data), (x,), lambda g: (backward(g),))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1,
                         score_scale: float | None = None) -> tuple[Tensor, np.ndarray]:
    """softmax(s q k^T) v for 2-D or batched 3-D inputs, and the weights
    off the graph; s is `score_scale`, by default 1/sqrt(d). A 2-D q is one
    query set shared by every sequence of a 3-D k, scored by one [B*N, d]
    gemm. With `heads` > 1, [B, N, h*d] inputs attend as one [B*h, N, d]
    stack."""
    if heads > 1:
        q, k, v = (_regroup_heads(t, heads) for t in (q, k, v))
    if q.ndim == 2 and k.ndim == 3:
        scores = swap_last(matmul(k, swap_last(q)))
    else:
        scores = matmul(q, swap_last(k))
    if score_scale is None:
        score_scale = 1.0 / math.sqrt(k.shape[-1])
    weights = softmax(scale(scores, score_scale), axis=-1)
    mix = matmul(weights, v, high_precision=True)
    return (_regroup_heads(mix, heads, merge=True) if heads > 1 else mix), weights.data


# ---------------------------------------------------------------------------
# gradient checking


class GradCheckReport:
    """Outcome of comparing analytic gradients to central differences."""

    def __init__(self, tol: float):
        self.tol = tol
        self.max_rel_error = 0.0
        self.checked = 0
        self.failures: list[tuple[str, tuple, float, float, float]] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        status = "pass" if self.passed else f"{len(self.failures)} failures"
        return (
            f"<GradCheckReport {status}: max_rel={self.max_rel_error:.3e} "
            f"over {self.checked} coords, tol={self.tol:.1e}>"
        )


def grad_check(
    f: Callable[[dict[str, Parameter]], Tensor],
    params: dict[str, Parameter],
    step: float = 1e-6,
    tol: float = 1e-5,
    atol: float = 1e-7,
) -> GradCheckReport:
    """Check every parameter coordinate of a scalar function `f`.

    The graph is re-executed with float64 parameter clones; analytic
    gradients come from one taped backward pass and are compared against
    central differences of two forward evaluations per coordinate.
    Relative error is measured against the largest gradient magnitude in
    the whole problem, so coordinates down in the finite-difference noise
    floor do not produce spurious flags; a coordinate is flagged only if
    both its relative error exceeds `tol` and its absolute disagreement
    exceeds `atol` (central differences of a constant are pure roundoff).
    """
    params64 = {
        name: Parameter(name, p.data.astype(np.float64), dtype=np.float64)
        for name, p in params.items()
    }
    with Tape() as tape:
        loss = f(params64)
    tape.backward(loss)
    analytic = {name: p.grad.copy() for name, p in params64.items()}

    numeric: dict[str, np.ndarray] = {}
    for name, p in params64.items():
        num = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        num_flat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = f(params64).item()
            flat[i] = orig - step
            down = f(params64).item()
            flat[i] = orig
            num_flat[i] = (up - down) / (2.0 * step)
        numeric[name] = num

    gmax = max(
        (max(float(np.abs(analytic[n]).max()), float(np.abs(numeric[n]).max()))
         for n in params64 if analytic[n].size),
        default=0.0,
    )
    floor = max(1e-3 * gmax, 1e-8)

    report = GradCheckReport(tol)
    for name in params64:
        a, n = analytic[name], numeric[name]
        gap = np.abs(a - n)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        rel = gap / denom
        report.checked += rel.size
        report.max_rel_error = max(report.max_rel_error, float(rel.max()))
        for idx in zip(*np.nonzero((rel > tol) & (gap > atol))):
            report.failures.append(
                (name, idx, float(a[idx]), float(n[idx]), float(rel[idx]))
            )
    return report
