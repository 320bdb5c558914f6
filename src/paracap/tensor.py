"""Reverse-mode autodiff on dense float64 numpy buffers.

A :class:`Tensor` wraps a numpy array plus a lazily allocated gradient
buffer. Every operation records its parent nodes and a backward closure on
the output, so the graph reachable from a scalar is a ready-made dynamic
tape: :func:`backward` walks it once in reverse topological order and
accumulates exact analytic gradients into every ``requires_grad`` leaf.

Everything runs eagerly in float64. The one fused op, :func:`attention`,
repeats the numpy calls of the primitives it stands for; there is no graph
compilation and no hidden precision loss, which keeps central-difference
verification (:func:`finite_diff_check`) meaningful down to ~1e-9.

Forward and backward are bit-deterministic for a fixed graph: traversal
order depends only on graph structure, and gradient accumulation happens
in that fixed order.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf, expit

from .errors import NumericalError, ShapeError

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
LN_EPS = 1e-5     # layer_norm's variance floor
FD_STEP = 1e-5    # finite_diff_check's central-difference step


class _GradState:
    grad_enabled = True


_state = _GradState()


class no_grad:
    """Context manager that stops graph recording (eval / finite differences)."""

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    """Dense float64 array with an optional gradient slot.

    Leaf tensors are created directly; op outputs carry the op kind, the
    parent tensors, and a closure that maps the output gradient to parent
    gradient contributions.
    """

    __slots__ = ("values", "grad", "requires_grad", "op", "parents", "_backward")

    def __init__(self, values, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), backward=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, op={self.op!r})"

    # operator sugar; scalars and arrays are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _make(values, op: str, parents: tuple, backward_fn) -> Tensor:
    """Create an op output; records the tape entry only when grads can flow."""
    for p in parents:
        if p.requires_grad:
            if _state.grad_enabled:
                return Tensor(values, True, op, parents, backward_fn)
            break
    return Tensor(values, op=op)


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif type(g) is np.ndarray and g.shape == t.values.shape:
        # differs from 0.0 + g only by keeping -0.0, which no backward rule
        # or optimizer step can turn into a different nonzero value
        t.grad = g.copy()
    else:
        t.grad = np.zeros(t.values.shape)
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def toposort(root: Tensor) -> list:
    """Nodes reachable from ``root``, every parent before its consumer."""
    order = []
    seen = set()   # tensors hash by identity
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Populate ``grad`` on every ``requires_grad`` ancestor of a scalar loss."""
    if loss.values.shape != ():
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.values.shape}")
    order = toposort(loss)
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules)

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.values + b.values

    def bw(g, a=a, b=b):
        _accum(a, _unbroadcast(g, a.values.shape))
        _accum(b, _unbroadcast(g, b.values.shape))

    return _make(out, "add", (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.values - b.values

    def bw(g, a=a, b=b):
        _accum(a, _unbroadcast(g, a.values.shape))
        _accum(b, _unbroadcast(-g, b.values.shape))

    return _make(out, "sub", (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.values * b.values

    def bw(g, a=a, b=b):
        _accum(a, _unbroadcast(g * b.values, a.values.shape))
        _accum(b, _unbroadcast(g * a.values, b.values.shape))

    return _make(out, "mul", (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.values / b.values

    def bw(g, a=a, b=b):
        _accum(a, _unbroadcast(g / b.values, a.values.shape))
        _accum(b, _unbroadcast(-g * a.values / (b.values * b.values), b.values.shape))

    return _make(out, "div", (a, b), bw)


def neg(a) -> Tensor:
    a = _wrap(a)

    def bw(g, a=a):
        _accum(a, -g)

    return _make(-a.values, "neg", (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra and shape plumbing

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    out = a.values @ b.values

    def bw(g, a=a, b=b):
        _accum(a, g @ b.values.T)
        _accum(b, a.values.T @ g)

    return _make(out, "matmul", (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    a = _wrap(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose needs a matrix, got shape {a.shape}")

    def bw(g, a=a):
        _accum(a, g.T)

    return _make(a.values.T.copy(), "transpose", (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    out = a.values.reshape(shape)

    def bw(g, a=a):
        _accum(a, g.reshape(a.values.shape))

    return _make(out.copy(), "reshape", (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty list")
    out = np.concatenate([t.values for t in tensors], axis=axis)

    def bw(g, tensors=tensors, axis=axis):
        splits = np.cumsum([t.values.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(out, "concat", tuple(tensors), bw)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("stack of an empty list")
    first = tensors[0].values.shape
    for t in tensors:
        if t.values.shape != first:
            raise ShapeError(f"stack needs equal shapes, got {first} and {t.values.shape}")
    out = np.stack([t.values for t in tensors], axis=axis)

    def bw(g, tensors=tensors, axis=axis):
        for i, t in enumerate(tensors):
            _accum(t, np.take(g, i, axis=axis))

    return _make(out, "stack", tuple(tensors), bw)


def take_rows(a: Tensor, indices) -> Tensor:
    """Row gather on a matrix; serves embedding lookup and hard selection.

    Duplicate indices accumulate their gradients into the same source row.
    """
    a = _wrap(a)
    if a.ndim != 2:
        raise ShapeError(f"take_rows needs a matrix, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    out = a.values[idx]

    def bw(g, a=a, idx=idx):
        buf = np.zeros(a.values.shape)
        np.add.at(buf, idx, g)
        _accum(a, buf)

    return _make(out, "take_rows", (a,), bw)


# ---------------------------------------------------------------------------
# reductions

def _spread(g, shape: tuple, axis) -> np.ndarray:
    """A reduction's output gradient copied over every element it reduced."""
    if axis is not None:
        axis %= len(shape)
        g = g.reshape(shape[:axis] + (1,) + shape[axis + 1:])
    out = np.empty(shape)
    out[...] = g
    return out


def tsum(a: Tensor, axis=None) -> Tensor:
    a = _wrap(a)
    out = a.values.sum(axis=axis)

    def bw(g, a=a, axis=axis):
        _accum(a, _spread(g, a.values.shape, axis))

    return _make(out, "sum", (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    count = a.values.size if axis is None else a.values.shape[axis]
    out = a.values.sum(axis=axis, keepdims=keepdims) / count   # what ndarray.mean computes

    def bw(g, a=a, axis=axis, count=count):
        _accum(a, _spread(g / count, a.values.shape, axis))

    return _make(out, "mean", (a,), bw)


def l2_norm_rows(a: Tensor) -> Tensor:
    """Euclidean norm of each row of a matrix.

    The subgradient at an all-zero row is defined as zero, so feature sets
    with empty entries never produce NaN.
    """
    a = _wrap(a)
    if a.ndim != 2:
        raise ShapeError(f"l2_norm_rows needs a matrix, got shape {a.shape}")
    norms = np.sqrt((a.values * a.values).sum(axis=1))

    def bw(g, a=a, norms=norms):
        safe = np.where(norms > 0.0, norms, 1.0)
        _accum(a, (g / safe)[:, None] * a.values * (norms > 0.0)[:, None])

    return _make(norms, "l2_norm_rows", (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities

def texp(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = np.exp(a.values)

    def bw(g, a=a, out=out):
        _accum(a, g * out)

    return _make(out, "exp", (a,), bw)


def tlog(a: Tensor) -> Tensor:
    a = _wrap(a)

    def bw(g, a=a):
        _accum(a, g / a.values)

    return _make(np.log(a.values), "log", (a,), bw)


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) computed without overflow for large |x|."""
    a = _wrap(a)
    out = -np.logaddexp(0.0, -a.values)

    def bw(g, a=a):
        _accum(a, g * expit(-a.values))

    return _make(out, "log_sigmoid", (a,), bw)


def gelu(a: Tensor) -> Tensor:
    """Exact-erf gaussian error linear unit; smooth, so finite differences agree."""
    a = _wrap(a)
    cdf = 0.5 * (1.0 + erf(a.values * _INV_SQRT2))
    out = a.values * cdf

    def bw(g, a=a, cdf=cdf):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * a.values * a.values)
        _accum(a, g * (cdf + a.values * pdf))

    return _make(out, "gelu", (a,), bw)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(x, floor); the gradient stops where the floor is active."""
    a = _wrap(a)

    def bw(g, a=a, floor=floor):
        _accum(a, g * (a.values > floor))

    return _make(np.maximum(a.values, floor), "clamp_min", (a,), bw)


# ---------------------------------------------------------------------------
# softmax family and normalization

def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    a = _wrap(a)
    if np.isnan(a.values).any():
        raise NumericalError("softmax received NaN input")
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g, a=a, out=out):
        inner = (g * out).sum(axis=-1, keepdims=True)
        _accum(a, out * (g - inner))

    return _make(out, "softmax", (a,), bw)


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    a = _wrap(a)
    if np.isnan(a.values).any():
        raise NumericalError("log_softmax received NaN input")
    m = a.values.max(axis=-1, keepdims=True)
    shifted = a.values - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def bw(g, a=a, out=out):
        _accum(a, g - np.exp(out) * g.sum(axis=-1, keepdims=True))

    return _make(out, "log_softmax", (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize to zero mean / unit population variance along the last axis, then affine.

    ``gain`` and ``bias`` are vectors with the extent of the last axis.
    """
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    n = x.values.shape[-1]
    if n < 2:
        raise ShapeError(f"layer_norm axis extent must be >= 2, got {n}")
    if gain.values.shape != (n,) or bias.values.shape != (n,):
        raise ShapeError(f"layer_norm affine shapes {gain.values.shape}/{bias.values.shape} "
                         f"do not match axis extent {n}")
    mu = x.values.mean(axis=-1, keepdims=True)
    var = x.values.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x.values - mu) * inv
    out = xhat * gain.values + bias.values

    def bw(g, x=x, gain=gain, bias=bias, inv=inv, xhat=xhat):
        reduce_axes = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=reduce_axes))
        _accum(bias, g.sum(axis=reduce_axes))
        dxhat = g * gain.values
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (dxhat - m1 - xhat * m2))

    return _make(out, "layer_norm", (x, gain, bias), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, mask=None) -> Tensor:
    """Scaled dot-product attention, ``softmax(q k^T / sqrt(d) [+ bias]) v``, as one node.

    ``d`` is the width of q and k. ``mask`` is an optional boolean (rows
    of q, rows of k) matrix; a False entry adds -1e9 to its score before
    the row softmax. Forward and
    backward run the same numpy calls, in the same order, as the
    matmul / transpose / mul / add / softmax composition they replace, so
    values and gradients are bitwise equal to it.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(f"attention needs matrices, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ShapeError(f"attention extents differ: q {q.shape}, k {k.shape}, v {v.shape}")
    if mask is not None and np.shape(mask) != (q.shape[0], k.shape[0]):
        raise ShapeError(f"mask shape {np.shape(mask)} does not match "
                         f"{q.shape[0]} queries and {k.shape[0]} keys")
    scale = 1.0 / np.sqrt(q.shape[1])
    kt = k.values.T.copy()
    scores = (q.values @ kt) * scale
    if mask is not None:
        scores = scores + np.where(mask, 0.0, -1e9)
    if np.isnan(scores).any():
        raise NumericalError("attention received NaN scores")
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)

    def bw(g, q=q, k=k, v=v, kt=kt, p=p, scale=scale):
        gp = g @ v.values.T
        gv = p.T @ g
        gs = p * (gp - (gp * p).sum(axis=1, keepdims=True)) * scale
        _accum(q, gs @ kt.T)
        _accum(k, (q.values.T @ gs).T)
        _accum(v, gv)

    return _make(p @ v.values, "attention", (q, k, v), bw)


# ---------------------------------------------------------------------------
# verification

def finite_diff_check(f, x: Tensor) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic scalar-valued function of ``x`` (it may
    close over other tensors). The error at each coordinate is
    ``|analytic - central| / max(1, |central|)`` and the max over all
    coordinates of ``x`` is returned. Two baseline evaluations that
    disagree mean ``f`` is not deterministic and are rejected.
    """
    y1 = f(x)
    if y1.values.shape != ():
        raise ShapeError(f"finite_diff_check needs a scalar function, got shape {y1.values.shape}")
    with no_grad():
        y2 = f(x)
    if y1.values != y2.values:
        raise NumericalError("finite_diff_check: function is not deterministic "
                             f"({y1.values!r} vs {y2.values!r})")
    x.grad = None
    backward(y1)
    analytic = (np.zeros_like(x.values) if x.grad is None else x.grad.copy()).ravel()

    flat = x.values.ravel()
    worst = 0.0
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = float(f(x).values)
            flat[i] = orig - FD_STEP
            down = float(f(x).values)
            flat[i] = orig
            central = (up - down) / (2.0 * FD_STEP)
            err = abs(analytic[i] - central) / max(1.0, abs(central))
            if err > worst:
                worst = err
    return worst
