"""Reverse-mode autodiff on dense float64 numpy buffers.

A :class:`Tensor` wraps a numpy array plus a lazily allocated gradient
buffer. Every operation records its parent nodes and a backward closure on
the output, so the graph reachable from a scalar is a ready-made dynamic
tape: :func:`backward` walks it once in reverse topological order and
accumulates exact analytic gradients into every ``requires_grad`` leaf.

Everything runs eagerly in float64. The one fused op, :func:`attention_heads`,
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

    # operator sugar; only the arithmetic ops (add, sub, mul, div) take a
    # scalar or array operand, which they wrap as a constant
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
    if t.grad is not None:   # in training, a parameter's zeroed view into the gradient buffer
        t.grad += g
    elif type(g) is np.ndarray and g.shape == t.values.shape:
        # differs from the 0.0 + g that a zeroed view comes to hold only by
        # keeping -0.0, which no backward rule or optimizer step can turn
        # into a different nonzero value
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


def neg(a: Tensor) -> Tensor:
    def bw(g, a=a):
        _accum(a, -g)

    return _make(-a.values, "neg", (a,), bw)


# ---------------------------------------------------------------------------
# linear algebra and shape plumbing

def matmul(a: Tensor, b: Tensor) -> Tensor:
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
    if a.ndim != 2:
        raise ShapeError(f"transpose needs a matrix, got shape {a.shape}")

    def bw(g, a=a):
        _accum(a, g.T)

    return _make(a.values.T.copy(), "transpose", (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.values.reshape(shape)

    def bw(g, a=a):
        _accum(a, g.reshape(a.values.shape))

    return _make(out.copy(), "reshape", (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat of an empty list")
    out = np.concatenate([t.values for t in tensors], axis=axis)

    def bw(g, tensors=tensors, axis=axis):
        splits = np.cumsum([t.values.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(out, "concat", tensors, bw)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
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

    return _make(out, "stack", tensors, bw)


def take_rows(a: Tensor, indices) -> Tensor:
    """Row gather on a matrix; serves embedding lookup and hard selection.

    Duplicate indices accumulate their gradients into the same source row.
    """
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
    out = a.values.sum(axis=axis)

    def bw(g, a=a, axis=axis):
        _accum(a, _spread(g, a.values.shape, axis))

    return _make(out, "sum", (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
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
    out = np.exp(a.values)

    def bw(g, a=a, out=out):
        _accum(a, g * out)

    return _make(out, "exp", (a,), bw)


def tlog(a: Tensor) -> Tensor:
    def bw(g, a=a):
        _accum(a, g / a.values)

    return _make(np.log(a.values), "log", (a,), bw)


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) computed without overflow for large |x|."""
    out = -np.logaddexp(0.0, -a.values)

    def bw(g, a=a):
        _accum(a, g * expit(-a.values))

    return _make(out, "log_sigmoid", (a,), bw)


def gelu(a: Tensor) -> Tensor:
    """Exact-erf gaussian error linear unit; smooth, so finite differences agree."""
    cdf = 0.5 * (1.0 + erf(a.values * _INV_SQRT2))
    out = a.values * cdf

    def bw(g, a=a, cdf=cdf):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * a.values * a.values)
        _accum(a, g * (cdf + a.values * pdf))

    return _make(out, "gelu", (a,), bw)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(x, floor); the gradient stops where the floor is active."""

    def bw(g, a=a, floor=floor):
        _accum(a, g * (a.values > floor))

    return _make(np.maximum(a.values, floor), "clamp_min", (a,), bw)


# ---------------------------------------------------------------------------
# softmax family and normalization

def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
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


def _attend(q, kt, v, mask):
    """The score / softmax / value core over a leading head axis: ``q``
    (h, n, d), ``kt`` (h, d, m), ``v`` (h, m, e) and a boolean (n, m)
    ``mask`` or None; returns (the softmax weights, their mix of ``v``)."""
    scores = (q @ kt) * (1.0 / np.sqrt(q.shape[2]))
    if mask is not None:
        scores = scores + np.where(mask, 0.0, -1e9)
    if np.isnan(scores).any():
        raise NumericalError("attention received NaN scores")
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    p = e / e.sum(axis=2, keepdims=True)
    return p, p @ v


def _attend_grads(g, q, kt, v, p):
    """Gradients of ``_attend``'s q, k (not kt) and v from its output gradient ``g``."""
    gp = g @ v.transpose(0, 2, 1)
    gv = p.transpose(0, 2, 1) @ g
    gs = p * (gp - (gp * p).sum(axis=2, keepdims=True)) * (1.0 / np.sqrt(q.shape[2]))
    return gs @ kt.transpose(0, 2, 1), (q.transpose(0, 2, 1) @ gs).transpose(0, 2, 1), gv


def attention_heads(x: Tensor, weights, biases, mask, cache: dict) -> Tensor:
    """Multi-head self-attention over the rows of ``x``, without the output
    map, as one node: the heads' outputs side by side, (rows, heads * e).

    ``weights`` lists every head's (d, e) query, key and value maps in
    q0, k0, v0, q1, ... order, and ``biases`` their (e,) biases in the same
    order, or is None for bare projections. Head h's queries, keys and
    values are ``x @ w + b`` (``x @ w`` without biases) with its own
    weights, and it computes ``softmax(q k^T / sqrt(e)) v`` with ``e`` its
    key width. ``mask`` is None or a boolean (rows, keys) matrix; a False
    entry adds -1e9 to its score before the row softmax. ``cache`` (a
    dict, empty before the first call) holds every head's keys and values
    of the rows passed in earlier calls; the rows of ``x`` attend to those
    first and then join them. A non-empty cache is refused while the tape
    records, since no gradient reaches the cached rows. The node's parents
    are ``x`` and then each weight followed by its bias.

    Each head keeps its own ``x @ w`` matmul: one (d, heads * e) matmul is
    not bitwise equal to them. Forward and backward repeat the numpy calls
    of the per-head Linear / attention / concat composition, and ``x``
    receives its gradient in that composition's order (q0, k0, v0, q1, ...),
    so values and gradients are bitwise equal to it.
    """
    w = np.array([t.values for t in weights])   # (3 * heads, d, e)
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"attention_heads needs a matrix of width {w.shape[1]}, got {x.shape}")
    n_heads, rows = len(weights) // 3, x.shape[0]
    if cache and _state.grad_enabled:
        raise RuntimeError("attention_heads with cached rows cannot record gradients; "
                         "run cached calls under no_grad")
    n_keys = rows + (cache["k"].shape[1] if cache else 0)
    if mask is not None and np.shape(mask) != (rows, n_keys):
        raise ShapeError(f"mask shape {np.shape(mask)} does not match "
                         f"{rows} queries and {n_keys} keys")
    qkv = x.values @ w
    if biases is not None:
        qkv += np.array([t.values for t in biases])[:, None]
    qkv = qkv.reshape(n_heads, 3, rows, w.shape[2])
    q, k, v = qkv[:, 0], qkv[:, 1], qkv[:, 2]
    if cache:
        k = np.concatenate([cache["k"], k], axis=1)
        v = np.concatenate([cache["v"], v], axis=1)
    cache["k"], cache["v"] = k, v
    kt = k.transpose(0, 2, 1).copy()
    p, out = _attend(q, kt, v, mask)

    def bw(g, x=x, weights=weights, biases=biases, q=q, kt=kt, v=v, p=p):
        w = np.array([t.values for t in weights])   # not kept: the tape holds no weight copy
        g = g.reshape(rows, n_heads, -1).transpose(1, 0, 2).copy()
        # (heads, 3, rows, e) holds each head's q, k, v gradient contiguously,
        # as the composition's nodes held them
        gqkv = np.stack(_attend_grads(g, q, kt, v, p), axis=1).reshape(w.shape[0], rows, -1)
        gx = gqkv @ w.transpose(0, 2, 1)
        gw = x.values.T @ gqkv
        gb = None if biases is None else gqkv.sum(axis=1)
        for i in range(w.shape[0]):
            _accum(x, gx[i])
            _accum(weights[i], gw[i])
            if biases is not None:
                _accum(biases[i], gb[i])

    params = weights if biases is None else [t for pair in zip(weights, biases) for t in pair]
    return _make(out.transpose(1, 0, 2).reshape(rows, -1), "attention_heads",
                 (x, *params), bw)


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
