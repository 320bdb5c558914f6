"""Trainable layers composed from the autodiff primitives.

Every layer exposes ``params()`` mapping local names to parameter tensors;
containers prefix the names with dots, so a whole model flattens into one
``{"encoder.env_mlp.lin1.w": Tensor, ...}`` dictionary for the optimizer and
for checkpoints.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor

INIT_STD = 0.02


def _init(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True)


class Linear:
    """Affine map y = x W + b over the rows of a matrix; one ``T.linear`` node."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int):
        self.w = _init(rng, (d_in, d_out))
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)

    def params(self) -> dict:
        return {"w": self.w, "b": self.b}


class MLP:
    """Two affine maps around a gelu, the standard position-wise feed-forward;
    one ``T.mlp`` node."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_hidden: int, d_out: int):
        self.lin1 = Linear(rng, d_in, d_hidden)
        self.lin2 = Linear(rng, d_hidden, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return T.mlp(x, self.lin1.w, self.lin1.b, self.lin2.w, self.lin2.b)

    def params(self) -> dict:
        return collect_params([("lin1", self.lin1), ("lin2", self.lin2)])


class LayerNorm:
    def __init__(self, d: int):
        self.gain = Tensor(np.ones(d), requires_grad=True)
        self.bias = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)

    def params(self) -> dict:
        return {"gain": self.gain, "bias": self.bias}


class SelfAttention:
    """Single-head scaled dot-product self-attention over a row set.

    Bare projections only: no biases and no output map. This is the small
    mixing block used to fuse a handful of vectors (selected feature rows,
    per-modality summaries, memory readouts), where a full transformer
    block would be overweight. It runs as a one-head ``T.attention_heads``
    without biases.
    """

    def __init__(self, rng: np.random.Generator, d: int):
        self.wq = _init(rng, (d, d))
        self.wk = _init(rng, (d, d))
        self.wv = _init(rng, (d, d))

    def __call__(self, x: Tensor, mask=None) -> Tensor:
        """Attend among the rows of ``x``; ``mask`` as in ``T.attention_heads``."""
        return T.attention_heads(x, [self.wq, self.wk, self.wv], None, mask, {})

    def params(self) -> dict:
        return {"wq": self.wq, "wk": self.wk, "wv": self.wv}


class MaskedMultiHeadAttention:
    """Multi-head self-attention with an additive mask and output projection."""

    def __init__(self, rng: np.random.Generator, d: int, n_heads: int):
        if d % n_heads != 0:
            raise ShapeError(f"model width {d} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.d_head = d // n_heads
        self.wq = [Linear(rng, d, self.d_head) for _ in range(n_heads)]
        self.wk = [Linear(rng, d, self.d_head) for _ in range(n_heads)]
        self.wv = [Linear(rng, d, self.d_head) for _ in range(n_heads)]
        self.wo = Linear(rng, d, d)

    def __call__(self, x: Tensor, mask, cache: dict) -> Tensor:
        """Attend from the rows of ``x`` to the rows passed in earlier calls
        with ``cache`` and to the rows of ``x``, under ``mask`` (None: every
        row is visible); ``cache`` as in ``T.attention_heads``.
        """
        lins = [lin for head in zip(self.wq, self.wk, self.wv) for lin in head]
        return self.wo(T.attention_heads(x, [lin.w for lin in lins], [lin.b for lin in lins],
                                         mask, cache))

    def params(self) -> dict:
        heads = [(f"{group}{h}", lins[h]) for h in range(self.n_heads)
                 for group, lins in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv))]
        return collect_params(heads + [("wo", self.wo)])


class Embedding:
    """Trainable lookup table; rows are gathered by integer id."""

    def __init__(self, rng: np.random.Generator, n_rows: int, d: int):
        self.n_rows = n_rows
        self.table = _init(rng, (n_rows, d))

    def __call__(self, ids) -> Tensor:
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_rows):
            raise ShapeError(f"embedding id out of range [0, {self.n_rows})")
        return T.take_rows(self.table, ids)

    def params(self) -> dict:
        return {"table": self.table}


def collect_params(named_modules) -> dict:
    """Flatten (prefix, module) pairs into one dotted-name parameter dict."""
    out = {}
    for prefix, module in named_modules:
        for k, v in module.params().items():
            out[f"{prefix}.{k}"] = v
    return out
