"""Finite-difference verification: per-primitive checks and a whole-model
check of the combined training loss on a tiny configuration.

Random inputs are sampled away from the nonsmooth points of each
primitive (clamp kinks, norm origins, selection thresholds), so
a central difference with h=1e-5 is a trustworthy reference.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import losses as L
from . import tensor as T
from .data import EventRecord, SnippetInput, VideoRecord, build_vocab
from .decoder import EventMemory
from .encoder import VocabEmbeddingTable
from .errors import NumericalError
from .model import CaptionModel, ModelConfig
from .tensor import Tensor
from .training import batch_loss

PRIMITIVE_TOL = 1e-6
END_TO_END_TOL = 1e-4
N_SEEDS = 10   # random draws per primitive case
SEED = 7       # seed of the end-to-end check's world, model and jitter


def _weights(rng, shape):
    return Tensor(rng.normal(size=shape))


def _normal(*shape):
    return lambda rng: rng.normal(size=shape)


def _uniform(low, high, *shape):
    return lambda rng: rng.uniform(low, high, size=shape)


def _away_from_zero(*shape, low=0.3):
    def draw(rng):
        signs = rng.choice([-1.0, 1.0], size=shape)
        return signs * rng.uniform(low, 1.5, size=shape)
    return draw


# (name, constant draws, output-weight shape, draw of x, op): each case checks
# tsum(op(x, *constants) * w), drawing the constants in order, then w, then x
_SINGLE_FORM_CASES = [
    ("add", [_normal(4)], (3, 4), _normal(3, 4), lambda x, y: x + y),
    ("sub", [_normal(3, 4)], (3, 4), _normal(3, 4), lambda x, y: y - x),
    ("mul", [_normal(3, 1)], (3, 4), _normal(3, 4), lambda x, y: x * y),
    ("neg", [], (5,), _normal(5), lambda x: -x),
    ("matmul_left", [_normal(4, 2)], (3, 2), _normal(3, 4), T.matmul),
    ("matmul_right", [_normal(3, 4)], (3, 2), _normal(4, 2), lambda x, a: T.matmul(a, x)),
    ("transpose", [], (4, 3), _normal(3, 4), T.transpose),
    ("reshape", [], (2, 6), _normal(3, 4), lambda x: T.reshape(x, (2, 6))),
    ("concat", [_normal(2, 4)], (5, 4), _normal(3, 4), lambda x, y: T.concat([x, y], axis=0)),
    ("stack", [_normal(4)], (3, 4), _normal(4), lambda x, y: T.stack([x, y, x], axis=0)),
    ("take_rows", [], (4, 3), _normal(3, 3), lambda x: T.take_rows(x, [0, 2, 0, 1])),
    ("l2_norm_rows", [], (3,), _away_from_zero(3, 4, low=0.5), T.l2_norm_rows),
    ("exp", [], (4,), _normal(4), T.texp),
    ("log", [], (4,), _uniform(0.4, 2.0, 4), T.tlog),
    ("log_sigmoid", [], (5,), _normal(5), T.log_sigmoid),
    ("clamp_min", [], (3, 4), _away_from_zero(3, 4), lambda x: T.clamp_min(x, 0.05)),
    ("softmax", [], (3, 5), _normal(3, 5), T.softmax),
    ("log_softmax", [], (3, 5), _normal(3, 5), T.log_softmax),
    ("layer_norm_x", [_uniform(0.5, 1.5, 4), _normal(4)], (3, 4), _normal(3, 4), T.layer_norm),
    ("layer_norm_affine", [_normal(3, 4), _normal(4)], (3, 4), _uniform(0.5, 1.5, 4),
     lambda x, h, bias: T.layer_norm(h, x, bias)),
]


def _single_form(draws, w_shape, draw_x, op):
    def build(rng):
        consts = [Tensor(draw(rng)) for draw in draws]
        w = _weights(rng, w_shape)
        x = Tensor(draw_x(rng), requires_grad=True)
        return lambda x: T.tsum(op(x, *consts) * w), x
    return build


def _primitive_cases():
    """(name, builder) pairs sorted by name; builder(rng) -> (scalar function,
    variable). Cases whose objective has two terms, or whose x stands in for
    several operands, are written out below."""

    def case_div(rng):
        y = Tensor(_away_from_zero(3, 4)(rng))
        w = _weights(rng, (3, 4))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def f(x):
            return T.tsum((x / y) * w) + T.tsum((1.0 / (x * x + 1.0)) * w)
        return f, x

    def case_sum(rng):
        w = _weights(rng, (4,))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def f(x):
            return T.tsum(T.tsum(x, axis=0) * w) + T.tsum(x) * 0.25
        return f, x

    def case_mean(rng):
        w = _weights(rng, (3, 1))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def f(x):
            return T.tsum(T.tmean(x, axis=1, keepdims=True) * w) + T.tmean(x)
        return f, x

    def case_gelu_mlp(rng):
        # x stands in for the input rows, then for w1, then for w2, then (as
        # a vector) for both biases
        def draw(*shapes):
            return [_weights(rng, shape) for shape in shapes]

        w1, b1, w2, b2 = draw((4, 5), (5,), (5, 2), (2,))
        rows_b, b1_b, w2_b, b2_b = draw((2, 3), (4,), (4, 2), (2,))
        rows_c, w1_c, b1_c, b2_c = draw((2, 2), (2, 3), (3,), (4,))
        rows_d, w1_d, w2_d = draw((2, 2), (2, 12), (12, 12))
        out_a, out_b, out_c, out_d = draw((3, 2), (2, 2), (2, 4), (2, 12))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def f(x):
            flat = T.reshape(x, (12,))
            return (T.tsum(T.mlp(x, w1, b1, w2, b2) * out_a)
                    + T.tsum(T.mlp(rows_b, x, b1_b, w2_b, b2_b) * out_b)
                    + T.tsum(T.mlp(rows_c, w1_c, b1_c, x, b2_c) * out_c)
                    + T.tsum(T.mlp(rows_d, w1_d, flat, w2_d, flat) * out_d))
        return f, x

    def case_attention_heads(rng):
        # x stands in for the input rows, then for head 1's wq, then (as a
        # vector) for head 0's bv; the first two calls run under a causal
        # mask, the last unmasked
        def heads(d, e):
            # two heads' q, k, v maps, each drawn before its bias
            drawn = [(_weights(rng, (d, e)), _weights(rng, (e,))) for _ in range(6)]
            return [w for w, _ in drawn], [b for _, b in drawn]

        first, second, third = heads(4, 2), heads(3, 4), heads(2, 12)
        rows_b = Tensor(rng.normal(size=(5, 3)))
        rows_c = Tensor(rng.normal(size=(4, 2)))
        w_a, w_b, w_c = _weights(rng, (3, 4)), _weights(rng, (5, 8)), _weights(rng, (4, 24))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def f(x):
            b_weights = second[0][:3] + [x] + second[0][4:]
            c_biases = third[1][:2] + [T.reshape(x, (12,))] + third[1][3:]
            causal = np.tril(np.ones((5, 5), dtype=bool))
            return (T.tsum(T.attention_heads(x, *first, causal[:3, :3], {}) * w_a)
                    + T.tsum(T.attention_heads(rows_b, b_weights, second[1], causal, {}) * w_b)
                    + T.tsum(T.attention_heads(rows_c, third[0], c_biases, None, {}) * w_c))
        return f, x

    def case_linear(rng):
        # x stands in for the input rows, then for the weights, then (as a
        # vector) for the bias
        w, b, out_a = (_weights(rng, shape) for shape in ((4, 2), (2,), (3, 2)))
        rows_b, b_b, out_b = (_weights(rng, shape) for shape in ((2, 3), (4,), (2, 4)))
        rows_c, w_c, out_c = (_weights(rng, shape) for shape in ((2, 5), (5, 12), (2, 12)))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def f(x):
            return (T.tsum(T.linear(x, w, b) * out_a)
                    + T.tsum(T.linear(rows_b, x, b_b) * out_b)
                    + T.tsum(T.linear(rows_c, w_c, T.reshape(x, (12,))) * out_c))
        return f, x

    cases = [(name[5:], fn) for name, fn in locals().items() if name.startswith("case_")]
    cases += [(name, _single_form(*row)) for name, *row in _SINGLE_FORM_CASES]
    return sorted(cases, key=lambda case: case[0])


def run_primitive_checks() -> dict:
    """Check every primitive against central differences over ``N_SEEDS`` seeds.

    A case's inputs come from its name and the seed, so adding, renaming or
    removing a case redraws no other case's inputs.

    Returns {primitive: worst relative error}; raises if any exceeds
    ``PRIMITIVE_TOL``.
    """
    worst = {}
    for name, builder in _primitive_cases():
        errs = []
        for seed in range(N_SEEDS):
            rng = np.random.default_rng([zlib.crc32(name.encode()), seed])
            f, x = builder(rng)
            errs.append(T.finite_diff_check(f, x))
        worst[name] = max(errs)
    failures = {k: v for k, v in worst.items() if v > PRIMITIVE_TOL}
    if failures:
        raise NumericalError(f"primitive gradient checks above {PRIMITIVE_TOL}: {failures}")
    return worst


def _tiny_world(seed: int):
    """One 2-event video with 2 snippets per event and 2-word captions."""
    rng = np.random.default_rng(seed)
    d_env, d_agent, d_frame = 4, 3, 5
    tokens = ["dog", "runs", "cat", "sits", "tree", "pond"]
    table = VocabEmbeddingTable(tokens=tokens,
                                text_features=rng.normal(size=(len(tokens), d_frame)),
                                w_text=rng.normal(size=(d_frame, d_frame)),
                                w_image=rng.normal(size=(d_frame, d_frame)))
    captions = ["dog runs", "cat sits"]

    def snippet():
        return SnippetInput(env=rng.normal(size=d_env),
                            agents=rng.normal(size=(2, d_agent)),
                            frame=rng.normal(size=d_frame))

    events = [EventRecord(begin=float(i * 2), end=float(i * 2 + 2), caption=cap,
                          snippets=[snippet(), snippet()])
              for i, cap in enumerate(captions)]
    record = VideoRecord(video_id="tiny", events=events)
    vocab = build_vocab(captions)
    config = ModelConfig(d_env=d_env, d_agent=d_agent, d_frame=d_frame,
                         vocab_size=len(vocab), d_emb=8, n_layers=2, n_heads=1,
                         ff_mult=1, max_pos=12, k=2, max_len=4, seed=seed)
    return record, table, vocab, config


class _FrozenMemory(EventMemory):
    """An event memory that replays ``base``: each added event reveals the
    next event stored there, and written rows are ignored."""

    def __init__(self, base: EventMemory):
        super().__init__(base.n_layers)
        self.rows, self._stored = base.rows, base.lengths

    def add(self, lengths) -> int:
        first = len(self)
        self.lengths = self._stored[:first + len(lengths)]
        return first

    def write(self, layer, events, positions, rows):
        pass


def run_end_to_end_check(seed: int = SEED) -> dict:
    """Finite-difference check of training's objective, ``batch_loss``,
    through the whole model.

    Two events of three target tokens each, two snippets per event, width
    8, two layers, one head; the batch for the alignment term is the
    video's two events. Every parameter tensor is perturbed
    coordinate-by-coordinate. Returns {param name: max rel err}.

    Two subtleties make the naive "finite-difference the training loss"
    version wrong, and both are handled here:

    * Parameters are first jittered away from the near-zero init: freshly
      initialized stacked projections leave some embedding rows with
      norms around 1e-5, and row normalization at such a point is so
      sharply curved that a central difference with h=1e-5 is
      meaningless. The gradient code is point-independent, so the check
      runs at a generic well-conditioned point.
    * The decoder detaches its event memory on purpose, so the backward
      pass computes the partial derivative with the memory held fixed.
      Central differences on the full forward would instead see the true
      derivative, which includes the first event's influence on the
      second through memory. The check therefore runs ``forward_video``
      into a ``_FrozenMemory``, which replays every event's states at the
      evaluation point, and so differentiates the same function the
      backward pass does; the deliberately truncated path is covered by
      the causality tests, not this one.
    """
    record, table, vocab, config = _tiny_world(seed)
    model = CaptionModel(config)
    jitter = np.random.default_rng(seed + 1)
    for p in model.named_params().values():
        p.values = np.asarray(p.values + jitter.normal(0.0, 0.3, size=p.values.shape))
    base = EventMemory(config.n_layers)   # every event's states at the evaluation point
    with T.no_grad():
        model.forward_video(record, table, vocab, base)

    def loss_fn():
        fwd = model.forward_video(record, table, vocab, _FrozenMemory(base))
        return batch_loss(model, [record], [fwd], vocab, L.LossConfig())[0]

    errors = {}
    for name, p in model.named_params().items():
        errors[name] = T.finite_diff_check(lambda _x: loss_fn(), p)
    failures = {k: v for k, v in errors.items() if v > END_TO_END_TOL}
    if failures:
        raise NumericalError(f"end-to-end gradient check above {END_TO_END_TOL}: {failures}")
    return errors
