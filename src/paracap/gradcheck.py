"""Finite-difference verification: per-primitive checks and a whole-model
check of the combined training loss on a tiny configuration.

Random inputs are sampled away from the nonsmooth points of each
primitive (clamp kinks, norm origins, selection thresholds), so
a central difference with h=1e-5 is a trustworthy reference.
"""

from __future__ import annotations

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


def _away_from_zero(rng, shape, low=0.3, high=1.5):
    signs = rng.choice([-1.0, 1.0], size=shape)
    return signs * rng.uniform(low, high, size=shape)


def _primitive_cases():
    """(name, builder) pairs; builder(rng) -> (scalar function, variable)."""

    def case_add(rng):
        y = Tensor(rng.normal(size=(4,)))
        w = _weights(rng, (3, 4))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        return lambda x: T.tsum((x + y) * w), x

    def case_sub(rng):
        y = Tensor(rng.normal(size=(3, 4)))
        w = _weights(rng, (3, 4))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        return lambda x: T.tsum((y - x) * w), x

    def case_mul(rng):
        y = Tensor(rng.normal(size=(3, 1)))
        w = _weights(rng, (3, 4))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        return lambda x: T.tsum(x * y * w), x

    def case_div(rng):
        y = Tensor(_away_from_zero(rng, (3, 4)))
        w = _weights(rng, (3, 4))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def f(x):
            return T.tsum((x / y) * w) + T.tsum((1.0 / (x * x + 1.0)) * w)
        return f, x

    def case_neg(rng):
        w = _weights(rng, (5,))
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        return lambda x: T.tsum(-x * w), x

    def case_matmul_left(rng):
        b = Tensor(rng.normal(size=(4, 2)))
        w = _weights(rng, (3, 2))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        return lambda x: T.tsum(T.matmul(x, b) * w), x

    def case_matmul_right(rng):
        a = Tensor(rng.normal(size=(3, 4)))
        w = _weights(rng, (3, 2))
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        return lambda x: T.tsum(T.matmul(a, x) * w), x

    def case_transpose(rng):
        w = _weights(rng, (4, 3))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        return lambda x: T.tsum(T.transpose(x) * w), x

    def case_reshape(rng):
        w = _weights(rng, (2, 6))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        return lambda x: T.tsum(T.reshape(x, (2, 6)) * w), x

    def case_concat(rng):
        y = Tensor(rng.normal(size=(2, 4)))
        w = _weights(rng, (5, 4))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        return lambda x: T.tsum(T.concat([x, y], axis=0) * w), x

    def case_stack(rng):
        y = Tensor(rng.normal(size=(4,)))
        w = _weights(rng, (3, 4))
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        return lambda x: T.tsum(T.stack([x, y, x], axis=0) * w), x

    def case_take_rows(rng):
        w = _weights(rng, (4, 3))
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        return lambda x: T.tsum(T.take_rows(x, [0, 2, 0, 1]) * w), x

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

    def case_l2_norm_rows(rng):
        w = _weights(rng, (3,))
        x = Tensor(_away_from_zero(rng, (3, 4), low=0.5), requires_grad=True)
        return lambda x: T.tsum(T.l2_norm_rows(x) * w), x

    def case_exp(rng):
        w = _weights(rng, (4,))
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        return lambda x: T.tsum(T.texp(x) * w), x

    def case_log(rng):
        w = _weights(rng, (4,))
        x = Tensor(rng.uniform(0.4, 2.0, size=(4,)), requires_grad=True)
        return lambda x: T.tsum(T.tlog(x) * w), x

    def case_log_sigmoid(rng):
        w = _weights(rng, (5,))
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        return lambda x: T.tsum(T.log_sigmoid(x) * w), x

    def case_gelu(rng):
        w = _weights(rng, (3, 4))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        return lambda x: T.tsum(T.gelu(x) * w), x

    def case_attention(rng):
        # x stands in for q, then k, then v; the causal mask leaves rows 0-2
        # partly masked, and the last call runs unmasked
        q, k, v = (Tensor(rng.normal(size=(4, 3))) for _ in range(3))
        w = _weights(rng, (4, 3))
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        mask = np.tril(np.ones((4, 4), dtype=bool))

        def f(x):
            return (T.tsum(T.attention(x, k, v, mask) * w)
                    + T.tsum(T.attention(q, x, v, mask) * w)
                    + T.tsum(T.attention(q, k, x) * w))
        return f, x

    def case_clamp_min(rng):
        w = _weights(rng, (3, 4))
        x = Tensor(_away_from_zero(rng, (3, 4)), requires_grad=True)
        return lambda x: T.tsum(T.clamp_min(x, 0.05) * w), x

    def case_softmax(rng):
        w = _weights(rng, (3, 5))
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        return lambda x: T.tsum(T.softmax(x) * w), x

    def case_log_softmax(rng):
        w = _weights(rng, (3, 5))
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        return lambda x: T.tsum(T.log_softmax(x) * w), x

    def case_layer_norm_x(rng):
        gain = Tensor(rng.uniform(0.5, 1.5, size=(4,)))
        bias = Tensor(rng.normal(size=(4,)))
        w = _weights(rng, (3, 4))
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        return lambda x: T.tsum(T.layer_norm(x, gain, bias) * w), x

    def case_layer_norm_affine(rng):
        h = Tensor(rng.normal(size=(3, 4)))
        bias = Tensor(rng.normal(size=(4,)))
        w = _weights(rng, (3, 4))
        x = Tensor(rng.uniform(0.5, 1.5, size=(4,)), requires_grad=True)
        return lambda x: T.tsum(T.layer_norm(h, x, bias) * w), x

    # a case draws its inputs from its list position, so the attention case
    # goes after the sorted ones and leaves their inputs as they were
    cases = [(name[5:], fn) for name, fn in sorted(locals().items())
             if name.startswith("case_") and fn is not case_attention]
    return cases + [("attention", case_attention)]


def run_primitive_checks() -> dict:
    """Check every primitive against central differences over ``N_SEEDS`` seeds.

    Returns {primitive: worst relative error}; raises if any exceeds
    ``PRIMITIVE_TOL``.
    """
    worst = {}
    for case_index, (name, builder) in enumerate(_primitive_cases()):
        errs = []
        for seed in range(N_SEEDS):
            rng = np.random.default_rng([case_index, seed])
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
    """An event memory that replays ``base``: each ``append`` reveals the
    next event stored there and ignores the states passed in."""

    def __init__(self, base: EventMemory):
        super().__init__(base.n_layers)
        self._stored = base._events

    def append(self, layer_states):
        n = len(self)
        for layer, stored in zip(self._events, self._stored):
            layer.append(stored[n])


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
