"""Adam training with linear warmup, per-epoch JSONL logging, and greedy
decoding into paragraph pairs for the metrics.

Videos are the batch unit so events inside each video stay sequential
(the decoder memory depends on it). The contrastive term is computed once
per batch over every event in the batch.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass

import numpy as np

from . import losses as L
from . import metrics as M
from . import tensor as T
from .data import tokenize
from .errors import NumericalError, ValidationError, require_at_least

# Adam's fixed recipe: moment decays, decoupled weight decay, global norm cap
BETA1 = 0.9
BETA2 = 0.999
WEIGHT_DECAY = 0.01
GRAD_CLIP = 1.0
EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 1e-4
    warmup_epochs: int = 5
    epochs: int = 20
    batch_size: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValidationError(f"warmup_epochs={self.warmup_epochs} outside "
                                  f"[0, epochs={self.epochs}]")
        require_at_least(self, 1, "batch_size")


class AdamState:
    """First/second moment buffers over all parameters laid end to end in
    dict order, plus the shared step counter."""

    def __init__(self, params: dict):
        self.m = np.zeros(sum(p.values.size for p in params.values()))
        self.v = np.zeros_like(self.m)
        self.step = 0


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def adam_step(params: dict, grads: dict, state: AdamState, cfg: TrainConfig,
              warmup_steps: int):
    """One optimizer step; rejects the whole step on any non-finite gradient.

    The learning rate ramps linearly from zero over ``warmup_steps``
    optimizer steps, then stays constant. Weight decay is decoupled from
    the moment estimates. Every operation is elementwise, so running it
    once over all parameters laid end to end changes no value.
    """
    g = np.concatenate([grads[name].ravel() for name in params])
    if not np.isfinite(g).all():
        name = next(n for n in params if not np.isfinite(grads[n]).all())
        raise NumericalError(f"non-finite gradient in {name}; step rejected")
    state.step += 1
    t = state.step
    lr = cfg.lr * min(1.0, t / warmup_steps) if warmup_steps > 0 else cfg.lr
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
    flat = np.concatenate([p.values.ravel() for p in params.values()])
    flat = flat - lr * (update + WEIGHT_DECAY * flat)
    start = 0
    for p in params.values():
        p.values = flat[start:start + p.values.size].reshape(p.values.shape).copy()
        start += p.values.size


@dataclass
class EpochStats:
    epoch: int
    l_cap: float
    l_con: float
    tau: float
    acc: float

    def log_line(self) -> str:
        return json.dumps({"epoch": self.epoch, "L_cap": self.l_cap,
                           "L_con": self.l_con, "tau": self.tau, "acc": self.acc})


def _batches(n: int, size: int, order) -> list:
    return [order[i:i + size] for i in range(0, n, size)]


def batch_loss(model, records, forwards, vocab, loss_cfg: L.LossConfig):
    """The objective training minimizes over one batch of videos.

    ``forwards`` holds each record's teacher-forced ``VideoForward``. The
    loss is the mean captioning loss over every event in the batch, plus
    the alignment loss over all of the batch's events when
    ``loss_cfg.use_contrastive`` is set. Returns ``(loss, captioning mean,
    alignment loss or None, each event's repetition penalty as a float)``.
    """
    cap_terms, taus = [], []
    for fwd in forwards:
        for logits, targets in zip(fwd.logits, fwd.targets):
            total_ev, _, tau_ev = L.captioning_loss(logits, targets, loss_cfg)
            cap_terms.append(total_ev)
            taus.append(float(tau_ev.values))
    cap = T.tmean(T.stack(cap_terms))
    if not loss_cfg.use_contrastive:
        return cap, cap, None, taus
    con = L.contrastive_loss(T.concat([fwd.event_embeddings for fwd in forwards], axis=0),
                             T.concat([model.caption_embeddings(rec, vocab)
                                       for rec in records], axis=0),
                             model.rho)
    return cap + con, cap, con, taus


def train(model, records, table, vocab, cfg: TrainConfig, loss_cfg: L.LossConfig,
          log_path: str = None, callback=None) -> list:
    """Optimize the model in place; returns per-epoch stats.

    ``callback(stats)`` runs after each epoch and may return True to stop
    early. On a non-finite loss the parameters are rolled back to the end
    of the last finished epoch before the error propagates, so the caller
    can still checkpoint a usable model.
    """
    if not records:
        raise ValidationError("cannot train on an empty dataset")
    params = model.named_params()
    state = AdamState(params)
    rng = np.random.default_rng(cfg.seed)
    n_batches = math.ceil(len(records) / cfg.batch_size)
    warmup_steps = cfg.warmup_epochs * n_batches
    last_good = {k: p.values.copy() for k, p in params.items()}
    history = []
    log_fh = open(log_path, "w") if log_path else None
    # Each step's tape is acyclic, so reference counting frees it; the
    # cyclic collector would only rescan its live nodes, again and again.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(records))
            cap_sum = con_sum = tau_sum = 0.0
            n_events = n_con = 0
            correct = total = 0
            for batch_ids in _batches(len(records), cfg.batch_size, order):
                T.zero_grads(params.values())
                batch = [records[vi] for vi in batch_ids]
                forwards = [model.forward_video(rec, table, vocab) for rec in batch]
                for fwd in forwards:
                    for logits, targets in zip(fwd.logits, fwd.targets):
                        correct += int((logits.values.argmax(axis=1) == targets).sum())
                        total += targets.size
                loss, cap, con, taus = batch_loss(model, batch, forwards, vocab, loss_cfg)
                cap_sum += float(cap.values) * len(taus)
                tau_sum += sum(taus)
                n_events += len(taus)
                if con is not None:
                    con_sum += float(con.values)
                    n_con += 1
                if not np.isfinite(loss.values):
                    for k, p in params.items():
                        p.values = last_good[k].copy()
                    raise NumericalError(
                        f"loss diverged at epoch {epoch}; parameters rolled back")
                T.backward(loss)
                grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.values))
                         for k, p in params.items()}
                clip_gradients(grads, GRAD_CLIP)
                adam_step(params, grads, state, cfg, warmup_steps)
            stats = EpochStats(
                epoch=epoch,
                l_cap=cap_sum / max(n_events, 1),
                l_con=con_sum / max(n_con, 1),
                tau=tau_sum / max(n_events, 1),
                acc=correct / max(total, 1),
            )
            history.append(stats)
            last_good = {k: p.values.copy() for k, p in params.items()}
            if log_fh:
                log_fh.write(stats.log_line() + "\n")
                log_fh.flush()
            if callback is not None and callback(stats):
                break
    finally:
        if gc_was_enabled:
            gc.enable()
        if log_fh:
            log_fh.close()
    return history


def decode_pairs(model, records, table, vocab) -> list:
    """Greedy-decode every video into metric-ready paragraph pairs."""
    if not records:
        raise ValidationError("cannot decode an empty dataset")
    pairs = []
    for rec in records:
        hyp_ids = model.decode_video(rec, table)
        hyps = [vocab.decode(ids) for ids in hyp_ids]
        refs = [tokenize(ev.caption) for ev in rec.events]
        pairs.append(M.ParagraphPair(hyps=hyps, refs=refs))
    return pairs
