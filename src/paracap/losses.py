"""Training objectives: smoothed captioning loss with a repetition penalty,
plus a contrastive alignment loss between event and caption embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import BOS_ID, EOS_ID, PAD_ID
from .errors import NumericalError, ShapeError, ValidationError, require_at_least
from .tensor import Tensor

# temperature parameter starts at log(1 / 0.07)
RHO_INIT = float(np.log(1.0 / 0.07))
LABEL_SMOOTHING = 0.1
PROB_FLOOR = 1e-8                 # keeps log(1 - p) finite as p -> 1
PENALTY_EXCLUDES = (PAD_ID, BOS_ID, EOS_ID)   # ids repetition is never punished for


@dataclass
class LossConfig:
    lam: float = 0.1                  # weight of the repetition penalty
    use_contrastive: bool = True

    def __post_init__(self):
        require_at_least(self, 0.0, "lam")


def smoothed_cross_entropy(logits: Tensor, targets, smoothing: float) -> Tensor:
    """Label-smoothed cross-entropy, averaged over non-pad target positions.

    The smoothing mass is spread over the vocabulary minus the pad class,
    so the pad column never receives probability in the target
    distribution.
    """
    targets = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(f"logits {logits.shape} do not pair with targets {targets.shape}")
    n, v = logits.shape
    if v < 2:
        raise ShapeError(f"need at least 2 classes, got {v}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValidationError(f"target id out of range [0, {v})")
    valid = targets != PAD_ID
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValidationError("all target positions are padding")
    q = np.zeros((n, v))
    k = v - 1
    q[valid] = smoothing / k
    q[valid, PAD_ID] = 0.0
    q[np.flatnonzero(valid), targets[valid]] += 1.0 - smoothing
    lp = T.log_softmax(logits)
    return -T.tsum(Tensor(q) * lp) / float(n_valid)


def repetition_penalty(probs: Tensor, targets) -> Tensor:
    """Penalty for re-predicting tokens the reference already used.

    At position i the candidate set is the distinct target tokens from
    positions before i, minus ``PENALTY_EXCLUDES``; the penalty is the
    mean over positions of the summed -log(1 - p) mass the model still
    places on those candidates.
    """
    targets = np.asarray(targets, dtype=np.intp)
    if probs.ndim != 2 or targets.shape != (probs.shape[0],):
        raise ShapeError(f"probs {probs.shape} do not pair with targets {targets.shape}")
    hits = np.zeros(probs.shape)
    counted = np.flatnonzero(~np.isin(targets, PENALTY_EXCLUDES))
    hits[counted, targets[counted]] = 1.0
    mask = (np.cumsum(hits, axis=0) - hits > 0).astype(np.float64)
    inv = T.clamp_min(1.0 - probs, PROB_FLOOR)
    return -T.tsum(Tensor(mask) * T.tlog(inv)) / float(probs.shape[0])


def captioning_loss(logits: Tensor, targets, cfg: LossConfig):
    """Smoothed cross-entropy plus the weighted repetition penalty.

    Returns ``(total, ce, tau)`` so training can log the parts separately.
    """
    ce = smoothed_cross_entropy(logits, targets, LABEL_SMOOTHING)
    tau = repetition_penalty(T.softmax(logits), targets)
    return ce + tau * cfg.lam, ce, tau


def normalize_rows(x: Tensor) -> Tensor:
    """Scale each row to unit length; zero rows are rejected."""
    norms = T.l2_norm_rows(x)
    if (norms.values <= 0.0).any():
        raise NumericalError("cannot normalize a zero embedding row")
    return x / T.reshape(norms, (x.shape[0], 1))


def contrastive_loss(event_embeddings: Tensor, caption_embeddings: Tensor,
                     rho: Tensor) -> Tensor:
    """Binary alignment loss over all event/caption pairs in a batch.

    Cosine similarities are scaled by exp(rho) and pushed toward +inf on
    the diagonal (matched pairs) and -inf off it, through a sigmoid
    binary cross-entropy averaged over all B^2 pairs.
    """
    if event_embeddings.shape != caption_embeddings.shape or event_embeddings.ndim != 2:
        raise ShapeError(f"embedding stacks must match: {event_embeddings.shape} vs "
                         f"{caption_embeddings.shape}")
    if rho.shape != ():
        raise ShapeError(f"rho must be a scalar, got shape {rho.shape}")
    b = event_embeddings.shape[0]
    en = normalize_rows(event_embeddings)
    cn = normalize_rows(caption_embeddings)
    sims = T.matmul(en, T.transpose(cn))
    sign = 2.0 * np.eye(b) - 1.0   # +1 on matched pairs, -1 off them
    return -T.tsum(T.log_sigmoid(sims * T.texp(rho) * sign)) / float(b * b)

