"""Snippet encoder: three feature streams per snippet fused into one vector.

A snippet arrives as raw features: a global environment vector, zero or
more per-agent vectors, and a frame vector used to retrieve descriptive
scene elements from a vocabulary embedding table. Each stream is projected
to the model width; the agent and element streams are then condensed by
hard selection against the environment vector (only rows whose scores
clear an adaptive threshold survive), and the per-stream summaries are
mixed by a small self-attention block into the final snippet vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (ShapeError, ValidationError, atomic_write, read_json_object,
                     require_finite_numbers)
from .nn import MLP, SelfAttention, collect_params
from .tensor import Tensor

MODALITIES = ("env", "agent", "ling")


@dataclass
class SnippetInput:
    """Raw per-snippet features, before any projection.

    ``agents`` may have zero rows: a snippet with nobody in it is legal and
    contributes a zero agent summary.
    """

    env: np.ndarray
    agents: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        self.env = np.asarray(self.env, dtype=np.float64)
        self.agents = np.asarray(self.agents, dtype=np.float64)
        self.frame = np.asarray(self.frame, dtype=np.float64)
        if self.env.ndim != 1:
            raise ShapeError(f"env must be a vector, got shape {self.env.shape}")
        if self.agents.ndim != 2:
            raise ShapeError(f"agents must be (n, d), got shape {self.agents.shape}")
        if self.frame.ndim != 1:
            raise ShapeError(f"frame must be a vector, got shape {self.frame.shape}")


@dataclass
class VocabEmbeddingTable:
    """Token strings with fixed feature rows, plus the two retrieval projections.

    ``text_features[j]`` is the feature row for ``tokens[j]``; ``w_text``
    projects those rows and ``w_image`` projects frame vectors into the
    common space where retrieval runs on cosine similarity.
    """

    tokens: list
    text_features: np.ndarray
    w_text: np.ndarray
    w_image: np.ndarray

    def __post_init__(self):
        self.tokens = list(self.tokens)
        self.text_features = np.asarray(self.text_features, dtype=np.float64)
        self.w_text = np.asarray(self.w_text, dtype=np.float64)
        self.w_image = np.asarray(self.w_image, dtype=np.float64)
        if self.text_features.ndim != 2:
            raise ValidationError(f"text_features must be (m, d), got {self.text_features.shape}")
        if len(self.tokens) != self.text_features.shape[0]:
            raise ValidationError(
                f"{len(self.tokens)} tokens but {self.text_features.shape[0]} feature rows")
        d = self.text_features.shape[1]
        if self.w_text.ndim != 2 or self.w_text.shape[0] != d:
            raise ValidationError(f"W_t must be ({d}, *), got {self.w_text.shape}")
        if self.w_image.ndim != 2 or self.w_image.shape[0] != d:
            raise ValidationError(f"W_i must be ({d}, *), got {self.w_image.shape}")
        if self.w_text.shape[1] != self.w_image.shape[1]:
            raise ValidationError(
                f"projection widths differ: W_t {self.w_text.shape} vs W_i {self.w_image.shape}")

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def d_feature(self) -> int:
        return self.text_features.shape[1]

    def save(self, path: str):
        payload = {
            "tokens": self.tokens,
            "text_features": self.text_features.tolist(),
            "W_t": self.w_text.tolist(),
            "W_i": self.w_image.tolist(),
        }
        with atomic_write(path) as fh:
            fh.write(json.dumps(payload))

    @classmethod
    def load(cls, path: str) -> "VocabEmbeddingTable":
        payload = read_json_object(path, "table", ("tokens", "text_features", "W_t", "W_i"))
        if type(payload["tokens"]) is not list or set(map(type, payload["tokens"])) - {str}:
            raise ValidationError(f"{path}: tokens must be a list of strings")
        for key in ("text_features", "W_t", "W_i"):
            require_finite_numbers(payload[key], f"{path}: {key}")
        try:
            return cls(tokens=payload["tokens"], text_features=payload["text_features"],
                       w_text=payload["W_t"], w_image=payload["W_i"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: {exc}") from None


def select_scene_elements(frames: np.ndarray, table: VocabEmbeddingTable, k: int):
    """Top-k token feature rows by cosine similarity to each frame vector.

    The (S, d) frames go through ``w_image`` and each token row through
    ``w_text``; similarity is cosine in that shared space. Winners come
    back in descending-similarity order, ties toward the lower token
    index. Returns ``(rows, indices)``: the (S, k) token indices and the
    winners' raw (unprojected) feature rows, (S, k, d).
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != table.d_feature:
        raise ShapeError(f"frames must be (S, {table.d_feature}), got shape {frames.shape}")
    if not 1 <= k <= table.n_tokens:
        raise ValidationError(f"k={k} outside [1, {table.n_tokens}]")
    q = frames @ table.w_image
    keys = table.text_features @ table.w_text
    qn = np.linalg.norm(q, axis=1)
    kn = np.linalg.norm(keys, axis=1)
    denom = np.maximum(qn[:, None] * kn[None, :], 1e-12)
    sims = (q @ keys.T) / denom
    idx = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return table.text_features[idx], idx


def select_and_fuse(features: Tensor, reference: Tensor, attn: SelfAttention,
                    return_indices: bool = False):
    """Hard selection of salient rows against a reference, then attention fusion.

    Scores come from the vector sums ``features[i] + reference``: their row
    norms go through a softmax, and rows whose probability clears the
    uniform level 1/N survive. Scoring is a hard decision outside the
    graph, so gradients flow only through the surviving rows. An empty
    survivor set falls back to the single best row.

    The (g, d) reference splits the g·n feature rows into g groups of n
    consecutive rows; row i of the reference selects within group i, and
    the result is (g, d). Only the reference's values are read. Every
    group's survivors go through one attention, masked so that rows see
    only their own group, and row i of the result is group i's mean.
    ``return_indices`` also returns the kept rows' indices into
    ``features``.
    """
    if features.ndim != 2:
        raise ShapeError(f"features must be (n, d), got {features.shape}")
    n_rows, d = features.shape
    if n_rows == 0:
        raise ShapeError("cannot select from zero feature rows")
    if reference.ndim != 2 or reference.shape[1] != d:
        raise ShapeError(f"reference must be (g, {d}), got shape {reference.shape}")
    g = reference.shape[0]
    if g == 0 or n_rows % g:
        raise ShapeError(f"{n_rows} feature rows do not split into {g} groups")
    n = n_rows // g
    norms = np.linalg.norm(features.values.reshape(g, n, d) + reference.values[:, None, :], axis=2)
    e = np.exp(norms - norms.max(axis=1, keepdims=True))
    scores = e / e.sum(axis=1, keepdims=True)
    keep = scores > 1.0 / n
    empty = ~keep.any(axis=1)
    if empty.any():
        keep[empty, np.argmax(scores[empty], axis=1)] = True
    kept = np.flatnonzero(keep)
    subset = T.take_rows(features, kept)
    if g == 1:
        fused = T.tmean(attn(subset), axis=0, keepdims=True)
    else:
        group = kept // n
        same = group[:, None] == group[None, :]
        member = group[None, :] == np.arange(g)[:, None]
        fused = T.matmul(Tensor(member / member.sum(axis=1, keepdims=True)),
                         attn(subset, same))
    if return_indices:
        return fused, kept
    return fused


def fuse_modalities(parts, attn: SelfAttention) -> Tensor:
    """Mix two or more parts (modality summaries, or a state and its
    memory readout) into one vector per row.

    Each part is (S, d), row i belonging to group i. All m·S rows go
    through one attention, masked so that a row sees only its own
    group's rows, and row i of the (S, d) result is the mean of group
    i's m outputs.
    """
    m = len(parts)
    if m < 2:
        raise ShapeError(f"fusion needs at least 2 parts, got {m}")
    shape = parts[0].shape
    if len(shape) != 2 or any(p.shape != shape for p in parts):
        raise ShapeError(f"fusion needs (S, d) parts of one shape, got {[p.shape for p in parts]}")
    s = shape[0]
    mask = None if s == 1 else np.tile(np.eye(s, dtype=bool), (m, m))
    return T.tmean(T.reshape(attn(T.concat(parts, axis=0), mask), (m,) + shape), axis=0)


class SnippetEncoder:
    """Projects the three feature streams and fuses them per snippet.

    One self-attention block is shared by both selection sites and the
    modality mix; the streams are small enough that separate mixers would
    only add parameters, not capacity. Nothing crosses snippets, so any
    run of snippets (an event, or all of a video's events) is encoded in
    one pass.
    """

    def __init__(self, rng: np.random.Generator, d_env: int, d_agent: int,
                 d_element: int, d_emb: int, ff_mult: int = 2,
                 modalities: tuple = MODALITIES):
        self.d_emb = d_emb
        self.modalities = tuple(modalities)
        hidden = ff_mult * d_emb
        self.env_mlp = MLP(rng, d_env, hidden, d_emb)
        self.agent_mlp = MLP(rng, d_agent, hidden, d_emb)
        self.element_mlp = MLP(rng, d_element, hidden, d_emb)
        self.attn = SelfAttention(rng, d_emb)

    def encode_agents(self, agents, f_env: Tensor) -> Tensor:
        """One agent summary per snippet, (S, d_emb), from S agent matrices
        and the (S, d_emb) environment rows.

        Snippets with the same agent count are selected together, one
        grouped ``select_and_fuse`` per distinct non-zero count; a snippet
        with no agents gets a zero row.
        """
        counts = np.array([a.shape[0] for a in agents])
        if not counts.any():
            return Tensor(np.zeros((len(agents), self.d_emb)))
        rows = self.agent_mlp(Tensor(np.concatenate([a for a in agents if a.shape[0]])))
        starts = np.cumsum(counts) - counts
        pieces, order = [], []
        for n in np.unique(counts[counts > 0]):
            members = np.flatnonzero(counts == n)
            picked = (starts[members][:, None] + np.arange(n)).ravel()
            pieces.append(select_and_fuse(T.take_rows(rows, picked),
                                          Tensor(f_env.values[members]), self.attn))
            order.append(members)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            pieces.append(Tensor(np.zeros((empty.size, self.d_emb))))
            order.append(empty)
        return T.take_rows(T.concat(pieces, axis=0), np.argsort(np.concatenate(order)))

    def encode_elements(self, element_rows: np.ndarray, f_env: Tensor) -> Tensor:
        """One scene-element summary per snippet, (S, d_emb), from the
        (S, k, d_element) retrieved rows and the (S, d_emb) environment rows."""
        rows = self.element_mlp(Tensor(element_rows.reshape(-1, element_rows.shape[2])))
        return select_and_fuse(rows, f_env, self.attn)

    def encode_event(self, snippets, table: VocabEmbeddingTable, k: int) -> Tensor:
        """Snippet vectors for a run of snippets, shape (n_snippets, d_emb).

        The environment rows are always computed because they anchor both
        selection sites, even when "env" itself is excluded from the mix.
        """
        if not snippets:
            raise ShapeError("an event needs at least one snippet")
        f_env = self.env_mlp(Tensor(np.stack([s.env for s in snippets])))
        parts = []
        for m in self.modalities:
            if m == "env":
                parts.append(f_env)
            elif m == "agent":
                parts.append(self.encode_agents([s.agents for s in snippets], f_env))
            else:
                rows, _ = select_scene_elements(np.stack([s.frame for s in snippets]),
                                                table, k)
                parts.append(self.encode_elements(rows, f_env))
        if len(parts) == 1:
            return parts[0]
        return fuse_modalities(parts, self.attn)

    def params(self) -> dict:
        return collect_params([
            ("env_mlp", self.env_mlp),
            ("agent_mlp", self.agent_mlp),
            ("element_mlp", self.element_mlp),
            ("attn", self.attn),
        ])
