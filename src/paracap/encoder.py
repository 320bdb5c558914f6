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
from .errors import ShapeError, ValidationError, read_json_object, atomic_write
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
        for key, values in (("text_features", self.text_features), ("W_t", self.w_text),
                            ("W_i", self.w_image)):
            if not np.isfinite(values).all():
                raise ValidationError(f"{key} holds a non-finite value")
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
        try:
            return cls(tokens=payload["tokens"], text_features=payload["text_features"],
                       w_text=payload["W_t"], w_image=payload["W_i"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: {exc}") from None


def select_scene_elements(frame: np.ndarray, table: VocabEmbeddingTable, k: int):
    """Top-k token feature rows by cosine similarity to a frame vector.

    The frame goes through ``w_image`` and each token row through
    ``w_text``; similarity is cosine in that shared space. Winners come
    back in descending-similarity order, ties toward the lower token
    index. Returns ``(rows, indices)`` where ``rows`` are the raw
    (unprojected) feature rows of the winners.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (table.d_feature,):
        raise ShapeError(f"frame shape {frame.shape} does not match table width "
                         f"{table.d_feature}")
    if not 1 <= k <= table.n_tokens:
        raise ValidationError(f"k={k} outside [1, {table.n_tokens}]")
    q = frame @ table.w_image
    keys = table.text_features @ table.w_text
    qn = np.linalg.norm(q)
    kn = np.linalg.norm(keys, axis=1)
    denom = np.maximum(qn * kn, 1e-12)
    sims = (keys @ q) / denom
    order = np.argsort(-sims, kind="stable")
    idx = order[:k]
    return table.text_features[idx].copy(), idx


def select_and_fuse(features: Tensor, reference: Tensor, attn: SelfAttention,
                    return_indices: bool = False):
    """Hard selection of salient rows against a reference, then attention fusion.

    Scores come from the vector sums ``features[i] + reference``: their row
    norms go through a softmax, and rows whose probability clears the
    uniform level 1/N survive. Scoring is a hard decision outside the
    graph, so gradients flow only through the surviving rows. An empty
    survivor set falls back to the single best row.
    """
    if features.ndim != 2:
        raise ShapeError(f"features must be (n, d), got {features.shape}")
    n, d = features.shape
    if n == 0:
        raise ShapeError("cannot select from zero feature rows")
    if reference.shape != (d,):
        raise ShapeError(f"reference shape {reference.shape} does not match width {d}")
    shifted = features.values + reference.values[None, :]
    norms = np.linalg.norm(shifted, axis=1)
    norms = norms - norms.max()
    e = np.exp(norms)
    scores = e / e.sum()
    keep = np.flatnonzero(scores > 1.0 / n)
    if keep.size == 0:
        keep = np.array([int(np.argmax(scores))])
    subset = T.take_rows(features, keep)
    fused = T.tmean(attn(subset), axis=0)
    if return_indices:
        return fused, keep
    return fused


def fuse_modalities(vectors, attn: SelfAttention) -> Tensor:
    """Mix two or more equal-width summary vectors into one via self-attention."""
    if len(vectors) < 2:
        raise ShapeError(f"modality fusion needs at least 2 vectors, got {len(vectors)}")
    return T.tmean(attn(T.stack(vectors, axis=0)), axis=0)


class SnippetEncoder:
    """Projects the three feature streams and fuses them per snippet.

    One self-attention block is shared by both selection sites and the
    modality mix; the streams are small enough that separate mixers would
    only add parameters, not capacity.
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

    def encode_environment(self, env: np.ndarray) -> Tensor:
        return T.reshape(self.env_mlp(Tensor(env.reshape(1, -1))), (self.d_emb,))

    def encode_agents(self, agents: np.ndarray, f_env: Tensor) -> Tensor:
        if agents.shape[0] == 0:
            return Tensor(np.zeros(self.d_emb))
        rows = self.agent_mlp(Tensor(agents))
        return select_and_fuse(rows, f_env, self.attn)

    def encode_elements(self, element_rows: np.ndarray, f_env: Tensor) -> Tensor:
        if element_rows.shape[0] == 0:
            raise ShapeError("element stream needs at least one retrieved row")
        rows = self.element_mlp(Tensor(element_rows))
        return select_and_fuse(rows, f_env, self.attn)

    def encode_snippet(self, snippet: SnippetInput, table: VocabEmbeddingTable,
                       k: int) -> Tensor:
        """One vector summarizing a snippet from whichever streams are enabled.

        The environment summary is always computed because it anchors both
        selection sites, even when "env" itself is excluded from the mix.
        """
        f_env = self.encode_environment(snippet.env)
        parts = []
        for m in self.modalities:
            if m == "env":
                parts.append(f_env)
            elif m == "agent":
                parts.append(self.encode_agents(snippet.agents, f_env))
            else:
                rows, _ = select_scene_elements(snippet.frame, table, k)
                parts.append(self.encode_elements(rows, f_env))
        if len(parts) == 1:
            return parts[0]
        return fuse_modalities(parts, self.attn)

    def encode_event(self, snippets, table: VocabEmbeddingTable, k: int) -> Tensor:
        """Stack of snippet vectors for one event, shape (n_snippets, d_emb)."""
        if not snippets:
            raise ShapeError("an event needs at least one snippet")
        return T.stack([self.encode_snippet(s, table, k) for s in snippets], axis=0)

    def params(self) -> dict:
        return collect_params([
            ("env_mlp", self.env_mlp),
            ("agent_mlp", self.agent_mlp),
            ("element_mlp", self.element_mlp),
            ("attn", self.attn),
        ])
