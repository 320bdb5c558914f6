"""Autoregressive caption decoder with a cross-event memory.

Each event is decoded over a joint row set [snippet vectors; token rows].
Inside an event a standard pre-norm transformer block mixes the rows under
a causality mask. Between events, every layer keeps a memory of its hidden
states from earlier events; while decoding event t, each position reads
the matching position of all stored events, hard-selects the relevant
ones, and folds the readout back into its own state. Memory entries are
detached, so gradients never cross event boundaries.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import BOS_ID, EOS_ID
from .encoder import select_and_fuse
from .errors import ShapeError, ValidationError
from .nn import MLP, Embedding, Linear, LayerNorm, MaskedMultiHeadAttention, SelfAttention, collect_params
from .tensor import Tensor


def causal_join_mask(n_video: int, n_text: int) -> np.ndarray:
    """Attention mask over [video rows; text rows].

    Video rows see each other but never the text; text row j sees every
    video row and text rows up to and including itself.
    """
    s = n_video + n_text
    mask = np.zeros((s, s), dtype=bool)
    mask[:n_video, :n_video] = True
    mask[n_video:, :n_video] = True
    for j in range(n_text):
        mask[n_video + j, n_video:n_video + j + 1] = True
    return mask


class EventMemory:
    """Per-layer stacks of detached hidden states from completed events."""

    def __init__(self, n_layers: int):
        if n_layers < 1:
            raise ValidationError(f"memory needs n_layers >= 1, got {n_layers}")
        self.n_layers = n_layers
        self._events = [[] for _ in range(n_layers)]

    def __len__(self) -> int:
        return len(self._events[0])

    def append(self, layer_states):
        """Store one completed event; ``layer_states`` holds one (s, d) tensor per layer."""
        if len(layer_states) != self.n_layers:
            raise ShapeError(f"expected {self.n_layers} layer states, got {len(layer_states)}")
        for layer, h in zip(self._events, layer_states):
            if h.ndim != 2:
                raise ShapeError(f"memory entries must be matrices, got shape {h.shape}")
            layer.append(np.array(h.values, copy=True))

    def rows_at(self, layer: int, position: int) -> np.ndarray:
        """Row ``position`` of every stored event at one layer, shape (n_events, d).

        Events shorter than ``position`` contribute their final row, so
        captions of different lengths still line up.
        """
        rows = [ev[min(position, ev.shape[0] - 1)] for ev in self._events[layer]]
        return np.stack(rows, axis=0)


class DecoderLayer:
    """One decoder layer: masked in-event mixing plus the cross-event readout."""

    def __init__(self, rng: np.random.Generator, d: int, n_heads: int, ff_mult: int):
        self.d = d
        self.ln1 = LayerNorm(d)
        self.attn = MaskedMultiHeadAttention(rng, d, n_heads)
        self.ln2 = LayerNorm(d)
        self.mlp = MLP(rng, d, ff_mult * d, d)
        self.mem_attn = SelfAttention(rng, d)
        self.mem_mlp = MLP(rng, d, ff_mult * d, d)

    def inner(self, h: Tensor, mask, cache: dict) -> Tensor:
        """In-event mixing; ``cache`` holds the attention keys and values of
        earlier rows (see ``MaskedMultiHeadAttention``)."""
        h = self.attn(self.ln1(h), mask, cache) + h
        return self.mlp(self.ln2(h)) + h

    def read_memory(self, h_bar: Tensor, memory: EventMemory, layer_index: int,
                    start: int = 0) -> Tensor:
        """Fold stored-event states into each row of ``h_bar``, the rows at
        positions ``start``, ``start + 1``, ...

        Per position: hard-select among the stored events' rows using the
        current state as reference, fuse the survivors, then mix readout
        and state through the same attention block. Stored rows are
        constants, so only this layer's mixing weights receive gradient
        from the readout path.
        """
        s = h_bar.shape[0]
        mixed = []
        for p in range(s):
            past = Tensor(memory.rows_at(layer_index, start + p))
            ref = Tensor(h_bar.values[p])
            z = select_and_fuse(past, ref, self.mem_attn)
            pair = T.concat([T.take_rows(h_bar, [p]), T.reshape(z, (1, self.d))], axis=0)
            mixed.append(T.tmean(self.mem_attn(pair), axis=0))
        return self.mem_mlp(T.stack(mixed, axis=0)) + h_bar

    def params(self) -> dict:
        return collect_params([
            ("ln1", self.ln1), ("attn", self.attn), ("ln2", self.ln2),
            ("mlp", self.mlp), ("mem_attn", self.mem_attn), ("mem_mlp", self.mem_mlp),
        ])


class CaptionDecoder:
    """Stack of decoder layers with token, type and position embeddings.

    The word table is owned by the caller (it is shared with the caption
    encoder used by the alignment loss) and passed in, not created here.
    """

    def __init__(self, rng: np.random.Generator, word_embed: Embedding, d: int,
                 n_layers: int, n_heads: int, ff_mult: int, vocab_size: int,
                 max_pos: int):
        self.d = d
        self.n_layers = n_layers
        self.max_pos = max_pos
        self.word_embed = word_embed
        self.text_mlp = MLP(rng, d, ff_mult * d, d)
        self.type_embed = Embedding(rng, 2, d)
        self.pos_embed = Embedding(rng, max_pos, d)
        self.layers = [DecoderLayer(rng, d, n_heads, ff_mult) for _ in range(n_layers)]
        self.head = Linear(rng, d, vocab_size)

    def build_input(self, video_rows: Tensor, token_ids, start: int = 0) -> Tensor:
        """Input rows for ``video_rows`` then ``token_ids``, from position ``start``."""
        token_ids = np.asarray(token_ids, dtype=np.intp)
        n_video = video_rows.shape[0]
        s = start + n_video + token_ids.size
        if s > self.max_pos:
            raise ValidationError(f"sequence of {s} rows exceeds max positions {self.max_pos}")
        text_rows = self.text_mlp(self.word_embed(token_ids))
        h = T.concat([video_rows, text_rows], axis=0)
        types = self.type_embed([0] * n_video + [1] * token_ids.size)
        positions = self.pos_embed(np.arange(start, s))
        return h + types + positions

    def run_layers(self, h: Tensor, mask, memory: EventMemory, caches, start: int = 0):
        """Input rows (positions ``start`` on) through every layer; returns
        the top rows and each layer's pre-readout states ``h_bar``.

        ``caches``, one dict per layer, lets the rows attend to rows passed
        in earlier calls (see ``MaskedMultiHeadAttention``).
        """
        if memory.n_layers != self.n_layers:
            raise ShapeError(f"memory has {memory.n_layers} layers, decoder has {self.n_layers}")
        snapshots = []
        for i, layer in enumerate(self.layers):
            h_bar = layer.inner(h, mask, caches[i])
            snapshots.append(h_bar)
            h = h_bar if len(memory) == 0 else layer.read_memory(h_bar, memory, i, start)
        return h, snapshots

    def forward_event(self, video_rows: Tensor, token_ids, memory: EventMemory,
                      update_memory: bool = True):
        """Decode one event; returns (token logits, event summary vector).

        ``token_ids`` is the shifted input (leading BOS); logits row i
        scores the token after input i. When ``update_memory`` is set the
        per-layer states are committed to ``memory`` for later events.
        """
        n_video = video_rows.shape[0]
        n_text = len(token_ids)
        h, snapshots = self.run_layers(self.build_input(video_rows, token_ids),
                                       causal_join_mask(n_video, n_text), memory,
                                       [{} for _ in self.layers])
        logits = self.head(T.take_rows(h, np.arange(n_video, n_video + n_text)))
        f_event = T.tmean(T.take_rows(h, np.arange(n_video)), axis=0)
        if update_memory:
            memory.append(snapshots)
        return logits, f_event

    def params(self) -> dict:
        named = [("text_mlp", self.text_mlp), ("type_embed", self.type_embed),
                 ("pos_embed", self.pos_embed), ("head", self.head)]
        named += [(f"layer{i}", layer) for i, layer in enumerate(self.layers)]
        return collect_params(named)


def greedy_decode(decoder: CaptionDecoder, video_rows: Tensor, memory: EventMemory,
                  max_len: int) -> list:
    """Argmax decoding for one event; commits the finished event to memory.

    Returns generated token ids without BOS or the trailing EOS. Ties pick
    the lowest id, so decoding is deterministic.

    The video rows and BOS run once; then each generated token runs as one
    new row that attends to the keys and values every layer cached for the
    rows before it. A row's states never change once it exists (video rows
    see only video, text row j only rows up to j, and the memory readout,
    layer norm and MLP act per row), so this gives the logits of a full
    teacher-forced pass over the prefix. The cached ``h_bar`` rows of
    [BOS, tokens, EOS], or [BOS, tokens] at the cap, are what
    ``forward_event`` would commit for that input, and are committed.
    """
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")
    n_video = video_rows.shape[0]
    no_rows = Tensor(np.zeros((0, decoder.d)))
    caches = [{} for _ in decoder.layers]
    states = [[] for _ in decoder.layers]   # per layer, the h_bar rows so far

    def feed(rows, token, mask, start):
        h, snapshots = decoder.run_layers(decoder.build_input(rows, [token], start),
                                          mask, memory, caches, start)
        for kept, h_bar in zip(states, snapshots):
            kept.append(h_bar)
        return h

    ids = []
    with T.no_grad():
        h = feed(video_rows, BOS_ID, causal_join_mask(n_video, 1), 0)
        while not ids or (ids[-1] != EOS_ID and len(ids) < max_len):
            logits = decoder.head(T.take_rows(h, [h.shape[0] - 1]))
            ids.append(int(np.argmax(logits.values[0])))
            h = feed(no_rows, ids[-1], None, n_video + len(ids))
        memory.append([T.concat(kept, axis=0) for kept in states])
    return ids[:-1] if ids[-1] == EOS_ID else ids
