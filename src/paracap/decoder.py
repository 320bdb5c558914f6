"""Autoregressive caption decoder with a cross-event memory.

Each event is decoded over a joint row set [snippet vectors; token rows].
Inside an event a standard pre-norm transformer block mixes the rows under
a causality mask. Between events, every layer keeps a memory of its hidden
states from earlier events; a row at position p reads position p of every
earlier event (an event shorter than that offers its last row),
hard-selects the relevant ones, and folds the readout back into its own
state. Memory entries are detached, so gradients never cross event
boundaries.

One pass per layer serves many rows: an attention mask keeps events apart
and each row reads the memory at its own event and position. A
teacher-forced pass runs one whole event; greedy decoding runs a video's
events in lockstep, one pass per step for every event that can move.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import BOS_ID, EOS_ID
from .encoder import fuse_modalities, select_and_fuse
from .errors import ShapeError, ValidationError
from .nn import MLP, Embedding, Linear, LayerNorm, MaskedMultiHeadAttention, SelfAttention, collect_params
from .tensor import Tensor


def event_mask(events, positions, key_events, key_positions, key_text) -> np.ndarray:
    """Attention mask of rows (``events[i]``'s row at ``positions[i]``) over
    keys, shape (rows, keys).

    A row sees a key only if the key is in the same event and is either a
    snippet row or a text row at a position no later than the row's own.
    Over one event's [snippet rows; text rows] this is the causal join:
    snippet rows see each other but never the text, and text row j sees
    every snippet row and text rows up to and including itself.
    """
    visible = ~key_text | (key_positions <= positions[:, None])
    return (events[:, None] == key_events) & visible


class EventMemory:
    """Per-layer detached hidden states of stored events, in one padded store.

    ``rows[layer, e, p]`` is event e's state at position p, and
    ``lengths[e]`` its row count. A read past an event's last position gets
    that last row, so captions of different lengths still line up. An event
    is added with ``add`` and its rows are written with ``write``.
    """

    def __init__(self, n_layers: int):
        if n_layers < 1:
            raise ValidationError(f"memory needs n_layers >= 1, got {n_layers}")
        self.n_layers = n_layers
        self.rows = None   # (n_layers, event capacity, position capacity, d) once written
        self.lengths = np.zeros(0, dtype=np.intp)

    def __len__(self) -> int:
        return self.lengths.size

    def add(self, lengths) -> int:
        """Add events with the given row counts and no rows written yet;
        returns the index of the first."""
        first = len(self)
        self.lengths = np.concatenate([self.lengths, np.asarray(lengths, dtype=np.intp)])
        return first

    def write(self, layer: int, events, positions, rows: np.ndarray):
        """Store (k, d) ``rows`` at one layer: row i as event ``events[i]``'s
        row at ``positions[i]``. The store grows to fit."""
        need = (len(self), int(positions.max()) + 1)
        if self.rows is None or need[0] > self.rows.shape[1] or need[1] > self.rows.shape[2]:
            old = (0, 0) if self.rows is None else self.rows.shape[1:3]
            grown = np.zeros((self.n_layers, max(need[0], 2 * old[0]),
                              max(need[1], 2 * old[1]), rows.shape[1]))
            if self.rows is not None:
                grown[:, :old[0], :old[1]] = self.rows
            self.rows = grown
        self.rows[layer, events, positions] = rows

    def rows_block(self, layer: int, n_events: int, positions) -> np.ndarray:
        """The rows at ``positions`` of the first ``n_events`` events at one
        layer, position-major: shape (len(positions) * n_events, d), and row
        ``i * n_events + e`` is event e's row at ``positions[i]``.

        An event shorter than a position offers its final row there.
        """
        at = np.minimum(positions[:, None], self.lengths[:n_events] - 1)
        return self.rows[layer, np.arange(n_events), at].reshape(-1, self.rows.shape[3])


class DecoderLayer:
    """One decoder layer: masked in-event mixing plus the cross-event readout."""

    def __init__(self, rng: np.random.Generator, d: int, n_heads: int, ff_mult: int):
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
                    events, positions) -> Tensor:
        """Fold stored-event states into each row of ``h_bar``; row i is
        event ``events[i]``'s row at ``positions[i]``, events ascending, and
        reads the memory's events before its own.

        Per row: hard-select among the earlier events' rows at its
        position, with the current state as reference, and fuse the
        survivors into a readout; then mix readout and state through the
        same attention block and average the pair. Each event's rows run as
        one grouped ``select_and_fuse``, and every row with a readout as one
        ``fuse_modalities`` over the (state, readout) pairs, masked so that
        each pair sees only itself. Rows of event 0 have nothing to read and
        pass through. Stored rows are constants, so only this layer's mixing
        weights and ``h_bar`` receive gradient from the readout path.
        """
        cuts = [0, *((events[1:] != events[:-1]).nonzero()[0] + 1).tolist(), events.size]
        bare = cuts[1] if events[0] == 0 else 0   # event 0's rows come first
        fused = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > bare:
                past = Tensor(memory.rows_block(layer_index, events[lo], positions[lo:hi]))
                fused.append(select_and_fuse(past, Tensor(h_bar.values[lo:hi]), self.mem_attn))
        z = fused[0] if len(fused) == 1 else T.concat(fused, axis=0)
        h = T.take_rows(h_bar, np.arange(bare, len(events))) if bare else h_bar
        out = self.mem_mlp(fuse_modalities([h, z], self.mem_attn)) + h
        return T.concat([T.take_rows(h_bar, np.arange(bare)), out], axis=0) if bare else out

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

    def build_input(self, video_rows: Tensor, token_ids, positions) -> Tensor:
        """Input rows for ``video_rows`` then ``token_ids``; row i sits at
        position ``positions[i]``."""
        token_ids = np.asarray(token_ids, dtype=np.intp)
        n_video = video_rows.shape[0]
        s = int(positions.max()) + 1
        if s > self.max_pos:
            raise ValidationError(f"sequence of {s} rows exceeds max positions {self.max_pos}")
        text_rows = self.text_mlp(self.word_embed(token_ids))
        h = T.concat([video_rows, text_rows], axis=0)
        types = self.type_embed([0] * n_video + [1] * token_ids.size)
        return h + types + self.pos_embed(positions)

    def run_layers(self, h: Tensor, mask, memory: EventMemory, caches, events, positions,
                   store: bool) -> Tensor:
        """Input rows through every layer; returns the top rows.

        Row i is event ``events[i]``'s row at ``positions[i]``, events
        ascending. ``caches``, one dict per layer, lets the rows attend to
        rows passed in earlier calls (see ``MaskedMultiHeadAttention``).
        With ``store``, each layer's pre-readout states ``h_bar`` are
        written to ``memory`` before its readout, so a row can read an
        earlier event's row from the same pass.
        """
        if memory.n_layers != self.n_layers:
            raise ShapeError(f"memory has {memory.n_layers} layers, decoder has {self.n_layers}")
        for i, layer in enumerate(self.layers):
            h_bar = layer.inner(h, mask, caches[i])
            if store:
                memory.write(i, events, positions, h_bar.values)
            h = h_bar if events[-1] == 0 else layer.read_memory(h_bar, memory, i, events,
                                                                positions)
        return h

    def forward_event(self, video_rows: Tensor, token_ids, memory: EventMemory,
                      update_memory: bool = True):
        """Decode one event; returns (token logits, event summary vector).

        ``token_ids`` is the shifted input (leading BOS); logits row i
        scores the token after input i. When ``update_memory`` is set the
        per-layer states are committed to ``memory`` for later events.
        """
        n_video = video_rows.shape[0]
        positions = np.arange(n_video + len(token_ids))
        h = self.build_input(video_rows, token_ids, positions)
        events = np.full(positions.size, len(memory))
        if update_memory:
            memory.add([positions.size])
        mask = event_mask(events, positions, events, positions, positions >= n_video)
        h = self.run_layers(h, mask, memory, [{} for _ in self.layers], events, positions,
                            update_memory)
        logits = self.head(T.take_rows(h, positions[n_video:]))
        f_event = T.tmean(T.take_rows(h, positions[:n_video]), axis=0)
        return logits, f_event

    def params(self) -> dict:
        named = [("text_mlp", self.text_mlp), ("type_embed", self.type_embed),
                 ("pos_embed", self.pos_embed), ("head", self.head)]
        named += [(f"layer{i}", layer) for i, layer in enumerate(self.layers)]
        return collect_params(named)


def greedy_decode(decoder: CaptionDecoder, videos, memory: EventMemory, max_len: int):
    """Argmax decoding of a video's events, in lockstep; adds them to
    ``memory`` in order.

    ``videos`` holds each event's (n, d) snippet rows. Returns, per event,
    the generated ids without BOS or the trailing EOS, and the (ids, vocab)
    logit rows each id, EOS included, was picked from. Ties pick the lowest
    id, so decoding is deterministic.

    Each step runs one pass that feeds the next chunk of every event that
    can move: first its snippet rows plus BOS, then its last id. The rows
    attend, through one joint cache per layer, to the keys and values of
    their own event's earlier rows. A row's states never change once it
    exists (snippet rows see only snippets, text row j only rows up to j,
    and the memory readout, layer norm and MLP act per row), so this gives
    the logits of a full teacher-forced pass over the prefix. A row at
    position p reads position p of every earlier event, or that event's
    last row; so an event's chunk runs only when every earlier event has
    fed the chunk's last position, in this step or before, or feeds its
    last row in this step. With equal snippet counts all events move
    together; with ragged counts an event waits. Each event's ``h_bar``
    rows of [snippets, BOS, tokens, EOS], or [snippets, BOS, tokens] at the
    cap, are what ``forward_event`` would commit for that input, and are
    written to ``memory`` as they are fed.
    """
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")
    n_video = np.array([rows.shape[0] for rows in videos], dtype=np.intp)
    first = memory.add(np.zeros(len(videos), dtype=np.intp))
    fed = np.zeros(len(videos), dtype=np.intp)   # rows fed per event
    ids = [[] for _ in videos]
    picked = [[] for _ in videos]                 # the logit row of each id
    caches = [{} for _ in decoder.layers]
    # every cached row's event, position and text flag, in cache order
    keys = (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, bool))
    active = list(range(len(videos)))
    with T.no_grad():
        while active:
            step, last = [], []   # the events that move, and whether each feeds its last row
            limit = np.inf        # every earlier event has fed the positions below it
            for t in active:
                end = fed[t] + (n_video[t] + 1 if fed[t] == 0 else 1)
                if end > limit:   # the event waits
                    limit = min(limit, fed[t])
                    continue
                final = bool(ids[t]) and (ids[t][-1] == EOS_ID or len(ids[t]) == max_len)
                step.append(t)
                last.append(final)
                if not final:
                    limit = end
            step, last = np.array(step), np.array(last)
            chunks = np.where(fed[step] == 0, n_video[step] + 1, 1)
            ends = np.cumsum(chunks)
            events = np.repeat(step, chunks)
            positions = np.arange(ends[-1]) + np.repeat(fed[step] - ends + chunks, chunks)
            text = np.zeros(ends[-1], dtype=bool)
            text[ends - 1] = True
            starting = [videos[t] for t in step[fed[step] == 0]]
            h = decoder.build_input(T.concat(starting, axis=0) if starting else
                                    Tensor(np.zeros((0, decoder.d))),
                                    [ids[t][-1] if ids[t] else BOS_ID for t in step],
                                    np.concatenate([positions[~text], positions[text]]))
            if starting:   # to event-major order, each event's rows together
                h = T.take_rows(h, np.argsort(np.concatenate([np.flatnonzero(~text),
                                                              np.flatnonzero(text)])))
            keys = tuple(np.concatenate(pair) for pair in zip(keys, (events, positions, text)))
            fed[step] += chunks
            memory.lengths[first + step] = fed[step]
            h = decoder.run_layers(h, event_mask(events, positions, *keys), memory, caches,
                                   first + events, positions, True)
            going = step[~last]
            if going.size:
                logits = decoder.head(T.take_rows(h, ends[~last] - 1)).values
                for t, row in zip(going, logits):
                    ids[t].append(int(np.argmax(row)))
                    picked[t].append(row)
            ended = set(step[last].tolist())
            active = [t for t in active if t not in ended]
    return ([seq[:-1] if seq[-1] == EOS_ID else seq for seq in ids],
            [np.array(rows) for rows in picked])
