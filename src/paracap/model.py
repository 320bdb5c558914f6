"""Full captioning model: snippet encoder, event decoder, caption encoder,
and the temperature scalar, with JSON checkpointing.

One word-embedding table serves both the decoder input and the caption
encoder used by the alignment loss, standing in for a single shared text
encoder.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .data import BOS_ID, EOS_ID, RESERVED, Vocabulary, tokenize
from .decoder import CaptionDecoder, EventMemory, greedy_decode
from .encoder import MODALITIES, SnippetEncoder, VocabEmbeddingTable
from .errors import (ShapeError, ValidationError, atomic_write, build_dataclass,
                     read_json_object, require_at_least)
from .losses import RHO_INIT
from .nn import MLP, Embedding, collect_params
from .tensor import Tensor

CHECKPOINT_VERSION = 2


@dataclass
class ModelConfig:
    d_env: int
    d_agent: int
    d_frame: int
    vocab_size: int
    d_emb: int = 32
    n_layers: int = 2
    n_heads: int = 4
    ff_mult: int = 2
    max_pos: int = 64
    k: int = 4
    max_len: int = 16
    modalities: tuple = MODALITIES
    seed: int = 0

    def __post_init__(self):
        mods = self.modalities = tuple(self.modalities)
        if not mods or any(m not in MODALITIES for m in mods) or len(set(mods)) < len(mods):
            raise ValidationError(f"modalities must be one or more distinct names from "
                                  f"{MODALITIES}, got {list(mods)}")
        require_at_least(self, 1, "d_env", "d_agent", "d_frame", "d_emb", "n_layers",
                         "n_heads", "ff_mult", "max_pos", "k", "max_len")
        if self.d_emb % self.n_heads != 0:
            raise ValidationError(f"d_emb={self.d_emb} not divisible by "
                                  f"n_heads={self.n_heads}")
        require_at_least(self, len(RESERVED) + 1, "vocab_size")   # one id past the reserved


# each input width of ModelConfig: the snippet field that carries it and the
# modality that reads that field (None: every model reads it)
INPUT_FIELDS = {"d_env": ("env", None), "d_agent": ("agents", "agent"),
                "d_frame": ("frame", "ling")}


def snippet_widths(snippet) -> dict:
    """The input widths one snippet carries (``SnippetInput.widths``), by
    config key."""
    widths = snippet.widths()
    return {key: widths[field] for key, (field, _) in INPUT_FIELDS.items() if field in widths}


def input_widths(records) -> dict:
    """The input widths of the records' first snippet; ``d_agent`` comes
    from the first snippet with agents, 1 if none has any."""
    widths = {"d_agent": 1}
    for snippet in reversed([sn for rec in records for ev in rec.events
                             for sn in ev.snippets]):   # the first snippet wins
        widths.update(snippet_widths(snippet))
    return widths


def event_rows(event, max_len: int, teacher_forced: bool) -> int:
    """Decoder rows one event takes: one per snippet, one for BOS and one per
    text token. Decoding feeds up to ``max_len`` tokens; a ``teacher_forced``
    pass feeds the caption's, if more."""
    n_text = len(tokenize(event.caption)) if teacher_forced else 0
    return len(event.snippets) + 1 + max(n_text, max_len)


@dataclass
class VideoForward:
    """Teacher-forced outputs for one video: per-event logits and targets,
    plus the stacked event summary vectors."""

    logits: list
    targets: list
    event_embeddings: Tensor


class CaptionModel:
    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.word_embed = Embedding(rng, config.vocab_size, config.d_emb)
        self.encoder = SnippetEncoder(rng, config.d_env, config.d_agent,
                                      config.d_frame, config.d_emb,
                                      config.ff_mult, config.modalities)
        self.decoder = CaptionDecoder(rng, self.word_embed, config.d_emb,
                                      config.n_layers, config.n_heads,
                                      config.ff_mult, config.vocab_size,
                                      config.max_pos)
        # The caption tower is deliberately independent of the decoder's
        # word table so the alignment loss cannot warp the token geometry
        # the captioning path reads.
        self.caption_word_embed = Embedding(rng, config.vocab_size, config.d_emb)
        self.caption_mlp = MLP(rng, config.d_emb, config.ff_mult * config.d_emb,
                               config.d_emb)
        self.rho = Tensor(np.array(RHO_INIT), requires_grad=True)

    def named_params(self) -> dict:
        out = collect_params([("word_embed", self.word_embed),
                              ("caption_word_embed", self.caption_word_embed),
                              ("encoder", self.encoder), ("decoder", self.decoder),
                              ("caption_mlp", self.caption_mlp)])
        out["rho"] = self.rho
        return out

    # ------------------------------------------------------------------
    # forward paths

    def event_tokens(self, event, vocab: Vocabulary) -> list:
        return vocab.encode(tokenize(event.caption))

    def encode_video(self, record, table: VocabEmbeddingTable) -> list:
        """Each event's snippet rows, from one encoder pass over all of the
        video's snippets."""
        rows = self.encoder.encode_event([sn for ev in record.events for sn in ev.snippets],
                                         table, self.config.k)
        ends = np.cumsum([len(ev.snippets) for ev in record.events])
        return [T.take_rows(rows, np.arange(end - len(ev.snippets), end))
                for ev, end in zip(record.events, ends)]

    def forward_video(self, record, table: VocabEmbeddingTable, vocab: Vocabulary,
                      memory: EventMemory = None) -> VideoForward:
        """Teacher-forced pass over a video's events, in timestamp order.

        Each event reads ``memory`` (a fresh one by default) and is then
        appended to it.
        """
        if memory is None:
            memory = EventMemory(self.config.n_layers)
        logits_list, targets_list, summaries = [], [], []
        for event, video_rows in zip(record.events, self.encode_video(record, table)):
            tokens = self.event_tokens(event, vocab)
            logits, f_event = self.decoder.forward_event(
                video_rows, [BOS_ID] + tokens, memory, update_memory=True)
            logits_list.append(logits)
            targets_list.append(np.array(tokens + [EOS_ID], dtype=np.intp))
            summaries.append(f_event)
        return VideoForward(logits=logits_list, targets=targets_list,
                            event_embeddings=T.stack(summaries, axis=0))

    def caption_embeddings(self, record, vocab: Vocabulary) -> Tensor:
        """Caption vectors for a video's events, (events, d_emb): each the
        mean of its caption's word embeddings through a projection head."""
        rows = []
        for event in record.events:
            token_ids = self.event_tokens(event, vocab)
            if len(token_ids) == 0:
                raise ValidationError("cannot embed an empty caption")
            words = T.tmean(self.caption_word_embed(token_ids), axis=0, keepdims=True)
            rows.append(self.caption_mlp(words))
        return T.concat(rows, axis=0)

    def decode_video(self, record, table: VocabEmbeddingTable,
                     max_len: int = None) -> list:
        """Greedy captions for each event, as token-id lists without bos/eos."""
        max_len = self.config.max_len if max_len is None else max_len
        with T.no_grad():
            ids, _ = greedy_decode(self.decoder, self.encode_video(record, table),
                                   EventMemory(self.config.n_layers), max_len)
        return ids

    def check_inputs(self, records, table: VocabEmbeddingTable, vocab: Vocabulary,
                     teacher_forced: bool = False):
        """Reject a table, vocabulary or video this model cannot run; every
        event must fit ``max_pos`` (see ``event_rows``), and every snippet
        field the model reads must have the model's width."""
        cfg = self.config
        read = [key for key, (_, mod) in INPUT_FIELDS.items()
                if mod is None or mod in cfg.modalities]
        if table.d_feature != cfg.d_frame:
            raise ValidationError(f"embedding table width {table.d_feature} does not "
                                  f"match model d_frame {cfg.d_frame}")
        if len(vocab) != cfg.vocab_size:
            raise ValidationError(f"mismatched vocab: {len(vocab)} tokens vs model "
                                  f"vocab_size {cfg.vocab_size}")
        if "ling" in cfg.modalities and cfg.k > table.n_tokens:
            raise ValidationError(f"k={cfg.k} exceeds the {table.n_tokens} "
                                  "tokens in the embedding table")
        for rec in records:
            for i, event in enumerate(rec.events):
                rows = event_rows(event, cfg.max_len, teacher_forced)
                if rows > cfg.max_pos:
                    raise ValidationError(f"video {rec.video_id} event {i} needs {rows} "
                                          f"rows, more than max_pos {cfg.max_pos}")
                for j, snippet in enumerate(event.snippets):
                    for key, width in snippet_widths(snippet).items():
                        if key in read and width != getattr(cfg, key):
                            raise ValidationError(
                                f"video {rec.video_id} event {i} snippet {j}: "
                                f"{INPUT_FIELDS[key][0]} width {width} does not match "
                                f"model {key} {getattr(cfg, key)}")

    # ------------------------------------------------------------------
    # persistence

    def save_checkpoint(self, path: str, vocab_tokens):
        payload = {
            "format_version": CHECKPOINT_VERSION,
            "config": dict(asdict(self.config), vocab_tokens=list(vocab_tokens)),
            # each parameter's little-endian float64 bytes, row-major, in base64
            "params": {
                name: {"shape": list(p.values.shape),
                       "values": base64.b64encode(p.values.astype("<f8").tobytes()).decode()}
                for name, p in self.named_params().items()
            },
        }
        with atomic_write(path) as fh:
            fh.write(json.dumps(payload))

    @classmethod
    def load_checkpoint(cls, path: str):
        """Rebuild a model from a checkpoint; returns (model, stored vocab tokens)."""
        payload = read_json_object(path, "checkpoint", ("format_version", "config", "params"))
        for key in ("config", "params"):
            if not isinstance(payload[key], dict):
                raise ValidationError(f"{path}: {key} must be a JSON object")
        version = payload["format_version"]
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise ValidationError(f"{path}: format_version {version!r} "
                                  f"unsupported (expected {CHECKPOINT_VERSION})")
        vocab_tokens = payload["config"].pop("vocab_tokens", None)
        model = cls(build_dataclass(ModelConfig, payload["config"], f"{path}: config"))
        params = model.named_params()
        stored = payload["params"]
        missing = sorted(set(params) - set(stored))
        extra = sorted(set(stored) - set(params))
        if missing or extra:
            raise ValidationError(f"{path}: parameter names do not match "
                                  f"(missing {missing[:3]}, extra {extra[:3]})")
        for name, entry in stored.items():
            target = params[name]
            if not isinstance(entry, dict) or not {"shape", "values"} <= entry.keys():
                raise ValidationError(f"{path}: {name} must be an object with "
                                      "shape and values")
            shape, values = entry["shape"], entry["values"]
            if type(shape) is not list or not all(type(n) is int and n >= 0 for n in shape):
                raise ValidationError(f"{path}: {name}: shape must be a list of "
                                      f"non-negative integers, got {shape!r}")
            if type(values) is not str:
                raise ValidationError(f"{path}: {name}: values must be a base64 string")
            try:
                raw = base64.b64decode(values, validate=True)
            except ValueError as exc:   # binascii.Error, or a non-ASCII character
                raise ValidationError(f"{path}: {name}: values are not base64 ({exc})") from None
            # exact integers: a huge shape must not wrap around to the byte count
            if len(raw) != 8 * math.prod(shape):
                raise ValidationError(f"{path}: {name}: {len(raw)} bytes do not fit "
                                      f"shape {shape} of float64 values")
            if tuple(shape) != target.values.shape:
                raise ShapeError(f"{path}: {name} has shape {tuple(shape)}, "
                                 f"expected {target.values.shape}")
            # astype copies into a writable, native-order array
            values = np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)
            if not np.isfinite(values).all():
                raise ValidationError(f"{path}: {name} holds a non-finite value")
            target.values = values
        return model, vocab_tokens
