"""Span recording for the traced benchmark run.

While a :class:`Tracer` is installed, selected public functions and methods
of ``paracap`` are replaced by wrappers that record one span per call:
name, start, end and the enclosing span. Each wrapper is installed on the
module attribute or class that the caller looks the name up on, so a span
is charged to its call site: ``paracap.encoder.select_and_fuse`` (the two
encoder selection sites) and ``paracap.decoder.select_and_fuse`` (the
memory readout) are separate entries, and ``training.train`` reaches
backward through ``paracap.tensor.backward``.

Spans stay in memory until the run ends, in flat arrays that the garbage
collector does not scan; :meth:`Tracer.dump` writes them out and
:meth:`Tracer.self_times` reduces them to per-name self times.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

from paracap import decoder, encoder, losses, metrics, model, nn, tensor, training

# (span name, owner whose attribute the caller looks up, attribute name)
TARGETS = (
    ("tensor.backward", tensor, "backward"),
    ("nn.masked_attention", nn.MaskedMultiHeadAttention, "__call__"),
    ("nn.self_attention", nn.SelfAttention, "__call__"),
    ("encoder.encode_event", encoder.SnippetEncoder, "encode_event"),
    ("encoder.encode_agents", encoder.SnippetEncoder, "encode_agents"),
    ("encoder.encode_elements", encoder.SnippetEncoder, "encode_elements"),
    ("encoder.select_scene_elements", encoder, "select_scene_elements"),
    ("encoder.select_and_fuse", encoder, "select_and_fuse"),
    ("decoder.forward_event", decoder.CaptionDecoder, "forward_event"),
    ("decoder.inner", decoder.DecoderLayer, "inner"),
    ("decoder.read_memory", decoder.DecoderLayer, "read_memory"),
    ("decoder.select_and_fuse", decoder, "select_and_fuse"),
    ("losses.captioning_loss", losses, "captioning_loss"),
    ("losses.contrastive_loss", losses, "contrastive_loss"),
    ("model.forward_video", model.CaptionModel, "forward_video"),
    ("model.caption_embeddings", model.CaptionModel, "caption_embeddings"),
    ("model.decode_video", model.CaptionModel, "decode_video"),
    ("training.train", training, "train"),
    ("training.clip_gradients", training, "clip_gradients"),
    ("training.adam_step", training, "adam_step"),
    ("metrics.report", metrics, "report"),
)

# A select_and_fuse call selects from the stream its caller handles.
KEEP_SITES = {
    "encoder.encode_agents": "agent",
    "encoder.encode_elements": "element",
    "decoder.read_memory": "memory",
}


class Tracer:
    """Records spans while installed; restores every patched attribute on exit.

    Besides spans it counts the rows pushed through ``forward_event`` and,
    per selection site, the rows hard selection kept and was offered.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # span i: name index, parent span index (-1 for none), start, end
        self.span_name, self.span_parent = array("i"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self.rows = 0
        self.kept = Counter()
        self.offered = Counter()
        self._stack = []     # (span index, name) of the spans now open
        self._saved = []

    def __enter__(self):
        for name, owner, attr in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _call(self, name_id: int, fn, args, kwargs):
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append((index, self.names[name_id]))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.span_start[index] = start
            self.span_end[index] = end

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span named ``name``; for the benchmark's own steps."""
        return self._call(self._name_id(name), fn, args, kwargs)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        if name == "decoder.forward_event":
            def wrapped(decoder_self, video_rows, token_ids, *args, **kwargs):
                self.rows += video_rows.shape[0] + len(token_ids)
                return self._call(name_id, fn, (decoder_self, video_rows, token_ids) + args,
                                  kwargs)
        elif name.endswith(".select_and_fuse"):
            def wrapped(features, reference, attn, return_indices=False):
                site = KEEP_SITES.get(self._stack[-1][1] if self._stack else "", "other")
                fused, keep = self._call(name_id, fn, (features, reference, attn),
                                         {"return_indices": True})
                self.offered[site] += features.shape[0]
                self.kept[site] += len(keep)
                return (fused, keep) if return_indices else fused
        else:
            def wrapped(*args, **kwargs):
                return self._call(name_id, fn, args, kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def self_times(self) -> tuple:
        """Per span name: (total self seconds, call count).

        Self time is a span's duration minus the durations of its direct
        children; calls run one at a time, so children never overlap.
        """
        spans = list(zip(self.span_name, self.span_parent, self.span_start, self.span_end))
        child = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        for i, (name_index, _, start, end) in enumerate(spans):
            name = self.names[name_index]
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def dump(self, path: str):
        """Write every span, times in microseconds from the first span's start."""
        t0 = self.span_start[0] if self.span_start else 0.0
        rows = [[n, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), p]
                for n, p, s, e in zip(self.span_name, self.span_parent,
                                      self.span_start, self.span_end)]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent"],
                       "names": self.names, "spans": rows}, fh)
