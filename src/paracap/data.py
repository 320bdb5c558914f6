"""Corpus plumbing: tokenization, vocabulary, video records, manifest files,
and a small synthetic world whose captions are recoverable from features.

The synthetic generator builds a fixed latent world (agent, action and
place prototypes plus their feature embeddings) from one seed, then
samples train and held-out videos from that same world, so a model fit on
the train split is evaluated against features it can actually decode.
"""

from __future__ import annotations

import json
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .encoder import SnippetInput, VocabEmbeddingTable
from .errors import ValidationError, is_finite_number, require_at_least, atomic_write

PAD, BOS, EOS, UNK = "[PAD]", "[BOS]", "[EOS]", "[UNK]"
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED = (PAD, BOS, EOS, UNK)

AGENT_WORDS = ("dog", "cat", "bird", "horse", "man", "woman", "robot", "child")
ACTION_WORDS = ("runs", "jumps", "sleeps", "eats", "spins", "waves", "climbs", "digs")
PLACE_WORDS = ("park", "kitchen", "street", "garden", "beach", "forest", "market", "yard")


def tokenize(text: str) -> list:
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


def detokenize(tokens) -> str:
    return " ".join(tokens)


class Vocabulary:
    """Token/id mapping with fixed reserved ids for pad, bos, eos and unk."""

    def __init__(self, tokens):
        self.id_to_token = list(RESERVED) + [t for t in tokens if t not in RESERVED]
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValidationError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens) -> list:
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, ids) -> list:
        return [self.id_to_token[i] for i in ids]


def build_vocab(captions) -> Vocabulary:
    """Vocabulary from caption strings, most frequent first, ties alphabetical."""
    counts = Counter()
    for cap in captions:
        counts.update(tokenize(cap))
    if not counts:
        raise ValidationError("captions hold no tokens")
    return Vocabulary(sorted(counts, key=lambda t: (-counts[t], t)))


@dataclass
class EventRecord:
    begin: float
    end: float
    caption: str
    snippets: list

    def __post_init__(self):
        self.begin = float(self.begin)
        self.end = float(self.end)
        if not (np.isfinite(self.begin) and np.isfinite(self.end)):
            raise ValidationError(f"event times must be finite, got begin {self.begin}, "
                                  f"end {self.end}")
        if self.end < self.begin:
            raise ValidationError(f"event ends ({self.end}) before it begins ({self.begin})")
        if not self.snippets:
            raise ValidationError("event has no snippets")


@dataclass
class VideoRecord:
    video_id: str
    events: list

    def __post_init__(self):
        if not self.events:
            raise ValidationError(f"video {self.video_id!r} has no events")
        begins = [e.begin for e in self.events]
        if begins != sorted(begins):
            raise ValidationError(f"video {self.video_id!r} events out of order by begin time")


@dataclass
class SyntheticWorldSpec:
    n_agent_kinds: int = 6
    n_action_kinds: int = 6
    n_place_kinds: int = 6
    d_env: int = 12
    d_agent: int = 10
    d_frame: int = 16
    noise_sigma: float = 0.1
    n_videos: int = 16
    n_held_out: int = 4
    events_per_video: int = 3
    snippets_per_event: int = 2
    max_agents: int = 3
    repetition_prone: bool = False
    seed: int = 0

    def __post_init__(self):
        for name, cap in (("n_agent_kinds", len(AGENT_WORDS)),
                          ("n_action_kinds", len(ACTION_WORDS)),
                          ("n_place_kinds", len(PLACE_WORDS))):
            v = getattr(self, name)
            if not 1 <= v <= cap:
                raise ValidationError(f"{name}={v} outside [1, {cap}]")
        require_at_least(self, 1, "n_videos", "events_per_video", "snippets_per_event",
                         "d_env", "d_agent", "d_frame")
        require_at_least(self, 0, "n_held_out", "max_agents", "noise_sigma")


@dataclass
class SyntheticCorpus:
    train: list
    held_out: list
    table: VocabEmbeddingTable


# snippet j of an event carries this many agent rows; the zero keeps the
# empty-agent path exercised whenever events run three snippets or longer
_AGENT_COUNT_CYCLE = (1, 2, 0, 3)


def generate_synthetic(spec: SyntheticWorldSpec) -> SyntheticCorpus:
    rng = np.random.default_rng(spec.seed)
    agents = AGENT_WORDS[:spec.n_agent_kinds]
    actions = ACTION_WORDS[:spec.n_action_kinds]
    places = PLACE_WORDS[:spec.n_place_kinds]

    place_env = rng.normal(size=(len(places), spec.d_env))
    agent_vis = rng.normal(size=(len(agents), spec.d_agent))
    vis_agent = rng.normal(size=(len(agents), spec.d_frame))
    vis_action = rng.normal(size=(len(actions), spec.d_frame))
    vis_place = rng.normal(size=(len(places), spec.d_frame))
    vis_filler = rng.normal(size=(2, spec.d_frame))

    tokens = list(agents) + list(actions) + list(places) + ["the", "in"]
    feats = np.concatenate([vis_agent, vis_action, vis_place, vis_filler], axis=0)
    table = VocabEmbeddingTable(tokens=tokens, text_features=feats,
                                w_text=np.eye(spec.d_frame), w_image=np.eye(spec.d_frame))

    def sample_video(vid: str) -> VideoRecord:
        if spec.repetition_prone:
            act = int(rng.integers(len(actions)))
            pl = int(rng.integers(len(places)))
        events = []
        for i in range(spec.events_per_video):
            a = int(rng.integers(len(agents)))
            if not spec.repetition_prone:
                act = int(rng.integers(len(actions)))
                pl = int(rng.integers(len(places)))
            snippets = []
            for j in range(spec.snippets_per_event):
                env = place_env[pl] + spec.noise_sigma * rng.normal(size=spec.d_env)
                count = min(_AGENT_COUNT_CYCLE[j % len(_AGENT_COUNT_CYCLE)], spec.max_agents)
                rows = []
                if count >= 1:
                    rows.append(agent_vis[a] + spec.noise_sigma * rng.normal(size=spec.d_agent))
                for _ in range(count - 1):
                    other = int(rng.integers(len(agents)))
                    rows.append(agent_vis[other] + spec.noise_sigma * rng.normal(size=spec.d_agent))
                agent_arr = np.array(rows) if rows else np.zeros((0, spec.d_agent))
                frame = (vis_agent[a] + vis_action[act] + vis_place[pl]) / 3.0
                frame = frame + spec.noise_sigma * rng.normal(size=spec.d_frame)
                snippets.append(SnippetInput(env=env, agents=agent_arr, frame=frame))
            caption = f"the {agents[a]} {actions[act]} in the {places[pl]}"
            events.append(EventRecord(begin=i * 2.0, end=i * 2.0 + 2.0,
                                      caption=caption, snippets=snippets))
        return VideoRecord(video_id=vid, events=events)

    train = [sample_video(f"video-{i:03d}") for i in range(spec.n_videos)]
    held = [sample_video(f"heldout-{i:03d}") for i in range(spec.n_held_out)]
    return SyntheticCorpus(train=train, held_out=held, table=table)


# ---------------------------------------------------------------------------
# manifest files: one JSON object per line, one line per video

def save_manifest(records, path: str):
    with atomic_write(path) as fh:
        for rec in records:
            payload = {
                "video_id": rec.video_id,
                "events": [{
                    "begin": ev.begin,
                    "end": ev.end,
                    "caption": ev.caption,
                    "snippets": [{
                        "env": sn.env.tolist(),
                        "agents": sn.agents.tolist(),
                        "frame": sn.frame.tolist(),
                    } for sn in ev.snippets],
                } for ev in rec.events],
            }
            fh.write(json.dumps(payload) + "\n")


def _field(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {obj!r}")
    if key not in obj:
        raise ValidationError(f"{where}: missing field {key!r}")
    return obj[key]


def _check_snippet(snippet: SnippetInput, widths: dict):
    """Reject non-finite features and widths that differ from earlier snippets.

    ``widths`` maps each field to its width in the file's first snippet; an
    empty agents list carries no width.
    """
    for name in ("env", "agents", "frame"):
        values = getattr(snippet, name)
        if not np.isfinite(values).all():
            raise ValidationError(f"{name} holds a non-finite value")
        if name == "agents" and values.shape[0] == 0:
            continue
        width = widths.setdefault(name, values.shape[-1])
        if values.shape[-1] != width:
            raise ValidationError(f"{name} has width {values.shape[-1]}, "
                                  f"earlier snippets have {width}")


def load_manifest(path: str) -> list:
    records = []
    widths = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{where}: not valid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise ValidationError(f"{where}: expected an object per line")
            vid = _field(obj, "video_id", where)
            if not isinstance(vid, str):
                raise ValidationError(f"{where}: video_id must be a string")
            raw_events = _field(obj, "events", where)
            if not isinstance(raw_events, list) or not raw_events:
                raise ValidationError(f"{where}: events must be a non-empty list")
            events = []
            for ei, rev in enumerate(raw_events):
                ewhere = f"{where} event {ei}"
                snippets = []
                raw_snips = _field(rev, "snippets", ewhere)
                if not isinstance(raw_snips, list) or not raw_snips:
                    raise ValidationError(f"{ewhere}: snippets must be a non-empty list")
                for si, rsn in enumerate(raw_snips):
                    swhere = f"{ewhere} snippet {si}"
                    raw_agents = _field(rsn, "agents", swhere)
                    raw_env = _field(rsn, "env", swhere)
                    raw_frame = _field(rsn, "frame", swhere)
                    try:
                        agents = np.asarray(raw_agents, dtype=np.float64)
                        if agents.ndim == 1 and agents.size == 0:
                            agents = agents.reshape(0, 0)
                        snippet = SnippetInput(env=raw_env, agents=agents, frame=raw_frame)
                        _check_snippet(snippet, widths)
                    except (TypeError, ValueError) as exc:
                        raise ValidationError(f"{swhere}: {exc}") from None
                    snippets.append(snippet)
                times = {key: _field(rev, key, ewhere) for key in ("begin", "end")}
                for key, value in times.items():
                    if not is_finite_number(value):
                        raise ValidationError(f"{ewhere}: event times must be finite "
                                              f"numbers, got {key} {value!r}")
                caption = _field(rev, "caption", ewhere)
                if not isinstance(caption, str):
                    raise ValidationError(f"{ewhere}: caption must be a string, "
                                          f"got {caption!r}")
                if not tokenize(caption):
                    raise ValidationError(f"{ewhere}: caption {caption!r} holds no tokens")
                try:
                    events.append(EventRecord(caption=caption, snippets=snippets, **times))
                except ValidationError as exc:
                    raise ValidationError(f"{ewhere}: {exc}") from None
            try:
                records.append(VideoRecord(video_id=vid, events=events))
            except ValidationError as exc:
                raise ValidationError(f"{where}: {exc}") from None
    return records
