import base64

import numpy as np
import pytest

from paracap.data import SyntheticWorldSpec, build_vocab, generate_synthetic
from paracap.model import CaptionModel, ModelConfig


def encode(raw: bytes) -> str:
    """Checkpoint ``values`` text for raw little-endian float64 bytes."""
    return base64.b64encode(raw).decode()


def build_setup(seed=0, spec_overrides=None, model_overrides=None):
    """One small world plus a model sized to fit it."""
    spec_kw = dict(n_agent_kinds=3, n_action_kinds=3, n_place_kinds=3,
                   n_videos=3, n_held_out=1, events_per_video=2,
                   snippets_per_event=2, seed=seed)
    spec_kw.update(spec_overrides or {})
    corpus = generate_synthetic(SyntheticWorldSpec(**spec_kw))
    vocab = build_vocab(ev.caption for rec in corpus.train for ev in rec.events)
    sn = corpus.train[0].events[0].snippets[0]
    model_kw = dict(d_env=sn.env.shape[0], d_agent=sn.agents.shape[1],
                    d_frame=sn.frame.shape[0], vocab_size=len(vocab),
                    d_emb=16, n_layers=2, n_heads=2, ff_mult=1, max_pos=24,
                    k=3, seed=seed)
    model_kw.update(model_overrides or {})
    model = CaptionModel(ModelConfig(**model_kw))
    return corpus, vocab, model


@pytest.fixture
def tiny_setup():
    return build_setup()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
