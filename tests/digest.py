"""Print SHA-256 digests of a short fixed-seed training run.

Usage: ``python tests/digest.py``

Trains a small model for 3 epochs on a pinned synthetic world and prints
one digest per parameter, per ``train_log.jsonl`` line, per held-out
video's greedy token ids, and one for the saved checkpoint's bytes. Two
checkouts whose outputs must match bitwise (for example a refactor and
its parent) print identical text. The script imports ``paracap`` from the
``src/`` directory next to it and uses only the public model, training
and data API, so the same file runs against older checkouts too.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, so summation order cannot depend on the host
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib
import json
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from paracap.data import SyntheticWorldSpec, build_vocab, generate_synthetic  # noqa: E402
from paracap.losses import LossConfig  # noqa: E402
from paracap.model import CaptionModel, ModelConfig  # noqa: E402
from paracap.training import TrainConfig, train  # noqa: E402

WORLD = SyntheticWorldSpec(n_videos=6, n_held_out=2, events_per_video=3,
                           snippets_per_event=4, seed=5)
MODEL = dict(d_emb=32, n_layers=2, n_heads=4, seed=3)
TRAIN = TrainConfig(lr=1e-3, warmup_epochs=1, epochs=3, batch_size=4, seed=2)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    corpus = generate_synthetic(WORLD)
    vocab = build_vocab(ev.caption for rec in corpus.train for ev in rec.events)
    model = CaptionModel(ModelConfig(d_env=WORLD.d_env, d_agent=WORLD.d_agent,
                                     d_frame=WORLD.d_frame, vocab_size=len(vocab),
                                     **MODEL))
    with tempfile.TemporaryDirectory() as tmp:
        log_path = os.path.join(tmp, "train_log.jsonl")
        ckpt_path = os.path.join(tmp, "checkpoint.json")
        train(model, corpus.train, corpus.table, vocab, TRAIN, LossConfig(),
              log_path=log_path)
        model.save_checkpoint(ckpt_path, vocab_tokens=vocab.id_to_token)
        with open(log_path, "rb") as fh:
            log_lines = fh.read().splitlines()
        with open(ckpt_path, "rb") as fh:
            ckpt = fh.read()
    for name, p in model.named_params().items():
        print(f"param {name} {p.values.shape} {sha(p.values.tobytes())}")
    for i, line in enumerate(log_lines):
        print(f"train_log {i} {sha(line)}")
    for rec in corpus.held_out:
        ids = model.decode_video(rec, corpus.table)
        print(f"greedy {rec.video_id} {sha(json.dumps(ids).encode())}")
    print(f"checkpoint {sha(ckpt)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
