"""paracap benchmark: training and greedy-decoding cost on pinned synthetic worlds.

Run from the repository root:

    python3 bench/run.py --workload train-overfit --seed 1 --seconds 20 --trace 0

One run is one process and one workload. It sets its world up several
times (timed; the median is reported) and checks the round trips. Then,
for ``--seconds``, it runs whole rounds of the same work: one epoch of
``training.train``, then, from the epoch callback, one greedy-decoding
pass (``decode_video`` on every held-out video, then ``metrics.report``)
with an untrained copy of the model. Afterwards it checks the outputs
against independent computations and prints one JSON object as the last
line of stdout: end-to-end metrics with ``--trace 0``, per-layer metrics
from wrapped calls with ``--trace 1``. See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads, so every run measures
# the same single-core program whatever the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(BENCH_DIR, "out")

MAX_LEN = 16         # decoding length cap
MAX_POS = 24         # 4 snippets + BOS + 16 tokens + EOS fit
MODEL_SEED = 0       # fixed: the untrained decoder never emits EOS before the cap
TRAIN = {"lr": 2e-3, "warmup_epochs": 2}
SETUP_REPEATS = 7
SPOT_COORDS = 4


@dataclass(frozen=True)
class Workload:
    """One pinned world shape, model size and batch size.

    ``worlds`` are ``SyntheticWorldSpec`` overrides that all share the run's
    seed, so several shapes come from one latent world and one table.
    ``per`` names the unit per-layer figures are normalised by.
    """

    worlds: tuple
    model: dict
    batch_size: int
    per: str


WORKLOADS = {
    "train-overfit": Workload(
        worlds=({"n_videos": 16, "n_held_out": 1, "events_per_video": 3,
                 "snippets_per_event": 2},),
        model={"d_emb": 32, "n_layers": 2, "n_heads": 4}, batch_size=4,
        per="trained video"),
    "decode-long": Workload(
        worlds=({"n_videos": 4, "n_held_out": 4, "events_per_video": 6,
                 "snippets_per_event": 2},),
        model={"d_emb": 32, "n_layers": 2, "n_heads": 4}, batch_size=4,
        per="generated token"),
    "train-mixed": Workload(
        worlds=({"n_videos": 4, "n_held_out": 1, "events_per_video": 3,
                 "snippets_per_event": 2},
                {"n_videos": 4, "n_held_out": 0, "events_per_video": 5,
                 "snippets_per_event": 4}),
        model={"d_emb": 64, "n_layers": 2, "n_heads": 4}, batch_size=8,
        per="trained video"),
}


def _import_program():
    """Put this checkout's src/ (paracap) and tests/ (loop oracles) on the path."""
    if not os.path.isfile(os.path.join(SRC, "paracap", "__init__.py")) \
            or not os.path.isfile(os.path.join(TESTS, "oracles.py")):
        sys.exit(f"bench: no paracap sources under {ROOT}; run from a full checkout")
    sys.path[:0] = [SRC, TESTS]


class Setup:
    """Everything a run builds before measuring, as the CLI would: world,
    manifests written and read back, model built, checkpointed and reloaded."""

    def __init__(self, wl: Workload, seed: int, work_dir: str):
        from paracap import data
        from paracap.model import CaptionModel, ModelConfig

        self.steps = {}

        def timed(step, fn, *args):
            start = time.perf_counter()
            result = fn(*args)
            self.steps[step] = self.steps.get(step, 0.0) + time.perf_counter() - start
            return result

        corpora = [timed("generate_synthetic", data.generate_synthetic,
                         data.SyntheticWorldSpec(seed=seed, **w)) for w in wl.worlds]
        for i, c in enumerate(corpora):   # video ids unique across shapes
            for rec in c.train + c.held_out:
                rec.video_id = f"{i}-{rec.video_id}"
        self.written = [rec for c in corpora for rec in c.train]
        self.written_held = [rec for c in corpora for rec in c.held_out]
        self.tables = [c.table for c in corpora]
        self.table = self.tables[0]
        train_path = os.path.join(work_dir, "train.jsonl")
        held_path = os.path.join(work_dir, "held_out.jsonl")
        timed("save_manifest", data.save_manifest, self.written, train_path)
        timed("save_manifest", data.save_manifest, self.written_held, held_path)
        self.records = timed("load_manifest", data.load_manifest, train_path)
        self.held_out = timed("load_manifest", data.load_manifest, held_path)
        # every world word, so the model's shape does not depend on the seed
        self.vocab = data.build_vocab(self.table.tokens)
        spec = data.SyntheticWorldSpec()
        self.model = CaptionModel(ModelConfig(
            d_env=spec.d_env, d_agent=spec.d_agent, d_frame=spec.d_frame,
            vocab_size=len(self.vocab), max_len=MAX_LEN, max_pos=MAX_POS,
            seed=MODEL_SEED, **wl.model))
        ckpt = os.path.join(work_dir, "checkpoint.json")
        timed("save_checkpoint", self.model.save_checkpoint, ckpt, self.vocab.id_to_token)
        self.decoder_model, self.stored_tokens = timed(
            "load_checkpoint", CaptionModel.load_checkpoint, ckpt)

    def problems(self) -> list:
        import checks

        problems = checks.manifest_round_trip(self.written, self.records)
        problems += checks.manifest_round_trip(self.written_held, self.held_out)
        problems += checks.checkpoint_round_trip(self.model, self.decoder_model,
                                                 self.vocab.id_to_token, self.stored_tokens)
        if any(not checks.same_array(t.text_features, self.table.text_features)
               for t in self.tables):
            problems.append("world shapes drew different tables")
        return problems


class Rounds:
    """The measured loop: epochs of ``train``, a decoding pass after each."""

    def __init__(self, s: Setup, wl: Workload, watch, tracer):
        self.s, self.wl, self.watch, self.tracer = s, wl, watch, tracer
        self.epoch_wall, self.epoch_cpu = [], []
        self.pass_rates, self.call_s = [], []
        self.tokens = self.decoded = 0
        self.first_pass = None
        self.mismatched_passes = 0

    def decode_pass(self):
        from paracap import metrics as M
        from paracap.data import tokenize

        s, watch = self.s, self.watch
        ids, tokens, seconds = [], 0, 0.0
        for rec in s.held_out:
            watch.start()
            sentences = s.decoder_model.decode_video(rec, s.table, MAX_LEN)
            wall, _ = watch.stop()
            self.call_s.append(wall)
            seconds += wall
            ids.append(sentences)
            # a caption shorter than the cap ended by emitting EOS
            tokens += sum(len(h) + (len(h) < MAX_LEN) for h in sentences)
        watch.start()
        pairs = [M.ParagraphPair(hyps=[s.vocab.decode(h) for h in sentences],
                                 refs=[tokenize(ev.caption) for ev in rec.events])
                 for rec, sentences in zip(s.held_out, ids)]
        report = M.report(pairs)
        seconds += watch.stop()[0]
        self.pass_rates.append(tokens / seconds)
        self.tokens += tokens
        self.decoded += len(s.held_out)
        if self.first_pass is None:
            self.first_pass = (ids, pairs, report)
        elif ids != self.first_pass[0]:
            self.mismatched_passes += 1

    def between_epochs(self, deadline: float) -> bool:
        wall, cpu = self.watch.stop()
        self.epoch_wall.append(wall)
        self.epoch_cpu.append(cpu)
        self.decode_pass()
        self.watch.start()
        return time.perf_counter() >= deadline and len(self.epoch_wall) >= 2

    def run(self, seconds: float, seed: int):
        from paracap import training
        from paracap.losses import LossConfig

        s, wl = self.s, self.wl
        cfg = training.TrainConfig(epochs=10 ** 6, batch_size=wl.batch_size,
                                   seed=seed, **TRAIN)
        deadline = time.perf_counter() + seconds
        if self.tracer:
            def callback(_stats):
                return self.tracer.span("bench.between_epochs",
                                        self.between_epochs, deadline)
        else:
            def callback(_stats):
                return self.between_epochs(deadline)
        self.watch.start()
        self.history = training.train(s.model, s.records, s.table, s.vocab, cfg,
                                      LossConfig(), callback=callback)
        self.steps = len(self.history) * math.ceil(len(s.records) / wl.batch_size)
        self.trained = len(self.history) * len(s.records)


def tape_nodes_per_video(s: Setup) -> float:
    """Mean tape size of one video's teacher-forced captioning loss."""
    from paracap import tensor as T
    from paracap.losses import LossConfig, captioning_loss

    nodes = 0
    for rec in s.records:
        fwd = s.model.forward_video(rec, s.table, s.vocab)
        terms = [captioning_loss(lg, tg, LossConfig())[0]
                 for lg, tg in zip(fwd.logits, fwd.targets)]
        nodes += len(T.toposort(T.tmean(T.stack(terms))))
    return nodes / len(s.records)


def end_to_end(setup_s, r: Rounds) -> dict:
    n = len(r.s.records)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_videos_per_s": (n / statistics.median(r.epoch_wall), "videos/s"),
        "train_cpu_ms_per_video": (statistics.median(r.epoch_cpu) * 1000.0 / n, "ms"),
        "decode_tokens_per_s": (statistics.median(r.pass_rates), "tokens/s"),
        "decode_video_ms": (statistics.median(r.call_s) * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


CALL_COUNTED = ("nn.masked_attention", "nn.self_attention", "decoder.forward_event")
SETUP_STEPS = (("data", "generate_synthetic"), ("data", "save_manifest"),
               ("data", "load_manifest"), ("model", "save_checkpoint"),
               ("model", "load_checkpoint"))


def per_layer(setups, r: Rounds, tracer, nodes: float) -> dict:
    """Self times and counts per unit of the workload; set-up steps per set-up."""
    import tracing

    units = r.trained if r.wl.per == "trained video" else r.tokens
    self_s, calls = tracer.self_times()
    out = {"tensor.nodes": (nodes, "nodes")}
    for name, _, _ in tracing.TARGETS:
        out[f"{name}.self_ms"] = (self_s[name] * 1000.0 / units, "ms")
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (calls[name] / units, "count")
    out["decoder.forward_event.rows"] = (tracer.rows / units, "count")
    for site, owner in (("agent", "encoder"), ("element", "encoder"), ("memory", "decoder")):
        out[f"{owner}.{site}_keep_ratio"] = (tracer.kept[site] / tracer.offered[site],
                                            "ratio")
    for module, step in SETUP_STEPS:
        out[f"{module}.{step}_ms"] = (
            statistics.median(x.steps[step] for x in setups) * 1000.0, "ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    _import_program()
    import checks
    import tracing
    from paracap.losses import LossConfig
    from stopwatch import Stopwatch

    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    watch = Stopwatch()
    try:
        setups, setup_s = [], []
        for _ in range(SETUP_REPEATS):
            watch.start()
            setups.append(Setup(wl, args.seed, work_dir))
            setup_s.append(watch.stop()[0])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    s = setups[-1]
    problems = s.problems()
    tracer = tracing.Tracer() if args.trace else None
    nodes = tape_nodes_per_video(s) if tracer else None
    rounds = Rounds(s, wl, watch, tracer)
    with tracer or contextlib.nullcontext():
        rounds.run(args.seconds, args.seed)

    problems += checks.training_history(rounds.history)
    problems += checks.gradient_spot_check(
        s.model, s.records, s.table, s.vocab,
        checks.first_batch(len(s.records), wl.batch_size, args.seed),
        LossConfig(), SPOT_COORDS, args.seed)
    ids, pairs, report = rounds.first_pass
    problems += checks.greedy_property(s.decoder_model, s.held_out, s.table, ids, MAX_LEN)
    problems += checks.scores_match_oracles(pairs, report)
    if rounds.mismatched_passes:
        problems.append(f"{rounds.mismatched_passes} decoding passes differ from the first")
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)

    e2e = end_to_end(setup_s, rounds)
    metrics = per_layer(setups, rounds, tracer, nodes) if tracer else e2e
    result = {
        "correct": not problems,
        "attempted": rounds.steps + rounds.decoded,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"bench: {args.workload} seed {args.seed}: {len(rounds.history)} epochs, "
          f"{rounds.decoded} videos decoded, host probe x{watch.slowdown():.3f}; "
          + ", ".join(f"{k}={v:.4g}" for k, (v, _) in e2e.items()), file=sys.stderr)
    if tracer:
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}.json"))
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
