"""Command-line entry point.

Subcommands cover the whole pipeline: synthesize data, train, evaluate,
decode, and verify gradients. Every run is reproducible from its config
file and seed, and each command echoes the effective configuration into
``run_config.json`` in its output directory.

Exit codes: 0 success, 1 usage or missing file, 2 validation failure,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

from . import gradcheck
from .data import (RESERVED, SyntheticWorldSpec, Vocabulary, build_vocab, detokenize,
                   generate_synthetic, load_manifest, save_manifest)
from .encoder import VocabEmbeddingTable
from .errors import (NumericalError, ShapeError, ValidationError, atomic_write,
                     build_dataclass, read_json_object, require_at_least)
from .losses import LossConfig
from .metrics import report
from .model import CaptionModel, ModelConfig, event_rows, input_widths
from .training import TrainConfig, decode_pairs, train

SCHEMA_VERSION = 1


def _load_config(path) -> dict:
    if path is None:
        return {}
    cfg = read_json_object(path, "config")
    version = cfg.pop("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(f"{path}: schema_version {version!r} unsupported "
                              f"(expected {SCHEMA_VERSION})")
    return cfg


def _write_run_config(out_dir: str, subcommand: str, seed, config: dict):
    payload = {"schema_version": SCHEMA_VERSION, "subcommand": subcommand,
               "seed": seed, "config": config}
    with atomic_write(os.path.join(out_dir, "run_config.json")) as fh:
        json.dump(payload, fh, indent=2)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _check_inputs(model, records, table, vocab, args, model_src, teacher_forced=False):
    """``CaptionModel.check_inputs``, with the run's input files named in its error."""
    try:
        model.check_inputs(records, table, vocab, teacher_forced)
    except ValidationError as exc:
        raise ValidationError(f"{model_src} with {args.manifest} and {args.table}: "
                              f"{exc}") from None


def cmd_gen_data(args) -> int:
    spec = build_dataclass(SyntheticWorldSpec, _load_config(args.config),
                           args.config or "world spec", seed=args.seed)
    out = _ensure_out(args.out)
    corpus = generate_synthetic(spec)
    save_manifest(corpus.train, os.path.join(out, "train.jsonl"))
    if corpus.held_out:
        save_manifest(corpus.held_out, os.path.join(out, "held_out.jsonl"))
    corpus.table.save(os.path.join(out, "table.json"))
    _write_run_config(out, "gen-data", spec.seed, asdict(spec))
    print(f"wrote {len(corpus.train)} train and {len(corpus.held_out)} held-out "
          f"videos to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    src = args.config or "config"
    for key in cfg:
        if key not in ("model", "train", "loss"):
            raise ValidationError(f"unknown config section {key!r} "
                                  "(expected model/train/loss)")
    records = load_manifest(args.manifest)
    if not records:
        raise ValidationError(f"{args.manifest}: manifest holds no videos")
    table = VocabEmbeddingTable.load(args.table)
    vocab = build_vocab(ev.caption for rec in records for ev in rec.events)

    model_section = cfg.get("model", {})
    derived = dict(input_widths(records), vocab_size=len(vocab))
    model_cfg = build_dataclass(ModelConfig, model_section, f"{src}: model", **derived,
                                seed=args.seed)
    for key in model_section:
        if key in derived:
            raise ValidationError(f"{src}: model: {key} is read from the data, not the config")
    if "max_pos" not in model_section:
        model_cfg = replace(model_cfg, max_pos=max(
            event_rows(ev, model_cfg.max_len, teacher_forced=True)
            for rec in records for ev in rec.events))

    train_cfg = build_dataclass(TrainConfig, cfg.get("train", {}), f"{src}: train",
                                seed=args.seed)
    loss_cfg = build_dataclass(LossConfig, cfg.get("loss", {}), f"{src}: loss")

    model = CaptionModel(model_cfg)
    _check_inputs(model, records, table, vocab, args, src, teacher_forced=True)
    out = _ensure_out(args.out)
    ckpt_path = os.path.join(out, "checkpoint.json")
    _write_run_config(out, "train", train_cfg.seed, {
        "model": asdict(model_cfg), "train": asdict(train_cfg), "loss": asdict(loss_cfg)})
    try:
        history = train(model, records, table, vocab, train_cfg, loss_cfg,
                        log_path=os.path.join(out, "train_log.jsonl"))
    except NumericalError:
        model.save_checkpoint(ckpt_path, vocab.id_to_token)
        raise
    model.save_checkpoint(ckpt_path, vocab.id_to_token)
    final = history[-1].acc if history else float("nan")
    print(f"trained {len(history)} epochs; final teacher-forced accuracy "
          f"{final:.3f}; checkpoint at {ckpt_path}")
    return 0


def _load_eval_inputs(args):
    """Checkpoint, vocabulary, manifest and table of an eval or decode run.

    The inputs are checked against each other before the output directory
    is made; the run's ``run_config.json`` echoes them.
    """
    model, vocab_tokens = CaptionModel.load_checkpoint(args.checkpoint)
    if not isinstance(vocab_tokens, list):
        raise ValidationError(f"{args.checkpoint}: checkpoint carries no vocabulary list")
    vocab = Vocabulary(vocab_tokens[len(RESERVED):])
    if vocab.id_to_token != list(vocab_tokens):
        raise ValidationError(f"{args.checkpoint}: stored vocabulary is not in "
                              "canonical order")
    records = load_manifest(args.manifest)
    if not records:
        raise ValidationError(f"{args.manifest}: manifest holds no videos")
    table = VocabEmbeddingTable.load(args.table)
    _check_inputs(model, records, table, vocab, args, args.checkpoint)
    out = _ensure_out(args.out)
    _write_run_config(out, args.subcommand, model.config.seed, {
        "checkpoint": args.checkpoint, "manifest": args.manifest, "table": args.table})
    return model, vocab, records, table, out


def cmd_eval(args) -> int:
    model, vocab, records, table, out = _load_eval_inputs(args)
    rep = report(decode_pairs(model, records, table, vocab))
    with atomic_write(os.path.join(out, "report.json")) as fh:
        json.dump(rep, fh, indent=2)
    print(json.dumps(rep, indent=2))
    return 0


def cmd_decode(args) -> int:
    model, vocab, records, table, out = _load_eval_inputs(args)
    pairs = decode_pairs(model, records, table, vocab)
    path = os.path.join(out, "decoded.jsonl")
    with atomic_write(path) as fh:
        for rec, pair in zip(records, pairs):
            sentences = [detokenize(hyp) for hyp in pair.hyps]
            fh.write(json.dumps({"video_id": rec.video_id,
                                 "sentences": sentences}) + "\n")
    print(f"wrote paragraphs for {len(records)} videos to {path}")
    return 0


def cmd_gradcheck(args) -> int:
    require_at_least(args, 0, "seed")
    prim = gradcheck.run_primitive_checks()
    print(f"primitives ok: {len(prim)} ops, worst {max(prim.values()):.3e}")
    full = gradcheck.run_end_to_end_check(seed=args.seed)
    print(f"end-to-end ok: {len(full)} parameter tensors, "
          f"worst {max(full.values()):.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracap",
        description="Desk-scale video paragraph captioning pipeline.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="overrides the config seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--manifest", required=True, help="training manifest (JSON lines)")
    p.add_argument("--table", required=True, help="vocabulary embedding table JSON")
    p.set_defaults(func=cmd_train)

    for name, func, help_text in (
            ("eval", cmd_eval, "score a checkpoint against a manifest"),
            ("decode", cmd_decode, "write greedy captions for a manifest")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--manifest", required=True)
        p.add_argument("--table", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("gradcheck", help="run the finite-difference suites")
    p.add_argument("--seed", type=int, default=gradcheck.SEED, help="end-to-end check seed")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        name = getattr(exc, "filename", None) or exc
        print(f"error: file not found: {name}", file=sys.stderr)
        return 1
    except (ValidationError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
