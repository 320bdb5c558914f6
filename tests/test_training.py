"""Optimizer, training loop, logging, determinism, and evaluation plumbing."""

import gc
import json

import numpy as np
import pytest

import oracles
from conftest import build_setup
from paracap import gradcheck
from paracap import metrics as M
from paracap import tensor as T
from paracap.data import tokenize
from paracap.decoder import EventMemory
from paracap.errors import NumericalError, ValidationError
from paracap.losses import LossConfig
from paracap.model import CaptionModel
from paracap.tensor import Tensor
from paracap.training import (BETA1, BETA2, WEIGHT_DECAY, AdamState,
                              TrainConfig, adam_step, batch_loss, clip_gradients,
                              decode_pairs, train)


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [
        dict(lr=0.0), dict(lr=-1e-4), dict(warmup_epochs=21),
        dict(batch_size=0),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValidationError):
            TrainConfig(**bad)


class TestClipGradients:
    def test_large_gradient_scales_to_the_cap(self):
        grads = {"w": np.array([3.0, 4.0])}
        total = clip_gradients(grads, 1.0)
        assert total == 5.0
        np.testing.assert_allclose(grads["w"], [0.6, 0.8], atol=1e-15)

    def test_small_gradient_passes_untouched(self):
        grads = {"w": np.array([3.0, 4.0])}
        total = clip_gradients(grads, 10.0)
        assert total == 5.0
        np.testing.assert_array_equal(grads["w"], [3.0, 4.0])

    def test_norm_is_global_across_tensors(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert clip_gradients(grads, 1.0) == 5.0
        np.testing.assert_allclose(grads["a"], [0.6], atol=1e-15)
        np.testing.assert_allclose(grads["b"], [0.8], atol=1e-15)


def one_param(value):
    p = Tensor(np.array([value]), requires_grad=True)
    return {"w": p}, p


class TestAdamStep:
    def test_zero_gradient_with_decay_shrinks_params(self):
        params, p = one_param(0.7)
        cfg = TrainConfig(lr=0.1, warmup_epochs=0)
        adam_step(params, {"w": np.zeros(1)}, AdamState(params), cfg, 0)
        assert p.values[0] == pytest.approx(0.7 - 0.1 * WEIGHT_DECAY * 0.7,
                                            rel=1e-15)

    def test_unit_gradient_first_step_matches_closed_form(self):
        # Bias correction makes the first step lr * g/(|g| + eps) exactly;
        # decay adds nothing because the parameter starts at zero.
        params, p = one_param(0.0)
        cfg = TrainConfig(lr=0.1, warmup_epochs=0)
        adam_step(params, {"w": np.ones(1)}, AdamState(params), cfg, 0)
        assert p.values[0] == pytest.approx(-0.1 / (1.0 + 1e-8), rel=1e-15)

    def test_first_step_matches_hand_oracle(self):
        params, p = one_param(0.4)
        cfg = TrainConfig(lr=0.05, warmup_epochs=0)
        adam_step(params, {"w": np.array([2.5])}, AdamState(params), cfg, 0)
        want = oracles.adam_first_step(0.4, 2.5, 0.05, BETA1, BETA2,
                                       WEIGHT_DECAY)
        assert p.values[0] == pytest.approx(want, rel=1e-14)

    def test_warmup_scales_the_first_step(self):
        params, p = one_param(0.4)
        cfg = TrainConfig(lr=0.05, warmup_epochs=1)
        adam_step(params, {"w": np.array([2.5])}, AdamState(params), cfg, 4)
        want = oracles.adam_first_step(0.4, 2.5, 0.05, BETA1, BETA2,
                                       WEIGHT_DECAY, warmup_scale=0.25)
        assert p.values[0] == pytest.approx(want, rel=1e-14)

    def test_nonfinite_gradient_rejects_the_whole_step(self):
        params, p = one_param(0.4)
        state = AdamState(params)
        cfg = TrainConfig(lr=0.1, warmup_epochs=0)
        with pytest.raises(NumericalError, match="w"):
            adam_step(params, {"w": np.array([np.nan])}, state, cfg, 0)
        assert p.values[0] == 0.4
        assert state.step == 0

    def test_two_identical_runs_are_bitwise_equal(self):
        results = []
        for _ in range(2):
            params, p = one_param(0.3)
            state = AdamState(params)
            cfg = TrainConfig(lr=0.01, warmup_epochs=2, epochs=10)
            for g in [0.5, -1.0, 2.0, 0.25]:
                adam_step(params, {"w": np.array([g])}, state, cfg, 4)
            results.append(p.values.copy())
        np.testing.assert_array_equal(results[0], results[1])


def quick_cfg(**kw):
    base = dict(lr=2e-3, warmup_epochs=0, epochs=1, batch_size=8, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_empty_dataset_rejected(self, tiny_setup):
        corpus, vocab, model = tiny_setup
        with pytest.raises(ValidationError):
            train(model, [], corpus.table, vocab, quick_cfg(), LossConfig())

    def test_zero_epochs_returns_no_history_and_keeps_params(self, tiny_setup):
        corpus, vocab, model = tiny_setup
        before = {k: p.values.copy() for k, p in model.named_params().items()}
        history = train(model, corpus.train, corpus.table, vocab,
                        quick_cfg(epochs=0), LossConfig())
        assert history == []
        for name, p in model.named_params().items():
            np.testing.assert_array_equal(p.values, before[name], err_msg=name)

    def test_no_parameter_is_update_dead(self):
        # One single-batch epoch with the contrastive term on: every named
        # tensor must have received a nonzero gradient somewhere.
        corpus, vocab, model = build_setup(
            seed=1, spec_overrides=dict(n_videos=2, n_held_out=0))
        train(model, corpus.train, corpus.table, vocab, quick_cfg(),
              LossConfig())
        for name, p in model.named_params().items():
            assert p.grad is not None, name
            assert np.abs(p.grad).max() > 0.0, name

    def test_one_epoch_changes_every_parameter(self):
        # Nonzero gradients plus weight decay mean no tensor stays put.
        corpus, vocab, model = build_setup(
            seed=1, spec_overrides=dict(n_videos=2, n_held_out=0))
        before = {k: p.values.copy() for k, p in model.named_params().items()}
        train(model, corpus.train, corpus.table, vocab, quick_cfg(),
              LossConfig())
        for name, p in model.named_params().items():
            assert np.abs(p.values - before[name]).max() > 0.0, name

    def test_loss_mostly_decreases_early(self):
        corpus, vocab, model = build_setup(
            seed=2, spec_overrides=dict(n_videos=4, n_held_out=0))
        history = train(model, corpus.train, corpus.table, vocab,
                        quick_cfg(epochs=10, warmup_epochs=2, batch_size=2),
                        LossConfig(use_contrastive=False))
        caps = [s.l_cap for s in history]
        upticks = sum(b > a for a, b in zip(caps, caps[1:]))
        assert upticks <= 3

    def test_same_seed_trains_bitwise_identically(self, tmp_path):
        logs, snapshots = [], []
        for run in range(2):
            corpus, vocab, model = build_setup(
                seed=3, spec_overrides=dict(n_videos=2, n_held_out=0))
            log = tmp_path / f"run{run}.jsonl"
            train(model, corpus.train, corpus.table, vocab,
                  quick_cfg(epochs=3, batch_size=1, seed=5), LossConfig(),
                  log_path=str(log))
            logs.append(log.read_bytes())
            snapshots.append({k: p.values.copy()
                              for k, p in model.named_params().items()})
        assert logs[0] == logs[1]
        for name in snapshots[0]:
            np.testing.assert_array_equal(snapshots[0][name],
                                          snapshots[1][name], err_msg=name)

    def test_tape_is_freed_without_the_cycle_collector(self, tiny_setup):
        # train() pauses the cyclic collector, which is only safe while no
        # step leaves a reference cycle behind; it turns the collector back on.
        corpus, vocab, model = tiny_setup
        gc.collect()
        paused = []
        train(model, corpus.train, corpus.table, vocab, quick_cfg(epochs=2),
              LossConfig(), callback=lambda s: paused.append(not gc.isenabled()))
        assert paused == [True, True]
        assert gc.isenabled()
        assert gc.collect() == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergent_run_raises_and_leaves_finite_params(self):
        corpus, vocab, model = build_setup(
            seed=4, spec_overrides=dict(n_videos=2, n_held_out=0))
        with pytest.raises(NumericalError):
            train(model, corpus.train, corpus.table, vocab,
                  quick_cfg(lr=1e6, epochs=8, batch_size=1), LossConfig())
        assert gc.isenabled()
        for name, p in model.named_params().items():
            assert np.isfinite(p.values).all(), name

    def test_log_lines_follow_the_schema(self, tmp_path, tiny_setup):
        corpus, vocab, model = tiny_setup
        log = tmp_path / "train.jsonl"
        history = train(model, corpus.train, corpus.table, vocab,
                        quick_cfg(epochs=2), LossConfig(), log_path=str(log))
        lines = log.read_text().splitlines()
        assert len(lines) == len(history) == 2
        for i, line in enumerate(lines):
            row = json.loads(line)
            assert sorted(row) == ["L_cap", "L_con", "acc", "epoch", "tau"]
            assert row["epoch"] == i
            assert 0.0 <= row["acc"] <= 1.0

    def test_callback_can_stop_training_early(self, tiny_setup):
        corpus, vocab, model = tiny_setup
        history = train(model, corpus.train, corpus.table, vocab,
                        quick_cfg(epochs=10), LossConfig(),
                        callback=lambda s: s.epoch >= 1)
        assert len(history) == 2

    def test_mle_only_logs_zero_contrastive(self, tiny_setup):
        corpus, vocab, model = tiny_setup
        history = train(model, corpus.train, corpus.table, vocab,
                        quick_cfg(), LossConfig(use_contrastive=False))
        assert history[0].l_con == 0.0


class TestBatchLoss:
    """The gradient check differentiates ``batch_loss`` with every event's
    memory frozen at the evaluation point; training runs it on a live one."""

    @pytest.fixture
    def world(self):
        record, table, vocab, config = gradcheck._tiny_world(gradcheck.SEED)
        model = CaptionModel(config)
        base = EventMemory(config.n_layers)
        with T.no_grad():
            model.forward_video(record, table, vocab, base)
        return model, record, table, vocab, base

    @staticmethod
    def loss_and_grads(model, record, table, vocab, memory):
        params = model.named_params()
        T.zero_grads(params.values())
        fwd = model.forward_video(record, table, vocab, memory)
        loss = batch_loss(model, [record], [fwd], vocab, LossConfig())[0]
        T.backward(loss)
        return loss.values, {k: p.grad for k, p in params.items()}

    @staticmethod
    def stored(memory):
        # per layer, each event's state rows, padded with its last row
        return [np.moveaxis(rows, 1, 0) for rows in memory._rows]

    def test_frozen_memory_is_live_memory_at_the_evaluation_point(self, world):
        model, record, table, vocab, base = world
        frozen = self.loss_and_grads(model, record, table, vocab,
                                     gradcheck._FrozenMemory(base))
        live_memory = EventMemory(model.config.n_layers)
        live = self.loss_and_grads(model, record, table, vocab, live_memory)
        assert frozen[0] == live[0]
        for name, grad in frozen[1].items():
            assert (grad is None) == (live[1][name] is None), name
            if grad is not None:
                np.testing.assert_array_equal(grad, live[1][name], err_msg=name)
        for got, want in zip(self.stored(live_memory), self.stored(base)):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_frozen_rows_ignore_a_moved_weight(self, world):
        model, record, table, vocab, base = world
        model.decoder.layers[0].attn.wo.w.values += 0.1
        frozen = gradcheck._FrozenMemory(base)
        live = EventMemory(model.config.n_layers)
        with T.no_grad():
            model.forward_video(record, table, vocab, frozen)
            model.forward_video(record, table, vocab, live)
        assert len(frozen) == len(live) == len(record.events)
        for layers in zip(self.stored(frozen), self.stored(live), self.stored(base)):
            for frozen_rows, live_rows, base_rows in zip(*layers):
                np.testing.assert_array_equal(frozen_rows, base_rows)
                assert not np.array_equal(live_rows, base_rows)

    def test_without_alignment_the_loss_is_the_captioning_mean(self, tiny_setup):
        corpus, vocab, model = tiny_setup
        forwards = [model.forward_video(rec, corpus.table, vocab)
                    for rec in corpus.train]
        loss, cap, con, taus = batch_loss(model, corpus.train, forwards, vocab,
                                          LossConfig(use_contrastive=False))
        assert loss is cap and con is None
        assert len(taus) == sum(len(rec.events) for rec in corpus.train)
        with_con = batch_loss(model, corpus.train, forwards, vocab, LossConfig())
        assert float(with_con[0].values) == float(cap.values) + float(with_con[2].values)


class TestVideoPasses:
    """A video's snippets go through the encoder in one pass, split per event."""

    @pytest.fixture
    def world(self):
        corpus, vocab, model = build_setup(
            seed=1, spec_overrides=dict(events_per_video=4, snippets_per_event=3))
        rec = corpus.train[0]
        rng = np.random.default_rng(5)
        for p in model.named_params().values():
            p.values = p.values + rng.normal(0.0, 0.3, size=p.shape)
        return corpus, vocab, model, rec

    def test_empty_caption_rejected(self, world):
        _, vocab, model, rec = world
        rec.events[2].caption = ""
        with pytest.raises(ValidationError, match="empty caption"):
            model.caption_embeddings(rec, vocab)

    def test_video_rows_match_encoding_each_event(self, world):
        corpus, _, model, rec = world
        rows = model.encode_video(rec, corpus.table)
        assert len(rows) == len(rec.events)
        for event, got in zip(rec.events, rows):
            want = model.encoder.encode_event(event.snippets, corpus.table, model.config.k)
            assert got.shape == want.shape
            np.testing.assert_allclose(got.values, want.values, rtol=0,
                                       atol=1e-12 * np.abs(want.values).max())


class TestEvaluation:
    def test_decode_pairs_reference_is_the_tokenized_caption(self):
        corpus, vocab, model = build_setup(model_overrides={"max_len": 4})
        pairs = decode_pairs(model, corpus.train, corpus.table, vocab)
        assert len(pairs) == len(corpus.train)
        for rec, pair in zip(corpus.train, pairs):
            assert pair.refs == [tokenize(ev.caption) for ev in rec.events]
            for hyp in pair.hyps:
                assert all(isinstance(w, str) for w in hyp)

    def test_evaluate_reports_the_corpus_counts(self):
        corpus, vocab, model = build_setup(model_overrides={"max_len": 4})
        rep = M.report(decode_pairs(model, corpus.train, corpus.table, vocab))
        assert rep["n_videos"] == len(corpus.train)
        assert rep["n_events"] == sum(len(r.events) for r in corpus.train)

    def test_evaluate_twice_is_identical(self):
        corpus, vocab, model = build_setup(model_overrides={"max_len": 4})
        a = M.report(decode_pairs(model, corpus.train, corpus.table, vocab))
        b = M.report(decode_pairs(model, corpus.train, corpus.table, vocab))
        assert a == b

    def test_evaluate_rejects_empty_dataset(self, tiny_setup):
        corpus, vocab, model = tiny_setup
        with pytest.raises(ValidationError):
            decode_pairs(model, [], corpus.table, vocab)
