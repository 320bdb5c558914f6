"""Optimizer, training loop, logging, determinism, and evaluation plumbing."""

import copy
import gc
import json
import string
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import build_setup
from paracap import gradcheck, training
from paracap import metrics as M
from paracap import tensor as T
from paracap.data import (ACTION_WORDS, AGENT_WORDS, BOS_ID, EOS_ID, PAD_ID, PLACE_WORDS,
                          tokenize)
from paracap.decoder import EventMemory
from paracap.errors import NumericalError, ValidationError
from paracap.losses import LossConfig
from paracap.model import CaptionModel
from paracap.tensor import Tensor
from paracap.training import (BETA1, BETA2, GRAD_CLIP, WEIGHT_DECAY, AdamState,
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


def with_grads(**grads):
    params = {}
    for name, g in grads.items():
        params[name] = Tensor(np.zeros(len(g)), requires_grad=True)
        params[name].grad = np.array(g)
    return params


class TestClipGradients:
    def test_large_gradient_scales_to_the_cap(self):
        params = with_grads(w=[3.0, 4.0])
        total = clip_gradients(params, 1.0)
        assert total == 5.0
        np.testing.assert_allclose(params["w"].grad, [0.6, 0.8], atol=1e-15)

    def test_small_gradient_passes_untouched(self):
        params = with_grads(w=[3.0, 4.0])
        total = clip_gradients(params, 10.0)
        assert total == 5.0
        np.testing.assert_array_equal(params["w"].grad, [3.0, 4.0])

    def test_norm_is_global_across_tensors(self):
        params = with_grads(a=[3.0], b=[4.0])
        assert clip_gradients(params, 1.0) == 5.0
        np.testing.assert_allclose(params["a"].grad, [0.6], atol=1e-15)
        np.testing.assert_allclose(params["b"].grad, [0.8], atol=1e-15)


def one_param(value):
    p = Tensor(np.array([value]), requires_grad=True)
    params = {"w": p}
    return params, p, AdamState(params)


def step_with(params, state, grad, cfg, warmup_steps):
    """Write ``grad`` into the gradient buffer, then take one step."""
    state.grads[:] = grad
    adam_step(params, state, cfg, warmup_steps)


class TestAdamStep:
    def test_zero_gradient_with_decay_shrinks_params(self):
        params, p, state = one_param(0.7)
        cfg = TrainConfig(lr=0.1, warmup_epochs=0)
        step_with(params, state, 0.0, cfg, 0)
        assert p.values[0] == pytest.approx(0.7 - 0.1 * WEIGHT_DECAY * 0.7,
                                            rel=1e-15)

    def test_unit_gradient_first_step_matches_closed_form(self):
        # Bias correction makes the first step lr * g/(|g| + eps) exactly;
        # decay adds nothing because the parameter starts at zero.
        params, p, state = one_param(0.0)
        cfg = TrainConfig(lr=0.1, warmup_epochs=0)
        step_with(params, state, 1.0, cfg, 0)
        assert p.values[0] == pytest.approx(-0.1 / (1.0 + 1e-8), rel=1e-15)

    def test_first_step_matches_hand_oracle(self):
        params, p, state = one_param(0.4)
        cfg = TrainConfig(lr=0.05, warmup_epochs=0)
        step_with(params, state, 2.5, cfg, 0)
        want = oracles.adam_first_step(0.4, 2.5, 0.05, BETA1, BETA2,
                                       WEIGHT_DECAY)
        assert p.values[0] == pytest.approx(want, rel=1e-14)

    def test_warmup_scales_the_first_step(self):
        params, p, state = one_param(0.4)
        cfg = TrainConfig(lr=0.05, warmup_epochs=1)
        step_with(params, state, 2.5, cfg, 4)
        want = oracles.adam_first_step(0.4, 2.5, 0.05, BETA1, BETA2,
                                       WEIGHT_DECAY, warmup_scale=0.25)
        assert p.values[0] == pytest.approx(want, rel=1e-14)

    def test_nonfinite_gradient_rejects_the_whole_step(self):
        params, p, state = one_param(0.4)
        state.m[:], state.v[:] = 0.3, 0.2   # moments a rejected step must not touch
        cfg = TrainConfig(lr=0.1, warmup_epochs=0)
        with pytest.raises(NumericalError, match="w"):
            step_with(params, state, np.nan, cfg, 0)
        assert p.values[0] == 0.4
        assert state.step == 0
        assert state.m[0] == 0.3 and state.v[0] == 0.2

    def test_two_identical_runs_are_bitwise_equal(self):
        results = []
        for _ in range(2):
            params, p, state = one_param(0.3)
            cfg = TrainConfig(lr=0.01, warmup_epochs=2, epochs=10)
            for g in [0.5, -1.0, 2.0, 0.25]:
                step_with(params, state, g, cfg, 4)
            results.append(p.values.copy())
        np.testing.assert_array_equal(results[0], results[1])


def assert_bitwise(got, want, name=""):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def assert_laid_out_in_one_buffer(params):
    """Every parameter's values, and every gradient, is a view into one
    buffer of its own, in dict order and end to end."""
    buffers = []
    for attr in ("values", "grad"):
        arrays = [getattr(p, attr) for p in params.values()]
        buffers.append(arrays[0].base)
        assert buffers[-1] is not None, attr
        assert buffers[-1].size == sum(a.size for a in arrays), attr
        offset = 0
        for name, a in zip(params, arrays):
            assert a.base is buffers[-1], (attr, name)
            assert np.shares_memory(a, buffers[-1][offset:offset + a.size]), (attr, name)
            offset += a.size
    assert buffers[0] is not buffers[1]


class TestParameterBuffer:
    """``train`` keeps every parameter and gradient in one flat buffer each;
    a step on the buffers is bitwise the concatenating step it replaced."""

    @staticmethod
    def mixed_params():
        rng = np.random.default_rng(0)
        shapes = {"w": (3, 4), "b": (4,), "rho": (), "idle": (2, 2), "emb": (5, 3)}
        return {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}

    def test_buffer_step_matches_the_concatenating_oracle(self):
        old, new = self.mixed_params(), self.mixed_params()
        state = AdamState(new)
        ref = types.SimpleNamespace(m=np.zeros_like(state.m), v=np.zeros_like(state.v), step=0)
        cfg = TrainConfig(lr=0.05, warmup_epochs=1, epochs=2)
        rng = np.random.default_rng(1)
        totals = []
        for scale in [3.0, 0.01, 2.0, 0.05, 1.5, 0.2]:
            # "idle" gets no gradient; a -0.0 entry reaches the buffer as +0.0
            coef = {k: scale * rng.normal(size=p.shape) for k, p in old.items() if k != "idle"}
            coef["w"][0, 0] = -0.0
            T.zero_grads(old.values())
            state.grads.fill(0.0)
            for params in (old, new):
                T.backward(T.tsum(T.stack([T.tsum(params[k] * c) for k, c in coef.items()])))
            grads = {k: p.grad if p.grad is not None else np.zeros_like(p.values)
                     for k, p in old.items()}
            totals.append(oracles.clip_gradients_dict(grads, GRAD_CLIP))
            assert clip_gradients(new, GRAD_CLIP) == totals[-1]
            oracles.adam_step_concat(old, grads, ref, cfg, 4)
            adam_step(new, state, cfg, 4)
            for name in old:
                assert_bitwise(new[name].values, old[name].values, name)
            assert_bitwise(state.m, ref.m)
            assert_bitwise(state.v, ref.v)
        assert min(totals) < GRAD_CLIP < max(totals)
        assert_laid_out_in_one_buffer(new)

    def test_training_keeps_one_buffer(self):
        corpus, vocab, model = build_setup(
            seed=1, spec_overrides=dict(n_videos=2, n_held_out=0))
        params = model.named_params()
        train(model, corpus.train, corpus.table, vocab, quick_cfg(), LossConfig(),
              callback=lambda s: assert_laid_out_in_one_buffer(params))
        assert_laid_out_in_one_buffer(params)

    def test_every_backward_starts_from_zero_gradients(self, monkeypatch):
        corpus, vocab, model = build_setup(
            seed=1, spec_overrides=dict(n_videos=2, n_held_out=0))
        params = model.named_params()
        real_backward, zeroed = T.backward, []

        def checked_backward(loss):
            zeroed.append(all(not p.grad.any() for p in params.values()))
            real_backward(loss)

        monkeypatch.setattr(T, "backward", checked_backward)
        train(model, corpus.train, corpus.table, vocab, quick_cfg(epochs=2, batch_size=1),
              LossConfig())
        assert zeroed == [True] * 4

    def test_reassigned_parameters_train_on_the_next_call(self):
        # gradcheck's jitter and load_checkpoint assign fresh arrays this way
        corpus, vocab, model = build_setup(
            seed=1, spec_overrides=dict(n_videos=2, n_held_out=0))
        train(model, corpus.train, corpus.table, vocab, quick_cfg(), LossConfig())
        rng = np.random.default_rng(2)
        for p in model.named_params().values():
            p.values = p.values + rng.normal(0.0, 0.01, size=p.shape)
        before = {k: p.values.copy() for k, p in model.named_params().items()}
        train(model, corpus.train, corpus.table, vocab, quick_cfg(), LossConfig())
        for name, p in model.named_params().items():
            assert np.abs(p.values - before[name]).max() > 0.0, name
        assert_laid_out_in_one_buffer(model.named_params())


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
        params = model.named_params()
        # the values at the end of each finished epoch, starting from the initial ones
        good = [{k: p.values.copy() for k, p in params.items()}]
        with pytest.raises(NumericalError):
            train(model, corpus.train, corpus.table, vocab,
                  quick_cfg(lr=1e6, epochs=8, batch_size=1), LossConfig(),
                  callback=lambda s: good.append({k: p.values.copy()
                                                  for k, p in params.items()}))
        assert gc.isenabled()
        for name, p in params.items():
            assert np.isfinite(p.values).all(), name
            assert_bitwise(p.values, good[-1][name], name)
        assert_laid_out_in_one_buffer(params)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_rollback_undoes_the_steps_of_the_unfinished_epoch(self, monkeypatch):
        # this world's loss diverges in the first epoch, after optimizer steps
        corpus, vocab, model = build_setup(
            seed=4, spec_overrides=dict(n_videos=3, n_held_out=0))
        params = model.named_params()
        before = {k: p.values.copy() for k, p in params.items()}
        real_step, steps = training.adam_step, []

        def counted_step(*args):
            steps.append(args)
            real_step(*args)

        monkeypatch.setattr(training, "adam_step", counted_step)
        with pytest.raises(NumericalError, match="epoch 0"):
            train(model, corpus.train, corpus.table, vocab,
                  quick_cfg(lr=1e6, epochs=8, batch_size=1), LossConfig())
        assert steps
        for name, p in params.items():
            assert_bitwise(p.values, before[name], name)

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
        # per layer, each event's state rows
        return [[event[layer] for event in memory._events] for layer in range(memory.n_layers)]

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

    @pytest.mark.parametrize("seed, snippets", [(0, 2), (1, 4)], ids=["2-snippets", "4-snippets"])
    def test_every_recorded_node_reaches_the_loss(self, monkeypatch, seed, snippets):
        """A node the tape records but the loss never reaches costs a
        forward and memory, and backward skips it."""
        corpus, vocab, model = build_setup(seed, dict(snippets_per_event=snippets))
        records = corpus.train[:2]
        recorded, make = [], T._make

        def recording(*args):
            out = make(*args)
            if out.requires_grad:
                recorded.append(out)
            return out

        monkeypatch.setattr(T, "_make", recording)
        forwards = [model.forward_video(rec, corpus.table, vocab) for rec in records]
        loss = batch_loss(model, records, forwards, vocab, LossConfig())[0]
        monkeypatch.undo()
        reached = set(T.toposort(loss))
        assert recorded
        assert [node.op for node in recorded if node not in reached] == []


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


# caption words: world words (in and out of a small world's vocabulary),
# reserved-token look-alikes and free text, each maybe wrapped in punctuation
_punct = st.text(alphabet=string.punctuation, max_size=2)
_word = st.one_of(
    st.sampled_from(AGENT_WORDS + ACTION_WORDS + PLACE_WORDS + ("the", "in")),
    st.sampled_from(["[PAD]", "[pad]", "[bos]", "[BOS]", "(EOS)", "[EOS]", "[UNK]",
                     "<pad>", "PAD", "eos"]),
    st.text(alphabet=st.characters(blacklist_categories=("Z", "C")), min_size=1,
            max_size=5))
_caption = st.lists(st.tuples(_punct, _word, _punct).map("".join),
                    max_size=8).map(" ".join)


class TestCaptionTargets:
    """The caption losses take targets as ``forward_video`` builds them and
    hold no padding mask or reserved-id exclusions, which is sound only if
    those targets never hold ``[PAD]`` or ``[BOS]`` and end in their one
    ``[EOS]``, whatever the caption text."""

    @pytest.fixture(scope="class")
    def world(self):
        corpus, vocab, model = build_setup()
        return corpus.table, vocab, model, copy.deepcopy(corpus.train[0])

    @settings(deadline=None)
    @given(captions=st.tuples(_caption, _caption))
    def test_targets_hold_no_pad_or_bos_and_end_in_one_eos(self, world, captions):
        table, vocab, model, rec = world
        for event, caption in zip(rec.events, captions, strict=True):
            event.caption = caption
        with T.no_grad():
            targets = model.forward_video(rec, table, vocab).targets
        for ids, caption in zip(targets, captions):
            assert PAD_ID not in ids and BOS_ID not in ids
            assert list(ids).count(EOS_ID) == 1 and ids[-1] == EOS_ID
            assert len(ids) == len(tokenize(caption)) + 1


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
