"""Decoder behaviour: masking, event memory, greedy decoding, checkpoints.

The causality and memory-detachment checks rely on the fact that masked
attention scores are biased by -1e9, which underflows to an exact zero
weight after the softmax — so "cannot see" means bitwise invariance, not
just approximate invariance.
"""

import copy
import json

import numpy as np
import pytest

import oracles
from conftest import build_setup
from paracap import tensor as T
from paracap.data import BOS_ID, EOS_ID, Vocabulary
from paracap.decoder import (CaptionDecoder, EventMemory, causal_join_mask,
                             greedy_decode)
from paracap.errors import ShapeError, ValidationError
from paracap.model import CaptionModel
from paracap.nn import Embedding
from paracap.tensor import Tensor

D = 8
VOCAB = 9


def make_decoder(seed=0, n_layers=2, max_pos=16):
    rng = np.random.default_rng(seed)
    word = Embedding(rng, VOCAB, D)
    return CaptionDecoder(rng, word, D, n_layers, 2, 1, VOCAB, max_pos)


def video_block(seed, n_rows):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(n_rows, D)))


class TestCausalJoinMask:
    def test_hand_written_two_video_three_text(self):
        expected = np.array([
            [1, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [1, 1, 1, 0, 0],
            [1, 1, 1, 1, 0],
            [1, 1, 1, 1, 1],
        ], dtype=bool)
        np.testing.assert_array_equal(causal_join_mask(2, 3), expected)

    def test_no_text_rows_gives_full_video_block(self):
        np.testing.assert_array_equal(causal_join_mask(3, 0),
                                      np.ones((3, 3), dtype=bool))

    def test_video_rows_never_see_text(self):
        for nv, nt in [(1, 1), (2, 4), (5, 3)]:
            mask = causal_join_mask(nv, nt)
            assert not mask[:nv, nv:].any()

    def test_text_rows_see_video_and_their_past(self):
        nv, nt = 3, 4
        mask = causal_join_mask(nv, nt)
        for j in range(nt):
            row = mask[nv + j]
            assert row[:nv].all()
            np.testing.assert_array_equal(
                row[nv:], np.arange(nt) <= j)


class TestEventMemory:
    def entry(self, n_rows, fill):
        return Tensor(np.full((n_rows, D), float(fill)))

    def test_length_counts_stored_events(self):
        memory = EventMemory(2)
        assert len(memory) == 0
        memory.append([self.entry(3, 1), self.entry(3, 2)])
        memory.append([self.entry(4, 3), self.entry(4, 4)])
        assert len(memory) == 2

    def test_rejects_zero_layers(self):
        with pytest.raises(ValidationError):
            EventMemory(0)

    def test_append_rejects_wrong_layer_count(self):
        memory = EventMemory(2)
        with pytest.raises(ShapeError):
            memory.append([self.entry(3, 1)])

    def test_append_rejects_vector_entries(self):
        memory = EventMemory(1)
        with pytest.raises(ShapeError):
            memory.append([Tensor(np.zeros(D))])

    def test_rows_at_clamps_shorter_events(self):
        memory = EventMemory(1)
        short = Tensor(np.arange(2.0 * D).reshape(2, D))
        long = Tensor(np.arange(5.0 * D).reshape(5, D) + 100.0)
        memory.append([short])
        memory.append([long])
        rows = memory.rows_at(0, 4)
        np.testing.assert_array_equal(rows[0], short.values[1])
        np.testing.assert_array_equal(rows[1], long.values[4])

    def test_entries_are_detached_copies(self):
        memory = EventMemory(1)
        state = Tensor(np.ones((3, D)))
        memory.append([state])
        state.values[:] = -7.0
        np.testing.assert_array_equal(memory.rows_at(0, 0),
                                      np.ones((1, D)))


class TestForwardEvent:
    def test_first_event_equals_plain_layer_stack(self):
        dec = make_decoder()
        vid = video_block(1, 2)
        ids = [BOS_ID, 4, 6]
        logits, f_event = dec.forward_event(vid, ids, EventMemory(2),
                                            update_memory=False)

        mask = causal_join_mask(2, 3)
        h = dec.build_input(vid, ids)
        for layer in dec.layers:
            h = layer.inner(h, mask, {})
        want_logits = dec.head(T.take_rows(h, np.arange(2, 5)))
        want_f = T.tmean(T.take_rows(h, np.arange(2)), axis=0)
        np.testing.assert_array_equal(logits.values, want_logits.values)
        np.testing.assert_array_equal(f_event.values, want_f.values)

    def test_build_input_sums_content_type_and_position(self):
        dec = make_decoder()
        vid = video_block(2, 2)
        ids = [BOS_ID, 5]
        out = dec.build_input(vid, ids)

        text = dec.text_mlp(dec.word_embed(np.array(ids))).values
        types = dec.type_embed.table.values
        pos = dec.pos_embed.table.values
        for i in range(2):
            np.testing.assert_array_equal(out.values[i],
                                          (vid.values[i] + types[0]) + pos[i])
        for j in range(2):
            np.testing.assert_array_equal(out.values[2 + j],
                                          (text[j] + types[1]) + pos[2 + j])

    def test_later_token_cannot_influence_earlier_logits(self):
        dec = make_decoder()
        vid = video_block(3, 2)
        with T.no_grad():
            a, _ = dec.forward_event(vid, [BOS_ID, 4, 5, 6], EventMemory(2),
                                     update_memory=False)
            b, _ = dec.forward_event(vid, [BOS_ID, 4, 5, 7], EventMemory(2),
                                     update_memory=False)
        np.testing.assert_array_equal(a.values[:3], b.values[:3])
        assert np.abs(a.values[3] - b.values[3]).max() > 0

    def test_event_summary_ignores_token_content(self):
        dec = make_decoder()
        vid = video_block(4, 3)
        with T.no_grad():
            _, f_a = dec.forward_event(vid, [BOS_ID, 4], EventMemory(2),
                                       update_memory=False)
            _, f_b = dec.forward_event(vid, [BOS_ID, 7, 8], EventMemory(2),
                                       update_memory=False)
        np.testing.assert_array_equal(f_a.values, f_b.values)

    def test_memory_grows_only_when_committed(self):
        dec = make_decoder()
        vid = video_block(5, 2)
        memory = EventMemory(2)
        with T.no_grad():
            dec.forward_event(vid, [BOS_ID, 4], memory, update_memory=False)
            assert len(memory) == 0
            dec.forward_event(vid, [BOS_ID, 4], memory, update_memory=True)
            assert len(memory) == 1
            dec.forward_event(vid, [BOS_ID, 5], memory, update_memory=True)
            assert len(memory) == 2

    def test_commit_flag_does_not_change_outputs(self):
        dec = make_decoder()
        vid = video_block(6, 2)
        with T.no_grad():
            a, fa = dec.forward_event(vid, [BOS_ID, 4], EventMemory(2),
                                      update_memory=False)
            b, fb = dec.forward_event(vid, [BOS_ID, 4], EventMemory(2),
                                      update_memory=True)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(fa.values, fb.values)

    def test_layer_count_mismatch_rejected(self):
        dec = make_decoder(n_layers=2)
        with pytest.raises(ShapeError):
            dec.forward_event(video_block(7, 2), [BOS_ID], EventMemory(3))

    def test_sequence_overflow_rejected(self):
        dec = make_decoder(max_pos=4)
        with pytest.raises(ValidationError):
            dec.forward_event(video_block(8, 3), [BOS_ID, 4], EventMemory(2))


class TestMemoryAcrossEvents:
    def test_first_event_content_reaches_second_event_logits(self):
        dec = make_decoder()
        vid1, vid2 = video_block(9, 2), video_block(10, 2)
        with T.no_grad():
            mem_a = EventMemory(2)
            dec.forward_event(vid1, [BOS_ID, 4, 5], mem_a, update_memory=True)
            a, _ = dec.forward_event(vid2, [BOS_ID, 6], mem_a,
                                     update_memory=False)
            mem_b = EventMemory(2)
            dec.forward_event(vid1, [BOS_ID, 8, 5], mem_b, update_memory=True)
            b, _ = dec.forward_event(vid2, [BOS_ID, 6], mem_b,
                                     update_memory=False)
        assert np.abs(a.values - b.values).max() > 0

    def test_gradient_never_crosses_the_event_boundary(self):
        # Token 5 appears only in event one, token 6 only in event two. If
        # stored states kept their graph, the event-two loss would reach
        # the word row for token 5 through the memory readout.
        dec = make_decoder()
        memory = EventMemory(2)
        dec.forward_event(video_block(11, 2), [BOS_ID, 5], memory,
                          update_memory=True)
        logits2, _ = dec.forward_event(video_block(12, 2), [BOS_ID, 6],
                                       memory, update_memory=False)
        T.backward(T.tsum(logits2 * logits2))
        grad = dec.word_embed.table.grad
        assert grad is not None
        np.testing.assert_array_equal(grad[5], np.zeros(D))
        assert np.abs(grad[6]).max() > 0


class TestGreedyDecode:
    def test_eos_dominant_head_yields_empty_caption(self):
        dec = make_decoder()
        dec.head.w.values[:] = 0.0
        dec.head.b.values[:] = 0.0
        dec.head.b.values[EOS_ID] = 5.0
        memory = EventMemory(2)
        out = greedy_decode(dec, video_block(13, 2), memory, 6)
        assert out == []
        assert len(memory) == 1

    def test_all_equal_logits_tie_break_to_lowest_id(self):
        dec = make_decoder()
        dec.head.w.values[:] = 0.0
        dec.head.b.values[:] = 0.0
        out = greedy_decode(dec, video_block(14, 2), EventMemory(2), 3)
        assert out == [0, 0, 0]

    def test_decoding_is_deterministic(self):
        dec = make_decoder(seed=3)
        vid = video_block(15, 2)
        first = greedy_decode(dec, vid, EventMemory(2), 5)
        second = greedy_decode(dec, vid, EventMemory(2), 5)
        assert first == second
        assert len(first) <= 5

    def test_rejects_nonpositive_max_len(self):
        dec = make_decoder()
        with pytest.raises(ValidationError):
            greedy_decode(dec, video_block(16, 2), EventMemory(2), 0)


def eos_at(seed, n_video, n_tokens, max_pos=16):
    """Decoder whose head emits EOS after ``n_tokens`` tokens and never
    elsewhere (``None``: never at all).

    The EOS logit reads the first coordinate of a row's state, less 2.5.
    Every row keeps that coordinate near zero except the row at input
    position ``n_video + n_tokens``, whose position embedding adds 5 to it.
    """
    dec = make_decoder(seed, max_pos=max_pos)
    dec.head.w.values[:, EOS_ID] = 0.0
    dec.head.w.values[0, EOS_ID] = 1.0
    dec.head.b.values[EOS_ID] = -2.5
    if n_tokens is not None:
        dec.pos_embed.table.values[n_video + n_tokens, 0] = 5.0
    return dec


def committed(memory, n_rows):
    """Each layer's rows of the last event stored in ``memory``."""
    return [np.stack([memory.rows_at(layer, p)[-1] for p in range(n_rows)])
            for layer in range(memory.n_layers)]


def assert_close(got, want, tol=1e-12):
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


class TestIncrementalDecode:
    """The cached decoder against the full-recompute oracle, over videos of
    three events that end with EOS, at the cap, and at once."""

    MAX_LEN = 5
    ENDINGS = (2, None, 0)   # tokens before EOS; None: the cap ends the caption

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("video_seed", [20, 21])
    def test_matches_the_full_recompute_oracle(self, seed, video_seed):
        memory = EventMemory(2)
        for i, ending in enumerate(self.ENDINGS):
            n_video = 2 + i % 2
            vid = video_block(10 * video_seed + i, n_video)
            dec = eos_at(seed, n_video, ending)
            before = copy.deepcopy(memory)

            head, rows = dec.head, []

            def recording_head(x):
                out = head(x)
                rows.append(out.values[-1])
                return out

            dec.head = recording_head
            ids = greedy_decode(dec, vid, memory, self.MAX_LEN)
            dec.head = head
            # the oracle commits forward_event(..., update_memory=True) on
            # [BOS] + ids (+ EOS) to its copy of the memory
            replay = copy.deepcopy(before)
            want, want_rows = oracles.greedy_decode_full(dec, vid, replay, self.MAX_LEN)

            assert ids == want
            assert len(ids) == (self.MAX_LEN if ending is None else ending)
            assert EOS_ID not in ids
            assert len(rows) == len(want_rows)
            for got_row, want_row in zip(rows, want_rows):
                assert_close(got_row, want_row)
            assert len(memory) == len(replay) == i + 1
            n_rows = n_video + 1 + len(ids) + (ending is not None)
            for got, want_layer in zip(committed(memory, n_rows), committed(replay, n_rows)):
                assert_close(got, want_layer)
            # and no row past them: rows_at repeats an event's last row
            np.testing.assert_array_equal(memory.rows_at(0, n_rows)[-1],
                                          memory.rows_at(0, n_rows - 1)[-1])

    def test_row_count_bound_is_the_one_check_inputs_uses(self):
        # with no EOS an event takes a row per snippet, BOS and max_len tokens
        corpus, vocab, _ = build_setup(seed=2)
        n_snippets = len(corpus.held_out[0].events[0].snippets)
        max_len = 6
        bound = n_snippets + 1 + max_len
        for max_pos in (bound - 1, bound):
            _, _, model = build_setup(seed=2, model_overrides={"max_pos": max_pos,
                                                               "max_len": max_len})
            model.decoder.head.b.values[EOS_ID] = -1e3
            if max_pos < bound:
                with pytest.raises(ValidationError, match=f"needs {bound} rows, more "
                                                          f"than max_pos {max_pos}"):
                    model.check_inputs(corpus.held_out, corpus.table, vocab)
                with pytest.raises(ValidationError, match=f"^sequence of {bound} rows "
                                                          f"exceeds max positions {max_pos}$"):
                    model.decode_video(corpus.held_out[0], corpus.table)
            else:
                model.check_inputs(corpus.held_out, corpus.table, vocab)
                captions = model.decode_video(corpus.held_out[0], corpus.table)
                assert [len(c) for c in captions] == [max_len] * len(captions)


class TestCheckpoint:
    def test_round_trip_restores_every_parameter_exactly(self, tmp_path):
        _, vocab, model = build_setup(seed=4)
        path = str(tmp_path / "model.json")
        model.save_checkpoint(path, vocab_tokens=vocab.id_to_token)
        loaded, tokens = CaptionModel.load_checkpoint(path)
        assert tokens == vocab.id_to_token
        before = model.named_params()
        after = loaded.named_params()
        assert sorted(before) == sorted(after)
        for name, p in before.items():
            np.testing.assert_array_equal(p.values, after[name].values,
                                          err_msg=name)

    def test_double_round_trip_produces_identical_files(self, tmp_path):
        _, vocab, model = build_setup(seed=4)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        model.save_checkpoint(p1, vocab_tokens=vocab.id_to_token)
        loaded, tokens = CaptionModel.load_checkpoint(p1)
        loaded.save_checkpoint(p2, vocab_tokens=tokens)
        with open(p1, "rb") as fa, open(p2, "rb") as fb:
            assert fa.read() == fb.read()

    def test_malformed_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            CaptionModel.load_checkpoint(str(path))
        path.write_text("{\"config\": {}}")
        with pytest.raises(ValidationError):
            CaptionModel.load_checkpoint(str(path))
        path.write_text("5")
        with pytest.raises(ValidationError, match=r"bad\.json: checkpoint must be"):
            CaptionModel.load_checkpoint(str(path))
        _, vocab, model = build_setup(seed=4)
        model.save_checkpoint(str(path), vocab_tokens=vocab.id_to_token)
        good = json.loads(path.read_text())
        name = "decoder.head.w"
        w = good["params"][name]
        # each corruption is named with the file and the parameter (or the
        # config) instead of failing later or decoding garbage
        for key, entry in ((name, dict(w, values=[float("nan")] + w["values"][1:])),
                           ("rho", dict(good["params"]["rho"], values=[float("inf")])),
                           (name, dict(w, values=w["values"][:-1])),
                           (name, dict(w, values=["x"] + w["values"][1:])),
                           (name, 3)):
            params = dict(good["params"], **{key: entry})
            path.write_text(json.dumps(dict(good, params=params)))
            with pytest.raises(ValidationError, match=rf"bad\.json: {key}"):
                CaptionModel.load_checkpoint(str(path))
        path.write_text(json.dumps(dict(good, config=3)))
        with pytest.raises(ValidationError, match=r"bad\.json: config must be"):
            CaptionModel.load_checkpoint(str(path))
        # a config value of the wrong type or range is named with the file
        # instead of failing inside numpy or decoding with a coerced value
        for key, value in (("d_emb", -12), ("k", 2.5), ("n_heads", 5),
                           ("max_len", True)):
            config = dict(good["config"], **{key: value})
            path.write_text(json.dumps(dict(good, config=config)))
            with pytest.raises(ValidationError, match=rf"bad\.json: .*{key}"):
                CaptionModel.load_checkpoint(str(path))

    def test_table_with_wrong_vocab_size_rejected(self):
        corpus, vocab, model = build_setup(seed=4)
        bigger = Vocabulary(vocab.id_to_token[4:] + ["stray"])
        with pytest.raises(ValidationError, match="mismatched vocab"):
            model.check_inputs(corpus.train, corpus.table, bigger)
