"""Decoder behaviour: masking, event memory, greedy decoding, checkpoints.

The causality and memory-detachment checks rely on the fact that masked
attention scores are biased by -1e9, which underflows to an exact zero
weight after the softmax — so "cannot see" means bitwise invariance, not
just approximate invariance.
"""

import base64
import contextlib
import copy
import json

import numpy as np
import pytest

import oracles
from conftest import build_setup, encode
from paracap import decoder, gradcheck
from paracap import tensor as T
from paracap.data import BOS_ID, EOS_ID, Vocabulary
from paracap.decoder import CaptionDecoder, DecoderLayer, EventMemory, event_mask, greedy_decode
from paracap.encoder import select_and_fuse
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


def store(memory, layer_rows):
    """Add one event to ``memory`` and write its (s, D) rows at every layer."""
    event = memory.add([len(layer_rows[0])])
    for layer, rows in enumerate(layer_rows):
        memory.write(layer, event, np.arange(len(rows)), rows)


def causal_join_mask(n_video, n_text):
    """``event_mask`` over one event's [snippet rows; text rows]."""
    positions = np.arange(n_video + n_text)
    events = np.zeros(positions.size, dtype=np.intp)
    return event_mask(events, positions, events, positions, positions >= n_video)


class TestCausalJoinMask:
    """The mask builder's one-event form: the causal join."""

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


class TestEventMask:
    def test_rows_never_see_another_events_keys(self):
        rng = np.random.default_rng(3)
        key_events = rng.integers(0, 3, size=12)
        key_positions = rng.integers(0, 6, size=12)
        key_text = rng.random(12) < 0.5
        events, positions = rng.integers(0, 3, size=7), rng.integers(0, 6, size=7)
        mask = event_mask(events, positions, key_events, key_positions, key_text)
        assert mask.shape == (7, 12)
        for i in range(7):
            for j in range(12):
                want = key_events[j] == events[i] and (not key_text[j]
                                                       or key_positions[j] <= positions[i])
                assert mask[i, j] == want

    def test_a_decoding_step_over_a_joint_cache(self):
        # cached: event 0's 2 snippets and BOS, event 1's snippet and BOS;
        # this step: event 0 feeds its first id, event 2 its 3 snippets and BOS
        key_events = np.array([0, 0, 0, 1, 1, 0, 2, 2, 2, 2])
        key_positions = np.array([0, 1, 2, 0, 1, 3, 0, 1, 2, 3])
        key_text = np.array([0, 0, 1, 0, 1, 1, 0, 0, 0, 1], dtype=bool)
        mask = event_mask(key_events[5:], key_positions[5:], key_events, key_positions,
                          key_text)
        np.testing.assert_array_equal(mask, np.array([
            [1, 1, 1, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 1, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 1, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
        ], dtype=bool))


class TestEventMemory:
    def entry(self, n_rows, fill):
        return np.full((n_rows, D), float(fill))

    def test_length_counts_stored_events(self):
        memory = EventMemory(2)
        assert len(memory) == 0
        store(memory, [self.entry(3, 1), self.entry(3, 2)])
        store(memory, [self.entry(4, 3), self.entry(4, 4)])
        assert len(memory) == 2

    def test_rejects_zero_layers(self):
        with pytest.raises(ValidationError):
            EventMemory(0)

    def test_rows_at_clamps_shorter_events(self):
        memory = EventMemory(1)
        short = np.arange(2.0 * D).reshape(2, D)
        long = np.arange(5.0 * D).reshape(5, D) + 100.0
        store(memory, [short])
        store(memory, [long])
        rows = memory.rows_block(0, 2, np.array([3, 4]))   # position-major
        np.testing.assert_array_equal(rows, [short[1], long[3], short[1], long[4]])

    def test_entries_are_detached_copies(self):
        memory = EventMemory(1)
        state = np.ones((3, D))
        store(memory, [state])
        state[:] = -7.0
        np.testing.assert_array_equal(memory.rows_block(0, 1, np.array([0])),
                                      np.ones((1, D)))

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_block_matches_the_padded_store(self, seed):
        rng = np.random.default_rng(seed)
        n_layers = 2 + seed % 2
        memory = EventMemory(n_layers)
        # the second event is shorter than the first, the case padding handled
        lengths = [rng.integers(4, 9), rng.integers(1, 4), *rng.integers(1, 9, size=3)]
        events = []
        for n_rows in lengths[:1 + seed % 5]:
            event = [rng.normal(size=(int(n_rows), D)) for _ in range(n_layers)]
            store(memory, event)
            events.append(event)
            longest = max(len(e[0]) for e in events)
            for layer in range(n_layers):
                for start in range(longest + 3):   # the last starts pass every event's end
                    for s in range(1, 9):
                        positions = np.arange(start, start + s)
                        for n in range(1, len(events) + 1):   # the first n events
                            np.testing.assert_array_equal(
                                memory.rows_block(layer, n, positions),
                                oracles.padded_rows_block(events[:n], layer, start, s))

    def test_rows_written_one_at_a_time_equal_an_appended_event(self):
        rng = np.random.default_rng(8)
        whole, grown = EventMemory(2), EventMemory(2)
        events = [[rng.normal(size=(n, D)) for _ in range(2)] for n in (3, 9, 1, 20)]
        for event in events:
            store(whole, event)
        first = grown.add(np.zeros(len(events), dtype=np.intp))
        for p in range(20):   # position by position, the store growing as it fills
            for e, event in enumerate(events):
                if p < len(event[0]):
                    for layer in range(2):
                        grown.write(layer, np.array([first + e]), np.array([p]),
                                    event[layer][p:p + 1])
                    grown.lengths[first + e] = p + 1
        np.testing.assert_array_equal(grown.lengths, whole.lengths)
        for layer in range(2):
            np.testing.assert_array_equal(grown.rows_block(layer, 4, np.arange(22)),
                                          whole.rows_block(layer, 4, np.arange(22)))


class TestForwardEvent:
    def test_first_event_equals_plain_layer_stack(self):
        dec = make_decoder()
        vid = video_block(1, 2)
        ids = [BOS_ID, 4, 6]
        logits, f_event = dec.forward_event(vid, ids, EventMemory(2),
                                            update_memory=False)

        mask = causal_join_mask(2, 3)
        h = dec.build_input(vid, ids, np.arange(5))
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
        positions = np.array([0, 1, 6, 3])   # any positions, in any order
        out = dec.build_input(vid, ids, positions)

        text = dec.text_mlp(dec.word_embed(np.array(ids))).values
        types = dec.type_embed.table.values
        pos = dec.pos_embed.table.values[positions]
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


def jittered_layer(seed):
    """A decoder layer with weights moved well away from the near-zero init."""
    rng = np.random.default_rng(seed)
    layer = DecoderLayer(rng, D, 2, 1)
    for p in layer.params().values():
        p.values = p.values + rng.normal(0.0, 0.3, size=p.shape)
    return layer


def ragged_memory(seed, n_events):
    """A one-layer memory of ``n_events`` stored events of 1-8 rows each."""
    rng = np.random.default_rng(seed)
    memory = EventMemory(1)
    for _ in range(n_events):
        store(memory, [rng.normal(size=(int(rng.integers(1, 9)), D))])
    return memory


@pytest.fixture
def kept_rows(monkeypatch):
    """The flat kept indices of each selection ``read_memory`` makes."""
    calls = []

    def recording(features, reference, attn):
        fused, keep = select_and_fuse(features, reference, attn, return_indices=True)
        calls.append(keep)
        return fused

    monkeypatch.setattr(decoder, "select_and_fuse", recording)
    return calls


class TestMemoryReadout:
    """The one-pass readout against the per-position loop oracle."""

    @staticmethod
    def readout_and_grads(layer, h_bar, weights, readout):
        """Readout values, then the gradients of sum(weights * readout) for
        the readout's parameters and ``h_bar`` (no gradients under no_grad)."""
        tensors = {n: p for n, p in layer.params().items() if n.startswith("mem_")}
        tensors["h_bar"] = h_bar
        T.zero_grads(tensors.values())
        out = readout()
        if not out.requires_grad:
            return out.values, {}
        T.backward(T.tsum(out * weights))
        return out.values, {n: t.grad for n, t in tensors.items()}

    @pytest.mark.parametrize("grad", [True, False], ids=["tape", "no_grad"])
    @pytest.mark.parametrize("n_events", [1, 2, 3, 4, 5])
    def test_matches_the_loop_oracle(self, n_events, grad, kept_rows):
        several = 0
        for s in range(1, 14):
            for start in range(4):
                seed = 1000 * n_events + 10 * s + start
                rng = np.random.default_rng(seed)
                layer, memory = jittered_layer(seed), ragged_memory(seed + 1, n_events)
                h_bar = Tensor(rng.normal(size=(s, D)), requires_grad=True)
                weights = rng.normal(size=(s, D))
                events, positions = np.full(s, n_events), np.arange(start, start + s)
                with T.no_grad() if not grad else contextlib.nullcontext():
                    got, got_grads = self.readout_and_grads(
                        layer, h_bar, weights,
                        lambda: layer.read_memory(h_bar, memory, 0, events, positions))
                    loop_kept = []

                    def loop():
                        out, kept = oracles.read_memory_loop(layer, h_bar, memory, 0, events,
                                                             positions)
                        loop_kept.extend(kept)
                        return out

                    want, want_grads = self.readout_and_grads(layer, h_bar, weights, loop)
                assert_close(got, want)
                assert sorted(got_grads) == sorted(want_grads)
                assert len(got_grads) == (8 if grad else 0)
                for name, g in got_grads.items():
                    assert_close(g, want_grads[name])
                np.testing.assert_array_equal(
                    kept_rows[-1], np.concatenate([p * n_events + k
                                                   for p, k in enumerate(loop_kept)]))
                several += max(len(k) for k in loop_kept) >= 2
        assert several > 0 or n_events <= 2

    def test_multi_row_readout_matches_finite_differences(self, kept_rows):
        rng = np.random.default_rng(5)
        n_events, s, start = 4, 6, 1
        layer, memory = jittered_layer(5), ragged_memory(6, n_events)
        h_bar = Tensor(rng.normal(size=(s, D)), requires_grad=True)
        weights = rng.normal(size=(s, D))

        events, positions = np.full(s, n_events), np.arange(start, start + s)

        def f(_):
            return T.tsum(layer.read_memory(h_bar, memory, 0, events, positions) * weights)

        f(None)
        assert np.bincount(kept_rows[-1] // n_events, minlength=s).max() >= 2
        targets = {n: p for n, p in layer.params().items() if n.startswith("mem_")}
        targets["h_bar"] = h_bar
        for name, x in targets.items():
            assert T.finite_diff_check(f, x) <= gradcheck.PRIMITIVE_TOL, name


    @pytest.mark.parametrize("grad", [True, False], ids=["tape", "no_grad"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_of_several_events_match_the_loop_oracle(self, seed, grad, kept_rows):
        # rows of events 0-4 in one pass, as a lockstep decoding step feeds
        # them: event 0 reads nothing, event e the memory's first e events
        rng = np.random.default_rng(seed)
        layer, memory = jittered_layer(seed), ragged_memory(seed + 1, 4)
        counts = rng.integers(0 if seed % 2 else 1, 4, size=5)   # rows per event
        counts[-1] = max(counts[-1], 1)   # a pass of event 0 alone skips the readout
        events = np.repeat(np.arange(5), counts)
        positions = rng.integers(0, 10, size=events.size)
        h_bar = Tensor(rng.normal(size=(events.size, D)), requires_grad=True)
        weights = rng.normal(size=(events.size, D))
        with T.no_grad() if not grad else contextlib.nullcontext():
            got, got_grads = self.readout_and_grads(
                layer, h_bar, weights,
                lambda: layer.read_memory(h_bar, memory, 0, events, positions))
            selections = len(kept_rows)
            want, want_grads = self.readout_and_grads(
                layer, h_bar, weights,
                lambda: oracles.read_memory_loop(layer, h_bar, memory, 0, events, positions)[0])
        assert selections == np.count_nonzero(counts[1:])   # one per event that reads
        assert_close(got, want)
        np.testing.assert_array_equal(got[:counts[0]], h_bar.values[:counts[0]])
        assert sorted(got_grads) == sorted(want_grads)
        for name, g in got_grads.items():
            assert_close(g, want_grads[name])


class TestGreedyDecode:
    def test_eos_dominant_head_yields_empty_caption(self):
        dec = make_decoder()
        dec.head.w.values[:] = 0.0
        dec.head.b.values[:] = 0.0
        dec.head.b.values[EOS_ID] = 5.0
        memory = EventMemory(2)
        out, logits = greedy_decode(dec, [video_block(13, 2), video_block(17, 3)], memory, 6)
        assert out == [[], []]
        assert [rows.shape for rows in logits] == [(1, VOCAB), (1, VOCAB)]
        assert len(memory) == 2
        np.testing.assert_array_equal(memory.lengths, [4, 5])   # snippets, BOS and EOS

    def test_all_equal_logits_tie_break_to_lowest_id(self):
        dec = make_decoder()
        dec.head.w.values[:] = 0.0
        dec.head.b.values[:] = 0.0
        out, _ = greedy_decode(dec, [video_block(14, 2)], EventMemory(2), 3)
        assert out == [[0, 0, 0]]

    def test_decoding_is_deterministic(self):
        dec = make_decoder(seed=3)
        videos = [video_block(15, 2), video_block(18, 1)]
        first, first_logits = greedy_decode(dec, videos, EventMemory(2), 5)
        second, second_logits = greedy_decode(dec, videos, EventMemory(2), 5)
        assert first == second
        for a, b in zip(first_logits, second_logits):
            np.testing.assert_array_equal(a, b)
        assert all(len(ids) <= 5 for ids in first)

    def test_rejects_nonpositive_max_len(self):
        dec = make_decoder()
        with pytest.raises(ValidationError):
            greedy_decode(dec, [video_block(16, 2)], EventMemory(2), 0)


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
    n = len(memory)
    return [memory.rows_block(layer, n, np.arange(n_rows))[n - 1::n]
            for layer in range(memory.n_layers)]


def assert_close(got, want, tol=1e-12):
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


class TestIncrementalDecode:
    """The cached decoder against the full-recompute oracle, over videos of
    three events, each decoded by its own call, that end with EOS, at the
    cap, and at once."""

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
            (ids,), (rows,) = greedy_decode(dec, [vid], memory, self.MAX_LEN)
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
            assert memory.lengths[-1] == replay.lengths[-1] == n_rows
            for got, want_layer in zip(committed(memory, n_rows), committed(replay, n_rows)):
                assert_close(got, want_layer)
            # and no row past them: rows_block repeats an event's last row
            np.testing.assert_array_equal(memory.rows_block(0, i + 1, np.array([n_rows]))[-1],
                                          memory.rows_block(0, i + 1, np.array([n_rows - 1]))[-1])

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


def stored_events(memory):
    """Each stored event's per-layer rows."""
    return [[memory.rows[layer, e, :memory.lengths[e]] for layer in range(memory.n_layers)]
            for e in range(len(memory))]


class TestLockstepDecode:
    """A video's events decoded in lockstep against the oracle that decodes
    them one after another."""

    MAX_LEN = 5

    @staticmethod
    def case(seed, n_events):
        """A decoder, ``n_events`` videos of 1-4 snippet rows and 0-2 prior
        events of 1-8 rows. The decoder's EOS spike (see ``eos_at``) sits
        at one position in 1-7, so events of different snippet counts stop
        at different steps: at once, after some tokens, or at the cap."""
        rng = np.random.default_rng(seed)
        dec = eos_at(seed, 0, int(rng.integers(1, 8)))
        videos = [video_block(1000 * seed + e, int(rng.integers(1, 5))) for e in range(n_events)]
        prior = [[rng.normal(size=(n, D)) for _ in range(2)]
                 for n in rng.integers(1, 9, size=rng.integers(0, 3))]
        return dec, videos, prior

    def run_both(self, dec, videos, prior):
        memory = EventMemory(2)
        for event in prior:
            store(memory, event)
        got = greedy_decode(dec, videos, memory, self.MAX_LEN)
        stored = [list(event) for event in prior]
        want = oracles.greedy_decode_events(dec, videos, stored, self.MAX_LEN)
        assert memory.lengths.tolist() == [len(event[0]) for event in stored]
        return got, want, stored_events(memory), stored

    def test_matches_the_one_after_another_oracle(self):
        lengths, priors, waits = set(), set(), 0
        for seed in range(40):
            n_events = 1 + seed % 5
            dec, videos, prior = self.case(seed, n_events)
            (ids, logits), (want_ids, want_logits), rows, want_rows = self.run_both(dec, videos,
                                                                                 prior)
            assert ids == want_ids
            for got, want in zip(logits, want_logits):
                assert got.shape == want.shape
                assert_close(got, want)
            for got_event, want_event in zip(rows, want_rows):
                for got, want in zip(got_event, want_event):
                    assert got.shape == want.shape
                    assert_close(got, want)
            lengths.update(len(seq) for seq in ids)
            priors.add(len(prior))
            counts = [v.shape[0] for v in videos]
            waits += any(b > a for i, a in enumerate(counts) for b in counts[i + 1:])
        # empty captions, captions at the cap and in between; 0-2 prior
        # events; events that wait for an earlier one with fewer snippets
        assert {0, self.MAX_LEN} < lengths
        assert priors == {0, 1, 2}
        assert waits >= 10

    def test_one_event_call_is_bitwise_the_oracle(self):
        for seed in range(30):
            dec, videos, prior = self.case(seed, 1)
            (ids, logits), (want_ids, want_logits), rows, want_rows = self.run_both(dec, videos,
                                                                                 prior)
            assert ids == want_ids
            np.testing.assert_array_equal(logits[0], want_logits[0])
            for got_event, want_event in zip(rows, want_rows):
                for got, want in zip(got_event, want_event):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("counts, passes", [((2, 2, 2, 2), 1 + MAX_LEN),
                                                ((3, 2, 1), 1 + MAX_LEN),
                                                ((1, 3), 2 + 1 + MAX_LEN),
                                                ((3, 1, 2), 1 + 1 + MAX_LEN)])
    def test_an_event_waits_only_for_earlier_events_with_fewer_snippets(self, counts, passes,
                                                                         monkeypatch):
        dec = eos_at(4, 0, None)   # every caption runs to the cap
        calls = []
        run_layers = dec.run_layers
        monkeypatch.setattr(dec, "run_layers",
                            lambda *args: calls.append(args[-2]) or run_layers(*args))
        videos = [video_block(40 + i, n) for i, n in enumerate(counts)]
        ids, _ = greedy_decode(dec, videos, EventMemory(2), self.MAX_LEN)
        assert [len(seq) for seq in ids] == [self.MAX_LEN] * len(counts)
        assert len(calls) == passes
        # the event with 3 snippets starts once the one with 1 reaches position 3
        if counts == (1, 3):
            assert calls[2].max() == 3 and calls[1].max() == 2


class TestCheckpoint:
    def test_round_trip_restores_every_parameter_exactly(self, tmp_path):
        _, vocab, model = build_setup(seed=4)
        # signed zero, the smallest subnormal and the float64 extremes survive
        # the round trip bit for bit
        w = model.named_params()["decoder.head.w"].values
        w.flat[:4] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        model.named_params()["rho"].values[...] = -0.0
        path = str(tmp_path / "model.json")
        model.save_checkpoint(path, vocab_tokens=vocab.id_to_token)
        loaded, tokens = CaptionModel.load_checkpoint(path)
        assert tokens == vocab.id_to_token
        before = model.named_params()
        after = loaded.named_params()
        assert sorted(before) == sorted(after)
        for name, p in before.items():
            got = after[name].values
            assert got.shape == p.values.shape and got.tobytes() == p.values.tobytes(), name
            # training and gradcheck write into parameters in place
            assert got.dtype == np.float64 and got.dtype.isnative, name
            assert got.flags.writeable and got.flags.c_contiguous, name

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
        raw = base64.b64decode(w["values"])

        def with_value(x, at=0):   # the encoding with one float64 replaced
            return encode(raw[:8 * at] + np.float64(x).tobytes() + raw[8 * at + 8:])

        # each corruption is named with the file and the parameter (or the
        # config) instead of failing later or decoding garbage
        for key, entry in ((name, dict(w, values=with_value(np.nan))),
                           ("rho", dict(good["params"]["rho"], values=encode(
                               np.float64(np.inf).tobytes()))),
                           ("rho", dict(good["params"]["rho"], values=encode(
                               np.float64(-np.inf).tobytes()))),
                           (name, dict(w, values=encode(raw[:-8]))),
                           (name, dict(w, values=encode(raw[:-3]))),
                           (name, dict(w, values=np.frombuffer(raw, "<f8").tolist())),
                           (name, dict(w, values="!" + w["values"][1:])),
                           (name, dict(w, values=w["values"] + "\n")),
                           (name, 3)):
            params = dict(good["params"], **{key: entry})
            path.write_text(json.dumps(dict(good, params=params)))
            with pytest.raises(ValidationError, match=rf"bad\.json: {key}"):
                CaptionModel.load_checkpoint(str(path))
        # a byte count that fits the stored shape, but not the model's
        flat = dict(w, shape=[len(raw) // 8])
        path.write_text(json.dumps(dict(good, params=dict(good["params"], **{name: flat}))))
        with pytest.raises(ShapeError, match=rf"bad\.json: {name} has shape"):
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
