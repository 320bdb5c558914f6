"""Tokenization, vocabulary, the synthetic world, and manifest files."""

import json
import os
import string

import numpy as np
import pytest

from paracap.data import (AGENT_WORDS, BOS, EOS, PAD, PAD_ID, UNK, UNK_ID,
                          EventRecord, SyntheticWorldSpec, VideoRecord,
                          Vocabulary, build_vocab, detokenize,
                          generate_synthetic, load_manifest, save_manifest,
                          tokenize)
from paracap.encoder import SnippetInput
from paracap.errors import ValidationError, atomic_write


def tokenize_walk(text):
    """Character-walk reference: lowercase, whitespace split, strip edge
    punctuation, drop empties."""
    words, cur = [], []
    for ch in text.lower():
        if ch.isspace():
            if cur:
                words.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        words.append("".join(cur))
    out = []
    for w in words:
        i, j = 0, len(w)
        while i < j and w[i] in string.punctuation:
            i += 1
        while j > i and w[j - 1] in string.punctuation:
            j -= 1
        if j > i:
            out.append(w[i:j])
    return out


class TestTokenize:
    def test_lowercases_and_strips_final_punctuation(self):
        assert tokenize("A man runs.") == ["a", "man", "runs"]

    def test_empty_string_gives_no_tokens(self):
        assert tokenize("") == []

    def test_pure_punctuation_words_vanish(self):
        assert tokenize("-- ... !?") == []

    @pytest.mark.parametrize("text", [
        "The dog, the DOG!", "a  b\tc\nd", "it's a (parenthetical) remark.",
        "trailing space ", " 'quoted' words? ", "one", "#tag, end-of-line...",
    ])
    def test_matches_character_walk(self, text):
        assert tokenize(text) == tokenize_walk(text)

    def test_detokenize_joins_with_spaces(self):
        assert detokenize(["a", "man", "runs"]) == "a man runs"


class TestVocabulary:
    def test_reserved_ids_are_fixed(self):
        v = Vocabulary([])
        assert v.id_to_token == [PAD, BOS, EOS, UNK]
        assert v.encode([PAD]) == [PAD_ID]

    def test_round_trip_known_tokens(self):
        v = Vocabulary(["dog", "runs"])
        ids = v.encode(["runs", "dog"])
        assert ids == [5, 4]
        assert v.decode(ids) == ["runs", "dog"]

    def test_unknown_token_maps_to_unk(self):
        v = Vocabulary(["dog"])
        assert v.encode(["cat"]) == [UNK_ID]

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValidationError):
            Vocabulary(["dog", "dog"])

    def test_reserved_tokens_in_input_are_skipped(self):
        v = Vocabulary([PAD, "dog"])
        assert len(v) == 5
        assert v.id_to_token[4] == "dog"


class TestBuildVocab:
    def test_frequency_descending_then_alphabetical(self):
        v = build_vocab(["b a a", "c b a"])
        assert v.id_to_token[4:] == ["a", "b", "c"]

    def test_equal_counts_sort_alphabetically(self):
        v = build_vocab(["b a", "a b"])
        assert v.id_to_token[4:] == ["a", "b"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_vocab([""])


SMALL = dict(n_agent_kinds=3, n_action_kinds=3, n_place_kinds=3,
             n_videos=4, n_held_out=2, events_per_video=2,
             snippets_per_event=2, seed=11)


class TestSyntheticWorld:
    def test_counts_and_shapes(self):
        spec = SyntheticWorldSpec(**SMALL)
        corpus = generate_synthetic(spec)
        assert len(corpus.train) == 4
        assert len(corpus.held_out) == 2
        for rec in corpus.train + corpus.held_out:
            assert len(rec.events) == 2
            for ev in rec.events:
                assert len(ev.snippets) == 2
                for sn in ev.snippets:
                    assert sn.env.shape == (spec.d_env,)
                    assert sn.frame.shape == (spec.d_frame,)
                    assert sn.agents.shape[1] == spec.d_agent

    def test_agent_row_counts_follow_the_cycle(self):
        spec = SyntheticWorldSpec(**dict(SMALL, snippets_per_event=4))
        rec = generate_synthetic(spec).train[0]
        counts = [sn.agents.shape[0] for sn in rec.events[0].snippets]
        assert counts == [1, 2, 0, 3]

    def test_max_agents_caps_the_cycle(self):
        spec = SyntheticWorldSpec(**dict(SMALL, snippets_per_event=4,
                                         max_agents=1))
        rec = generate_synthetic(spec).train[0]
        counts = [sn.agents.shape[0] for sn in rec.events[0].snippets]
        assert counts == [1, 1, 0, 1]

    def test_single_kind_world_repeats_the_one_caption(self):
        spec = SyntheticWorldSpec(**dict(SMALL, n_agent_kinds=1,
                                         n_action_kinds=1, n_place_kinds=1,
                                         noise_sigma=0.0))
        corpus = generate_synthetic(spec)
        for rec in corpus.train + corpus.held_out:
            for ev in rec.events:
                assert ev.caption == "the dog runs in the park"

    def test_captions_use_world_words_in_template_order(self):
        corpus = generate_synthetic(SyntheticWorldSpec(**SMALL))
        for rec in corpus.train:
            for ev in rec.events:
                words = ev.caption.split()
                assert len(words) == 6
                assert words[0] == words[4] == "the"
                assert words[3] == "in"
                assert words[1] in AGENT_WORDS[:3]
                assert words[2] in ("runs", "jumps", "sleeps")
                assert words[5] in ("park", "kitchen", "street")

    def test_same_seed_regenerates_bitwise(self):
        a = generate_synthetic(SyntheticWorldSpec(**SMALL))
        b = generate_synthetic(SyntheticWorldSpec(**SMALL))
        np.testing.assert_array_equal(a.table.text_features,
                                      b.table.text_features)
        for ra, rb in zip(a.train + a.held_out, b.train + b.held_out):
            assert ra.video_id == rb.video_id
            for ea, eb in zip(ra.events, rb.events):
                assert ea.caption == eb.caption
                for sa, sb in zip(ea.snippets, eb.snippets):
                    np.testing.assert_array_equal(sa.env, sb.env)
                    np.testing.assert_array_equal(sa.agents, sb.agents)
                    np.testing.assert_array_equal(sa.frame, sb.frame)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticWorldSpec(**SMALL))
        b = generate_synthetic(SyntheticWorldSpec(**dict(SMALL, seed=12)))
        assert np.abs(a.train[0].events[0].snippets[0].env -
                      b.train[0].events[0].snippets[0].env).max() > 0

    def test_table_lists_world_words_plus_fillers(self):
        corpus = generate_synthetic(SyntheticWorldSpec(**SMALL))
        assert corpus.table.tokens == ["dog", "cat", "bird",
                                       "runs", "jumps", "sleeps",
                                       "park", "kitchen", "street",
                                       "the", "in"]
        assert corpus.table.text_features.shape == (11, 16)
        np.testing.assert_array_equal(corpus.table.w_text, np.eye(16))
        np.testing.assert_array_equal(corpus.table.w_image, np.eye(16))

    def test_repetition_prone_videos_share_action_and_place(self):
        spec = SyntheticWorldSpec(**dict(SMALL, repetition_prone=True,
                                         events_per_video=3, n_videos=6))
        corpus = generate_synthetic(spec)
        for rec in corpus.train:
            pairs = {(ev.caption.split()[2], ev.caption.split()[5])
                     for ev in rec.events}
            assert len(pairs) == 1

    def test_environment_channel_recovers_the_place(self):
        # Nearest-centroid classification of held-out env vectors against
        # per-place centroids from the train split: with sigma far below
        # the prototype separation this should be nearly perfect.
        spec = SyntheticWorldSpec(**dict(SMALL, n_videos=12, n_held_out=4,
                                         noise_sigma=0.1))
        corpus = generate_synthetic(spec)
        sums, counts = {}, {}
        for rec in corpus.train:
            for ev in rec.events:
                place = ev.caption.split()[5]
                for sn in ev.snippets:
                    sums[place] = sums.get(place, 0.0) + sn.env
                    counts[place] = counts.get(place, 0) + 1
        places = sorted(sums)
        centroids = np.stack([sums[p] / counts[p] for p in places])
        hits = total = 0
        for rec in corpus.held_out:
            for ev in rec.events:
                want = ev.caption.split()[5]
                for sn in ev.snippets:
                    d = np.linalg.norm(centroids - sn.env, axis=1)
                    hits += places[int(np.argmin(d))] == want
                    total += 1
        assert total > 0
        assert hits / total > 0.9

    @pytest.mark.parametrize("bad", [
        dict(n_agent_kinds=0), dict(n_agent_kinds=9), dict(n_videos=0),
        dict(events_per_video=0), dict(snippets_per_event=0),
        dict(n_held_out=-1), dict(noise_sigma=-0.1),
        dict(d_env=0), dict(d_agent=0), dict(d_frame=0), dict(max_agents=-1),
    ])
    def test_bad_spec_rejected(self, bad):
        with pytest.raises(ValidationError):
            SyntheticWorldSpec(**dict(SMALL, **bad))


class TestRecordValidation:
    def snippet(self):
        return SnippetInput(env=np.zeros(3), agents=np.zeros((1, 2)),
                            frame=np.zeros(4))

    def test_event_must_end_after_it_begins(self):
        with pytest.raises(ValidationError):
            EventRecord(begin=2.0, end=1.0, caption="x",
                        snippets=[self.snippet()])

    def test_event_needs_snippets(self):
        with pytest.raises(ValidationError):
            EventRecord(begin=0.0, end=1.0, caption="x", snippets=[])

    def test_video_needs_events(self):
        with pytest.raises(ValidationError):
            VideoRecord(video_id="v", events=[])

    def test_video_events_must_be_ordered_by_begin(self):
        ev = lambda b: EventRecord(begin=b, end=b + 1.0, caption="x",
                                   snippets=[self.snippet()])
        with pytest.raises(ValidationError):
            VideoRecord(video_id="v", events=[ev(2.0), ev(0.0)])


class TestManifest:
    def test_round_trip_is_value_identical(self, tmp_path):
        corpus = generate_synthetic(SyntheticWorldSpec(
            **dict(SMALL, snippets_per_event=3)))  # includes 0-agent snippets
        path = str(tmp_path / "train.jsonl")
        save_manifest(corpus.train, path)
        loaded = load_manifest(path)
        assert len(loaded) == len(corpus.train)
        for orig, back in zip(corpus.train, loaded):
            assert back.video_id == orig.video_id
            for eo, eb in zip(orig.events, back.events):
                assert (eb.begin, eb.end, eb.caption) == \
                    (eo.begin, eo.end, eo.caption)
                for so, sb in zip(eo.snippets, eb.snippets):
                    np.testing.assert_array_equal(sb.env, so.env)
                    np.testing.assert_array_equal(sb.frame, so.frame)
                    if so.agents.shape[0] == 0:
                        assert sb.agents.shape[0] == 0
                    else:
                        np.testing.assert_array_equal(sb.agents, so.agents)

    def test_save_load_save_produces_identical_bytes(self, tmp_path):
        corpus = generate_synthetic(SyntheticWorldSpec(**SMALL))
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        save_manifest(corpus.train, p1)
        save_manifest(load_manifest(p1), p2)
        with open(p1, "rb") as fa, open(p2, "rb") as fb:
            assert fa.read() == fb.read()

    def test_failed_save_leaves_the_earlier_file(self, tmp_path):
        corpus = generate_synthetic(SyntheticWorldSpec(**SMALL))
        path = str(tmp_path / "train.jsonl")
        save_manifest(corpus.train, path)
        before = (tmp_path / "train.jsonl").read_bytes()
        # the first video's line is written before the second one fails
        with pytest.raises(AttributeError):
            save_manifest(corpus.train[:1] + [None], path)
        assert (tmp_path / "train.jsonl").read_bytes() == before
        assert os.listdir(tmp_path) == ["train.jsonl"]

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "report.json")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("{")
                raise RuntimeError("interrupted")
        assert os.listdir(tmp_path) == []

    def test_empty_file_loads_as_no_records(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_manifest(str(path)) == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text("\n" + json.dumps(self.payload()) + "\n\n")
        assert len(load_manifest(str(path))) == 1

    def payload(self):
        return {
            "video_id": "clip-7",
            "events": [{
                "begin": 0.0, "end": 2.5, "caption": "the dog runs",
                "snippets": [{
                    "env": [1.0, 2.0],
                    "agents": [[0.5, -0.5, 1.5]],
                    "frame": [0.25],
                }],
            }],
        }

    def test_hand_written_fixture_parses_exactly(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(self.payload()) + "\n")
        [rec] = load_manifest(str(path))
        assert rec.video_id == "clip-7"
        [ev] = rec.events
        assert (ev.begin, ev.end, ev.caption) == (0.0, 2.5, "the dog runs")
        [sn] = ev.snippets
        np.testing.assert_array_equal(sn.env, [1.0, 2.0])
        np.testing.assert_array_equal(sn.agents, [[0.5, -0.5, 1.5]])
        np.testing.assert_array_equal(sn.frame, [0.25])

    def broken(self, tmp_path, mutate, first_line=None):
        obj = self.payload()
        mutate(obj)
        path = tmp_path / "bad.jsonl"
        lines = [] if first_line is None else [first_line]
        lines.append(json.dumps(obj))
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{oops\n")
        with pytest.raises(ValidationError, match=r"bad\.jsonl:1.*not valid JSON"):
            load_manifest(str(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValidationError, match="expected an object"):
            load_manifest(str(path))

    def test_missing_video_id_names_line_and_field(self, tmp_path):
        path = self.broken(tmp_path, lambda o: o.pop("video_id"))
        with pytest.raises(ValidationError,
                           match=r"bad\.jsonl:1: missing field 'video_id'"):
            load_manifest(str(path))

    def test_error_on_second_line_reports_line_two(self, tmp_path):
        path = self.broken(tmp_path, lambda o: o.pop("video_id"),
                           first_line=json.dumps(self.payload()))
        with pytest.raises(ValidationError, match=r"bad\.jsonl:2"):
            load_manifest(str(path))

    def test_empty_events_rejected(self, tmp_path):
        path = self.broken(tmp_path, lambda o: o.update(events=[]))
        with pytest.raises(ValidationError, match="events must be a non-empty"):
            load_manifest(str(path))

    def test_missing_snippets_names_the_event(self, tmp_path):
        path = self.broken(tmp_path, lambda o: o["events"][0].pop("snippets"))
        with pytest.raises(ValidationError,
                           match=r"event 0: missing field 'snippets'"):
            load_manifest(str(path))

    @pytest.mark.parametrize("caption", ["", "!!!", " ... ?"])
    def test_caption_without_tokens_names_the_event(self, tmp_path, caption):
        path = self.broken(tmp_path, lambda o: o["events"][0].update(caption=caption))
        with pytest.raises(ValidationError,
                           match=r"bad\.jsonl:1 event 0: caption .* holds no tokens"):
            load_manifest(path)

    def test_missing_frame_names_the_snippet(self, tmp_path):
        path = self.broken(
            tmp_path, lambda o: o["events"][0]["snippets"][0].pop("frame"))
        with pytest.raises(ValidationError,
                           match=r"snippet 0: missing field 'frame'"):
            load_manifest(str(path))

    def test_ragged_agent_rows_name_the_snippet(self, tmp_path):
        path = self.broken(
            tmp_path,
            lambda o: o["events"][0]["snippets"][0].update(
                agents=[[1.0], [1.0, 2.0]]))
        with pytest.raises(ValidationError, match=r"bad\.jsonl:1 event 0 snippet 0"):
            load_manifest(str(path))
        # a second snippet whose widths differ from the first one's, or that
        # holds a non-finite value, is named too instead of failing in training
        for fields in (dict(env=[1.0, 2.0, 3.0]), dict(agents=[[0.5, -0.5]]),
                       dict(frame=[0.25, 0.5]), dict(frame=[float("nan")]),
                       dict(env=[1.0, float("inf")]),
                       dict(agents=[[0.5, float("-inf"), 1.5]])):
            path = self.broken(tmp_path, lambda o: o["events"][0]["snippets"].append(
                dict(o["events"][0]["snippets"][0], **fields)))
            with pytest.raises(ValidationError,
                               match=r"bad\.jsonl:1 event 0 snippet 1: (env|agents|frame) "):
                load_manifest(path)

    def test_end_before_begin_names_the_event(self, tmp_path):
        for times, message in ((dict(begin=9.0), "ends.*begins"),
                               (dict(begin=float("nan")), "must be finite"),
                               (dict(end=float("nan")), "must be finite"),
                               (dict(end=float("inf")), "must be finite")):
            path = self.broken(tmp_path, lambda o: o["events"][0].update(times))
            with pytest.raises(ValidationError, match=rf"event 0: .*{message}"):
                load_manifest(str(path))

    def test_empty_agents_list_round_trips(self, tmp_path):
        obj = self.payload()
        first = obj["events"][0]["snippets"][0]
        # an empty list carries no agent width, before or after one that does
        obj["events"][0]["snippets"] = [dict(first, agents=[]), first,
                                        dict(first, agents=[])]
        path = tmp_path / "noagents.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        [rec] = load_manifest(str(path))
        assert [sn.agents.shape[0] for sn in rec.events[0].snippets] == [0, 1, 0]
