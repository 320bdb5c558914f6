import itertools
import json

import numpy as np
import pytest

import oracles
from paracap import encoder as encoder_module
from paracap import tensor as T
from paracap.encoder import (MODALITIES, SnippetEncoder, SnippetInput,
                             VocabEmbeddingTable, fuse_modalities,
                             select_and_fuse, select_scene_elements)
from paracap.errors import ShapeError, ValidationError
from paracap.model import ModelConfig
from paracap.nn import Linear, MaskedMultiHeadAttention, SelfAttention
from paracap.tensor import Tensor


def make_attn(rng, d):
    return SelfAttention(rng, d)


def attn_weights(attn):
    return attn.wq.values, attn.wk.values, attn.wv.values


class TestSelectAndFuse:
    def test_single_row_falls_back_to_that_row(self, rng):
        attn = make_attn(rng, 4)
        features = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        fused, kept = select_and_fuse(features, Tensor(rng.normal(size=(1, 4))),
                                      attn, return_indices=True)
        np.testing.assert_array_equal(kept, [0])
        expected = attn(T.take_rows(features, [0])).values.mean(axis=0)
        np.testing.assert_allclose(fused.values[0], expected, atol=1e-15)

    def test_identical_rows_fall_back_to_one_row(self, rng):
        attn = make_attn(rng, 5)
        row = rng.normal(size=5)
        features = Tensor(np.tile(row, (4, 1)))
        fused, kept = select_and_fuse(features, Tensor(rng.normal(size=(1, 5))),
                                      attn, return_indices=True)
        assert kept.size == 1

    def test_matches_loop_oracle(self, rng):
        attn = make_attn(rng, 4)
        features = Tensor(rng.normal(size=(3, 4)))
        reference = Tensor(rng.normal(size=(1, 4)))
        fused, kept = select_and_fuse(features, reference, attn,
                                      return_indices=True)
        expected, kept_oracle = oracles.select_and_fuse_loop(
            features.values, reference.values[0], *attn_weights(attn))
        assert list(kept) == kept_oracle
        np.testing.assert_allclose(fused.values[0], expected, atol=1e-9)

    def test_gradient_only_through_selected_rows(self, rng):
        attn = make_attn(rng, 4)
        features = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        fused, kept = select_and_fuse(features, Tensor(rng.normal(size=(1, 4))),
                                      attn, return_indices=True)
        T.backward(T.tsum(fused))
        dropped = sorted(set(range(5)) - set(int(i) for i in kept))
        assert dropped, "want at least one unselected row for this check"
        np.testing.assert_array_equal(features.grad[dropped],
                                      np.zeros((len(dropped), 4)))
        assert np.abs(features.grad[list(kept)]).max() > 0

    def test_rejects_empty_and_mismatched(self, rng):
        attn = make_attn(rng, 4)
        with pytest.raises(ShapeError):
            select_and_fuse(Tensor(np.zeros((0, 4))), Tensor(np.zeros((1, 4))), attn)
        with pytest.raises(ShapeError):
            select_and_fuse(Tensor(np.zeros((2, 4))), Tensor(np.zeros((1, 3))), attn)


class TestGroupedSelection:
    """A (g, d) reference against g one-reference calls on the g slices."""

    @staticmethod
    def groups(rng, g, n, d, tied=()):
        """g groups of n rows; the groups in ``tied`` repeat one row n times,
        so no row clears 1/n and selection falls back to the first."""
        rows = rng.normal(size=(g, n, d))
        for i in tied:
            rows[i] = rng.normal(size=d)
        return rows.reshape(g * n, d)

    @pytest.mark.parametrize("g, n, tied", [(4, 5, ()), (3, 6, (1,)), (5, 1, ()),
                                            (6, 4, (0, 5)), (2, 4, (0, 1))])
    def test_matches_one_call_per_group(self, rng, g, n, tied):
        d = 6
        attn = make_attn(rng, d)
        for p in attn.params().values():
            p.values = rng.normal(0.0, 0.5, size=p.shape)
        features = Tensor(self.groups(rng, g, n, d, tied))
        reference = Tensor(rng.normal(size=(g, d)))
        fused, kept = select_and_fuse(features, reference, attn, return_indices=True)
        assert fused.shape == (g, d)
        want_kept = []
        for i in range(g):
            want, keep = select_and_fuse(Tensor(features.values[i * n:(i + 1) * n]),
                                         Tensor(reference.values[i:i + 1]), attn,
                                         return_indices=True)
            np.testing.assert_allclose(fused.values[i], want.values[0], rtol=0, atol=1e-12)
            want_kept.extend(i * n + keep)
            if i in tied:
                np.testing.assert_array_equal(keep, [0])
        np.testing.assert_array_equal(kept, want_kept)
        if len(tied) < g and n > 2:
            # the untied groups include one that keeps several rows
            assert np.bincount(kept // n, minlength=g).max() >= 2

    @pytest.mark.parametrize("features, reference", [
        (np.zeros((7, 4)), np.zeros((2, 4))),      # 7 rows do not split into 2 groups
        (np.zeros((6, 4)), np.zeros((2, 3))),      # reference width 3, features 4
        (np.zeros((6, 4)), np.zeros((2, 3, 4))),   # 3-D reference
        (np.zeros((6, 4)), np.zeros((0, 4))),      # no groups
    ], ids=["indivisible", "width", "rank", "empty"])
    def test_bad_grouping_raises_shape_error(self, rng, features, reference):
        with pytest.raises(ShapeError):
            select_and_fuse(Tensor(features), Tensor(reference), make_attn(rng, 4))


class TestSelectionScores:
    @pytest.mark.parametrize("g,n,d,scale", [(1, 1, 3, 1.0), (1, 7, 5, 1.0), (4, 3, 8, 1.0),
                                             (6, 5, 16, 1e3), (3, 4, 2, 1e-3)])
    def test_norms_are_bitwise_linalg_norm(self, rng, g, n, d, scale):
        features = rng.normal(scale=scale, size=(g * n, d))
        reference = rng.normal(scale=scale, size=(g, d))
        np.testing.assert_array_equal(
            encoder_module.selection_scores(features, reference),
            oracles.selection_scores_linalg(features, reference))


class TestLayerShapes:
    @pytest.mark.parametrize("make", [
        lambda rng: Linear(rng, 4, 3),
        lambda rng: SelfAttention(rng, 4),
        lambda rng: (lambda x, a=MaskedMultiHeadAttention(rng, 4, 2): a(x, None, {})),
    ], ids=["linear", "self-attention", "masked-attention"])
    @pytest.mark.parametrize("shape", [(2, 5), (2, 3), (4,), (1, 2, 4)])
    def test_wrong_input_width_or_rank_raises(self, rng, make, shape):
        layer = make(rng)
        assert layer(Tensor(np.ones((2, 4)))).shape[0] == 2
        with pytest.raises(ShapeError):
            layer(Tensor(np.ones(shape)))


class TestSceneElements:
    def make_table(self, rng, n=8, d=6):
        return VocabEmbeddingTable(tokens=[f"tok{i}" for i in range(n)],
                                   text_features=rng.normal(size=(n, d)),
                                   w_text=np.eye(d), w_image=np.eye(d))

    def test_exact_match_ranks_first(self, rng):
        table = self.make_table(rng)
        rows, idx = select_scene_elements(table.text_features[3:4], table, k=2)
        assert idx[0, 0] == 3
        np.testing.assert_array_equal(rows[0, 0], table.text_features[3])

    def test_k_equals_m_returns_similarity_order(self, rng):
        table = self.make_table(rng)
        frame = rng.normal(size=6)
        rows, idx = select_scene_elements(frame[None], table, k=8)
        expected = oracles.top_k_cosine_loop(frame, table.text_features,
                                             table.w_text, table.w_image, 8)
        assert list(idx[0]) == expected

    def test_matches_brute_force_oracle(self, rng):
        d = 6
        table = VocabEmbeddingTable(tokens=[f"tok{i}" for i in range(8)],
                                    text_features=rng.normal(size=(8, d)),
                                    w_text=rng.normal(size=(d, d)),
                                    w_image=rng.normal(size=(d, d)))
        for _ in range(20):
            frame = rng.normal(size=d)
            rows, idx = select_scene_elements(frame[None], table, k=3)
            expected = oracles.top_k_cosine_loop(frame, table.text_features,
                                                 table.w_text, table.w_image, 3)
            assert list(idx[0]) == expected
            np.testing.assert_array_equal(rows[0], table.text_features[expected])

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_matrix_matches_per_frame_calls_ties_included(self, rng, k):
        d = 6
        features = rng.normal(size=(8, d))
        features[5] = features[2]    # tokens 2 and 5 tie on every frame
        table = VocabEmbeddingTable(tokens=[f"tok{i}" for i in range(8)],
                                    text_features=features, w_text=np.eye(d),
                                    w_image=np.eye(d))
        frames = rng.normal(size=(10, d))
        frames[3] = 0.0              # every token ties at cosine 0
        frames[4] = features[2] + 0.01 * rng.normal(size=d)   # the tie ranks first
        rows, idx = select_scene_elements(frames, table, k)
        assert idx.shape == (10, k) and rows.shape == (10, k, d)
        np.testing.assert_array_equal(idx[3], np.arange(k))
        np.testing.assert_array_equal(idx[4], [2, 5, *idx[4, 2:]][:k])
        for i, frame in enumerate(frames):
            one_rows, one_idx = select_scene_elements(frame[None], table, k)
            np.testing.assert_array_equal(idx[i], one_idx[0])
            np.testing.assert_array_equal(rows[i], one_rows[0])
            assert list(one_idx[0]) == oracles.top_k_cosine_loop(
                frame, features, table.w_text, table.w_image, k)

    def test_k_out_of_range_rejected(self, rng):
        table = self.make_table(rng)
        with pytest.raises(ValidationError):
            select_scene_elements(np.zeros((1, 6)), table, k=9)
        with pytest.raises(ValidationError):
            select_scene_elements(np.zeros((1, 6)), table, k=0)


class TestFuseModalities:
    def test_identical_inputs_collapse_to_common_output(self, rng):
        attn = make_attn(rng, 4)
        v = Tensor(rng.normal(size=(1, 4)))
        fused = fuse_modalities([v, v, v], attn)
        common = attn(T.concat([v, v, v], axis=0)).values[0]
        np.testing.assert_allclose(fused.values[0], common, atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        attn = make_attn(rng, 4)
        vecs = [Tensor(rng.normal(size=(1, 4))) for _ in range(3)]
        fused = fuse_modalities(vecs, attn)
        stacked = np.concatenate([v.values for v in vecs])
        expected = oracles.attention_loop(stacked, *attn_weights(attn)).mean(axis=0)
        np.testing.assert_allclose(fused.values[0], expected, atol=1e-9)

    def test_rejects_fewer_than_two(self, rng):
        attn = make_attn(rng, 4)
        with pytest.raises(ShapeError):
            fuse_modalities([Tensor(np.zeros((1, 4)))], attn)


class TestBatchedShapesOnly:
    """Selection, retrieval and fusion take (rows, d) matrices; a (d,)
    vector is rejected, not read as one row."""

    @pytest.mark.parametrize("call", [
        lambda attn, table: select_scene_elements(np.ones(4), table, 2),
        lambda attn, table: select_and_fuse(Tensor(np.ones((3, 4))), Tensor(np.ones(4)), attn),
        lambda attn, table: fuse_modalities([Tensor(np.ones(4))] * 2, attn),
    ], ids=["select_scene_elements", "select_and_fuse", "fuse_modalities"])
    def test_one_row_vector_is_rejected(self, rng, call):
        table = VocabEmbeddingTable(tokens=[f"tok{i}" for i in range(5)],
                                    text_features=rng.normal(size=(5, 4)),
                                    w_text=np.eye(4), w_image=np.eye(4))
        with pytest.raises(ShapeError):
            call(make_attn(rng, 4), table)


class TestSnippetEncoder:
    def make_encoder(self, rng_seed, d_env=5, d_agent=4, d_frame=6, d_emb=8,
                     modalities=MODALITIES):
        gen = np.random.default_rng(rng_seed)
        return SnippetEncoder(gen, d_env, d_agent, d_frame, d_emb, 2, modalities)

    def make_table(self, seed, n=8, d_frame=6):
        gen = np.random.default_rng(seed)
        return VocabEmbeddingTable(tokens=[f"tok{i}" for i in range(n)],
                                   text_features=gen.normal(size=(n, d_frame)),
                                   w_text=gen.normal(size=(d_frame, d_frame)),
                                   w_image=gen.normal(size=(d_frame, d_frame)))

    def make_snippet(self, rng, n_agents=2):
        return SnippetInput(env=rng.normal(size=5),
                            agents=rng.normal(size=(n_agents, 4)),
                            frame=rng.normal(size=6))

    def test_no_agents_encode_to_zero_vector(self, rng):
        enc = self.make_encoder(1)
        out = enc.encode_agents([np.zeros((0, 4)), np.zeros((0, 0))], Tensor(np.zeros((2, 8))))
        np.testing.assert_array_equal(out.values, np.zeros((2, 8)))

    def test_env_only_bypasses_fusion(self, rng):
        enc = self.make_encoder(1, modalities=("env",))
        table = self.make_table(2)
        snippets = [self.make_snippet(rng), self.make_snippet(rng, n_agents=0)]
        out = enc.encode_event(snippets, table, k=3)
        expected = enc.env_mlp(Tensor(np.stack([s.env for s in snippets])))
        np.testing.assert_array_equal(out.values, expected.values)

    def test_full_fusion_composes_the_three_summaries(self, rng):
        enc = self.make_encoder(1)
        table = self.make_table(2)
        snippets = [self.make_snippet(rng), self.make_snippet(rng, n_agents=3)]
        out = enc.encode_event(snippets, table, k=3)
        f_env = enc.env_mlp(Tensor(np.stack([s.env for s in snippets])))
        f_agent = enc.encode_agents([s.agents for s in snippets], f_env)
        rows, _ = select_scene_elements(np.stack([s.frame for s in snippets]), table, 3)
        f_ling = enc.encode_elements(rows, f_env)
        expected = fuse_modalities([f_env, f_agent, f_ling], enc.attn)
        np.testing.assert_array_equal(out.values, expected.values)

    def test_empty_agent_matrix_fuses_a_zero_row(self, rng):
        enc = self.make_encoder(1)
        table = self.make_table(2)
        snippet = SnippetInput(env=rng.normal(size=5),
                               agents=np.zeros((0, 4)),
                               frame=rng.normal(size=6))
        out = enc.encode_event([snippet], table, k=3)
        f_env = enc.env_mlp(Tensor(snippet.env[None, :]))
        rows, _ = select_scene_elements(snippet.frame[None], table, 3)
        f_ling = enc.encode_elements(rows, f_env)
        expected = fuse_modalities([f_env, Tensor(np.zeros((1, 8))), f_ling], enc.attn)
        np.testing.assert_array_equal(out.values, expected.values)

    def test_event_rows_are_per_snippet(self, rng):
        enc = self.make_encoder(1)
        table = self.make_table(2)
        s1 = self.make_snippet(rng)
        s2 = self.make_snippet(rng, n_agents=1)
        rows = enc.encode_event([s1, s2, s1], table, k=3)
        assert rows.shape == (3, 8)
        np.testing.assert_allclose(rows.values[0], rows.values[2], rtol=1e-12, atol=0)
        one = enc.encode_event([s2], table, k=3)
        np.testing.assert_allclose(rows.values[1], one.values[0], rtol=1e-12, atol=0)

    def test_all_modalities_disabled_rejected(self):
        with pytest.raises(ValidationError, match="one or more distinct names"):
            ModelConfig(d_env=5, d_agent=4, d_frame=6, vocab_size=8, modalities=())


def modality_subsets():
    return [mods for r in (1, 2, 3) for mods in itertools.combinations(MODALITIES, r)]


class TestBatchedEncoder:
    """``encode_event`` over S snippets against the per-snippet loop,
    ``oracles.encode_event_loop``."""

    D_AGENT, N_TOKENS = 4, 8

    @classmethod
    def build(cls, seed, modalities=MODALITIES):
        gen = np.random.default_rng(seed)
        enc = SnippetEncoder(gen, 5, cls.D_AGENT, 6, 8, 2, modalities)
        # move off the near-zero init so selection keeps varied subsets
        for p in enc.params().values():
            p.values = p.values + gen.normal(0.0, 0.4, size=p.shape)
        table = VocabEmbeddingTable(tokens=[f"tok{i}" for i in range(cls.N_TOKENS)],
                                    text_features=gen.normal(size=(cls.N_TOKENS, 6)),
                                    w_text=gen.normal(size=(6, 6)),
                                    w_image=gen.normal(size=(6, 6)))
        return enc, table, gen

    @classmethod
    def snippets(cls, gen, counts, reloaded=False):
        """One snippet per agent count; with ``reloaded``, a snippet without
        agents carries the (0, 0) matrix a manifest reload gives it."""
        empty = np.zeros((0, 0)) if reloaded else np.zeros((0, cls.D_AGENT))
        return [SnippetInput(env=gen.normal(size=5),
                             agents=gen.normal(size=(c, cls.D_AGENT)) if c else empty,
                             frame=gen.normal(size=6)) for c in counts]

    @staticmethod
    def traced_kept(monkeypatch, enc, snippets, table, k):
        """Run ``encode_event``, recording each ``select_and_fuse`` call's
        site, rows per group and kept indices."""
        calls, site = [], []
        original = encoder_module.select_and_fuse

        def recording(features, reference, attn):
            fused, keep = original(features, reference, attn, return_indices=True)
            calls.append((site[-1], features.shape[0] // reference.shape[0], keep))
            return fused

        def in_site(name, method):
            def wrapped(*args):
                site.append(name)
                try:
                    return method(*args)
                finally:
                    site.pop()
            return wrapped

        monkeypatch.setattr(encoder_module, "select_and_fuse", recording)
        monkeypatch.setattr(enc, "encode_agents", in_site("agent", enc.encode_agents))
        monkeypatch.setattr(enc, "encode_elements", in_site("element", enc.encode_elements))
        out = enc.encode_event(snippets, table, k)
        monkeypatch.undo()
        return out, calls

    @staticmethod
    def per_snippet(calls, counts, k):
        """Map the recorded grouped calls back to each snippet's kept rows:
        agent groups come in ascending count order, members in snippet order."""
        kept = {"agent": [None] * len(counts), "element": [None] * len(counts)}
        agent_groups = iter(np.unique([c for c in counts if c]))
        for site, n, keep in calls:
            if site == "agent":
                members = np.flatnonzero(np.asarray(counts) == next(agent_groups))
            else:
                members = np.arange(len(counts))
                assert n == k
            for j, member in enumerate(members):
                kept[site][member] = keep[keep // n == j] % n
        return kept

    def check(self, monkeypatch, enc, table, snippets, k, exact=False):
        """Values, every parameter's gradient and the kept indices at both
        sites against the loop: within 1e-12 relative, or bitwise."""
        counts = [s.agents.shape[0] for s in snippets]
        params = enc.params()
        weights = Tensor(np.random.default_rng(99).normal(size=(len(snippets), enc.d_emb)))
        out, calls = self.traced_kept(monkeypatch, enc, snippets, table, k)
        T.backward(T.tsum(out * weights))
        got = {name: p.grad for name, p in params.items()}
        T.zero_grads(params.values())
        want, want_kept = oracles.encode_event_loop(enc, snippets, table, k)
        T.backward(T.tsum(want * weights))
        pairs = [("values", out.values, want.values)]
        pairs += [(name, got[name], p.grad) for name, p in params.items()]
        T.zero_grads(params.values())
        for name, a, b in pairs:
            if b is None:
                assert a is None, name
            elif exact:
                np.testing.assert_array_equal(a, b, err_msg=name)
            else:
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max(),
                                           err_msg=name)
        kept = self.per_snippet(calls, counts, k)
        for site in ("agent", "element"):
            want_site = want_kept[site] or [None] * len(snippets)   # [] when off
            for got_keep, want_keep in zip(kept[site], want_site):
                if want_keep is None:
                    assert got_keep is None
                else:
                    np.testing.assert_array_equal(got_keep, want_keep)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_agent_counts_match_the_loop(self, monkeypatch, seed):
        enc, table, gen = self.build(seed)
        self.check(monkeypatch, enc, table, self.snippets(gen, [1, 2, 0, 3, 2, 0, 1, 3]), 3)

    @pytest.mark.parametrize("reloaded", [False, True], ids=["0-by-d_agent", "0-by-0"])
    def test_all_empty_agents_match_the_loop(self, monkeypatch, reloaded):
        enc, table, gen = self.build(3)
        self.check(monkeypatch, enc, table, self.snippets(gen, [0, 0, 0], reloaded), 3)

    def test_reloaded_empty_agents_match_the_loop(self, monkeypatch):
        enc, table, gen = self.build(4)
        snippets = self.snippets(gen, [2, 0, 1, 0, 3], reloaded=True)
        assert snippets[1].agents.shape == (0, 0)
        self.check(monkeypatch, enc, table, snippets, 3)

    @pytest.mark.parametrize("modalities", modality_subsets(), ids="+".join)
    def test_every_modality_subset_matches_the_loop(self, monkeypatch, modalities):
        enc, table, gen = self.build(5, modalities)
        self.check(monkeypatch, enc, table, self.snippets(gen, [1, 0, 3, 2, 1]), 3)

    @pytest.mark.parametrize("k", range(1, N_TOKENS + 1))
    def test_every_k_matches_the_loop(self, monkeypatch, k):
        enc, table, gen = self.build(6)
        self.check(monkeypatch, enc, table, self.snippets(gen, [3, 1, 0, 2]), k)

    @pytest.mark.parametrize("modalities", modality_subsets(), ids="+".join)
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_one_snippet_is_bitwise_the_loop(self, monkeypatch, modalities, count):
        enc, table, gen = self.build(7, modalities)
        self.check(monkeypatch, enc, table, self.snippets(gen, [count]), 3, exact=True)

    @staticmethod
    def node_count(enc, table, snippets):
        return len(T.toposort(enc.encode_event(snippets, table, 3)))

    @pytest.mark.parametrize("counts", [[2], [0], [1, 2, 0, 3], [3, 3, 0]])
    def test_tape_does_not_grow_with_the_snippet_count(self, counts):
        """Every distinct agent count appears at least twice in both calls,
        so each selection runs grouped in both and only S differs."""
        enc, table, gen = self.build(8)
        small = self.node_count(enc, table, self.snippets(gen, counts * 2))
        large = self.node_count(enc, table, self.snippets(gen, counts * 10))
        assert small == large

    def test_tape_grows_with_the_distinct_agent_counts(self):
        enc, table, gen = self.build(8)
        sizes = [self.node_count(enc, table, self.snippets(gen, list((1, 2, 3)[:n]) * 4))
                 for n in (1, 2, 3)]
        assert sizes[0] < sizes[1] < sizes[2]
        assert sizes[2] - sizes[1] == sizes[1] - sizes[0]


class TestEmbeddingTable:
    def test_round_trip_is_value_identical(self, rng, tmp_path):
        table = VocabEmbeddingTable(tokens=["a", "b", "c"],
                                    text_features=rng.normal(size=(3, 4)),
                                    w_text=rng.normal(size=(4, 4)),
                                    w_image=rng.normal(size=(4, 4)))
        path = tmp_path / "table.json"
        table.save(str(path))
        back = VocabEmbeddingTable.load(str(path))
        assert back.tokens == table.tokens
        np.testing.assert_array_equal(back.text_features, table.text_features)
        np.testing.assert_array_equal(back.w_text, table.w_text)
        np.testing.assert_array_equal(back.w_image, table.w_image)

    def test_file_schema_is_exactly_four_keys(self, rng, tmp_path):
        table = VocabEmbeddingTable(tokens=["a"], text_features=np.ones((1, 2)),
                                    w_text=np.eye(2), w_image=np.eye(2))
        path = tmp_path / "table.json"
        table.save(str(path))
        payload = json.loads(path.read_text())
        assert set(payload) == {"tokens", "text_features", "W_t", "W_i"}

    def test_non_finite_values_rejected_with_the_file(self, tmp_path):
        table = VocabEmbeddingTable(tokens=["a", "b"], text_features=np.ones((2, 2)),
                                    w_text=np.eye(2), w_image=np.eye(2))
        path = tmp_path / "table.json"
        for key in ("text_features", "W_t", "W_i"):
            table.save(str(path))
            payload = json.loads(path.read_text())
            payload[key][1][0] = float("nan")
            path.write_text(json.dumps(payload))
            with pytest.raises(ValidationError,
                               match=rf"table\.json: {key} holds a non-finite value"):
                VocabEmbeddingTable.load(str(path))
        path.write_text("5")
        with pytest.raises(ValidationError, match=r"table\.json: table must be"):
            VocabEmbeddingTable.load(str(path))

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValidationError):
            VocabEmbeddingTable(tokens=["a", "b"], text_features=np.ones((3, 2)),
                                w_text=np.eye(2), w_image=np.eye(2))
