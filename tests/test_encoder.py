import json

import numpy as np
import pytest

import oracles
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
        fused, kept = select_and_fuse(features, Tensor(rng.normal(size=4)),
                                      attn, return_indices=True)
        np.testing.assert_array_equal(kept, [0])
        expected = attn(T.take_rows(features, [0])).values.mean(axis=0)
        np.testing.assert_allclose(fused.values, expected, atol=1e-15)

    def test_identical_rows_fall_back_to_one_row(self, rng):
        attn = make_attn(rng, 5)
        row = rng.normal(size=5)
        features = Tensor(np.tile(row, (4, 1)))
        fused, kept = select_and_fuse(features, Tensor(rng.normal(size=5)),
                                      attn, return_indices=True)
        assert kept.size == 1

    def test_matches_loop_oracle(self, rng):
        attn = make_attn(rng, 4)
        features = Tensor(rng.normal(size=(3, 4)))
        reference = Tensor(rng.normal(size=4))
        fused, kept = select_and_fuse(features, reference, attn,
                                      return_indices=True)
        expected, kept_oracle = oracles.select_and_fuse_loop(
            features.values, reference.values, *attn_weights(attn))
        assert list(kept) == kept_oracle
        np.testing.assert_allclose(fused.values, expected, atol=1e-9)

    def test_gradient_only_through_selected_rows(self, rng):
        attn = make_attn(rng, 4)
        features = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        fused, kept = select_and_fuse(features, Tensor(rng.normal(size=4)),
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
            select_and_fuse(Tensor(np.zeros((0, 4))), Tensor(np.zeros(4)), attn)
        with pytest.raises(ShapeError):
            select_and_fuse(Tensor(np.zeros((2, 4))), Tensor(np.zeros(3)), attn)


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
                                         Tensor(reference.values[i]), attn,
                                         return_indices=True)
            np.testing.assert_allclose(fused.values[i], want.values, rtol=0, atol=1e-12)
            want_kept.extend(i * n + keep)
            if i in tied:
                np.testing.assert_array_equal(keep, [0])
        np.testing.assert_array_equal(kept, want_kept)
        if len(tied) < g and n > 2:
            # the untied groups include one that keeps several rows
            assert np.bincount(kept // n, minlength=g).max() >= 2

    def test_one_group_keeps_the_reference_rank(self, rng):
        attn = make_attn(rng, 4)
        features = Tensor(rng.normal(size=(3, 4)))
        reference = rng.normal(size=4)
        vector = select_and_fuse(features, Tensor(reference), attn)
        matrix = select_and_fuse(features, Tensor(reference[None, :]), attn)
        assert vector.shape == (4,) and matrix.shape == (1, 4)
        np.testing.assert_array_equal(matrix.values[0], vector.values)

    @pytest.mark.parametrize("features, reference", [
        (np.zeros((7, 4)), np.zeros((2, 4))),      # 7 rows do not split into 2 groups
        (np.zeros((6, 4)), np.zeros((2, 3))),      # reference width 3, features 4
        (np.zeros((6, 4)), np.zeros((2, 3, 4))),   # 3-D reference
        (np.zeros((6, 4)), np.zeros((0, 4))),      # no groups
    ], ids=["indivisible", "width", "rank", "empty"])
    def test_bad_grouping_raises_shape_error(self, rng, features, reference):
        with pytest.raises(ShapeError):
            select_and_fuse(Tensor(features), Tensor(reference), make_attn(rng, 4))


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
        rows, idx = select_scene_elements(table.text_features[3], table, k=2)
        assert idx[0] == 3
        np.testing.assert_array_equal(rows[0], table.text_features[3])

    def test_k_equals_m_returns_similarity_order(self, rng):
        table = self.make_table(rng)
        frame = rng.normal(size=6)
        rows, idx = select_scene_elements(frame, table, k=8)
        expected = oracles.top_k_cosine_loop(frame, table.text_features,
                                             table.w_text, table.w_image, 8)
        assert list(idx) == expected

    def test_matches_brute_force_oracle(self, rng):
        d = 6
        table = VocabEmbeddingTable(tokens=[f"tok{i}" for i in range(8)],
                                    text_features=rng.normal(size=(8, d)),
                                    w_text=rng.normal(size=(d, d)),
                                    w_image=rng.normal(size=(d, d)))
        for _ in range(20):
            frame = rng.normal(size=d)
            rows, idx = select_scene_elements(frame, table, k=3)
            expected = oracles.top_k_cosine_loop(frame, table.text_features,
                                                 table.w_text, table.w_image, 3)
            assert list(idx) == expected
            np.testing.assert_array_equal(rows, table.text_features[expected])

    def test_k_out_of_range_rejected(self, rng):
        table = self.make_table(rng)
        with pytest.raises(ValidationError):
            select_scene_elements(np.zeros(6), table, k=9)
        with pytest.raises(ValidationError):
            select_scene_elements(np.zeros(6), table, k=0)


class TestFuseModalities:
    def test_identical_inputs_collapse_to_common_output(self, rng):
        attn = make_attn(rng, 4)
        v = Tensor(rng.normal(size=4))
        fused = fuse_modalities([v, v, v], attn)
        common = attn(T.stack([v, v, v], axis=0)).values[0]
        np.testing.assert_allclose(fused.values, common, atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        attn = make_attn(rng, 4)
        vecs = [Tensor(rng.normal(size=4)) for _ in range(3)]
        fused = fuse_modalities(vecs, attn)
        stacked = np.stack([v.values for v in vecs])
        expected = oracles.attention_loop(stacked, *attn_weights(attn)).mean(axis=0)
        np.testing.assert_allclose(fused.values, expected, atol=1e-9)

    def test_rejects_fewer_than_two(self, rng):
        attn = make_attn(rng, 4)
        with pytest.raises(ShapeError):
            fuse_modalities([Tensor(np.zeros(4))], attn)


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
        out = enc.encode_agents(np.zeros((0, 4)), Tensor(np.zeros(8)))
        np.testing.assert_array_equal(out.values, np.zeros(8))

    def test_env_only_bypasses_fusion(self, rng):
        enc = self.make_encoder(1, modalities=("env",))
        table = self.make_table(2)
        snippet = self.make_snippet(rng)
        out = enc.encode_snippet(snippet, table, k=3)
        expected = enc.encode_environment(snippet.env)
        np.testing.assert_allclose(out.values, expected.values, atol=1e-15)

    def test_full_fusion_composes_the_three_summaries(self, rng):
        enc = self.make_encoder(1)
        table = self.make_table(2)
        snippet = self.make_snippet(rng)
        out = enc.encode_snippet(snippet, table, k=3)
        f_env = enc.encode_environment(snippet.env)
        f_agent = enc.encode_agents(snippet.agents, f_env)
        rows, _ = select_scene_elements(snippet.frame, table, 3)
        f_ling = enc.encode_elements(rows, f_env)
        expected = fuse_modalities([f_env, f_agent, f_ling], enc.attn)
        np.testing.assert_allclose(out.values, expected.values, atol=1e-12)

    def test_empty_agent_matrix_fuses_a_zero_row(self, rng):
        enc = self.make_encoder(1)
        table = self.make_table(2)
        snippet = SnippetInput(env=rng.normal(size=5),
                               agents=np.zeros((0, 4)),
                               frame=rng.normal(size=6))
        out = enc.encode_snippet(snippet, table, k=3)
        f_env = enc.encode_environment(snippet.env)
        rows, _ = select_scene_elements(snippet.frame, table, 3)
        f_ling = enc.encode_elements(rows, f_env)
        expected = fuse_modalities([f_env, Tensor(np.zeros(8)), f_ling],
                                   enc.attn)
        np.testing.assert_allclose(out.values, expected.values, atol=1e-12)

    def test_event_rows_are_per_snippet(self, rng):
        enc = self.make_encoder(1)
        table = self.make_table(2)
        s1 = self.make_snippet(rng)
        s2 = self.make_snippet(rng, n_agents=1)
        rows = enc.encode_event([s1, s2, s1], table, k=3)
        assert rows.shape == (3, 8)
        np.testing.assert_array_equal(rows.values[0], rows.values[2])
        one = enc.encode_snippet(s2, table, k=3)
        np.testing.assert_allclose(rows.values[1], one.values, atol=1e-15)

    def test_all_modalities_disabled_rejected(self):
        with pytest.raises(ValidationError, match="one or more distinct names"):
            ModelConfig(d_env=5, d_agent=4, d_frame=6, vocab_size=8, modalities=())


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
