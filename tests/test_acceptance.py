"""Acceptance scorecard: ten checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the scorecard
lines; each test also asserts its condition, so a plain run fails loudly.
The directional checks (7-9) train small models from fixed seeds, which
keeps every number here bitwise reproducible; the whole file takes a few
minutes of one CPU core.
"""

import itertools
import time

import numpy as np
import pytest

import oracles
from paracap import gradcheck
from paracap import metrics as M
from paracap import tensor as T
from paracap.data import SyntheticWorldSpec, build_vocab, generate_synthetic
from paracap.decoder import CaptionDecoder, EventMemory
from paracap.encoder import MODALITIES, fuse_modalities, select_and_fuse
from paracap.losses import LossConfig
from paracap.model import CaptionModel, ModelConfig
from paracap.nn import Embedding, SelfAttention
from paracap.tensor import Tensor
from paracap.training import TrainConfig, decode_pairs, train

pytestmark = pytest.mark.slow


def _verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def _model_for(corpus, vocab, nudge=0, **overrides):
    """A model sized to ``corpus``, every initial weight scaled by
    1 + nudge·2⁻⁵² (exactly 1 at nudge 0)."""
    first = corpus.train[0].events[0].snippets[0]
    d_agent = first.agents.shape[1] if first.agents.shape[0] else 10
    config = ModelConfig(d_env=first.env.shape[0], d_agent=d_agent,
                         d_frame=first.frame.shape[0],
                         vocab_size=len(vocab), **overrides)
    model = CaptionModel(config)
    for p in model.named_params().values():
        p.values *= 1.0 + nudge * 2.0 ** -52
    return model


def _corpus_vocab(spec):
    corpus = generate_synthetic(spec)
    vocab = build_vocab(ev.caption for rec in corpus.train
                        for ev in rec.events)
    return corpus, vocab


def memorize(nudge=0):
    """Criterion 5's memorization run, weights nudged as in ``_model_for``:
    (corpus, vocab, model, per-epoch stats, training seconds)."""
    corpus, vocab = _corpus_vocab(SyntheticWorldSpec(
        n_videos=16, n_held_out=0, events_per_video=3,
        snippets_per_event=2, seed=5))
    model = _model_for(corpus, vocab, nudge, d_emb=32, n_layers=2, n_heads=4,
                       max_pos=24, seed=5)
    start = time.monotonic()
    stats = train(model, corpus.train, corpus.table, vocab,
                  TrainConfig(lr=2e-3, warmup_epochs=2, epochs=300,
                              batch_size=4, seed=5),
                  LossConfig(), callback=lambda s: s.acc >= 0.98)
    elapsed = time.monotonic() - start
    return corpus, vocab, model, stats, elapsed


def criterion5(run):
    """Criterion 5 on a ``memorize`` run: (passed, the compared numbers)."""
    corpus, vocab, model, stats, elapsed = run
    n = {"accuracy": stats[-1].acc,
         "bleu4": M.bleu4(decode_pairs(model, corpus.train, corpus.table, vocab)),
         "epochs": len(stats), "seconds": elapsed, "vocab": len(vocab)}
    ok = n["vocab"] <= 50 and n["accuracy"] >= 0.98 and n["bleu4"] >= 0.9 \
        and n["epochs"] <= 300 and n["seconds"] < 300.0
    return ok, n


def criterion6(run):
    """Criterion 6 on a ``memorize`` run: (passed, the compared numbers)."""
    corpus, vocab, model, _, _ = run
    events, captions = [], []
    with T.no_grad():
        for rec in corpus.train:
            fwd = model.forward_video(rec, corpus.table, vocab)
            events.append(fwd.event_embeddings.values)
            captions.append(model.caption_embeddings(rec, vocab).values)
    E = np.concatenate(events, axis=0)
    C = np.concatenate(captions, axis=0)
    E = E / np.linalg.norm(E, axis=1, keepdims=True)
    C = C / np.linalg.norm(C, axis=1, keepdims=True)
    sims = E @ C.T
    m = sims.shape[0]
    positive = float(np.trace(sims) / m)
    negative = float((sims.sum() - np.trace(sims)) / (m * m - m))
    n = {"aligned": positive, "mismatched": negative, "separation": positive - negative}
    return n["separation"] >= 0.1, n


def criterion7(nudge=0):
    """Criterion 7's repetition-penalty comparison, weights nudged as in
    ``_model_for``: (passed, the compared numbers)."""
    # Both arms train to convergence (300 epochs; train BLEU reaches
    # roughly 0.5-0.9).  At shorter budgets decode repetition mostly
    # measures undertrained babble, which the penalty does not target;
    # at convergence it reflects the penalty's bias away from repeated
    # phrasing, which is the effect under test.
    means = {}
    for lam in (0.1, 0.0):
        scores = []
        for i in range(3):
            corpus, vocab = _corpus_vocab(SyntheticWorldSpec(
                n_videos=8, n_held_out=0, events_per_video=3,
                repetition_prone=True, seed=100 + i))
            model = _model_for(corpus, vocab, nudge, d_emb=16, n_layers=1,
                               n_heads=2, max_pos=24, seed=i)
            train(model, corpus.train, corpus.table, vocab,
                  TrainConfig(lr=2e-3, warmup_epochs=2, epochs=300,
                              batch_size=4, seed=i),
                  LossConfig(lam=lam))
            rep, skipped = M.rep4(decode_pairs(model, corpus.train,
                                               corpus.table, vocab))
            assert rep is not None and skipped == 0
            scores.append(rep)
        means[lam] = float(np.mean(scores))
    n = {"penalized": means[0.1], "plain": means[0.0]}
    return n["penalized"] <= n["plain"], n


def criterion8(nudge=0):
    """Criterion 8's all-modalities-against-environment-only comparison,
    weights nudged as in ``_model_for``: (passed, the compared numbers)."""
    scores = {"full": [], "env": []}
    for i in range(3):
        corpus, vocab = _corpus_vocab(SyntheticWorldSpec(
            n_agent_kinds=3, n_action_kinds=3, n_place_kinds=3,
            n_videos=12, n_held_out=4, events_per_video=2,
            snippets_per_event=2, max_agents=1, seed=200 + i))
        for name, modalities in (("full", list(MODALITIES)),
                                 ("env", ["env"])):
            model = _model_for(corpus, vocab, nudge, d_emb=24, n_layers=1,
                               n_heads=2, max_pos=24, seed=i,
                               modalities=modalities)
            train(model, corpus.train, corpus.table, vocab,
                  TrainConfig(lr=2e-3, warmup_epochs=2, epochs=120,
                              batch_size=4, seed=i),
                  LossConfig())
            scores[name].append(M.bleu4(decode_pairs(
                model, corpus.held_out, corpus.table, vocab)))
    n = {name: float(np.mean(values)) for name, values in scores.items()}
    return n["full"] >= n["env"], n


def criterion9(nudge=0):
    """Criterion 9's alignment-against-plain-MLE comparison, weights nudged
    as in ``_model_for``: (passed, the compared numbers)."""
    def world(seed):
        return _corpus_vocab(SyntheticWorldSpec(
            n_agent_kinds=2, n_action_kinds=2, n_place_kinds=2,
            n_videos=12, n_held_out=4, events_per_video=2,
            snippets_per_event=2, max_agents=1, seed=seed))

    # The alignment term pairs each event with its own caption, so a
    # video that tells the same sentence twice would label identical
    # texts as both match and mismatch. Keep the first three worlds
    # whose videos all have distinct captions.
    picked, seed = [], 300
    while len(picked) < 3:
        corpus, vocab = world(seed)
        if all(len(set(ev.caption for ev in rec.events))
               == len(rec.events) for rec in corpus.train):
            picked.append((corpus, vocab))
        seed += 1

    scores = {True: [], False: []}
    for i, (corpus, vocab) in enumerate(picked):
        for use_contrastive in (True, False):
            model = _model_for(corpus, vocab, nudge, d_emb=24, n_layers=1,
                               n_heads=2, max_pos=24, seed=i)
            train(model, corpus.train, corpus.table, vocab,
                  TrainConfig(lr=2e-3, warmup_epochs=2, epochs=250,
                              batch_size=1, seed=i),
                  LossConfig(use_contrastive=use_contrastive))
            scores[use_contrastive].append(M.bleu4(decode_pairs(
                model, corpus.held_out, corpus.table, vocab)))
    n = {"with_alignment": float(np.mean(scores[True])),
         "plain": float(np.mean(scores[False]))}
    return n["with_alignment"] >= n["plain"] - 0.02, n


@pytest.fixture(scope="module")
def overfit_run():
    """Memorization run shared by the accuracy and separation checks."""
    return memorize()


class TestCriterion1:
    def test_gradients_match_finite_differences(self):
        start = time.monotonic()
        primitives = gradcheck.run_primitive_checks()
        end_to_end = gradcheck.run_end_to_end_check()
        elapsed = time.monotonic() - start
        worst_prim = max(primitives.values())
        worst_full = max(end_to_end.values())
        ok = worst_prim <= 1e-6 and worst_full <= 1e-4 and elapsed < 60.0
        _verdict(1, ok,
                 f"primitive worst rel err {worst_prim:.2e} (≤1e-6), "
                 f"end-to-end worst {worst_full:.2e} (≤1e-4), "
                 f"{elapsed:.1f}s (<60s)")


class TestCriterion2:
    def test_selection_matches_the_loop_oracle(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for case in range(100):
            d = int(rng.integers(2, 17))
            if case < 80:
                features = rng.normal(size=(int(rng.integers(2, 9)), d))
            elif case < 90:
                features = rng.normal(size=(1, d))
            else:
                features = np.tile(rng.normal(size=d),
                                   (int(rng.integers(2, 9)), 1))
            reference = rng.normal(size=d)
            attn = SelfAttention(rng, d)
            fused, kept = select_and_fuse(Tensor(features), Tensor(reference[None]),
                                          attn, return_indices=True)
            expected, kept_oracle = oracles.select_and_fuse_loop(
                features, reference, attn.wq.values, attn.wk.values,
                attn.wv.values)
            assert list(kept) == kept_oracle
            worst = max(worst, float(np.abs(fused.values[0] - expected).max()))
        ok = worst <= 1e-9
        _verdict(2, ok, f"100 selection instances (incl. single-row and "
                        f"identical-row fallbacks), worst |Δ| {worst:.2e}")


class TestCriterion3:
    def test_fusion_is_permutation_invariant(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 17))
            attn = SelfAttention(rng, d)
            vectors = [Tensor(rng.normal(size=(1, d))) for _ in range(3)]
            base = fuse_modalities(vectors, attn).values
            for perm in itertools.permutations(range(3)):
                out = fuse_modalities([vectors[i] for i in perm], attn).values
                worst = max(worst, float(np.abs(out - base).max()))
        ok = worst <= 1e-9
        _verdict(3, ok, f"100 triples x 6 orderings, worst |Δ| {worst:.2e}")


class TestCriterion4:
    def _decoder(self, seed=4, d=8, vocab_n=9):
        rng = np.random.default_rng(seed)
        return CaptionDecoder(rng, Embedding(rng, vocab_n, d), d, 2, 2, 1,
                              vocab_n, 32)

    def test_causality_and_memory_detachment(self):
        dec = self._decoder()
        rng = np.random.default_rng(40)
        rows = Tensor(rng.normal(size=(2, 8)))

        # A later token must not move earlier positions' logits.
        base = dec.forward_event(rows, [1, 5, 6, 2], EventMemory(2),
                                 update_memory=False)[0].values
        bent = dec.forward_event(rows, [1, 5, 6, 7], EventMemory(2),
                                 update_memory=False)[0].values
        intra = float(np.abs(bent[:3] - base[:3]).max())

        # A later event must not move an earlier event's logits.
        def first_event_logits(second_tokens):
            memory = EventMemory(2)
            logits = dec.forward_event(rows, [1, 5, 6], memory,
                                       update_memory=True)[0].values
            dec.forward_event(rows, second_tokens, memory,
                              update_memory=False)
            return logits

        inter = float(np.abs(first_event_logits([1, 7])
                             - first_event_logits([1, 8])).max())

        # Gradients from a later event stop at the stored memory: the
        # earlier event's inputs receive none.
        rows1 = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        memory = EventMemory(2)
        dec.forward_event(rows1, [1, 5, 6], memory, update_memory=True)
        logits2, _ = dec.forward_event(Tensor(rng.normal(size=(2, 8))),
                                       [1, 7], memory, update_memory=False)
        T.backward(T.tsum(logits2 * logits2))
        leak = 0.0 if rows1.grad is None else float(np.abs(rows1.grad).max())
        grad5 = dec.word_embed.table.grad[5]
        embed_leak = float(np.abs(grad5).max()) if grad5 is not None else 0.0

        ok = intra <= 1e-9 and inter <= 1e-9 and leak == 0.0 \
            and embed_leak == 0.0
        _verdict(4, ok,
                 f"future-token |Δ| {intra:.1e}, future-event |Δ| "
                 f"{inter:.1e}, gradient into earlier event "
                 f"{max(leak, embed_leak):.1e}")


class TestCriterion5:
    def test_overfit_run_memorizes_the_corpus(self, overfit_run):
        ok, n = criterion5(overfit_run)
        _verdict(5, ok,
                 f"teacher-forced accuracy {n['accuracy']:.4f} (≥0.98), train "
                 f"BLEU-4 {n['bleu4']:.4f} (≥0.9) after {n['epochs']} epochs in "
                 f"{n['seconds']:.0f}s, vocab {n['vocab']}")


class TestCriterion6:
    def test_aligned_pairs_separate_from_mismatched(self, overfit_run):
        ok, n = criterion6(overfit_run)
        _verdict(6, ok,
                 f"mean aligned cosine {n['aligned']:.4f} vs mismatched "
                 f"{n['mismatched']:.4f}, separation {n['separation']:.4f} "
                 f"(≥0.1)")


class TestCriterion7:
    def test_repetition_penalty_lowers_repeat_rate(self):
        ok, n = criterion7()
        _verdict(7, ok,
                 f"repeated-4-gram rate λ=0.1 {n['penalized']:.4f} ≤ λ=0 "
                 f"{n['plain']:.4f} over 3 seeds")


class TestCriterion8:
    def test_all_modalities_beat_environment_only(self):
        ok, n = criterion8()
        _verdict(8, ok, f"held-out BLEU-4 all modalities {n['full']:.4f} ≥ "
                        f"environment-only {n['env']:.4f} over 3 seeds")


class TestCriterion9:
    def test_alignment_loss_is_non_inferior_to_plain_mle(self):
        ok, n = criterion9()
        _verdict(9, ok,
                 f"held-out BLEU-4 with alignment {n['with_alignment']:.4f} ≥ "
                 f"plain MLE {n['plain']:.4f} − 0.02 over 3 seeds")


class TestCriterion10:
    def test_metric_fixtures_score_exactly(self):
        def pair(*event_pairs):
            return M.ParagraphPair(hyps=[h for h, _ in event_pairs],
                                   refs=[r for _, r in event_pairs])

        sentence = ["the", "dog", "runs", "in", "the", "park"]
        identity = [pair((sentence, sentence))]
        disjoint = [pair((["x", "y", "z", "w", "v"],
                          ["a", "b", "c", "d", "e"]))]
        cat_mat = [pair((["the", "cat", "sat", "on", "the", "mat"],
                         ["the", "cat", "sat", "on", "a", "mat"]))]
        short = [pair((["a", "b", "c", "d"], ["a", "b", "c", "d", "e", "f"]))]
        rouge_case = [pair((["a", "b", "c", "d", "e"],
                            ["a", "b", "c", "e"]))]

        checks = [
            ("identity bleu4", M.bleu4(identity) == 1.0),
            ("identity rouge_l", M.rouge_l(identity) == 1.0),
            ("disjoint bleu4", 0.0 < M.bleu4(disjoint) < 1e-8),
            ("disjoint rouge_l", M.rouge_l(disjoint) == 0.0),
            ("worked bleu4", abs(M.bleu4(cat_mat) - (1.0 / 12.0) ** 0.25)
             < 1e-6),
            ("brevity penalty", abs(M.bleu4(short) - np.exp(1.0 - 6.0 / 4.0))
             < 1e-12),
            ("worked rouge_l", abs(M.rouge_l(rouge_case)
                                   - 2.44 * 1.0 * 0.8 / (1.0 + 1.44 * 0.8))
             < 1e-12),
            ("div2", M.div2([pair((["a", "a", "a", "a"], ["a"]))])
             == (1.0 / 3.0, 0)),
            ("rep4 run", M.rep4([pair((["w"] * 5, ["w"]))]) == (0.5, 0)),
            ("rep4 split", M.rep4([pair((["a", "b", "c", "d", "x",
                                          "a", "b", "c", "d"], ["a"]))])
             == (1.0 / 6.0, 0)),
        ]
        failed = [name for name, good in checks if not good]
        ok = not failed
        _verdict(10, ok, "all 10 hand fixtures exact" if ok
                 else f"failed fixtures: {', '.join(failed)}")
