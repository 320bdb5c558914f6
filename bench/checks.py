"""Correctness checks of the benchmark, run outside its timed region.

Each check compares the program's output with an independent computation
or a required property, never with a stored copy of earlier output. A
check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import copy
import sys

import numpy as np

from paracap import losses as L
from paracap import tensor as T
from paracap.data import BOS_ID, EOS_ID
from paracap.decoder import EventMemory
from paracap.gradcheck import END_TO_END_TOL

import oracles

FD_STEP = 1e-5           # central-difference step of tensor.finite_diff_check
TIE_TOL = 1e-9           # logits this close to the row max count as tied
SCORE_TOL = 1e-12


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality: same shape, dtype and bytes."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def manifest_round_trip(written, loaded) -> list:
    """Loaded records carry bitwise the same values as the written ones.

    JSON cannot carry the width of an empty matrix, so a snippet without
    agents reloads as a (0, 0) array; only its row count is compared.
    """
    problems = []
    if len(written) != len(loaded):
        return [f"{len(written)} videos written, {len(loaded)} loaded"]
    for w, r in zip(written, loaded):
        if w.video_id != r.video_id or len(w.events) != len(r.events):
            problems.append(f"{w.video_id}: id or event count changed")
            continue
        for ew, er in zip(w.events, r.events):
            if (ew.begin, ew.end, ew.caption) != (er.begin, er.end, er.caption) \
                    or len(ew.snippets) != len(er.snippets):
                problems.append(f"{w.video_id}: event fields changed")
                continue
            for sw, sr in zip(ew.snippets, er.snippets):
                agents_ok = (same_array(sw.agents, sr.agents)
                             or sw.agents.shape[0] == sr.agents.shape[0] == 0)
                if not (same_array(sw.env, sr.env) and same_array(sw.frame, sr.frame)
                        and agents_ok):
                    problems.append(f"{w.video_id}: snippet values changed")
    return problems


def checkpoint_round_trip(built, loaded, vocab_tokens, stored_tokens) -> list:
    """The reloaded model has the same config, vocabulary and bitwise parameters."""
    problems = []
    if built.config != loaded.config:
        problems.append("checkpoint config changed")
    if list(vocab_tokens) != list(stored_tokens or []):
        problems.append("checkpoint vocabulary changed")
    a, b = built.named_params(), loaded.named_params()
    if sorted(a) != sorted(b):
        return problems + ["checkpoint parameter names changed"]
    bad = [k for k in a if not same_array(a[k].values, b[k].values)]
    if bad:
        problems.append(f"checkpoint parameters changed: {bad[:3]}")
    return problems


def first_batch(n_records: int, batch_size: int, seed: int) -> list:
    """Video indices of the first batch ``training.train`` draws for this seed."""
    order = np.random.default_rng(seed).permutation(n_records)
    return [int(i) for i in order[:batch_size]]


def gradient_spot_check(model, records, table, vocab, batch_ids, loss_cfg,
                        n_coords: int, seed: int) -> list:
    """Central differences at sampled parameter coordinates on one batch.

    The objective is the one training optimizes for that batch: the mean
    per-event captioning loss plus, when enabled, the alignment loss over
    every event of the batch. The decoder memory is detached on purpose,
    so backward differentiates with stored event states held fixed; the
    differences here hold them fixed too, at the states the current
    parameters produce (as ``gradcheck.run_end_to_end_check`` does).
    Coordinates are sampled with probability proportional to the size of
    their analytic gradient, so the check lands where gradient flows.
    """
    cfg = model.config
    plan = []
    with T.no_grad():
        for vi in batch_ids:
            rec = records[vi]
            memory = EventMemory(cfg.n_layers)
            events = []
            for ev in rec.events:
                tokens = model.event_tokens(ev, vocab)
                events.append((ev, tokens, copy.deepcopy(memory)))
                rows = model.encoder.encode_event(ev.snippets, table, cfg.k)
                model.decoder.forward_event(rows, [BOS_ID] + tokens, memory,
                                            update_memory=True)
            plan.append((rec, events))

    def objective():
        cap_terms, event_vecs, caption_vecs = [], [], []
        for rec, events in plan:
            summaries = []
            for ev, tokens, memory in events:
                rows = model.encoder.encode_event(ev.snippets, table, cfg.k)
                logits, f_event = model.decoder.forward_event(
                    rows, [BOS_ID] + tokens, memory, update_memory=False)
                total, _, _ = L.captioning_loss(
                    logits, np.array(tokens + [EOS_ID], dtype=np.intp), loss_cfg)
                cap_terms.append(total)
                summaries.append(f_event)
            event_vecs.append(T.stack(summaries, axis=0))
            if loss_cfg.use_contrastive:
                caption_vecs.append(model.caption_embeddings(rec, vocab))
        loss = T.tmean(T.stack(cap_terms))
        if loss_cfg.use_contrastive:
            loss = loss + L.contrastive_loss(T.concat(event_vecs, axis=0),
                                             T.concat(caption_vecs, axis=0), model.rho)
        return loss

    params = model.named_params()
    T.zero_grads(params.values())
    loss = objective()
    if not np.isfinite(loss.values):
        return [f"first-batch loss is not finite: {float(loss.values)}"]
    T.backward(loss)
    names = sorted(params)
    grads = [np.zeros(params[k].size) if params[k].grad is None
             else params[k].grad.ravel().copy() for k in names]
    T.zero_grads(params.values())
    weights = np.concatenate([np.abs(g) for g in grads])
    if weights.sum() == 0.0:
        return ["first-batch gradient is identically zero"]
    offsets = np.cumsum([0] + [g.size for g in grads])
    picks = np.random.default_rng(seed).choice(weights.size, size=n_coords,
                                               replace=False, p=weights / weights.sum())
    problems, worst = [], 0.0
    with T.no_grad():
        for flat in sorted(int(i) for i in picks):
            j = int(np.searchsorted(offsets, flat, side="right")) - 1
            name, i = names[j], flat - offsets[j]
            values = params[name].values.reshape(-1)
            orig = values[i]
            values[i] = orig + FD_STEP
            up = float(objective().values)
            values[i] = orig - FD_STEP
            down = float(objective().values)
            values[i] = orig
            central = (up - down) / (2.0 * FD_STEP)
            err = abs(grads[j][i] - central) / max(1.0, abs(central))
            worst = max(worst, err)
            if not err <= END_TO_END_TOL:
                problems.append(f"{name}[{i}]: analytic {grads[j][i]:.3e} vs "
                                f"central {central:.3e} (rel err {err:.2e})")
    print(f"bench: gradient spot check: worst rel err {worst:.2e} over {n_coords} "
          f"coordinates (tolerance {END_TO_END_TOL:g})", file=sys.stderr)
    return problems


def training_history(history) -> list:
    """Every epoch's losses are finite and the caption loss went down."""
    if len(history) < 2:
        return [f"only {len(history)} epochs trained"]
    problems = []
    for s in history:
        if not all(np.isfinite([s.l_cap, s.l_con, s.tau, s.acc])):
            problems.append(f"epoch {s.epoch}: non-finite statistics")
    if not history[-1].l_cap < history[0].l_cap:
        problems.append(f"caption loss did not fall: {history[0].l_cap:.4f} -> "
                        f"{history[-1].l_cap:.4f}")
    return problems


def greedy_property(model, records, table, decoded, max_len: int) -> list:
    """Each decoded id is the argmax of a teacher-forced pass over its prefix.

    One teacher-forced ``forward_event`` per event replays the decoded
    sentence (plus EOS when one was emitted); causality makes row i of
    its logits the prediction from the first i+1 inputs. The replay
    commits the same rows to memory that decoding committed. Ties go to
    the lowest id; logits within ``TIE_TOL`` of the row max count as a
    tie broken by rounding. A caption ends at EOS or at the cap.
    """
    problems = []
    cfg = model.config
    with T.no_grad():
        for rec, sentences in zip(records, decoded):
            memory = EventMemory(cfg.n_layers)
            for ei, (ev, ids) in enumerate(zip(rec.events, sentences)):
                where = f"{rec.video_id} event {ei}"
                if len(ids) > max_len or EOS_ID in ids:
                    problems.append(f"{where}: {len(ids)} ids past the cap or EOS")
                    continue
                targets = ids + ([EOS_ID] if len(ids) < max_len else [])
                rows = model.encoder.encode_event(ev.snippets, table, cfg.k)
                logits, _ = model.decoder.forward_event(
                    rows, [BOS_ID] + targets, memory, update_memory=True)
                for pos, want in enumerate(targets):
                    row = logits.values[pos]
                    top = row.max()
                    tied_ok = row[want] < top or want == int(np.argmax(row))
                    if not (row[want] >= top - TIE_TOL * max(1.0, abs(top)) and tied_ok):
                        problems.append(f"{where} position {pos}: id {want} is not "
                                        f"the argmax {int(np.argmax(row))}")
                        break
    return problems


def scores_match_oracles(pairs, report: dict) -> list:
    """BLEU-4 and ROUGE-L of the report equal the loop references."""
    flat = [(h, r) for p in pairs for h, r in zip(p.hyps, p.refs)]
    bleu = oracles.bleu4_loop(flat)
    rouge = float(np.mean([np.mean([oracles.rouge_l_sentence_loop(h, r)
                                    for h, r in zip(p.hyps, p.refs)]) for p in pairs]))
    problems = []
    for key, want in (("bleu4", bleu), ("rouge_l", rouge)):
        if not abs(report[key] - want) <= SCORE_TOL * max(1.0, abs(want)):
            problems.append(f"{key} {report[key]!r} differs from the loop "
                            f"reference {want!r}")
    return problems
