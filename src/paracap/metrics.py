"""Paragraph-level caption metrics.

Sentence quality is scored per event (corpus-level BLEU with up-to-4-gram
precision, mean LCS-based F); repetition and diversity are scored per
video on the concatenated hypothesis paragraph, since those effects only
show up across sentences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

BLEU_EPS = 1e-9
ROUGE_BETA = 1.2


@dataclass
class ParagraphPair:
    """Hypothesis and reference token lists for one video, one list per event."""

    hyps: list
    refs: list

    def __post_init__(self):
        if len(self.hyps) != len(self.refs):
            raise ValidationError(f"{len(self.hyps)} hypothesis events vs "
                                  f"{len(self.refs)} reference events")
        if not self.refs:
            raise ValidationError("a paragraph pair needs at least one event")

    @property
    def hyp_paragraph(self) -> list:
        out = []
        for h in self.hyps:
            out.extend(h)
        return out


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu4(pairs) -> float:
    """Corpus BLEU over all events with add-epsilon smoothed precisions."""
    if not pairs:
        raise ValidationError("bleu4 needs at least one paragraph pair")
    clipped = [0] * 4
    totals = [0] * 4
    hyp_len = 0
    ref_len = 0
    for pair in pairs:
        for hyp, ref in zip(pair.hyps, pair.refs):
            hyp_len += len(hyp)
            ref_len += len(ref)
            for n in range(1, 5):
                hc = _ngrams(hyp, n)
                rc = _ngrams(ref, n)
                totals[n - 1] += sum(hc.values())
                clipped[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
    if hyp_len == 0:
        return 0.0
    log_p = sum(np.log((clipped[i] + BLEU_EPS) / (totals[i] + BLEU_EPS))
                for i in range(4)) / 4.0
    bp = 1.0 if hyp_len > ref_len else float(np.exp(1.0 - ref_len / hyp_len))
    return float(bp * np.exp(log_p))


def _lcs_len(a, b) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(pairs) -> float:
    """Recall-weighted LCS F measure, averaged over events then over videos."""
    if not pairs:
        raise ValidationError("rouge_l needs at least one paragraph pair")
    video_scores = []
    b2 = ROUGE_BETA * ROUGE_BETA
    for pair in pairs:
        event_scores = []
        for hyp, ref in zip(pair.hyps, pair.refs):
            lcs = _lcs_len(hyp, ref)
            if lcs == 0:
                event_scores.append(0.0)
                continue
            r = lcs / len(ref)
            p = lcs / len(hyp)
            event_scores.append((1.0 + b2) * r * p / (r + b2 * p))
        video_scores.append(float(np.mean(event_scores)))
    return float(np.mean(video_scores))


def _paragraph_scores(pairs, n: int, score):
    """Mean over videos of ``score(distinct, total)`` for each hypothesis
    paragraph's n-grams. Paragraphs under n tokens are skipped and counted.
    Returns ``(mean or None, n_skipped)``."""
    vals = []
    for pair in pairs:
        grams = _ngrams(pair.hyp_paragraph, n)
        if grams:
            vals.append(score(len(grams), sum(grams.values())))
    return (float(np.mean(vals)) if vals else None), len(pairs) - len(vals)


def div2(pairs):
    """Distinct-bigram ratio of each hypothesis paragraph, mean over videos."""
    return _paragraph_scores(pairs, 2, lambda distinct, total: distinct / total)


def rep4(pairs):
    """Repeated-4-gram ratio of each hypothesis paragraph, mean over videos."""
    return _paragraph_scores(pairs, 4,
                             lambda distinct, total: (total - distinct) / total)


def report(pairs) -> dict:
    """All four scores plus corpus counts, in the evaluation report schema."""
    if not pairs:
        raise ValidationError("cannot score an empty corpus")
    d2, d2_skip = div2(pairs)
    r4, r4_skip = rep4(pairs)
    return {
        "bleu4": bleu4(pairs),
        "rouge_l": rouge_l(pairs),
        "div2": d2,
        "rep4": r4,
        "n_videos": len(pairs),
        "n_events": sum(len(p.refs) for p in pairs),
        "skipped": {"div2": d2_skip, "rep4": r4_skip},
    }
