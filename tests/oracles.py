"""Independent reference implementations used to pin module behavior.

Most of this is written as plain loops over numpy arrays or Python
floats, near the mathematical definitions and far from the library's
vectorized code paths. Where the library replaced a composition of tape
primitives with one fused primitive, the composition lives on here.
Tests freeze agreement between the two.
"""

import math

import numpy as np

from paracap import tensor as T
from paracap.data import BOS_ID, EOS_ID
from paracap.tensor import Tensor


# ---------------------------------------------------------------------------
# dense algebra


def softmax_loop(values):
    values = [float(v) for v in values]
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    s = sum(exps)
    return [e / s for e in exps]


def attention_loop(x, wq, wk, wv):
    """Single-head scaled dot-product self-attention, one row at a time."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    q = np.array([[sum(x[i][a] * wq[a][j] for a in range(d)) for j in range(d)]
                  for i in range(n)])
    k = np.array([[sum(x[i][a] * wk[a][j] for a in range(d)) for j in range(d)]
                  for i in range(n)])
    v = np.array([[sum(x[i][a] * wv[a][j] for a in range(d)) for j in range(d)]
                  for i in range(n)])
    out = np.zeros((n, d))
    for i in range(n):
        scores = [sum(q[i][a] * k[j][a] for a in range(d)) / math.sqrt(d)
                  for j in range(n)]
        weights = softmax_loop(scores)
        for j in range(n):
            for a in range(d):
                out[i][a] += weights[j] * v[j][a]
    return out


def attention_composed(q, k, v, mask=None):
    """Scaled dot-product attention as five kinds of tape primitives."""
    scores = T.mul(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(q.shape[1]))
    if mask is not None:
        scores = T.add(scores, Tensor(np.where(mask, 0.0, -1e9)))
    return T.matmul(T.softmax(scores), v)


def select_and_fuse_loop(features, reference, wq, wk, wv):
    """Hard row selection against a reference, then attention-and-mean."""
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    norms = []
    for i in range(n):
        shifted = [features[i][a] + reference[a] for a in range(d)]
        norms.append(math.sqrt(sum(s * s for s in shifted)))
    scores = softmax_loop(norms)
    kept = [i for i in range(n) if scores[i] > 1.0 / n]
    if not kept:
        kept = [max(range(n), key=lambda i: scores[i])]
    fused_rows = attention_loop(features[kept], wq, wk, wv)
    return fused_rows.mean(axis=0), kept


def layer_norm_loop(x, gain, bias, eps=1e-5):
    x = [float(v) for v in x]
    m = sum(x) / len(x)
    var = sum((v - m) ** 2 for v in x) / len(x)
    inv = 1.0 / math.sqrt(var + eps)
    return [gain[i] * (x[i] - m) * inv + bias[i] for i in range(len(x))]


def top_k_cosine_loop(frame, token_features, w_text, w_image, k):
    """Brute-force cosine ranking, ties toward the lower token index."""
    q = [sum(frame[a] * w_image[a][j] for a in range(len(frame)))
         for j in range(len(w_image[0]))]
    sims = []
    for idx, row in enumerate(token_features):
        key = [sum(row[a] * w_text[a][j] for a in range(len(row)))
               for j in range(len(w_text[0]))]
        qn = math.sqrt(sum(v * v for v in q))
        kn = math.sqrt(sum(v * v for v in key))
        dot = sum(q[j] * key[j] for j in range(len(q)))
        sims.append(dot / max(qn * kn, 1e-12))
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
    return order[:k]


# ---------------------------------------------------------------------------
# losses


def smoothed_ce_loop(logits, targets, smoothing, pad_id):
    """Label-smoothed cross-entropy; smoothing mass over non-pad classes."""
    logits = np.asarray(logits, dtype=np.float64)
    n, v = logits.shape
    total = 0.0
    n_valid = 0
    for i in range(n):
        if targets[i] == pad_id:
            continue
        n_valid += 1
        log_probs = [math.log(p) for p in softmax_loop(logits[i])]
        q = [0.0 if c == pad_id else smoothing / (v - 1) for c in range(v)]
        q[targets[i]] += 1.0 - smoothing
        total -= sum(q[c] * log_probs[c] for c in range(v))
    return total / n_valid


def tau_loop(probs, targets, excludes, floor=1e-8):
    probs = np.asarray(probs, dtype=np.float64)
    n = len(targets)
    total = 0.0
    for i in range(n):
        history = set(targets[:i]) - set(excludes)
        for c in history:
            total += math.log(max(floor, 1.0 - probs[i][c]))
    return -total / n


def log_sigmoid(z):
    if z >= 0:
        return -math.log1p(math.exp(-z))
    return z - math.log1p(math.exp(z))


def contrastive_loop(event_vecs, caption_vecs, rho):
    """All-pairs sigmoid cross-entropy on temperature-scaled cosines."""
    e = np.asarray(event_vecs, dtype=np.float64)
    c = np.asarray(caption_vecs, dtype=np.float64)
    b = e.shape[0]
    total = 0.0
    for i in range(b):
        for j in range(b):
            en = math.sqrt(sum(v * v for v in e[i]))
            cn = math.sqrt(sum(v * v for v in c[j]))
            cos = sum(e[i][a] * c[j][a] for a in range(e.shape[1])) / (en * cn)
            z = math.exp(rho) * cos
            if i == j:
                total -= log_sigmoid(z)
            else:
                total -= log_sigmoid(-z)
    return total / (b * b)


# ---------------------------------------------------------------------------
# optimizer


def adam_first_step(p0, grad, lr, beta1, beta2, weight_decay, warmup_scale=1.0,
                    eps=1e-8):
    """One Adam step from zero moments on a scalar parameter."""
    m = (1.0 - beta1) * grad
    v = (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1)
    v_hat = v / (1.0 - beta2)
    step_lr = lr * warmup_scale
    return p0 - step_lr * (m_hat / (math.sqrt(v_hat) + eps) + weight_decay * p0)


# ---------------------------------------------------------------------------
# decoding


def greedy_decode_full(decoder, video_rows, memory, max_len):
    """Greedy decoding by full recompute: a teacher-forced pass over the
    whole prefix per token, then one more to commit the event to memory.

    Returns (token ids without BOS or the trailing EOS, the logits row
    each id was picked from).
    """
    ids, rows = [BOS_ID], []
    with T.no_grad():
        for _ in range(max_len):
            logits, _ = decoder.forward_event(video_rows, ids, memory, update_memory=False)
            rows.append(logits.values[-1])
            ids.append(int(np.argmax(logits.values[-1])))
            if ids[-1] == EOS_ID:
                break
        decoder.forward_event(video_rows, ids, memory, update_memory=True)
    out = ids[1:]
    if out and out[-1] == EOS_ID:
        out = out[:-1]
    return out, rows


# ---------------------------------------------------------------------------
# caption metrics


def ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def bleu4_loop(hyp_ref_pairs, eps=1e-9):
    """Corpus BLEU with clipped counts, brevity penalty, add-eps smoothing."""
    hyp_len = ref_len = 0
    matched = [0] * 4
    totals = [0] * 4
    for hyp, ref in hyp_ref_pairs:
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            counts = {}
            for g in ngrams(hyp, n):
                counts[g] = counts.get(g, 0) + 1
            ref_counts = {}
            for g in ngrams(ref, n):
                ref_counts[g] = ref_counts.get(g, 0) + 1
            totals[n - 1] += max(0, len(hyp) - n + 1)
            for g, cnt in counts.items():
                matched[n - 1] += min(cnt, ref_counts.get(g, 0))
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(4):
        log_sum += math.log((matched[n] + eps) / (totals[n] + eps))
    geo = math.exp(log_sum / 4.0)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * geo


def lcs_loop(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge_l_sentence_loop(hyp, ref, beta=1.2):
    lcs = lcs_loop(hyp, ref)
    if lcs == 0:
        return 0.0
    recall = lcs / len(ref)
    precision = lcs / len(hyp)
    return (1 + beta * beta) * recall * precision / (recall + beta * beta * precision)


def distinct_ratio_loop(tokens, n):
    """(distinct, total) n-gram counts for one paragraph."""
    seen = set()
    total = 0
    for g in ngrams(tokens, n):
        total += 1
        seen.add(g)
    return len(seen), total
