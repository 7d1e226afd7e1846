"""Naive from-definition oracles used to cross-check the package.

Everything here is written as directly as possible from the documented
definitions (position scans instead of Counters, explicit loops instead of
vectorization) so a bug in the production code cannot hide in a shared
helper.
"""

import itertools
import math
import warnings

import numpy as np

from medkit import kgraph as kg
from medkit import numerics as nm
from medkit.generator import _sample_from, lm_logits
from medkit.numerics import Rng, Tensor
from medkit.tokenizer import EOS_ID, decode, encode


def occurrences(tokens, gram):
    n = len(gram)
    return sum(1 for i in range(len(tokens) - n + 1) if tuple(tokens[i : i + n]) == tuple(gram))


def grams_of(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def bf_bleu(cand, refs, max_n=1):
    cand = list(cand)
    refs = [list(r) for r in refs]
    if not cand or not refs:
        return 0.0
    precisions = []
    for n in range(1, max_n + 1):
        grams = grams_of(cand, n)
        if not grams:
            precisions.append(0.0)
            continue
        matched = 0
        for gram in set(grams):
            matched += min(occurrences(cand, gram), max(occurrences(r, gram) for r in refs))
        precisions.append(matched / len(grams))
    if any(p == 0.0 for p in precisions):
        return 0.0
    geo = math.exp(sum(math.log(p) for p in precisions) / len(precisions))
    c = len(cand)
    r = min((len(r) for r in refs), key=lambda rl: (abs(rl - c), rl))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * geo


def bf_self_bleu(corpus, n):
    sentences = [list(s) for s in corpus]
    scores = []
    for i in range(len(sentences)):
        others = [s for j, s in enumerate(sentences) if j != i]
        scores.append(bf_bleu(sentences[i], others, max_n=n))
    return sum(scores) / len(scores)


def bf_chrf(cand, ref, n=6, beta=2.0):
    if not cand and not ref:
        return 1.0
    if not cand or not ref:
        return 0.0
    p_vals, r_vals = [], []
    for order in range(1, n + 1):
        cand_grams = grams_of(cand, order)
        ref_grams = grams_of(ref, order)
        if not cand_grams and not ref_grams:
            continue
        matched = 0
        for gram in set(cand_grams):
            matched += min(occurrences(cand, gram), occurrences(ref, gram))
        p_vals.append(matched / len(cand_grams) if cand_grams else 0.0)
        r_vals.append(matched / len(ref_grams) if ref_grams else 0.0)
    if not p_vals:
        return 0.0
    precision = sum(p_vals) / len(p_vals)
    recall = sum(r_vals) / len(r_vals)
    denom = beta * beta * precision + recall
    return (1 + beta * beta) * precision * recall / denom if denom else 0.0


def bf_gleu(cand, ref, max_n=4):
    cand = list(cand)
    ref = list(ref)
    if not cand:
        return 0.0
    matched = cand_total = ref_total = 0
    for n in range(1, max_n + 1):
        cand_grams = grams_of(cand, n)
        ref_grams = grams_of(ref, n)
        for gram in set(cand_grams):
            matched += min(occurrences(cand, gram), occurrences(ref, gram))
        cand_total += len(cand_grams)
        ref_total += len(ref_grams)
    if cand_total == 0 or ref_total == 0:
        return 0.0
    return min(matched / cand_total, matched / ref_total)


def bf_weighted_prf(cand, ref, max_n=4):
    cand = list(cand)
    ref = list(ref)
    p_vals, r_vals = [], []
    for n in range(1, max_n + 1):
        cand_grams = grams_of(cand, n)
        ref_grams = grams_of(ref, n)
        if not cand_grams and not ref_grams:
            continue
        matched = 0
        for gram in set(cand_grams):
            matched += min(occurrences(cand, gram), occurrences(ref, gram))
        p_vals.append(matched / len(cand_grams) if cand_grams else 0.0)
        r_vals.append(matched / len(ref_grams) if ref_grams else 0.0)
    if not p_vals:
        return 0.0, 0.0, 0.0
    precision = sum(p_vals) / len(p_vals)
    recall = sum(r_vals) / len(r_vals)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def bf_ribes(cand, ref, alpha=0.25, beta=0.10):
    cand = list(cand)
    ref = list(ref)
    if not cand or not ref:
        return 0.0
    aligned = []
    for tok in cand:
        if cand.count(tok) == 1 and ref.count(tok) == 1:
            aligned.append(ref.index(tok))
    n = len(aligned)
    if n == 0:
        return 0.0
    if n == 1:
        nkt = 0.5
    else:
        concordant = discordant = 0
        for i in range(n):
            for j in range(i + 1, n):
                if aligned[i] < aligned[j]:
                    concordant += 1
                else:
                    discordant += 1
        tau = (concordant - discordant) / (n * (n - 1) / 2)
        nkt = (tau + 1) / 2
    matched = sum(min(cand.count(tok), ref.count(tok)) for tok in set(cand))
    p1 = matched / len(cand)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(cand)))
    return nkt * p1**alpha * bp**beta


def bf_edit_distance(a, b):
    a, b = list(a), list(b)
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost)
    return table[len(a)][len(b)]


def bf_ter(cand, ref, max_shift_len=10):
    cand = list(cand)
    ref = list(ref)
    if not ref:
        raise ValueError("empty reference")

    def appears_in_ref(span):
        return occurrences(ref, span) > 0

    shifts = 0
    current = cand
    dist = bf_edit_distance(current, ref)
    while dist > 0:
        best = None
        for length in range(1, min(max_shift_len, len(current)) + 1):
            for start in range(len(current) - length + 1):
                span = tuple(current[start : start + length])
                if not appears_in_ref(span):
                    continue
                rest = current[:start] + current[start + length :]
                for dest in range(len(rest) + 1):
                    if dest == start:
                        continue
                    shifted = rest[:dest] + list(span) + rest[dest:]
                    d = bf_edit_distance(shifted, ref)
                    if best is None or d < best[0]:
                        best = (d, shifted)
        if best is None or best[0] >= dist:
            break
        current = best[1]
        dist = best[0]
        shifts += 1
    return (dist + shifts) / len(ref)


def bf_transport_cost(p, q, cost):
    """Exhaustive enumeration over basic solutions (vertices) of the
    transportation polytope; feasible for a handful of tokens."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m, n = cost.shape
    arcs = [(i, j) for i in range(m) for j in range(n)]
    constraints = np.zeros((m + n, m * n))
    for idx, (i, j) in enumerate(arcs):
        constraints[i, idx] = 1.0
        constraints[m + j, idx] = 1.0
    rhs = np.concatenate([p, q])
    best = None
    basis_size = m + n - 1
    for combo in itertools.combinations(range(m * n), basis_size):
        sub = constraints[:, combo]
        flows, residuals, rank, _ = np.linalg.lstsq(sub, rhs, rcond=None)
        if rank < basis_size:
            continue
        if np.linalg.norm(sub @ flows - rhs) > 1e-9:
            continue
        if np.any(flows < -1e-10):
            continue
        value = float(sum(cost[arcs[k]] * max(flow, 0.0) for k, flow in zip(combo, flows)))
        if best is None or value < best:
            best = value
    assert best is not None, "degenerate transport instance"
    return best


def bf_confusion_metrics(preds, gold):
    classes = sorted(set(gold))
    accuracy = sum(1 for p, g in zip(preds, gold) if p == g) / len(gold)
    per_p, per_r, per_f = [], [], []
    for c in classes:
        tp = sum(1 for p, g in zip(preds, gold) if p == c and g == c)
        fp = sum(1 for p, g in zip(preds, gold) if p == c and g != c)
        fn = sum(1 for p, g in zip(preds, gold) if p != c and g == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        per_p.append(prec)
        per_r.append(rec)
        per_f.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return accuracy, sum(per_p) / len(classes), sum(per_r) / len(classes), sum(per_f) / len(classes)


def bf_dendrite(vector, weight_stack):
    current = np.asarray(vector, dtype=np.float64)
    for w in weight_stack:
        current = (current * current) @ np.asarray(w, dtype=np.float64)
    return current


def generate_uncached(model, request, graph, vocab, supplement_max_chars=64):
    """generate() without a KV cache or no_grad: every step runs the whole
    windowed context through the stack and records the autograd graph."""
    window = model.config.context_window
    q_seq = encode(request.question, vocab, max_len=window, mode="decoder")
    supplement_text = kg.retrieve(request.question, graph, supplement_max_chars) if graph is not None else ""
    prompt, _ = kg.supplement(q_seq, supplement_text, vocab, max_len=window)
    rng = Rng(request.seed).spawn("generator.sample")
    ids = list(prompt.ids)
    generated = []
    limit = request.max_gen_len if request.max_gen_len is not None else model.config.max_gen_len
    for _ in range(limit):
        probs = lm_logits(model, ids)
        nxt = _sample_from(probs, request, rng)
        if nxt == EOS_ID:
            break
        generated.append(nxt)
        ids.append(nxt)
    return {"question": request.question, "supplement": supplement_text, "answer": decode(generated, vocab)}


def lstm_direction_ops(x, wx, wh, b, reverse):
    """One LSTM pass built op by op from autograd Tensors (about 17 graph
    nodes per step); returns the (seq, hidden) outputs in row order.

    Gate order in the fused projection is [input, forget, cell, output].
    """
    seq_len = x.shape[0]
    hidden = wh.shape[0]
    h = Tensor(np.zeros((1, hidden)))
    c = Tensor(np.zeros((1, hidden)))
    steps = range(seq_len - 1, -1, -1) if reverse else range(seq_len)
    outputs = [None] * seq_len
    for t in steps:
        row = x[t : t + 1, :]
        z = nm.matmul(row, wx) + nm.matmul(h, wh) + b
        i = nm.sigmoid(z[:, 0:hidden])
        f = nm.sigmoid(z[:, hidden : 2 * hidden])
        g = nm.tanh(z[:, 2 * hidden : 3 * hidden])
        o = nm.sigmoid(z[:, 3 * hidden : 4 * hidden])
        c = f * c + i * g
        h = o * nm.tanh(c)
        outputs[t] = h
    return nm.concat(outputs, axis=0)


def attention_ops(x, wq, wk, wv, keep):
    """Multi-head attention built op by op from autograd Tensors (about ten
    graph nodes per head): per head three projections, the scaled scores, a
    masked softmax and the weighted values; the heads joined by one concat.

    A dropped key scores -1e30; a row with no kept key attends to key 0.
    """
    heads = []
    for wq_h, wk_h, wv_h in zip(wq, wk, wv):
        q, k, v = nm.matmul(x, wq_h), nm.matmul(x, wk_h), nm.matmul(x, wv_h)
        scores = nm.scale(nm.matmul(q, k.T), 1.0 / np.sqrt(q.shape[1]))
        live = np.broadcast_to(np.asarray(keep, dtype=bool), scores.shape).copy()
        live[~live.any(axis=-1), 0] = True
        weights = nm.softmax(masked_fill(scores, live, -1e30), axis=-1)
        heads.append(nm.matmul(weights, v))
    return nm.concat(heads, axis=1)


def masked_fill(a, keep, value):
    """Replace entries where `keep` is False by `value`; gradient flows only
    through kept entries, so masked inputs cannot influence the output at all."""
    a = nm._wrap(a)
    keep_arr = np.broadcast_to(np.asarray(keep, dtype=bool), a.data.shape)
    out = np.where(keep_arr, a.data, float(value))

    def backward_fn(g):
        return (np.where(keep_arr, g, 0.0),)

    return nm._make(out, (a,), backward_fn)


def cross_entropy(probs, target_index):
    """Negative log-likelihood of `target_index` under an already-normalized
    distribution. A zero probability is clamped to 1e-12 with a warning."""
    probs = nm._wrap(probs)
    if probs.ndim != 1:
        raise nm.ShapeError("cross_entropy expects a 1-D distribution")
    t = int(target_index)
    if not 0 <= t < probs.data.shape[0]:
        raise nm.ShapeError("target index out of range")
    p = probs.data[t]
    if p <= 0.0:
        warnings.warn("cross_entropy target probability clamped to 1e-12")
    p_safe = max(p, 1e-12)
    out = np.asarray(-np.log(p_safe))

    def backward_fn(g):
        z = np.zeros_like(probs.data)
        z[t] = -float(g) / p_safe
        return (z,)

    return nm._make(out, (probs,), backward_fn)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a):
    """Gaussian error linear unit (tanh approximation)."""
    a = nm._wrap(a)
    x = a.data
    with np.errstate(over="ignore"):  # in place, rounding as C * (x + 0.044715 * (x * x * x))
        t = x * x * x
        t *= 0.044715
        t += x
        t *= _GELU_C
    np.tanh(t, out=t)
    out = (t + 1.0) * x
    out *= 0.5

    def backward_fn(g):
        d = 1.0 - t * t
        d *= x
        d *= 0.5 * _GELU_C
        slope = x * (3 * 0.044715) * x
        slope += 1.0
        d *= slope  # 0.5 * x * (1 - t^2) * C * (1 + 3 * 0.044715 * x^2)
        d += (t + 1.0) * 0.5
        d *= g
        return (d,)

    return nm._make(out, (a,), backward_fn)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then apply an
    affine gain and bias. `eps` sits inside the square root and guards the
    zero-variance case."""
    x, gain, bias = nm._wrap(x), nm._wrap(gain), nm._wrap(bias)
    n = x.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise nm.ShapeError("layer_norm gain/bias must match the last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.data - mu) * inv
    out = y * gain.data + bias.data

    def backward_fn(g):
        dgain = (g * y).reshape(-1, n).sum(axis=0)
        dbias = g.reshape(-1, n).sum(axis=0)
        dy = g * gain.data
        dx = inv * (dy - dy.mean(axis=-1, keepdims=True) - y * (dy * y).mean(axis=-1, keepdims=True))
        return dx, dgain, dbias

    return nm._make(out, (x, gain, bias), backward_fn)


def attention(x, wq, wk, wv, keep, cache=None, lengths=None):
    """Multi-head scaled dot-product attention over the rows of x (rows,
    hidden) as one graph node; returns the (rows, heads * head_dim) head
    outputs side by side. wq, wk and wv list one (hidden, head_dim) weight per
    head; all 3 * heads of them are one projection matmul. The rows are one
    sequence or, with `lengths`, sequences laid end to end, each attending
    only within itself; sequences and heads run batched.

    `keep[i, j]` says whether position i may attend to position j (a 1-D mask
    is broadcast over queries). A dropped key scores -1e30; a row with no kept
    key attends to key 0 alone. Scores are scaled by 1/sqrt(head_dim). The
    backward pass is hand-written; non-finite projections or scores raise
    NumericsError, also where the mask would hide them.

    With a `cache` (a dict, empty before the first call) x is one sequence
    holding only the positions not yet seen: their keys and values, (heads,
    positions, head_dim) arrays, are appended to cache["k"] and cache["v"],
    and `keep` has one column per cached-plus-new key. The cache also keeps
    the joined projection weights, so, like its keys and values, it is valid
    only while the weights stay unchanged. Cached keys and values are plain
    arrays that cannot pass gradients back, so the result then has no graph.
    """
    x = nm._wrap(x)
    ws = [nm._wrap(w) for w in (*wq, *wk, *wv)]
    heads = len(wq)
    if x.ndim != 2 or not heads or len(wk) != heads or len(wv) != heads:
        raise nm.ShapeError(f"attention needs a 2-D x and equal per-head weight lists, got x {x.shape} and {len(wq)}/{len(wk)}/{len(wv)} heads")
    d = ws[0].shape[1]
    if any(w.shape != (x.shape[1], d) for w in ws):
        raise nm.ShapeError(f"attention weights must all be ({x.shape[1]}, {d})")
    grid = None if lengths is None else nm._grid(lengths, x.shape[0])
    batch, n = (1, x.shape[0]) if grid is None else grid.shape
    real = slice(None) if grid is None else np.flatnonzero(grid)  # where the rows sit in the (B * n) padded grid
    w_all = cache["w"] if cache else np.concatenate([w.data for w in ws], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow surfaces as the checks below
        proj = x.data @ w_all
        if not np.isfinite(proj).all():
            raise nm.NumericsError("non-finite attention projections")
        q, k, v = (proj if grid is None else nm._spread(proj, real, batch * n)).reshape(batch, n, 3, heads, d).transpose(2, 0, 3, 1, 4)  # each (B, heads, n, d)
        if cache is not None:
            if cache:
                k = np.concatenate([cache["k"], k[0]], axis=1)[None]
                v = np.concatenate([cache["v"], v[0]], axis=1)[None]
            cache.update(w=w_all, k=k[0], v=v[0])
        factor = 1.0 / np.sqrt(d)
        weights = q @ k.transpose(0, 1, 3, 2)
        weights *= factor
    if not np.isfinite(weights).all():
        raise nm.NumericsError("non-finite attention scores")
    keep = np.asarray(keep, dtype=bool)
    if grid is not None:
        keep = keep & grid[:, None, None, :]
    live = keep.any(axis=-1)
    if not live.all():
        keep = keep.copy()
        keep[..., 0] |= ~live
    np.copyto(weights, -1e30, where=~keep)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = (weights @ v).transpose(0, 2, 1, 3).reshape(batch * n, heads * d)[real]
    if cache is not None:
        return Tensor(out)

    def backward_fn(grad):
        g = (grad if grid is None else nm._spread(grad, real, batch * n)).reshape(batch, n, heads, d).transpose(0, 2, 1, 3)
        ds = g @ v.transpose(0, 1, 3, 2)
        ds -= (ds * weights).sum(axis=-1, keepdims=True)
        ds *= weights
        ds *= factor  # weights * (dw - sum(dw * weights)) * factor, dw = g @ v.T
        dproj = np.empty((batch, n, 3, heads, d))  # dq, dk, dv written through (B, heads, n, d) views
        for i, (a, b) in enumerate([(ds, k), (ds.transpose(0, 1, 3, 2), q), (weights.transpose(0, 1, 3, 2), g)]):
            np.matmul(a, b, out=dproj[:, :, i].transpose(0, 2, 1, 3))
        dproj = dproj.reshape(batch * n, 3 * heads * d)[real]
        return (dproj @ w_all.T, *np.split(x.data.T @ dproj, 3 * heads, axis=1))

    return nm._make(out, (x, *ws), backward_fn)


def _head_weights(params, prefix, heads):
    return [[params[f"{prefix}.attn.w{kind}{h}"] for h in range(heads)] for kind in "qkv"]


def _layer_tail_ops(x, attn, params, prefix, eps):
    """The layer after its attention heads `attn`: output projection,
    residual, LayerNorm, GELU feed-forward, residual, LayerNorm."""
    attn = nm.matmul(attn, params[f"{prefix}.attn.wo"]) + params[f"{prefix}.attn.bo"]
    x = layer_norm(x + attn, params[f"{prefix}.ln1.gain"], params[f"{prefix}.ln1.bias"], eps)
    hidden = gelu(nm.matmul(x, params[f"{prefix}.ffn.w1"]) + params[f"{prefix}.ffn.b1"])
    ff = nm.matmul(hidden, params[f"{prefix}.ffn.w2"]) + params[f"{prefix}.ffn.b2"]
    return layer_norm(x + ff, params[f"{prefix}.ln2.gain"], params[f"{prefix}.ln2.bias"], eps)


def encoder_layer_ops(x, params, prefix, keep, heads, eps=1e-5, cache=None, lengths=None):
    """One transformer layer as the chain of twelve graph ops that
    numerics.transformer_layer replaced: `attention` above (with its
    `cache` and `lengths`), the output projection, residual + `layer_norm`,
    the `gelu` feed-forward block, residual + `layer_norm`."""
    return _layer_tail_ops(x, attention(x, *_head_weights(params, prefix, heads), keep, cache, lengths), params, prefix, eps)


def layer_ops(x, params, prefix, keep, heads, eps):
    """encoder_layer_ops for one sequence, with attention from attention_ops."""
    return _layer_tail_ops(x, attention_ops(x, *_head_weights(params, prefix, heads), keep), params, prefix, eps)


def states_ops(model, ids, keep):
    """One sequence through an encoder's or decoder's embeddings and layers,
    every position run, attention op by op under `keep`."""
    cfg = model.config
    x = nm.take_rows(model.params["tok_emb"], ids) + nm.take_rows(model.params["pos_emb"], list(range(len(ids))))
    for i in range(cfg.num_layers):
        x = layer_ops(x, model.params, f"layer{i}", keep, cfg.num_heads, cfg.ln_eps)
    return x


def _scaled_sum(losses, factor):
    total = losses[0]
    for piece in losses[1:]:
        total = total + piece
    return nm.scale(total, factor)


def mlm_loss_per_sample(encoder, batch):
    """The masked-token loss as it was, one sequence at a time: every position
    run (padding masked as keys) and projected, the masked rows' NLL summed
    over the batch and divided by the number of masked positions."""
    losses, total = [], 0
    for corrupted, positions, originals in batch:
        if not positions:
            continue
        states = states_ops(encoder, corrupted.ids, np.asarray(corrupted.attention_mask, dtype=bool))
        logits = nm.take_rows(nm.matmul(states, encoder.params["tok_emb"].T), positions)
        losses.append(nm.softmax_cross_entropy(logits, originals, reduction="sum"))
        total += len(positions)
    return _scaled_sum(losses, 1.0 / total)


def supervised_loss_per_sample(encoder, head, batch):
    """The triage loss as it was, one sample at a time, for a head with every
    feature on: the encoder op by op, the BiLSTM (lstm_direction_ops) over
    the real rows only, [forward final ; backward final ; CLS], the dendritic
    stack and the dense layer; mean cross-entropy over the batch."""
    losses = []
    for seq, label in batch:
        mask = np.asarray(seq.attention_mask, dtype=bool)
        states = states_ops(encoder, seq.ids, mask)
        x = nm.take_rows(states, np.flatnonzero(mask))
        for layer in range(head.config.num_lstm_layers):
            fwd, bwd = ([head.params[f"lstm{layer}.{d}.{w}"] for w in ("wx", "wh", "b")] for d in ("fwd", "bwd"))
            outs_f, outs_b = lstm_direction_ops(x, *fwd, False), lstm_direction_ops(x, *bwd, True)
            x = nm.concat([outs_f, outs_b], axis=1)
        features = nm.concat([outs_f[-1:, :], outs_b[0:1, :], states[0:1, :]], axis=1)
        for w in head.dd_stack():
            features = nm.matmul(features * features, w)
        logits = nm.matmul(features, head.params["dense.w"]) + head.params["dense.b"]
        losses.append(nm.softmax_cross_entropy(logits, [label], reduction="sum"))
    return _scaled_sum(losses, 1.0 / len(batch))


def slot_loss_per_sample(encoder, batch):
    """The prompt loss as it was, one (prompt, slots, target_ids) at a time:
    every position projected, the slot rows' NLL summed per prompt, averaged
    over the batch."""
    losses = []
    for seq, slots, targets in batch:
        states = states_ops(encoder, seq.ids, np.asarray(seq.attention_mask, dtype=bool))
        logits = nm.take_rows(nm.matmul(states, encoder.params["tok_emb"].T), slots)
        losses.append(nm.softmax_cross_entropy(logits, targets, reduction="sum"))
    return _scaled_sum(losses, 1.0 / len(batch))


def lm_loss_per_sample(model, items):
    """The LM batch loss as it was: per (sequence, loss_mask) pair the causal
    stack op by op and the mean NLL of the selected targets, averaged over
    the pairs."""
    losses = []
    for seq, mask in items:
        n = len(seq)
        logits = nm.matmul(states_ops(model, seq, np.tril(np.ones((n, n), dtype=bool))), model.params["out.w"]) + model.params["out.b"]
        picked = [j for j in range(1, n) if mask[j]]
        losses.append(nm.softmax_cross_entropy(nm.take_rows(logits, [j - 1 for j in picked]), [seq[j] for j in picked], reduction="mean"))
    return _scaled_sum(losses, 1.0 / len(items))
