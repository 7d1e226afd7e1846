"""Naive from-definition oracles used to cross-check the package.

Everything here is written as directly as possible from the documented
definitions (position scans instead of Counters, explicit loops instead of
vectorization) so a bug in the production code cannot hide in a shared
helper.
"""

import hashlib
import itertools
import math
import warnings

import numpy as np

from medkit import kgraph as kg
from medkit import numerics as nm
from medkit.encoder import run_stack
from medkit.generator import _sample_from
from medkit.numerics import Tensor
from medkit.tokenizer import EOS_ID, PAD_ID, SEP_ID, TokenBatch, decode


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


def bf_nist_info(corpus, max_n=5):
    """log2(count(prefix) / count(gram)) for every n-gram of the corpus, counts
    summed over its sentences; an order-1 prefix counts every token."""
    corpus = [list(s) for s in corpus]
    info = {}
    for n in range(1, max_n + 1):
        for sentence in corpus:
            for gram in grams_of(sentence, n):
                count = sum(occurrences(s, gram) for s in corpus)
                prefix = sum(len(s) for s in corpus) if n == 1 else sum(occurrences(s, gram[:-1]) for s in corpus)
                info[gram] = math.log2(prefix / count)
    return info


def bf_nist(cand, refs, max_n=5, info=None):
    cand = list(cand)
    refs = [list(r) for r in refs]
    if not cand or all(not r for r in refs):
        return 0.0
    if info is None:
        info = bf_nist_info(refs, max_n)
    score = 0.0
    for n in range(1, max_n + 1):
        grams = grams_of(cand, n)
        if not grams:
            continue
        weighted = 0.0
        for gram in set(grams):
            matched = min(occurrences(cand, gram), max(occurrences(r, gram) for r in refs))
            weighted += matched * info.get(gram, 0.0)
        score += weighted / len(grams)
    ratio = min(len(cand) / (sum(len(r) for r in refs) / len(refs)), 1.0)
    beta = math.log(0.5) / math.log(2 / 3) ** 2  # the factor is 0.5 at ratio 2/3
    return score * math.exp(beta * math.log(ratio) ** 2)

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


def lp_transport_cost(p, q, cost):
    """The transportation LP handed to scipy's HiGHS solver, the way
    `transport_cost` solved it before it had its own min-cost flow."""
    from scipy.optimize import linprog
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([p, q])
    res = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


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


def full_logits(model, ids):
    """The logits under generator.lm_logits, without a cache: every position
    of the windowed ids run through encoder.run_stack under the causal mask,
    recording the autograd graph, and the output projection applied to every
    row."""
    ids = list(ids)[-model.config.context_window :]
    states = run_stack(model, TokenBatch(np.array(ids, dtype=np.int64), np.array([len(ids)])), True)
    return nm.matmul(states, model.params["out.w"]) + model.params["out.b"]


def spawn_seed(seed, tag):
    """The PCG64 seed of numerics.spawn(seed, tag), from its definition: the
    first 8 bytes, little-endian, of sha256 of "seed:tag"."""
    return int.from_bytes(hashlib.sha256(f"{int(seed)}:{tag}".encode("utf-8")).digest()[:8], "little")


def supplement_spans(ids):
    """The question and supplement spans (end-exclusive) of a kgraph.supplement
    sequence [BOS] question [SEP] supplement [SEP], found from its two [SEP]
    ids: no character maps to SEP_ID, so neither span holds one."""
    ids = list(ids)
    first = ids.index(SEP_ID)
    second = ids.index(SEP_ID, first + 1)
    return (1, first), (first + 1, second)


def generate_uncached(model, request, graph, vocab, supplement_max_chars=64):
    """generate() without a KV cache or no_grad: every step runs the whole
    windowed context through full_logits and records the autograd graph."""
    window = model.config.context_window
    supplement_text = kg.retrieve(request.question, graph, supplement_max_chars) if graph is not None else ""
    ids = kg.supplement(request.question, supplement_text, vocab, max_len=window)
    rng = nm.spawn(request.seed, "generator.sample")
    generated = []
    limit = request.max_gen_len if request.max_gen_len is not None else model.config.max_gen_len
    for _ in range(limit):
        last = full_logits(model, ids).data[-1]
        e = np.exp(last - np.maximum.reduce(last))
        nxt = _sample_from(e / np.add.reduce(e), request, rng)
        if nxt == EOS_ID:
            break
        generated.append(nxt)
        ids.append(nxt)
    return {"question": request.question, "supplement": supplement_text, "answer": decode(generated, vocab)}


def scale(a, factor):
    factor = float(factor)
    return nm._make(a.data * factor, (a,), lambda g: (g * factor,))


def getitem(a, key):
    """Basic indexing (ints and slices); duplicates are impossible so the
    backward pass can scatter with plain assignment."""
    out = np.asarray(a.data[key], dtype=np.float64)

    def backward_fn(g):
        z = np.zeros_like(a.data)
        z[key] += g
        return (z,)

    return nm._make(out, (a,), backward_fn)


def tensor_sum(a, axis=None, keepdims=False):
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return nm._make(out, (a,), backward_fn)


def tanh(a):
    out = np.tanh(a.data)
    return nm._make(out, (a,), lambda g: (g * (1.0 - out * out),))


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a):
    out = _sigmoid(a.data)
    return nm._make(out, (a,), lambda g: (g * out * (1.0 - out),))


def softmax(a, axis=-1):
    """Probability-normalize along `axis`, with max-subtraction for stability."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return nm._make(out, (a,), backward_fn)


def log_softmax(a, axis=-1):
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    probs = np.exp(out)

    def backward_fn(g):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return nm._make(out, (a,), backward_fn)


def grad_check(loss_fn, params, eps=1e-4, max_entries_per_param=4, rng=None):
    """Compare analytic gradients against central finite differences.

    `loss_fn` must be deterministic (it is called repeatedly while single
    parameter entries are perturbed in place). Returns the maximum relative
    error |analytic - numeric| / max(1e-8, |analytic| + |numeric|) over a
    sampled subset of scalar entries.
    """
    rng = rng or np.random.default_rng(0)
    items = list(params.items())
    nm.zero_grads(p for _, p in items)
    loss = loss_fn()
    if not np.isfinite(loss.data).all():
        raise nm.NumericsError("loss is not finite")
    nm.backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in items}

    worst = 0.0
    for name, p in items:
        flat = p.data.reshape(-1)
        size = flat.shape[0]
        if size <= max_entries_per_param:
            picks = np.arange(size)
        else:
            picks = rng.choice(size, max_entries_per_param, replace=False)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_fn().item()
            flat[idx] = orig - eps
            down = loss_fn().item()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * eps)
            a = float(analytic[name].reshape(-1)[idx])
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
    return worst


def adam_step(data, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step `t` (from 1) on one parameter's arrays, one expression per update."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * (grad * grad)
    data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


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
        row = getitem(x, slice(t, t + 1))
        z = nm.matmul(row, wx) + nm.matmul(h, wh) + b
        i = sigmoid(getitem(z, (slice(None), slice(0, hidden))))
        f = sigmoid(getitem(z, (slice(None), slice(hidden, 2 * hidden))))
        g = tanh(getitem(z, (slice(None), slice(2 * hidden, 3 * hidden))))
        o = sigmoid(getitem(z, (slice(None), slice(3 * hidden, 4 * hidden))))
        c = f * c + i * g
        h = o * tanh(c)
        outputs[t] = h
    return nm.concat(outputs, axis=0)


def lstm_allocating(x, wx, wh, b, reverse=False, lengths=None):
    """numerics.lstm as it was before its backward built the gate
    coefficients inside dz: the same step-major pass, with the pre-activations
    kept, a concatenated (rows, 4 * hidden) coefficient array and one
    concatenated [dc, dc, dc, dh] array per step. The gradients it gives are
    the bits numerics.lstm must still give."""
    k = wh.shape[0]
    lengths = nm._lengths(lengths, x.shape[0])
    batch = len(lengths)
    going = batch - np.cumsum(np.bincount(lengths))[:-1]
    at = np.cumsum([0, batch, *going]).tolist()
    rank = np.argsort(np.argsort(-lengths, kind="stable"))
    owner = np.repeat(np.arange(batch), lengths)
    position = np.arange(len(owner)) - (np.cumsum(lengths) - lengths)[owner]
    slot = np.take(at, lengths[owner] - position if reverse else position + 1) + rank[owner]
    scale, shift = np.repeat(nm._GATE_SCALE, k), np.repeat(nm._GATE_SHIFT, k)
    z, hs, cs = np.zeros((at[-1], 4 * k)), np.zeros((at[-1], k)), np.zeros((at[-1], k))
    acts = np.zeros_like(z)
    i, f, g, o = np.split(acts, 4, axis=1)
    z[slot] = x.data @ wx.data
    for p, a, e in zip(at, at[1:], at[2:]):
        z[a:e] = z[a:e] + hs[p : p + e - a] @ wh.data + b.data
        acts[a:e] = np.tanh(z[a:e] * scale) * scale + shift
        cs[a:e] = f[a:e] * cs[p : p + e - a] + i[a:e] * g[a:e]
        hs[a:e] = o[a:e] * np.tanh(cs[a:e])

    def backward_fn(grad):
        carried = np.zeros_like(hs)
        carried[slot] = grad
        prev = np.arange(at[-1])
        prev[batch:] -= np.repeat([batch, *going[:-1]], going)
        tanh_c = np.tanh(cs)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        coef = np.concatenate([g * i * (1.0 - i), cs[prev] * f * (1.0 - f), i * (1.0 - g * g), tanh_c * o * (1.0 - o)], axis=1)
        dz = np.zeros_like(z)
        dh, dc = np.zeros((batch, k)), np.zeros((batch, k))
        for a, e in reversed(list(zip(at[1:], at[2:]))):
            m = e - a
            dh[:m] += carried[a:e]
            dc[:m] += dh[:m] * dc_dh[a:e]
            dz[a:e] = np.concatenate([dc[:m], dc[:m], dc[:m], dh[:m]], axis=1) * coef[a:e]
            dc[:m] *= f[a:e]
            dh[:m] = dz[a:e] @ wh.data.T
        rows = dz[slot]
        return rows @ wx.data.T, x.data.T @ rows, hs[prev].T @ dz, rows.sum(axis=0)

    return nm._make(hs[slot], (x, wx, wh, b), backward_fn)


def attention_ops(x, wq, wk, wv, keep):
    """Multi-head attention built op by op from autograd Tensors (about ten
    graph nodes per head): per head three projections, the scaled scores, a
    masked softmax and the weighted values; the heads joined by one concat.

    A dropped key scores -1e30; a row with no kept key attends to key 0.
    """
    heads = []
    for wq_h, wk_h, wv_h in zip(wq, wk, wv):
        q, k, v = nm.matmul(x, wq_h), nm.matmul(x, wk_h), nm.matmul(x, wv_h)
        scores = scale(nm.matmul(q, k.T), 1.0 / np.sqrt(q.shape[1]))
        live = np.broadcast_to(np.asarray(keep, dtype=bool), scores.shape).copy()
        live[~live.any(axis=-1), 0] = True
        weights = softmax(masked_fill(scores, live, -1e30), axis=-1)
        heads.append(nm.matmul(weights, v))
    return nm.concat(heads, axis=1)


def masked_fill(a, keep, value):
    """Replace entries where `keep` is False by `value`; gradient flows only
    through kept entries, so masked inputs cannot influence the output at all."""
    keep_arr = np.broadcast_to(np.asarray(keep, dtype=bool), a.data.shape)
    out = np.where(keep_arr, a.data, float(value))

    def backward_fn(g):
        return (np.where(keep_arr, g, 0.0),)

    return nm._make(out, (a,), backward_fn)


def cross_entropy(probs, target_index):
    """Negative log-likelihood of `target_index` under an already-normalized
    distribution. A zero probability is clamped to 1e-12 with a warning."""
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


def gelu_backward_allocating(z, dh2, w2):
    """numerics._gelu_backward as it was before it reused its buffers: every
    step of GELU'(z) * (dh2 @ w2.T) on a fresh array, with the GELU output
    kept to the end for w2's gradient. The bits numerics must still give."""
    t, hidden = nm._gelu(z, keep_tanh=True)
    dz = 1.0 - t * t
    dz *= z
    dz *= 0.5 * _GELU_C
    slope = z * (3 * 0.044715) * z
    slope += 1.0
    dz *= slope
    dz += np.multiply(np.add(t, 1.0, out=t), 0.5, out=t)
    dz *= dh2 @ w2.T
    return dz, hidden.T @ dh2


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then apply an
    affine gain and bias. `eps` sits inside the square root and guards the
    zero-variance case."""
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


def causal_mask(queries, keys):
    """The keep mask of `queries` rows that are the last positions of `keys`:
    query i (position keys - queries + i) may attend to key j when j is not
    after it."""
    return np.arange(keys)[None, :] <= keys - queries + np.arange(queries)[:, None]


def padded_grid(lengths, rows):
    """(B, longest) mask of the positions of sequences of `lengths` laid end
    to end in `rows` rows, each padded to the longest."""
    lengths = nm._lengths(lengths, rows)
    return np.arange(lengths.max()) < lengths[:, None]


def spread(rows, at, size):
    """A zero array of `size` rows with `rows` written at row indices `at`."""
    out = np.zeros((size,) + rows.shape[1:])
    out[at] = rows
    return out


def attention(x, wq, wk, wv, keep, cache=None, lengths=None):
    """Multi-head scaled dot-product attention over the rows of x (rows,
    hidden) as one graph node; returns the (rows, heads * head_dim) head
    outputs side by side. wq, wk and wv list one (hidden, head_dim) weight per
    head; all 3 * heads of them are one projection matmul. The rows are one
    sequence or, with `lengths`, sequences laid end to end, each attending
    only within itself; sequences run padded to the longest in one grid, and
    heads run batched.

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
    ws = [*wq, *wk, *wv]
    heads = len(wq)
    if x.ndim != 2 or not heads or len(wk) != heads or len(wv) != heads:
        raise nm.ShapeError(f"attention needs a 2-D x and equal per-head weight lists, got x {x.shape} and {len(wq)}/{len(wk)}/{len(wv)} heads")
    d = ws[0].shape[1]
    if any(w.shape != (x.shape[1], d) for w in ws):
        raise nm.ShapeError(f"attention weights must all be ({x.shape[1]}, {d})")
    grid = None if lengths is None else padded_grid(lengths, x.shape[0])
    batch, n = (1, x.shape[0]) if grid is None else grid.shape
    real = slice(None) if grid is None else np.flatnonzero(grid)  # where the rows sit in the (B * n) padded grid
    w_all = cache["w"] if cache else np.concatenate([w.data for w in ws], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow surfaces as the checks below
        proj = x.data @ w_all
        if not np.isfinite(proj).all():
            raise nm.NumericsError("non-finite attention projections")
        q, k, v = (proj if grid is None else spread(proj, real, batch * n)).reshape(batch, n, 3, heads, d).transpose(2, 0, 3, 1, 4)  # each (B, heads, n, d)
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
        g = (grad if grid is None else spread(grad, real, batch * n)).reshape(batch, n, heads, d).transpose(0, 2, 1, 3)
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


def padded(ids, max_len):
    """The encoder input as it was laid out before sequences were packed:
    `ids` padded with [PAD] to max_len, and the (1, max_len) keep mask that
    hides the padding as keys."""
    return list(ids) + [PAD_ID] * (max_len - len(ids)), (np.arange(max_len) < len(ids))[None, :]


def _scaled_sum(losses, factor):
    total = losses[0]
    for piece in losses[1:]:
        total = total + piece
    return scale(total, factor)


def mlm_loss_per_sample(encoder, batch):
    """The masked-token loss as it was, one sequence at a time: padded to
    max_len, every position run (padding masked as keys) and projected, the
    masked rows' NLL summed over the batch and divided by the number of
    masked positions."""
    losses, total = [], 0
    for corrupted, positions, originals in batch:
        if not positions:
            continue
        states = states_ops(encoder, *padded(corrupted, encoder.config.max_len))
        logits = nm.take_rows(nm.matmul(states, encoder.params["tok_emb"].T), positions)
        losses.append(nm.softmax_cross_entropy(logits, originals, reduction=np.ones(len(originals))))
        total += len(positions)
    return _scaled_sum(losses, 1.0 / total)


def supervised_loss_per_sample(encoder, head, batch):
    """The triage loss as it was, one sample at a time, for a head with every
    feature on: the encoder op by op over the sequence padded to max_len, the
    BiLSTM (lstm_direction_ops) over the real rows only, [forward final ;
    backward final ; CLS], the dendritic stack and the dense layer; mean
    cross-entropy over the batch."""
    losses = []
    for seq, label in batch:
        states = states_ops(encoder, *padded(seq, encoder.config.max_len))
        x = nm.take_rows(states, list(range(len(seq))))
        for layer in range(head.config.num_lstm_layers):
            fwd, bwd = ([head.params[f"lstm{layer}.{d}.{w}"] for w in ("wx", "wh", "b")] for d in ("fwd", "bwd"))
            outs_f, outs_b = lstm_direction_ops(x, *fwd, False), lstm_direction_ops(x, *bwd, True)
            x = nm.concat([outs_f, outs_b], axis=1)
        features = nm.concat([getitem(outs_f, slice(-1, None)), getitem(outs_b, slice(0, 1)), getitem(states, slice(0, 1))], axis=1)
        for w in (head.params[f"dd{i}.w"] for i in range(head.config.num_dd_layers)):
            features = nm.matmul(features * features, w)
        logits = nm.matmul(features, head.params["dense.w"]) + head.params["dense.b"]
        losses.append(nm.softmax_cross_entropy(logits, [label], reduction=np.ones(1)))
    return _scaled_sum(losses, 1.0 / len(batch))


def slot_loss_per_sample(encoder, batch):
    """The prompt loss as it was, one (prompt, slots, target_ids) at a time:
    padded to max_len, every position projected, the slot rows' NLL summed per
    prompt, averaged over the batch."""
    losses = []
    for seq, slots, targets in batch:
        states = states_ops(encoder, *padded(seq, encoder.config.max_len))
        logits = nm.take_rows(nm.matmul(states, encoder.params["tok_emb"].T), slots)
        losses.append(nm.softmax_cross_entropy(logits, targets, reduction=np.ones(len(targets))))
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
