"""Generation-quality metrics with precisely pinned definitions.

Each sentence-level metric here is mirrored by a naive from-definition oracle
in the test tree; the definitions below are therefore spelled out exactly:

* bleu: clipped n-gram precision, geometric mean over orders 1..max_n,
  brevity penalty exp(1 - r/c) when the candidate is shorter than the
  (closest-length) reference.
* chrf: character n-gram F-beta, averaging precision/recall over orders
  1..n; orders where neither side has n-grams are skipped.
* gleu: matched n-gram counts pooled over orders 1..4; the score is
  min(pooled precision, pooled recall).
* weighted_prf: clipped n-gram precision AND recall per order 1..4,
  uniformly averaged over orders where either side has n-grams; F1 is the
  harmonic mean of the averaged P and R.
* nist: information-weighted n-gram co-occurrence (weights from reference
  corpus statistics), order sums divided by candidate n-gram counts, with
  the NIST brevity factor exp(beta * ln(min(c/r, 1))^2), beta chosen so the
  factor is 0.5 at c/r = 2/3.
* ribes: rank-correlation score NKT * p1^alpha * bp^beta, where NKT maps
  Kendall's tau over one-to-one alignments (tokens occurring exactly once
  on both sides) into [0, 1]; a single alignment scores NKT = 0.5.
* ter: word edits (insert/delete/substitute) plus greedy block shifts per
  reference word. A shift moves a candidate span (length <= 10) that occurs
  verbatim in the reference to another position; at each step the first
  shift (scanning span length, then start, then destination, ascending)
  achieving the lowest resulting edit distance is applied, while it strictly
  improves.
* wmd_similarity: 1 / (1 + d) where d is the exact optimal-transport cost
  between normalized bag-of-token distributions under Euclidean ground
  distances between token embeddings.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

_NIST_BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2
_TER_MAX_SHIFT_LEN = 10
_MASS_TOL = 1e-9  # largest gap between the two mass sums transport_cost accepts


def char_tokens(text: str) -> list[str]:
    """Character-level tokenization used for word-level metrics on Chinese."""
    return list(text)


def ngram_counts(tokens, n: int) -> Counter:
    tokens = list(tokens)
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


# -- n-gram overlap ------------------------------------------------------------


def _closest_ref_len(cand_len: int, references) -> int:
    # ties break toward the shorter reference
    return min((len(r) for r in references), key=lambda rl: (abs(rl - cand_len), rl))


def _clipped(cand_counts: Counter, ref_counts: list[Counter]) -> dict:
    """Each candidate n-gram -> its count, clipped at the most times it occurs
    in any one reference (0 when no reference has it)."""
    clipped = {}
    for gram, count in cand_counts.items():
        best = max((rc.get(gram, 0) for rc in ref_counts), default=0)
        clipped[gram] = min(count, best)
    return clipped


def _f_score(precision: float, recall: float, beta: float = 1.0) -> float:
    """F-beta of precision and recall; 0.0 when both are 0."""
    denom = beta * beta * precision + recall
    if denom == 0.0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


def _order_averaged_pr(cand, ref, max_n: int) -> tuple[float, float]:
    """Clipped n-gram precision and recall, each averaged uniformly over the
    orders 1..max_n where either side has n-grams; (0.0, 0.0) if none does."""
    p_sum = r_sum = 0.0
    orders = 0
    for n in range(1, max_n + 1):
        cand_counts = ngram_counts(cand, n)
        ref_counts = ngram_counts(ref, n)
        cand_total = sum(cand_counts.values())
        ref_total = sum(ref_counts.values())
        if cand_total == 0 and ref_total == 0:
            continue
        matched = sum(_clipped(cand_counts, [ref_counts]).values())
        p_sum += matched / cand_total if cand_total else 0.0
        r_sum += matched / ref_total if ref_total else 0.0
        orders += 1
    if orders == 0:
        return 0.0, 0.0
    return p_sum / orders, r_sum / orders


def bleu(candidate, references, max_n: int = 1) -> float:
    """Clipped n-gram precision BLEU against one or more references."""
    cand = list(candidate)
    refs = [list(r) for r in references]
    if not cand or not refs:
        return 0.0
    precisions = []
    for n in range(1, max_n + 1):
        cand_counts = ngram_counts(cand, n)
        matched = sum(_clipped(cand_counts, [ngram_counts(r, n) for r in refs]).values())
        if matched == 0:
            return 0.0
        precisions.append(matched / sum(cand_counts.values()))
    geo = math.exp(sum(math.log(p) for p in precisions) / len(precisions))
    c = len(cand)
    r = _closest_ref_len(c, refs)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * geo


def self_bleu(corpus, n: int) -> float:
    """Mean BLEU of each sentence against all others; lower = more diverse."""
    sentences = [list(s) for s in corpus]
    if len(sentences) < 2:
        raise ValueError("self_bleu needs at least two sentences")
    scores = []
    for i, sent in enumerate(sentences):
        others = sentences[:i] + sentences[i + 1 :]
        scores.append(bleu(sent, others, max_n=n))
    return sum(scores) / len(scores)


def chrf(candidate: str, reference: str, n: int = 6, beta: float = 2.0) -> float:
    """Character n-gram F-beta score between two raw strings."""
    if not candidate and not reference:
        return 1.0
    return _f_score(*_order_averaged_pr(candidate, reference, n), beta)


def gleu(candidate, reference, max_n: int = 4) -> float:
    """min(precision, recall) over n-gram counts pooled across orders 1..max_n."""
    cand = list(candidate)
    ref = list(reference)
    if not cand:
        return 0.0
    matched = cand_total = ref_total = 0
    for n in range(1, max_n + 1):
        cand_counts = ngram_counts(cand, n)
        ref_counts = ngram_counts(ref, n)
        matched += sum(_clipped(cand_counts, [ref_counts]).values())
        cand_total += sum(cand_counts.values())
        ref_total += sum(ref_counts.values())
    if cand_total == 0 or ref_total == 0:
        return 0.0
    return min(matched / cand_total, matched / ref_total)


def weighted_prf(candidate, reference, max_n: int = 4) -> tuple[float, float, float]:
    """Uniformly order-weighted clipped n-gram precision/recall and their F1."""
    precision, recall = _order_averaged_pr(list(candidate), list(reference), max_n)
    return precision, recall, _f_score(precision, recall)


# -- NIST ------------------------------------------------------------------------


def nist_info_weights(reference_corpus, max_n: int = 5) -> dict:
    """Information weights log2(count(prefix) / count(ngram)) from a corpus of
    reference token sequences; the order-1 prefix count is the total number
    of unigram tokens."""
    counts: list[Counter] = [Counter() for _ in range(max_n + 1)]
    for ref in reference_corpus:
        ref = list(ref)
        for n in range(1, max_n + 1):
            counts[n].update(ngram_counts(ref, n))
    total_unigrams = sum(counts[1].values())
    info: dict[tuple, float] = {}
    for n in range(1, max_n + 1):
        for gram, c in counts[n].items():
            prefix_count = total_unigrams if n == 1 else counts[n - 1][gram[:-1]]
            info[gram] = math.log2(prefix_count / c)
    return info


def nist(candidate, references, max_n: int = 5, info: dict | None = None) -> float:
    """Information-weighted n-gram score with the NIST brevity factor; 0.0
    for an empty candidate or when every reference is empty."""
    cand = list(candidate)
    refs = [list(r) for r in references]
    if not cand or not any(refs):
        return 0.0
    if info is None:
        info = nist_info_weights(refs, max_n)
    score = 0.0
    for n in range(1, max_n + 1):
        cand_counts = ngram_counts(cand, n)
        total = sum(cand_counts.values())
        if total == 0:
            continue
        weighted = 0.0
        for gram, matched in _clipped(cand_counts, [ngram_counts(r, n) for r in refs]).items():
            weighted += matched * info.get(gram, 0.0)
        score += weighted / total
    c = len(cand)
    r_mean = sum(len(r) for r in refs) / len(refs)
    ratio = min(c / r_mean, 1.0)
    bp = math.exp(_NIST_BETA * math.log(ratio) ** 2) if ratio < 1.0 else 1.0
    return score * bp


# -- RIBES -----------------------------------------------------------------------


def _unique_alignment(candidate, reference) -> list[int]:
    """Reference positions of candidate tokens occurring exactly once on both
    sides, listed in candidate order."""
    cand_counts = Counter(candidate)
    ref_counts = Counter(reference)
    ref_pos = {tok: i for i, tok in enumerate(reference)}
    return [ref_pos[tok] for tok in candidate if cand_counts[tok] == 1 and ref_counts[tok] == 1]


def ribes(candidate, reference, alpha: float = 0.25, beta: float = 0.10) -> float:
    """Rank-correlation metric over one-to-one word alignments."""
    cand = list(candidate)
    ref = list(reference)
    if not cand or not ref:
        return 0.0
    aligned = _unique_alignment(cand, ref)
    n = len(aligned)
    if n == 0:
        return 0.0
    if n == 1:
        nkt = 0.5
    else:
        concordant = sum(1 for i in range(n) for j in range(i + 1, n) if aligned[i] < aligned[j])
        pairs = n * (n - 1) // 2
        tau = (2 * concordant - pairs) / pairs
        nkt = (tau + 1.0) / 2.0
    matched = sum(_clipped(ngram_counts(cand, 1), [ngram_counts(ref, 1)]).values())
    p1 = matched / len(cand)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(cand)))
    return nkt * (p1**alpha) * (bp**beta)


# -- TER -------------------------------------------------------------------------


def _match_masks(reference) -> dict:
    """Token -> bitmask of the reference positions holding it (bit i is
    position i)."""
    masks: dict = {}
    for i, tok in enumerate(reference):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    return masks


def _edit_distance(a, masks: dict, m: int) -> int:
    """Word-level Levenshtein distance with unit costs from `a` to the length-m
    reference whose `_match_masks` are `masks`.

    Bit-parallel (Myers 1999, in Hyyrö's 2003 form): one Python int holds a
    whole column of vertical deltas (pv: +1, mv: -1), so each token of `a`
    costs a fixed handful of int operations whatever m is. The top row is
    D[0][j] = j, hence the 1 shifted into ph on every step.
    """
    if m == 0:
        return len(a)
    full = (1 << m) - 1
    high = 1 << (m - 1)
    pv, mv, score = full, 0, m
    for tok in a:
        eq = masks.get(tok, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full ^ (xh | pv))
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | (full ^ (xv | ph))) & full
        mv = ph & xv
    return score


def _ref_spans(reference, max_len: int) -> set[tuple]:
    spans = set()
    ref = list(reference)
    for length in range(1, min(max_len, len(ref)) + 1):
        for start in range(len(ref) - length + 1):
            spans.add(tuple(ref[start : start + length]))
    return spans


def _best_shift(current, masks, m, ref_spans, floor: int) -> tuple[int, list] | None:
    """First shift (span length asc, start asc, destination asc) reaching the
    minimal post-shift edit distance, or `floor`, which no shift can beat;
    None when no shift is possible."""
    best_dist = None
    best_seq = None
    n = len(current)
    for length in range(1, min(_TER_MAX_SHIFT_LEN, n) + 1):
        for start in range(n - length + 1):
            span = tuple(current[start : start + length])
            if span not in ref_spans:
                continue
            rest = current[:start] + current[start + length :]
            for dest in range(len(rest) + 1):
                if dest == start:
                    continue
                shifted = rest[:dest] + list(span) + rest[dest:]
                d = _edit_distance(shifted, masks, m)
                if best_dist is None or d < best_dist:
                    best_dist, best_seq = d, shifted
                    if d == floor:
                        return d, shifted
    return None if best_dist is None else (best_dist, best_seq)


def ter(candidate, reference) -> float:
    """Translation edit rate: (edits + block shifts) / reference length.
    Shifting stops at the longer length minus the shared tokens, a floor under
    the edit distance of every reordering of the candidate."""
    cand = list(candidate)
    ref = list(reference)
    if not ref:
        raise ValueError("ter needs a non-empty reference")
    spans = _ref_spans(ref, _TER_MAX_SHIFT_LEN)
    masks = _match_masks(ref)
    shifts = 0
    current = cand
    dist = _edit_distance(current, masks, len(ref))
    floor = max(len(cand), len(ref)) - sum((Counter(cand) & Counter(ref)).values())
    while dist > floor:
        found = _best_shift(current, masks, len(ref), spans, floor)
        if found is None:
            break
        new_dist, shifted = found
        if new_dist >= dist:  # each shift costs one edit, so require a strict gain
            break
        current = shifted
        shifts += 1
        dist = new_dist
    return (dist + shifts) / len(ref)


# -- embedding-based metrics -------------------------------------------------------


def wmd_similarity(candidate, reference, embeddings) -> float:
    """Optimal-transport similarity between bag-of-token distributions.

    `embeddings` maps token -> vector with an "[UNK]" fallback for tokens it
    does not cover. Distance is the optimum of the transportation LP under
    Euclidean ground costs, solved exactly by `transport_cost`'s min-cost
    flow; the reported value is 1 / (1 + distance).
    """
    cand = list(candidate)
    ref = list(reference)
    if not cand or not ref:
        raise ValueError("wmd needs non-empty sentences")
    cand_counts = Counter(cand)
    ref_counts = Counter(ref)
    if cand_counts == ref_counts:
        return 1.0
    cand_toks = sorted(cand_counts)
    ref_toks = sorted(ref_counts)

    def vec(tok):
        if tok in embeddings:
            return np.asarray(embeddings[tok], dtype=np.float64)
        return np.asarray(embeddings["[UNK]"], dtype=np.float64)

    p = np.array([cand_counts[t] for t in cand_toks], dtype=np.float64)
    p /= p.sum()
    q = np.array([ref_counts[t] for t in ref_toks], dtype=np.float64)
    q /= q.sum()
    cv = np.stack([vec(t) for t in cand_toks])
    rv = np.stack([vec(t) for t in ref_toks])
    cost = np.linalg.norm(cv[:, None, :] - rv[None, :, :], axis=2)
    distance = transport_cost(p, q, cost)
    return 1.0 / (1.0 + distance)


def transport_cost(p: np.ndarray, q: np.ndarray, cost: np.ndarray) -> float:
    """Exact optimal transport cost between masses p (m) and q (n) under the
    m x n ground `cost`: the minimum of sum(flow * cost) over flows >= 0 whose
    rows sum to p and columns to q.

    Successive shortest paths with node potentials (Ahuja, Magnanti & Orlin,
    *Network Flows*, 1993, ch. 9) on the network source i -> sink j. Each
    round runs Dijkstra on the reduced costs, which the potentials keep
    non-negative, from every source with supply left to the nearest sink
    with demand left, and pushes along that path as much mass as it admits.
    The flow stays free of negative-cost residual cycles, the optimality
    condition of the LP, so the answer is its optimum up to rounding, not an
    approximation. Each push empties a supply, a demand or a cancelled flow
    to exactly 0 (it subtracts the minimum itself).

    Raises ValueError on shapes that do not match, on negative or
    non-finite mass or cost, and on mass sums more than 1e-9 apart.
    """
    p, q, cost = (np.asarray(a, dtype=np.float64) for a in (p, q, cost))
    if p.ndim != 1 or q.ndim != 1 or cost.shape != (p.size, q.size):
        raise ValueError(f"transport needs masses of lengths m and n and an m x n cost, got {p.shape}, {q.shape} and {cost.shape}")
    for name, a in (("source mass", p), ("sink mass", q), ("cost", cost)):
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ValueError(f"transport {name} must be finite and non-negative")
    if abs(p.sum() - q.sum()) > _MASS_TOL:
        raise ValueError(f"transport masses sum to {p.sum()!r} and {q.sum()!r}")
    m, n = cost.shape
    cols = np.arange(n)
    carried = np.zeros((n, m))  # carried[j, i]: the flow source i ships to sink j
    supply, demand = p.copy(), q.copy()
    pot_src, pot_snk = np.zeros(m), np.zeros(n)
    max_pushes = 4 * (m + n) ** 2  # far above the count seen, about m + n
    for _ in range(max_pushes):
        if not (supply.any() and demand.any()):
            return float((carried * cost.T).sum())
        reduced = cost + pot_src[:, None] - pot_snk
        # Dijkstra settles sinks one at a time (`queue` holds the unsettled
        # ones' distances, inf once settled); a source is reached from the
        # first settled sink whose flow it carries (`via`), -1 if it starts.
        start = supply.nonzero()[0]
        dist_src = np.full(m, np.inf)
        dist_src[start] = 0.0
        via = np.full(m, -1)
        k = reduced[start].argmin(axis=0)
        dist_snk, src_of = reduced[start[k], cols], start[k]
        queue = dist_snk.copy()
        while True:
            j = int(queue.argmin())
            queue[j] = np.inf
            if demand[j] > 0:
                break
            reached = ((carried[j] > 0) & (dist_src == np.inf)).nonzero()[0]
            if reached.size:
                dist_src[reached] = dist_snk[j] + np.maximum(-reduced[reached, j], 0.0)
                via[reached] = j
                cand = dist_src[reached, None] + reduced[reached]
                k = cand.argmin(axis=0)
                best = cand[k, cols]
                shorter = ((best < queue) & (queue < np.inf)).nonzero()[0]
                dist_snk[shorter] = queue[shorter] = best[shorter]
                src_of[shorter] = reached[k[shorter]]
        sink, reach = j, dist_snk[j]
        pot_src += np.minimum(dist_src, reach)
        pot_snk += np.minimum(dist_snk, reach)
        forward, back, amount = [], [], demand[sink]
        while True:
            i = int(src_of[j])
            forward.append((i, j))
            if via[i] < 0:
                break
            j = int(via[i])
            back.append((i, j))
            amount = min(amount, carried[j, i])
        amount = min(amount, supply[i])
        supply[i] -= amount
        demand[sink] -= amount
        for i, j in forward:
            carried[j, i] += amount
        for i, j in back:
            carried[j, i] -= amount
    raise RuntimeError(f"transport solver did not finish within {max_pushes} augmentations")


def embed_score(candidate: str, reference: str, encoder, vocab) -> tuple[float, float, float]:
    """Greedy max-cosine matching of contextual token vectors.

    Precision averages, over candidate tokens, the best cosine against any
    reference token (floored at 0); recall is symmetric; F1 is their harmonic
    mean. Empty sides score zeros.
    """
    cand_vecs = _token_vectors(candidate, encoder, vocab)
    ref_vecs = _token_vectors(reference, encoder, vocab)
    if cand_vecs.shape[0] == 0 or ref_vecs.shape[0] == 0:
        return 0.0, 0.0, 0.0
    sims = _cosine_table(cand_vecs, ref_vecs)
    sims = np.maximum(sims, 0.0)
    precision = float(sims.max(axis=1).mean())
    recall = float(sims.max(axis=0).mean())
    return precision, recall, _f_score(precision, recall)


def _token_vectors(text: str, encoder, vocab) -> np.ndarray:
    from .numerics import no_grad
    from .tokenizer import NUM_RESERVED, UNK_ID, TokenBatch, encode

    ids = encode(text, vocab, max_len=encoder.config.max_len, mode="encoder")
    with no_grad():
        reps = encoder.encode(TokenBatch.stack([ids])).token_reps.data
    return reps[[i for i, tok in enumerate(ids) if tok >= NUM_RESERVED or tok == UNK_ID]]


def _cosine_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    an = a / np.linalg.norm(a, axis=1, keepdims=True).clip(min=1e-12)
    bn = b / np.linalg.norm(b, axis=1, keepdims=True).clip(min=1e-12)
    return an @ bn.T


# -- corpus-level metrics -----------------------------------------------------------


def entropy(corpus_tokens) -> float:
    """Shannon entropy (bits) of the corpus unigram distribution."""
    counts = Counter(corpus_tokens)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("entropy needs a non-empty corpus")
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def lexical_diversity(corpus_tokens) -> float:
    """Type-token ratio: distinct unigrams / total unigrams."""
    tokens = list(corpus_tokens)
    if not tokens:
        raise ValueError("lexical_diversity needs a non-empty corpus")
    return len(set(tokens)) / len(tokens)


def kl_divergence(gen_corpus, ref_corpus) -> float:
    """KL(gen || ref) over add-one-smoothed unigram distributions on the
    union vocabulary, natural log."""
    gen_counts = Counter(gen_corpus)
    ref_counts = Counter(ref_corpus)
    union = sorted(set(gen_counts) | set(ref_counts))
    if not union:
        raise ValueError("kl_divergence needs non-empty corpora")
    gen_total = sum(gen_counts.values()) + len(union)
    ref_total = sum(ref_counts.values()) + len(union)
    total = 0.0
    for tok in union:
        p = (gen_counts.get(tok, 0) + 1) / gen_total
        q = (ref_counts.get(tok, 0) + 1) / ref_total
        total += p * math.log(p / q)
    return total


# -- corpus report ------------------------------------------------------------------


@dataclass
class MetricReport:
    weighted_p: float
    weighted_r: float
    weighted_f1: float
    bleu1: float
    chrf: float
    gleu: float
    nist: float
    ribes: float
    ter: float | None
    wmd_similarity: float | None
    embed_p: float | None
    embed_r: float | None
    embed_f1: float | None
    entropy: float
    lexical_diversity: float
    kl_divergence: float
    self_bleu2: float | None
    self_bleu3: float | None

    def to_json(self) -> dict:
        return dict(self.__dict__)


def report(gen_lines, ref_lines, encoder=None, vocab=None) -> MetricReport:
    """Aggregate the full metric battery over aligned sentence files.

    Entropy/diversity/KL/Self-BLEU and the NIST information weights are
    computed over the whole corpora. Each sentence-level metric is averaged
    over the pairs where it is defined (None if there are none): TER over the
    pairs with a non-empty reference line, WMD over the pairs with both lines
    non-empty, every other metric over all pairs. The embedding-based metrics
    (WMD over the encoder's input embeddings, the contextual scores) need an
    encoder and its vocab.
    """
    gen_lines = [line.rstrip("\n") for line in gen_lines]
    ref_lines = [line.rstrip("\n") for line in ref_lines]
    if len(gen_lines) != len(ref_lines):
        raise ValueError(f"line count mismatch: {len(gen_lines)} generated vs {len(ref_lines)} reference")
    if not gen_lines:
        raise ValueError("empty input files")
    gen_tok = [char_tokens(line) for line in gen_lines]
    ref_tok = [char_tokens(line) for line in ref_lines]
    embeddings = embedding_table(encoder, vocab) if encoder is not None and vocab is not None else None

    info = nist_info_weights(ref_tok, max_n=5)
    rows = []  # per pair: metric name -> value, for the metrics defined on that pair
    for g_line, r_line, g, r in zip(gen_lines, ref_lines, gen_tok, ref_tok):
        row = dict(zip(("weighted_p", "weighted_r", "weighted_f1"), weighted_prf(g, r)))
        row["bleu1"] = bleu(g, [r], max_n=1)
        row["chrf"] = chrf(g_line, r_line)
        row["gleu"] = gleu(g, r)
        row["nist"] = nist(g, [r], max_n=5, info=info)
        row["ribes"] = ribes(g, r)
        if r:
            row["ter"] = ter(g, r)
        if embeddings is not None and g and r:
            row["wmd_similarity"] = wmd_similarity(g, r, embeddings)
        if embeddings is not None:
            row.update(zip(("embed_p", "embed_r", "embed_f1"), embed_score(g_line, r_line, encoder, vocab)))
        rows.append(row)

    def mean(name):
        values = [row[name] for row in rows if name in row]
        total = 0.0
        for value in values:  # one rounding per addition, in pair order (sum() compensates from Python 3.12)
            total += value
        return total / len(values) if values else None

    pair_metrics = ("weighted_p", "weighted_r", "weighted_f1", "bleu1", "chrf", "gleu", "nist", "ribes", "ter", "wmd_similarity", "embed_p", "embed_r", "embed_f1")
    gen_flat = [tok for sent in gen_tok for tok in sent]
    ref_flat = [tok for sent in ref_tok for tok in sent]
    return MetricReport(
        **{name: mean(name) for name in pair_metrics},
        entropy=entropy(gen_flat),
        lexical_diversity=lexical_diversity(gen_flat),
        kl_divergence=kl_divergence(gen_flat, ref_flat),
        self_bleu2=self_bleu(gen_tok, 2) if len(gen_tok) >= 2 else None,
        self_bleu3=self_bleu(gen_tok, 3) if len(gen_tok) >= 2 else None,
    )


def embedding_table(encoder, vocab) -> dict[str, np.ndarray]:
    """Static token embedding table extracted from an encoder's input matrix."""
    table: dict[str, np.ndarray] = {}
    emb = encoder.params["tok_emb"].data
    for idx in range(vocab.size):
        table[vocab.token_of(idx)] = emb[idx]
    return table
