"""Independent reference implementations used only by the test suite.

These are deliberately written with different structure (Fraction arithmetic,
brute-force enumeration) from the package code they check.
"""

import itertools
import math
from fractions import Fraction


def reference_bleu(hypotheses, references, floor=Fraction(1, 10**9)):
    """Corpus BLEU-4 via exact rational arithmetic.

    Modified n-gram precision per order, computed with explicit counting
    loops; geometric mean taken in log space; brevity penalty applied.
    Zero match counts are floored before the log.
    """
    assert hypotheses and len(hypotheses) == len(references)

    def count_ngrams(tokens, n):
        counts = {}
        for i in range(len(tokens) - n + 1):
            g = tuple(tokens[i:i + n])
            counts[g] = counts.get(g, 0) + 1
        return counts

    precisions = []
    for n in (1, 2, 3, 4):
        match = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hc = count_ngrams(hyp, n)
            rc = count_ngrams(ref, n)
            for g, c in hc.items():
                match += min(c, rc.get(g, 0))
            total += max(0, len(hyp) - n + 1)
        if total == 0:
            return 0.0
        precisions.append(Fraction(match, total) if match else floor / total)

    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    log_mean = sum(math.log(float(p)) for p in precisions) / 4
    bp = 1.0 if hyp_len > ref_len else math.exp(1 - ref_len / max(1, hyp_len))
    return 100.0 * bp * math.exp(log_mean)


def exhaustive_decode(step_fn, vocab_size, max_len, sos_id, eos_id,
                      trigram_block=False):
    """Best sequence by brute force over every token string up to max_len.

    Mirrors the beam-search contract: hypotheses end when the end token is
    emitted; scores are summed log-softmax values; ties break toward the
    lexicographically smaller token tuple. Returns (tokens, score, finished).
    """
    import numpy as np

    def log_probs(prefix):
        logits = np.asarray(step_fn(prefix), dtype=np.float64)
        shifted = logits - logits.max()
        return shifted - math.log(np.exp(shifted).sum())

    def repeats_trigram(tokens, cand):
        if len(tokens) < 2:
            return False
        tri = (tokens[-2], tokens[-1], cand)
        return any(tuple(tokens[i:i + 3]) == tri for i in range(len(tokens) - 2))

    finished = []
    truncated = []
    frontier = [((sos_id,), 0.0)]
    for _ in range(max_len):
        nxt = []
        for tokens, score in frontier:
            logp = log_probs(tokens)
            for tok in range(vocab_size):
                if trigram_block and repeats_trigram(tokens, tok):
                    continue
                cand = (tokens + (tok,), score + float(logp[tok]))
                if tok == eos_id:
                    finished.append(cand)
                else:
                    nxt.append(cand)
        frontier = nxt
    truncated = frontier
    pool = finished if finished else truncated
    tokens, score = min(pool, key=lambda ts: (-ts[1], ts[0]))
    return tokens, score, bool(finished)


def all_sequences(vocab_size, max_len):
    """Every token tuple of length 1..max_len (testing helper)."""
    for n in range(1, max_len + 1):
        yield from itertools.product(range(vocab_size), repeat=n)


def reference_beam_search(step_fn, vocab_size, beam_size, max_len, sos_id, eos_id,
                          trigram_block=False, length_norm=False):
    """Beam search as one step call per live prefix, a trigram scan per
    candidate and a full sort of every step's candidates, run to the end.
    Returns (tokens, score, finished, truncated) of the winner."""
    import numpy as np

    def rank(hyp):
        tokens, score = hyp[0], hyp[1]
        if length_norm:
            score = score / max(1, len(tokens) - 1)
        return (-score, tokens)

    def repeats_trigram(tokens, cand):
        return len(tokens) >= 2 and any(
            tokens[i:i + 3] == (tokens[-2], tokens[-1], cand)
            for i in range(len(tokens) - 2))

    alive = [((sos_id,), 0.0)]
    finished, stalled = [], []
    for _ in range(max_len):
        candidates = []
        for tokens, score in alive:
            logits = np.asarray(step_fn(tokens), dtype=np.float64)
            shifted = logits - logits.max()
            logp = shifted - np.log(np.exp(shifted).sum())
            allowed = [t for t in range(vocab_size)
                       if not (trigram_block and repeats_trigram(tokens, t))]
            if not allowed:
                stalled.append((tokens, score))
            candidates += [(tokens + (t,), score + float(logp[t])) for t in allowed]
        kept = sorted(candidates, key=rank)[:beam_size]
        finished += [h for h in kept if h[0][-1] == eos_id]
        alive = [h for h in kept if h[0][-1] != eos_id]
        if not alive:
            break
    if finished:
        tokens, score = min(finished, key=rank)
        return tokens, score, True, False
    tokens, score = min(stalled + alive, key=rank)
    return tokens, score, False, True


def allow_matrix_block(params, prefix, q, kv, allow, n_heads, cache=None):
    """The attention + FFN block as it was before key masks: a [B, Sq, Sk]
    boolean allow matrix, turned into a constant additive -1e9 mask node
    that the scores pass through. Same parameters, cache and layout as
    transformer.transformer_block."""
    import numpy as np
    from cogen.tensor import ContractError, Tensor, concat, layer_norm, matmul
    from cogen.transformer import KVCache

    if not allow.any(axis=-1).all():
        raise ContractError("attention: query position with every key masked")
    d = q.shape[-1]

    qn = layer_norm(q, params[f"{prefix}.ln1_g"], params[f"{prefix}.ln1_b"])
    qh = split_heads(matmul(qn, params[f"{prefix}.wq"]), n_heads)
    entry = None if cache is None else cache.setdefault(prefix, KVCache())
    if entry is not None and entry.k is not None and kv is not q:
        k, v = entry.k, entry.v
    else:
        kvn = kv if kv is not q else qn
        k, v = matmul(kvn, params[f"{prefix}.wk"]), matmul(kvn, params[f"{prefix}.wv"])
        if entry is not None:
            if entry.k is not None:
                k = concat([entry.k, k], axis=1)
                v = concat([entry.v, v], axis=1)
            entry.k, entry.v, entry.grows = k, v, kv is q
    kh, vh = split_heads(k, n_heads), split_heads(v, n_heads)
    scores = matmul(qh, kh.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(d // n_heads))
    additive = np.where(allow[:, None, :, :], 0.0, -1e9).astype(scores.data.dtype)
    weights = masked_softmax(scores + Tensor.const(additive))
    mixed = merge_heads(matmul(weights, vh))
    s = q + matmul(mixed, params[f"{prefix}.wo"])
    sn = layer_norm(s, params[f"{prefix}.ln2_g"], params[f"{prefix}.ln2_b"])
    ff = matmul(sn, params[f"{prefix}.ff_w1"]) + params[f"{prefix}.ff_b1"]
    ff = matmul(ff.relu(), params[f"{prefix}.ff_w2"]) + params[f"{prefix}.ff_b2"]
    return s + ff


def allow_matrix_encode(params, prefix, emb, key_mask, cfg):
    """The encoder stack with the allow matrix the key mask used to be
    expanded to: every query row sees the keys and, to stay non-empty,
    itself. Returns the final hidden states."""
    import numpy as np
    from cogen.tensor import layer_norm

    b, s, _ = emb.shape
    allow = np.broadcast_to(key_mask[:, None, :], (b, s, s)).copy()
    allow[:, np.arange(s), np.arange(s)] = True
    h = emb
    for i in range(cfg.n_layers):
        h = allow_matrix_block(params, f"{prefix}.l{i}", h, h, allow, cfg.n_heads)
    return layer_norm(h, params[f"{prefix}.lnf_g"], params[f"{prefix}.lnf_b"])


def allow_matrix_decoder_step(params, prefix, prev_emb, enc, cfg, cache=None):
    """decoder_step with a [B, T, cached + T] causal matrix and a broadcast
    source-mask matrix for the cross-attention. Returns (h, c)."""
    import numpy as np
    from cogen.transformer import cache_length

    b, t, _ = prev_emb.shape
    t0 = cache_length(cache, prefix)
    causal = np.broadcast_to(np.tril(np.ones((t, t0 + t), dtype=bool), k=t0),
                             (b, t, t0 + t))
    h = prev_emb
    for i in range(cfg.n_layers):
        h = allow_matrix_block(params, f"{prefix}.self{i}", h, h, causal, cfg.n_heads,
                               cache=cache)
    sk = enc.hidden.shape[1]
    allow = np.broadcast_to(enc.source_mask[:, None, :], (b, t, sk))
    c = allow_matrix_block(params, f"{prefix}.cross", h, enc.hidden, allow,
                           cfg.n_heads, cache=cache)
    return h, c


def masked_softmax(x, mask=None):
    """The softmax node attention used before the fused op: mask applied
    with np.where before the row max, outside the graph."""
    import numpy as np
    from cogen.tensor import Tensor

    data = x.data if mask is None else np.where(mask, x.data, -np.inf)
    shifted = data - np.maximum.reduce(data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / np.add.reduce(e, axis=-1, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        x._accum(y * (g - dot))

    return x._record(Tensor(y), (x,), bw)


def split_heads(x, n_heads):
    """[B, S, d] -> [B, H, S, d / H] as reshape and transpose nodes."""
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x):
    """[B, H, S, dh] -> [B, S, H * dh] as transpose and reshape nodes."""
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def chain_attention(q, k, v, n_heads, mask=None):
    """tensor.attention as the op chain it replaced: head split, matmul,
    transpose, scaling, masked softmax, matmul, head merge. Returns
    (output, weights)."""
    import numpy as np
    from cogen.tensor import matmul

    qh, kh, vh = (split_heads(x, n_heads) for x in (q, k, v))
    scale = 1.0 / np.sqrt(q.shape[-1] // n_heads)
    weights = masked_softmax(matmul(qh, kh.transpose(0, 1, 3, 2)) * scale, mask)
    return merge_heads(matmul(weights, vh)), weights.data


def per_prefix(fn):
    """A beam_search step function around `fn(prefix) -> logits`: one call
    per live prefix, no state."""
    import numpy as np

    def step(frontier):
        return np.stack([np.asarray(fn(p), dtype=np.float64)
                         for p in frontier.prefixes]), None
    return step


def masked_encode_shared(model, batch):
    """CogenModel.encode_shared as it was before the act pass was compacted:
    one embedding of the source, and both passes over every position, the
    act pass with the positions outside its keys masked. Returns a
    DualEncoding whose enc_act is [B, S, d] with the act key mask."""
    import numpy as np
    from cogen.model import DualEncoding
    from cogen.transformer import encode

    act_keys = batch.act_key_mask & batch.src_mask
    emb = model._embed(model.params["emb.src"], batch.src, np.arange(batch.src.shape[1]))
    return DualEncoding(enc_act=encode(model.params, "enc", emb, act_keys, model.cfg),
                        enc_resp=encode(model.params, "enc", emb, batch.src_mask, model.cfg))

