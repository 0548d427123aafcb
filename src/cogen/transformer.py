"""Transformer building blocks: multi-head attention + FFN blocks, encoder
stack, causal decoder, and output projection.

Layout conventions: activations, and the projected queries, keys and
values, are [batch, seq, d_model]; only the fused `tensor.attention` op
splits them into heads. Attention takes a boolean key mask [batch or 1,
k_len] (True = may be attended to) and a causal flag; both are applied inside
that op, so no mask enters the autodiff graph. Blocks are pre-norm:
x + Attn(LN(x)), then s + FFN(LN(s)).

Incremental decoding passes a cache (a dict from block prefix to KVCache)
through the same functions that teacher forcing calls without one.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor, ContractError, attention, concat, matmul, layer_norm


@dataclass
class TransformerConfig:
    n_layers: int = 3
    n_heads: int = 4
    d_model: int = 128
    d_ff: int = 0          # 0 -> 4 * d_model
    max_seq_len: int = 256

    def __post_init__(self):
        if self.d_ff == 0:
            self.d_ff = 4 * self.d_model
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


@dataclass
class EncoderOutput:
    hidden: Tensor                 # [batch, seq, d_model]
    source_mask: np.ndarray        # [batch, seq] bool, True = real token


@dataclass
class KVCache:
    """Projected attention keys and values [rows, positions, d_model] of one
    block, kept between incremental decoder calls. Self-attention appends
    each call's new positions (`grows`); attention over a fixed stream
    (encoder or act states) computes them on the first call and reuses them,
    with the stream's batch."""
    k: Tensor | None = None
    v: Tensor | None = None
    grows: bool = False


def gather_cache(cache: dict, rows) -> dict:
    """A cache whose growing entries hold the given rows, in that order;
    fixed-stream entries are shared, since they do not depend on the row."""
    return {name: KVCache(Tensor(e.k.data[rows]), Tensor(e.v.data[rows]), True)
            if e.grows else e for name, e in cache.items()}


def cache_length(cache: dict | None, prefix: str) -> int:
    """Positions decoder `prefix` has already consumed into `cache`."""
    entry = (cache or {}).get(f"{prefix}.self0")
    return 0 if entry is None else entry.k.shape[1]


@dataclass
class AttentionTrace:
    """Attention weights captured during a forward pass.

    Each entry is (label, weights[batch, heads, q_len, k_len]).
    """
    entries: list = field(default_factory=list)

    def add(self, label: str, weights: np.ndarray):
        self.entries.append((label, weights))

    def rows_sum_to_one(self, tol=1e-5) -> bool:
        return all(np.allclose(w.sum(axis=-1), 1.0, atol=tol)
                   for _, w in self.entries)


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    pos = np.arange(n)[:, None].astype(np.float64)
    i = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc.astype(T.default_dtype())


def init_block_params(rng, params: dict, prefix: str, d_model: int, d_ff: int,
                      kv_dim: int = 0):
    """Register one attention+FFN block's parameters under `prefix`.

    kv_dim lets the key/value stream have a different width than the query
    stream (used by the act-attention block over concatenated states).
    """
    kv = kv_dim or d_model
    scale_q = 1.0 / np.sqrt(d_model)
    scale_kv = 1.0 / np.sqrt(kv)
    params[f"{prefix}.wq"] = Tensor.randn(rng, (d_model, d_model), scale_q, True)
    params[f"{prefix}.wk"] = Tensor.randn(rng, (kv, d_model), scale_kv, True)
    params[f"{prefix}.wv"] = Tensor.randn(rng, (kv, d_model), scale_kv, True)
    params[f"{prefix}.wo"] = Tensor.randn(rng, (d_model, d_model), scale_q, True)
    params[f"{prefix}.ln1_g"] = Tensor(np.ones(d_model), True)
    params[f"{prefix}.ln1_b"] = Tensor(np.zeros(d_model), True)
    params[f"{prefix}.ln2_g"] = Tensor(np.ones(d_model), True)
    params[f"{prefix}.ln2_b"] = Tensor(np.zeros(d_model), True)
    params[f"{prefix}.ff_w1"] = Tensor.randn(rng, (d_model, d_ff), scale_q, True)
    params[f"{prefix}.ff_b1"] = Tensor(np.zeros(d_ff), True)
    params[f"{prefix}.ff_w2"] = Tensor.randn(rng, (d_ff, d_model), 1.0 / np.sqrt(d_ff), True)
    params[f"{prefix}.ff_b2"] = Tensor(np.zeros(d_model), True)


def transformer_block(params: dict, prefix: str, q: Tensor, kv: Tensor,
                      key_mask: np.ndarray | None, n_heads: int, causal: bool = False,
                      trace: AttentionTrace | None = None,
                      cache: dict | None = None) -> Tensor:
    """Pre-norm multi-head attention + FFN with residuals on the query stream.

    q: [B, Sq, d], kv: [B, Sk, dk], key_mask: [B or 1, Sk] bool or None.
    Masked keys get weight 0 in every query row; a row of key_mask with no
    key is a contract violation. causal lets query i attend to the keys up
    to its own position. The trace entry is labelled `prefix`.

    With a cache, self-attention (kv is q) attends over the cached keys and
    values followed by this call's positions, which are the last Sq of them;
    attention over another stream reuses the keys and values of its first
    call, whose batch may be 1 and broadcast against q.
    """
    if key_mask is not None and not key_mask.any(axis=-1).all():
        raise ContractError("attention: every key masked")
    qn = layer_norm(q, params[f"{prefix}.ln1_g"], params[f"{prefix}.ln1_b"])
    entry = None if cache is None else cache.setdefault(prefix, KVCache())
    if entry is not None and entry.k is not None and kv is not q:
        k, v = entry.k, entry.v
    else:
        kvn = kv if kv is not q else qn
        k = matmul(kvn, params[f"{prefix}.wk"])
        v = matmul(kvn, params[f"{prefix}.wv"])
        if entry is not None:
            if entry.k is not None:
                k = concat([entry.k, k], axis=1)
                v = concat([entry.v, v], axis=1)
            entry.k, entry.v, entry.grows = k, v, kv is q

    mask = None if key_mask is None else key_mask[:, None, None, :]
    if causal:
        sq, sk = q.shape[1], k.shape[1]
        past = np.tri(sq, sk, sk - sq, dtype=bool)   # query i is key sk - sq + i
        mask = past if mask is None else mask & past
    mixed, weights = attention(matmul(qn, params[f"{prefix}.wq"]), k, v, n_heads, mask)
    if trace is not None:
        trace.add(prefix, weights)
    s = q + matmul(mixed, params[f"{prefix}.wo"])

    sn = layer_norm(s, params[f"{prefix}.ln2_g"], params[f"{prefix}.ln2_b"])
    ff = matmul(sn, params[f"{prefix}.ff_w1"]) + params[f"{prefix}.ff_b1"]
    ff = matmul(ff.relu(), params[f"{prefix}.ff_w2"]) + params[f"{prefix}.ff_b2"]
    return s + ff


def init_encoder_params(rng, params: dict, prefix: str, cfg: TransformerConfig):
    for i in range(cfg.n_layers):
        init_block_params(rng, params, f"{prefix}.l{i}", cfg.d_model, cfg.d_ff)
    params[f"{prefix}.lnf_g"] = Tensor(np.ones(cfg.d_model), True)
    params[f"{prefix}.lnf_b"] = Tensor(np.zeros(cfg.d_model), True)


def encode(params: dict, prefix: str, emb: Tensor, key_mask: np.ndarray,
           cfg: TransformerConfig) -> EncoderOutput:
    """Self-attention stack over already-embedded input.

    emb: [B, S, d] embeddings (position encodings included by the caller).
    key_mask: [B, S] bool; masked positions are excluded as keys everywhere.
    They are padding: a source's pad tokens, or the slots past a shorter
    row's act keys in the compacted act pass (model.encode_shared). Their
    outputs are computed too, but only as queries, so nothing downstream may
    read them as keys (EncoderOutput.source_mask).
    """
    h = emb
    for i in range(cfg.n_layers):
        h = transformer_block(params, f"{prefix}.l{i}", h, h, key_mask, cfg.n_heads)
    h = layer_norm(h, params[f"{prefix}.lnf_g"], params[f"{prefix}.lnf_b"])
    return EncoderOutput(hidden=h, source_mask=key_mask)


def init_decoder_params(rng, params: dict, prefix: str, cfg: TransformerConfig):
    for i in range(cfg.n_layers):
        init_block_params(rng, params, f"{prefix}.self{i}", cfg.d_model, cfg.d_ff)
    init_block_params(rng, params, f"{prefix}.cross", cfg.d_model, cfg.d_ff)


def decoder_step(params: dict, prefix: str, prev_emb: Tensor, enc: EncoderOutput,
                 cfg: TransformerConfig, trace: AttentionTrace | None = None,
                 cache: dict | None = None) -> tuple[Tensor, Tensor]:
    """Causal decoder pass over the embeddings of the tokens not yet consumed.

    prev_emb: [B, T, d]. Without a cache this is the teacher-forced pass over
    a full prefix (position 0 is the start token); with one, the T positions
    follow the ones already cached, whose keys and values they attend to and
    extend. Returns (h, c): the causal self-attention stream after n_layers
    blocks and its cross-attention against the encoder states, both [B, T, d].
    """
    if prev_emb.shape[1] < 1:
        raise ContractError("decoder_step: empty prefix")
    h = prev_emb
    for i in range(cfg.n_layers):
        h = transformer_block(params, f"{prefix}.self{i}", h, h, None, cfg.n_heads,
                              causal=True, cache=cache)
    c = transformer_block(params, f"{prefix}.cross", h, enc.hidden, enc.source_mask,
                          cfg.n_heads, trace=trace, cache=cache)
    return h, c


def output_projection(features: Tensor, w: Tensor) -> Tensor:
    """Map concatenated decoder features to vocabulary logits."""
    if features.shape[-1] != w.shape[0]:
        raise T.ShapeError(
            f"output_projection: feature width {features.shape[-1]} vs W rows {w.shape[0]}")
    return matmul(features, w)
