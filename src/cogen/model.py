"""Act/response co-generation model: shared encoder with dual masking, act
decoder with belief injection, response decoder with dynamic act attention,
and the two loss regimes (fixed weighted sum vs. learned task uncertainty).
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, ContractError, concat, cross_entropy, embedding, matmul
from .transformer import (TransformerConfig, EncoderOutput, AttentionTrace,
                          cache_length, encode, decoder_step, output_projection,
                          transformer_block, init_encoder_params,
                          init_decoder_params, init_block_params,
                          sinusoidal_positions)
from .corpus import Batch, Vocab, belief_dim, PAD_ID
from .acts import Ontology
from .config import ConfigError, RunConfig


def model_config(run: RunConfig) -> TransformerConfig:
    """The encoder and decoder shape a run asks for."""
    return TransformerConfig(n_layers=run.n_layers, n_heads=run.n_heads,
                             d_model=run.d_model, d_ff=run.d_ff,
                             max_seq_len=run.max_seq_len)


@dataclass
class DualEncoding:
    # the current utterance and db tokens only, gathered in source order:
    # [B, K] with K the batch's largest count, a row's padded slots masked
    enc_act: EncoderOutput
    enc_resp: EncoderOutput   # the whole source: full history + db tokens


class CogenModel:
    """Parameter container plus the forward passes of both generators.

    act_attention selects how the response decoder consumes act hidden
    states: "dynamic" (attention over them) or "mean" (their average), the
    latter existing for the pipeline ablation.
    """

    def __init__(self, cfg: TransformerConfig, text_vocab: Vocab, act_vocab: Vocab,
                 ontology: Ontology, act_attention: str = "dynamic", seed: int = 0):
        if act_attention not in ("dynamic", "mean"):
            raise ConfigError(f"unknown act_attention mode {act_attention!r}")
        self.cfg = cfg
        self.text_vocab = text_vocab
        self.act_vocab = act_vocab
        self.ontology = ontology
        self.act_attention = act_attention
        d = cfg.d_model
        rng = np.random.default_rng(seed)
        p: dict = {}
        scale = 1.0 / np.sqrt(d)
        p["emb.src"] = Tensor.randn(rng, (len(text_vocab), d), scale, True)
        p["emb.act"] = Tensor.randn(rng, (len(act_vocab), d), scale, True)
        p["w_belief"] = Tensor.randn(rng, (belief_dim(ontology), d), scale, True)
        init_encoder_params(rng, p, "enc", cfg)
        init_decoder_params(rng, p, "actdec", cfg)
        init_decoder_params(rng, p, "respdec", cfg)
        if act_attention == "dynamic":
            init_block_params(rng, p, "respdec.dyn", d, cfg.d_ff, kv_dim=2 * d)
            resp_feat = 3 * d
        else:
            resp_feat = 4 * d   # [h; c; mean of 2d-wide act states]
        p["w_act_out"] = Tensor.randn(rng, (2 * d, len(act_vocab)),
                                      1.0 / np.sqrt(2 * d), True)
        p["w_resp_out"] = Tensor.randn(rng, (resp_feat, len(text_vocab)),
                                       1.0 / np.sqrt(resp_feat), True)
        # log sigma^2 of the two tasks, initialized at sigma = 1
        p["s1"] = Tensor(np.zeros(()), True)
        p["s2"] = Tensor(np.zeros(()), True)
        self.params = p
        self._pos_tables: dict = {}   # dtype name -> the longest table built

    # -- parameter grouping ---------------------------------------------------

    def param_names(self, group: str = "all") -> list:
        """Names for "all", "act" (encoder + act branch), or "response"."""
        act_prefixes = ("emb.src", "emb.act", "w_belief", "enc.", "actdec.",
                        "w_act_out")
        resp_prefixes = ("respdec.", "w_resp_out")
        if group == "all":
            return list(self.params)
        if group == "act":
            return [n for n in self.params if n.startswith(act_prefixes)]
        if group == "response":
            return [n for n in self.params
                    if n.startswith(resp_prefixes) or n in ("s1", "s2")]
        raise ConfigError(f"unknown parameter group {group!r}")

    def subset(self, names) -> dict:
        return {n: self.params[n] for n in names}

    # -- embeddings -----------------------------------------------------------

    def _positions(self, n: int) -> np.ndarray:
        """The first n rows of one table per dtype, rebuilt longer when a
        longer prefix is asked for. The table's rows do not depend on its
        length, so a slice equals a table built at that length."""
        key = T.default_dtype().__name__
        table = self._pos_tables.get(key)
        if table is None or len(table) < n:
            table = self._pos_tables[key] = sinusoidal_positions(n, self.cfg.d_model)
        return table[:n]

    def _embed(self, table: Tensor, ids: np.ndarray, positions: np.ndarray) -> Tensor:
        """Scaled token embeddings plus the encodings of `positions`, each
        token's index in its source or prefix (broadcast against ids)."""
        e = embedding(table, ids) * float(np.sqrt(self.cfg.d_model))
        return e + Tensor.const(self._positions(int(positions.max()) + 1)[positions])

    # -- forward passes -------------------------------------------------------

    def encode_shared(self, batch: Batch) -> DualEncoding:
        """One parameter set, two passes over the same source: the response
        pass over every position, the act pass over each row's act keys
        only (current utterance and db tokens, in source order, with the
        encodings of their source positions). A position outside the act
        keys is never a key of the act pass, so leaving it out changes no
        key position's output beyond rounding."""
        act_keys = batch.act_key_mask & batch.src_mask
        counts = act_keys.sum(axis=-1)
        if not counts.all():
            raise ContractError("encode_shared: a turn has an empty current utterance")
        # key positions first, in order; a shorter row's slots past its
        # count hold other positions, masked as keys
        pos = np.argsort(~act_keys, axis=-1, kind="stable")[:, :counts.max()]
        compact = np.arange(pos.shape[1]) < counts[:, None]
        table = self.params["emb.src"]
        act_emb = self._embed(table, np.take_along_axis(batch.src, pos, axis=-1), pos)
        enc_act = encode(self.params, "enc", act_emb, compact, self.cfg)
        emb = self._embed(table, batch.src, np.arange(batch.src.shape[1]))
        enc_resp = encode(self.params, "enc", emb, batch.src_mask, self.cfg)
        return DualEncoding(enc_act=enc_act, enc_resp=enc_resp)

    def act_forward(self, dual: DualEncoding, belief: np.ndarray,
                    act_in: np.ndarray, cache: dict | None = None):
        """Act decoder pass: teacher-forced over a full prefix, or, with a
        cache (see decoder_step), over the tokens that follow the cached ones.

        Returns (logits [B, Ta, Va], act hidden states [B, Ta, 2d]). The
        belief projection is added to every act token embedding.
        """
        if np.any(act_in >= len(self.act_vocab)):
            raise IndexError("act_forward: token id outside act vocabulary")
        t0 = cache_length(cache, "actdec")
        u = self._embed(self.params["emb.act"], act_in, np.arange(t0, t0 + act_in.shape[1]))
        proj = matmul(Tensor.const(belief.astype(T.default_dtype())),
                      self.params["w_belief"])
        u = u + proj.reshape(proj.shape[0], 1, proj.shape[1])
        h, c = decoder_step(self.params, "actdec", u, dual.enc_act, self.cfg,
                            cache=cache)
        hidden = concat([h, c], axis=-1)
        logits = output_projection(hidden, self.params["w_act_out"])
        return logits, hidden

    def response_forward(self, dual: DualEncoding, act_hidden: Tensor,
                         act_mask: np.ndarray, resp_in: np.ndarray,
                         trace: AttentionTrace | None = None,
                         cache: dict | None = None) -> Tensor:
        """Response decoder pass -> logits [B, Tr, Vt]; teacher-forced, or
        incremental with a cache as in act_forward. The cache also keeps the
        keys and values of the act hidden states."""
        if act_hidden.shape[1] == 0:
            raise ContractError("response_forward: empty act hidden states")
        t0 = cache_length(cache, "respdec")
        e = self._embed(self.params["emb.src"], resp_in, np.arange(t0, t0 + resp_in.shape[1]))
        h, c = decoder_step(self.params, "respdec", e, dual.enc_resp, self.cfg,
                            trace=trace, cache=cache)
        if self.act_attention == "dynamic":
            o = transformer_block(self.params, "respdec.dyn", h, act_hidden,
                                  act_mask, self.cfg.n_heads, trace=trace, cache=cache)
        else:
            b, tr, _ = h.shape
            ta = act_hidden.shape[1]
            w = act_mask.astype(T.default_dtype())
            w = w / w.sum(axis=-1, keepdims=True)
            w = np.broadcast_to(w[:, None, :], (b, tr, ta)).copy()
            o = matmul(Tensor.const(w), act_hidden)
        feats = concat([h, c, o], axis=-1)
        return output_projection(feats, self.params["w_resp_out"])


# -- losses -------------------------------------------------------------------


def sequence_loss(logits: Tensor, targets: np.ndarray,
                  ignore_id: int = PAD_ID) -> Tensor:
    """Token cross entropy, mean over non-padding positions."""
    b, t, v = logits.shape
    flat = logits.reshape(b * t, v)
    tg = targets.reshape(-1)
    n = int((tg != ignore_id).sum())
    if n == 0:
        raise ContractError("sequence_loss: batch has zero non-pad tokens")
    return cross_entropy(flat, tg, ignore_id=ignore_id) * (1.0 / n)


def weighted_sum_loss(l_a: Tensor, l_r: Tensor, alpha: float) -> Tensor:
    """alpha*L_a + (1 - alpha)*L_r; LossMode.parse holds alpha to [0, 1]."""
    return l_a * alpha + l_r * (1.0 - alpha)


def uncertainty_loss(l_a: Tensor, l_r: Tensor, s1: Tensor, s2: Tensor) -> Tensor:
    """Task-uncertainty weighting with s_i = log sigma_i^2:
    0.5*exp(-s1)*L_a + 0.5*exp(-s2)*L_r + s1 + s2."""
    return ((-s1).exp() * l_a * 0.5 + (-s2).exp() * l_r * 0.5
            + s1.reshape(()) + s2.reshape(()))


@dataclass
class LossMode:
    kind: str            # "uncertainty" | "weighted"
    alpha: float = 0.5

    @classmethod
    def parse(cls, text: str) -> "LossMode":
        if text == "uncertainty":
            return cls("uncertainty")
        if text.startswith("weighted:"):
            try:
                alpha = float(text.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"weighted-sum alpha is not a number: {text!r}") from None
            if not 0.0 <= alpha <= 1.0:
                raise ConfigError(f"weighted-sum alpha must be in [0, 1], got {alpha}")
            return cls("weighted", alpha)
        raise ConfigError(f"unknown loss mode {text!r}")

    def __str__(self):
        return self.kind if self.kind == "uncertainty" else f"weighted:{self.alpha}"


def combine_losses(model: CogenModel, l_a: Tensor, l_r: Tensor,
                   mode: LossMode) -> Tensor:
    if mode.kind == "uncertainty":
        return uncertainty_loss(l_a, l_r, model.params["s1"], model.params["s2"])
    return weighted_sum_loss(l_a, l_r, mode.alpha)


# -- training -----------------------------------------------------------------


def act_only_step(model: CogenModel, batch: Batch, opt) -> float:
    """Warm-up / act-only step: encoder + act branch, response branch untouched."""
    opt.zero_grad()
    dual = model.encode_shared(batch)
    logits, _ = model.act_forward(dual, batch.belief, batch.act_in)
    l_a = sequence_loss(logits, batch.act_tg)
    l_a.backward()
    opt.step()
    return l_a.item()


def train_step(model: CogenModel, batch: Batch, opt, mode: LossMode) -> dict:
    """One joint forward/backward/Adam step; teacher forcing on both branches
    with the gold act prefix feeding the response decoder."""
    opt.zero_grad()
    dual = model.encode_shared(batch)
    act_logits, act_hidden = model.act_forward(dual, batch.belief, batch.act_in)
    act_mask = batch.act_in != PAD_ID
    resp_logits = model.response_forward(dual, act_hidden, act_mask, batch.resp_in)
    l_a = sequence_loss(act_logits, batch.act_tg)
    l_r = sequence_loss(resp_logits, batch.resp_tg)
    total = combine_losses(model, l_a, l_r, mode)
    total.backward()
    opt.step()
    return {
        "l_a": l_a.item(), "l_r": l_r.item(), "total": total.item(),
        "sigma1_sq": float(np.exp(model.params["s1"].item())),
        "sigma2_sq": float(np.exp(model.params["s2"].item())),
    }
