import numpy as np
import pytest

from cogen import tensor as T
from cogen.tensor import ContractError, Tensor, gradcheck
from cogen.transformer import (AttentionTrace, TransformerConfig, cache_length,
                               decoder_step, encode, gather_cache,
                               init_block_params, init_decoder_params,
                               init_encoder_params, sinusoidal_positions,
                               transformer_block)


def _block(seed=0, d=8, d_ff=16, kv_dim=0):
    rng = np.random.default_rng(seed)
    params = {}
    init_block_params(rng, params, "blk", d, d_ff, kv_dim=kv_dim)
    return params


class TestPositions:
    def test_closed_form(self):
        enc = sinusoidal_positions(4, 6).astype(np.float64)
        for pos in range(4):
            for i in range(6):
                angle = pos / 10000 ** ((2 * (i // 2)) / 6)
                expect = np.sin(angle) if i % 2 == 0 else np.cos(angle)
                assert enc[pos, i] == pytest.approx(expect, abs=1e-5)

    def test_position_zero(self):
        enc = sinusoidal_positions(1, 8)
        assert np.allclose(enc[0, 0::2], 0.0)
        assert np.allclose(enc[0, 1::2], 1.0)

    def test_distinct_rows(self):
        enc = sinusoidal_positions(32, 16)
        assert len({tuple(np.round(r, 6)) for r in enc}) == 32


class TestBlock:
    def test_output_shape(self):
        params = _block()
        x = Tensor(np.random.default_rng(1).standard_normal((2, 5, 8)))
        allow = np.ones((2, 5, 5), dtype=bool)
        out = transformer_block(params, "blk", x, x, allow, n_heads=2)
        assert out.shape == (2, 5, 8)

    def test_attention_rows_sum_to_one(self):
        params = _block(2)
        x = Tensor(np.random.default_rng(3).standard_normal((1, 4, 8)))
        allow = np.tril(np.ones((1, 4, 4), dtype=bool))
        trace = AttentionTrace()
        transformer_block(params, "blk", x, x, allow, n_heads=2,
                          trace=trace, trace_label="blk")
        assert trace.entries[0][0] == "blk"
        assert trace.rows_sum_to_one()

    def test_masked_keys_get_zero_weight(self):
        params = _block(4)
        x = Tensor(np.random.default_rng(5).standard_normal((1, 4, 8)))
        allow = np.ones((1, 4, 4), dtype=bool)
        allow[:, :, 2] = False
        allow[:, 2, 2] = True   # keep row 2 non-empty
        trace = AttentionTrace()
        transformer_block(params, "blk", x, x, allow, n_heads=2,
                          trace=trace, trace_label="blk")
        w = trace.entries[0][1]
        assert np.all(w[0, :, [0, 1, 3], 2] < 1e-8)

    def test_fully_masked_query_row_rejected(self):
        params = _block(6)
        x = Tensor(np.random.default_rng(6).standard_normal((1, 3, 8)))
        allow = np.ones((1, 3, 3), dtype=bool)
        allow[0, 1, :] = False
        with pytest.raises(ContractError):
            transformer_block(params, "blk", x, x, allow, n_heads=2)

    def test_mask_invariance_to_masked_key_content(self):
        """Changing a masked-out key position must not change unmasked outputs."""
        params = _block(7)
        rng = np.random.default_rng(8)
        base = rng.standard_normal((1, 4, 8))
        allow = np.ones((1, 4, 4), dtype=bool)
        allow[:, :, 3] = False
        allow[:, 3, 3] = True
        kv = Tensor(base.copy())
        q = Tensor(rng.standard_normal((1, 4, 8)))
        out1 = transformer_block(params, "blk", q, kv, allow, n_heads=2)
        changed = base.copy()
        changed[0, 3] += 10.0
        out2 = transformer_block(params, "blk", q, Tensor(changed), allow, n_heads=2)
        assert np.allclose(out1.data[:, :3], out2.data[:, :3], atol=1e-5)

    def test_wide_kv_stream(self):
        params = _block(9, d=8, kv_dim=16)
        q = Tensor(np.random.default_rng(9).standard_normal((1, 3, 8)))
        kv = Tensor(np.random.default_rng(10).standard_normal((1, 5, 16)))
        allow = np.ones((1, 3, 5), dtype=bool)
        out = transformer_block(params, "blk", q, kv, allow, n_heads=2)
        assert out.shape == (1, 3, 8)

    def test_gradcheck_through_block(self):
        with T.use_dtype(np.float64):
            params = _block(11, d=4, d_ff=8)
            x = Tensor(np.random.default_rng(12).standard_normal((1, 3, 4)),
                       requires_grad=True)
            allow = np.ones((1, 3, 3), dtype=bool)

            def fn(x, *ps):
                out = transformer_block(params, "blk", x, x, allow, n_heads=2)
                return (out * out).sum()

            err = gradcheck(fn, [x] + list(params.values()))
        assert err < 1e-4


class TestEncoder:
    def test_padding_does_not_change_real_positions(self):
        cfg = TransformerConfig(n_layers=2, n_heads=2, d_model=8, max_seq_len=32)
        rng = np.random.default_rng(0)
        params = {}
        init_encoder_params(rng, params, "enc", cfg)
        emb = rng.standard_normal((1, 4, 8))
        short = encode(params, "enc", Tensor(emb), np.ones((1, 4), dtype=bool), cfg)
        padded_emb = np.concatenate([emb, rng.standard_normal((1, 2, 8))], axis=1)
        mask = np.array([[True] * 4 + [False] * 2])
        long = encode(params, "enc", Tensor(padded_emb), mask, cfg)
        assert np.allclose(short.hidden.data, long.hidden.data[:, :4], atol=1e-5)


class TestDecoder:
    def _setup(self, seed=0):
        cfg = TransformerConfig(n_layers=1, n_heads=2, d_model=8, max_seq_len=32)
        rng = np.random.default_rng(seed)
        params = {}
        init_encoder_params(rng, params, "enc", cfg)
        init_decoder_params(rng, params, "dec", cfg)
        src = Tensor(rng.standard_normal((1, 5, 8)))
        enc = encode(params, "enc", src, np.ones((1, 5), dtype=bool), cfg)
        return cfg, params, enc, rng

    def test_causality(self):
        """Changing a later prefix token must not affect earlier outputs."""
        cfg, params, enc, rng = self._setup()
        prefix = rng.standard_normal((1, 4, 8))
        h1, c1 = decoder_step(params, "dec", Tensor(prefix), enc, cfg)
        changed = prefix.copy()
        changed[0, 3] += 5.0
        h2, c2 = decoder_step(params, "dec", Tensor(changed), enc, cfg)
        assert np.allclose(h1.data[:, :3], h2.data[:, :3], atol=1e-5)
        assert np.allclose(c1.data[:, :3], c2.data[:, :3], atol=1e-5)

    def test_incremental_consistency(self):
        """Full-prefix pass agrees with a shorter prefix on shared positions,
        and with cached passes fed one position, or a few, at a time."""
        cfg, params, enc, rng = self._setup(3)
        prefix = rng.standard_normal((1, 5, 8))
        h_full, c_full = decoder_step(params, "dec", Tensor(prefix), enc, cfg)
        h_part, c_part = decoder_step(params, "dec", Tensor(prefix[:, :3]), enc, cfg)
        assert np.allclose(h_full.data[:, :3], h_part.data, atol=1e-5)
        assert np.allclose(c_full.data[:, :3], c_part.data, atol=1e-5)
        for chunks in ([1, 1, 1, 1, 1], [2, 3], [1, 4]):
            cache, hs, cs, start = {}, [], [], 0
            for n in chunks:
                h, c = decoder_step(params, "dec", Tensor(prefix[:, start:start + n]),
                                    enc, cfg, cache=cache)
                hs.append(h.data)
                cs.append(c.data)
                start += n
            assert cache_length(cache, "dec") == 5
            assert np.allclose(np.concatenate(hs, axis=1), h_full.data, atol=1e-5)
            assert np.allclose(np.concatenate(cs, axis=1), c_full.data, atol=1e-5)

    def test_cache_rows_follow_gather(self):
        """Rows taken from a cache, in any order and with repeats, continue
        as the prefixes they were taken from; the encoder keys and values
        keep batch 1 and broadcast."""
        cfg, params, enc, rng = self._setup(6)
        seqs = rng.standard_normal((3, 4, 8))
        seqs[:, 0] = seqs[0, 0]              # one shared start position
        cache = {}
        decoder_step(params, "dec", Tensor(seqs[:1, :1]), enc, cfg, cache=cache)
        cache = gather_cache(cache, [0, 0, 0])
        decoder_step(params, "dec", Tensor(seqs[:, 1:2]), enc, cfg, cache=cache)
        order = [2, 0, 1]
        cache = gather_cache(cache, order)
        h, c = decoder_step(params, "dec", Tensor(seqs[order, 2:]), enc, cfg, cache=cache)
        assert cache["dec.cross"].k.shape[0] == 1
        h_full, c_full = decoder_step(params, "dec", Tensor(seqs[order]), enc, cfg)
        assert np.allclose(h.data, h_full.data[:, 2:], atol=1e-5)
        assert np.allclose(c.data, c_full.data[:, 2:], atol=1e-5)

    def test_empty_prefix_rejected(self):
        cfg, params, enc, _ = self._setup(4)
        with pytest.raises(ContractError):
            decoder_step(params, "dec", Tensor(np.zeros((1, 0, 8))), enc, cfg)

    def test_cross_attention_traced(self):
        cfg, params, enc, rng = self._setup(5)
        trace = AttentionTrace()
        decoder_step(params, "dec", Tensor(rng.standard_normal((1, 3, 8))), enc,
                     cfg, trace=trace)
        labels = [label for label, _ in trace.entries]
        assert "dec.cross" in labels
        assert trace.rows_sum_to_one()


@pytest.mark.parametrize("act_attention", ["dynamic", "mean"])
def test_model_incremental_consistency(act_attention):
    """act_forward and response_forward fed one token at a time with a cache
    equal their teacher-forced passes over the whole prefix."""
    from cogen.corpus import (SynthSpec, build_vocab, expand_dialogue, make_batch,
                              synth_generate, toy_ontology)
    from cogen.model import CogenModel
    from cogen.tensor import no_grad
    spec = SynthSpec(corpus_size=3, seed=2)
    ontology = toy_ontology(spec)
    turns = [t for d in synth_generate(spec) for t in expand_dialogue(d)]
    text_vocab, act_vocab = build_vocab(turns, ontology)
    cfg = TransformerConfig(n_layers=2, n_heads=2, d_model=8, max_seq_len=128)
    model = CogenModel(cfg, text_vocab, act_vocab, ontology,
                       act_attention=act_attention, seed=1)
    batch = make_batch(turns[:2], text_vocab, act_vocab, ontology, 128)
    with no_grad():
        dual = model.encode_shared(batch)
        act_logits, act_hidden = model.act_forward(dual, batch.belief, batch.act_in)
        act_mask = np.ones(batch.act_in.shape, dtype=bool)
        resp_logits = model.response_forward(dual, act_hidden, act_mask, batch.resp_in)
        act_cache, resp_cache = {}, {}
        steps = []
        for t in range(batch.act_in.shape[1]):
            logits, hidden = model.act_forward(dual, batch.belief, batch.act_in[:, t:t + 1],
                                               cache=act_cache)
            steps.append((logits.data, hidden.data))
        assert np.allclose(np.concatenate([s[0] for s in steps], axis=1),
                           act_logits.data, atol=1e-5)
        assert np.allclose(np.concatenate([s[1] for s in steps], axis=1),
                           act_hidden.data, atol=1e-5)
        steps = [model.response_forward(dual, act_hidden, act_mask,
                                        batch.resp_in[:, t:t + 1], cache=resp_cache).data
                 for t in range(batch.resp_in.shape[1])]
        assert np.allclose(np.concatenate(steps, axis=1), resp_logits.data, atol=1e-5)
    assert ("respdec.dyn" in resp_cache) == (act_attention == "dynamic")


class TestConfig:
    def test_dff_defaults_to_four_times_d(self):
        assert TransformerConfig(d_model=16, n_heads=2).d_ff == 64

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            TransformerConfig(d_model=10, n_heads=4)
