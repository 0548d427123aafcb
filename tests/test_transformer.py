import numpy as np
import pytest

from cogen import tensor as T
from cogen.tensor import ContractError, Tensor, gradcheck
from cogen.transformer import (AttentionTrace, TransformerConfig, cache_length,
                               decoder_step, encode, gather_cache,
                               init_block_params, init_decoder_params,
                               init_encoder_params, sinusoidal_positions,
                               transformer_block)
from oracles import allow_matrix_block, allow_matrix_decoder_step, allow_matrix_encode


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
        out = transformer_block(params, "blk", x, x, np.ones((2, 5), dtype=bool),
                                n_heads=2)
        assert out.shape == (2, 5, 8)

    def test_attention_rows_sum_to_one(self):
        params = _block(2)
        x = Tensor(np.random.default_rng(3).standard_normal((1, 4, 8)))
        trace = AttentionTrace()
        transformer_block(params, "blk", x, x, None, n_heads=2, causal=True, trace=trace)
        label, w = trace.entries[0]
        assert label == "blk"
        assert trace.rows_sum_to_one()
        assert np.all(w[0][:, np.triu_indices(4, 1)[0], np.triu_indices(4, 1)[1]] == 0)

    def test_masked_keys_get_zero_weight(self):
        params = _block(4)
        x = Tensor(np.random.default_rng(5).standard_normal((2, 4, 8)))
        key_mask = np.array([[True, True, False, True], [False, True, True, True]])
        trace = AttentionTrace()
        transformer_block(params, "blk", x, x, key_mask, n_heads=2, trace=trace)
        w = trace.entries[0][1]
        assert np.all(w[0, :, :, 2] == 0) and np.all(w[1, :, :, 0] == 0)
        assert np.all(w[0, :, :, [0, 1, 3]] > 0)
        assert trace.rows_sum_to_one()

    def test_causal_and_key_mask_combine(self):
        params = _block(4)
        x = Tensor(np.random.default_rng(5).standard_normal((1, 4, 8)))
        trace = AttentionTrace()
        transformer_block(params, "blk", x, x, np.array([[True, False, True, True]]),
                          n_heads=2, causal=True, trace=trace)
        allowed = np.tril(np.ones((4, 4), dtype=bool)) & [True, False, True, True]
        w = trace.entries[0][1][0]
        assert np.all(w[:, ~allowed] == 0) and np.all(w[:, allowed] > 0)

    def test_fully_masked_query_row_rejected(self):
        """A batch row whose key mask holds no key leaves every query of it
        with nothing to attend to."""
        params = _block(6)
        x = Tensor(np.random.default_rng(6).standard_normal((2, 3, 8)))
        key_mask = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(ContractError):
            transformer_block(params, "blk", x, x, key_mask, n_heads=2)

    def test_mask_invariance_to_masked_key_content(self):
        """Changing a masked-out key position changes no output at all."""
        params = _block(7)
        rng = np.random.default_rng(8)
        base = rng.standard_normal((1, 4, 8))
        key_mask = np.array([[True, True, True, False]])
        q = Tensor(rng.standard_normal((1, 4, 8)))
        out1 = transformer_block(params, "blk", q, Tensor(base), key_mask, n_heads=2)
        changed = base.copy()
        changed[0, 3] += 10.0
        out2 = transformer_block(params, "blk", q, Tensor(changed), key_mask, n_heads=2)
        assert np.array_equal(out1.data, out2.data)

    def test_wide_kv_stream(self):
        params = _block(9, d=8, kv_dim=16)
        q = Tensor(np.random.default_rng(9).standard_normal((1, 3, 8)))
        kv = Tensor(np.random.default_rng(10).standard_normal((1, 5, 16)))
        key_mask = np.array([[True, True, True, True, False]])
        trace = AttentionTrace()
        out = transformer_block(params, "blk", q, kv, key_mask, n_heads=2, trace=trace)
        assert out.shape == (1, 3, 8)
        assert trace.entries[0][1].shape == (1, 2, 3, 5)
        assert np.all(trace.entries[0][1][..., 4] == 0)

    def test_gradcheck_through_block(self):
        for causal in (False, True):
            with T.use_dtype(np.float64):
                params = _block(11, d=4, d_ff=8)
                x = Tensor(np.random.default_rng(12).standard_normal((1, 3, 4)),
                           requires_grad=True)
                key_mask = np.array([[True, False, True]])

                def fn(x, *ps):
                    out = transformer_block(params, "blk", x, x, key_mask, n_heads=2,
                                            causal=causal)
                    return (out * out).sum()

                err = gradcheck(fn, [x] + list(params.values()))
            assert err < 1e-4, causal

    def test_no_head_reshape_nodes(self):
        """A block's graph holds no reshape or transpose node: the fused op
        splits and merges heads itself. The reference block, which splits
        them with graph nodes, shows that the walk finds such nodes."""
        def backward_fns(out):
            names, stack, seen = [], [out], set()
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    if node._backward_fn is not None:
                        names.append(node._backward_fn.__qualname__)
                    stack.extend(node._parents)
            return names

        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True)
        kv = Tensor(rng.standard_normal((1, 3, 16)), requires_grad=True)
        shape_ops = ("Tensor.reshape.", "Tensor.transpose.")
        for stream in (x, kv):
            params = _block(13, kv_dim=stream.shape[-1])
            new = backward_fns(transformer_block(params, "blk", x, stream, None,
                                                 n_heads=2, causal=stream is x))
            allow = np.ones((2, 4, stream.shape[1]), dtype=bool)
            old = backward_fns(allow_matrix_block(params, "blk", x, stream, allow, 2))
            assert any(name.startswith(shape_ops) for name in old)
            assert not any(name.startswith(shape_ops) for name in new)
            assert sum(name.startswith("attention.") for name in new) == 1


class TestAgainstAllowMatrices:
    """Key masks give, on every key position, the outputs and gradients of
    the [B, Sq, Sk] allow matrices they replaced, to the bit."""

    def _encoder(self, seed):
        cfg = TransformerConfig(n_layers=2, n_heads=2, d_model=8, max_seq_len=32)
        rng = np.random.default_rng(seed)
        params = {}
        init_encoder_params(rng, params, "enc", cfg)
        emb = rng.standard_normal((3, 7, 8)).astype(np.float32)
        return cfg, params, emb

    def _run(self, fn, params, keys):
        """fn's hidden states on the key positions, and the parameter
        gradients of a loss that reads only those positions."""
        for p in params.values():
            p.grad = None
        h = fn()
        (h * Tensor(keys[:, :, None].astype(np.float32)) * h).sum().backward()
        return h.data[keys], {n: p.grad for n, p in params.items()}

    @pytest.mark.parametrize("case", ["padded", "act-masked"])
    def test_encoder(self, case):
        cfg, params, emb = self._encoder(0 if case == "padded" else 1)
        if case == "padded":      # trailing padding of three lengths
            keys = np.arange(7)[None, :] < np.array([[7], [4], [2]])
        else:                     # an inner span, like the current utterance
            keys = np.zeros((3, 7), dtype=bool)
            keys[0, 2:5] = keys[1, 0:1] = keys[2, 4:7] = True
        new, new_grads = self._run(
            lambda: encode(params, "enc", Tensor(emb), keys, cfg).hidden, params, keys)
        old, old_grads = self._run(
            lambda: allow_matrix_encode(params, "enc", Tensor(emb), keys, cfg), params, keys)
        assert np.array_equal(new, old)
        for name in params:
            assert np.array_equal(new_grads[name], old_grads[name]), name

    def test_cached_causal_decoder(self):
        cfg = TransformerConfig(n_layers=2, n_heads=2, d_model=8, max_seq_len=32)
        rng = np.random.default_rng(2)
        params = {}
        init_encoder_params(rng, params, "enc", cfg)
        init_decoder_params(rng, params, "dec", cfg)
        source_mask = np.arange(6)[None, :] < np.array([[6], [3]])
        enc = encode(params, "enc", Tensor(rng.standard_normal((2, 6, 8))),
                     source_mask, cfg)
        prefix = rng.standard_normal((2, 6, 8)).astype(np.float32)
        for chunks in ([6], [1, 1, 1, 1, 1, 1], [2, 3, 1]):
            new_cache, old_cache, start = {}, {}, 0
            for n in chunks:
                x = Tensor(prefix[:, start:start + n])
                new = decoder_step(params, "dec", x, enc, cfg, cache=new_cache)
                old = allow_matrix_decoder_step(params, "dec", x, enc, cfg, cache=old_cache)
                start += n
                for a, b in zip(new, old):
                    assert np.array_equal(a.data, b.data)


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
            assert cache["dec.self0"].k.shape == cache["dec.self0"].v.shape == (1, 5, 8)
            assert cache["dec.cross"].k.shape == (1, 5, 8)
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
