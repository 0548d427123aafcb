import numpy as np
import pytest

from cogen.acts import Ontology
from cogen.corpus import (PAD_ID, RESERVED, SynthSpec, build_vocab,
                          expand_dialogue, make_batch, synth_generate,
                          toy_ontology)
from cogen.model import (CogenModel, ConfigError, LossMode, act_only_step,
                         combine_losses, sequence_loss, train_step,
                         uncertainty_loss, weighted_sum_loss)
from cogen.tensor import Adam, ContractError, Tensor, use_dtype
from cogen.transformer import TransformerConfig
from oracles import masked_encode_shared


@pytest.fixture(scope="module")
def world():
    spec = SynthSpec(corpus_size=8, seed=2)
    ontology = toy_ontology(spec)
    turns = [t for d in synth_generate(spec) for t in expand_dialogue(d)]
    text_vocab, act_vocab = build_vocab(turns, ontology)
    return ontology, turns, text_vocab, act_vocab


def _model(world, act_attention="dynamic", seed=0):
    ontology, _, text_vocab, act_vocab = world
    cfg = TransformerConfig(n_layers=1, n_heads=2, d_model=8, max_seq_len=128)
    return CogenModel(cfg, text_vocab, act_vocab, ontology,
                      act_attention=act_attention, seed=seed)


def _batch(world, n=2):
    ontology, turns, text_vocab, act_vocab = world
    return make_batch(turns[:n], text_vocab, act_vocab, ontology, 128)


class TestParamGroups:
    def test_act_and_response_partition_all(self, world):
        model = _model(world)
        act = set(model.param_names("act"))
        resp = set(model.param_names("response"))
        assert act | resp == set(model.param_names("all"))
        assert not (act & resp)

    def test_unknown_group_rejected(self, world):
        with pytest.raises(ConfigError):
            _model(world).param_names("decoder")

    def test_uncertainty_scalars_in_response_group(self, world):
        resp = _model(world).param_names("response")
        assert "s1" in resp and "s2" in resp

    def test_mean_mode_has_no_dynamic_block(self, world):
        dyn = _model(world, "dynamic")
        mean = _model(world, "mean")
        assert any(n.startswith("respdec.dyn") for n in dyn.params)
        assert not any(n.startswith("respdec.dyn") for n in mean.params)
        d = dyn.cfg.d_model
        assert dyn.params["w_resp_out"].shape[0] == 3 * d
        assert mean.params["w_resp_out"].shape[0] == 4 * d


class TestDualEncoding:
    def test_shapes(self, world):
        """The response pass is [B, S, d]; the act pass holds each row's act
        keys only: [B, K, d] with K the largest key count, and a compact mask
        whose row i is counts[i] Trues, then Falses."""
        model = _model(world)
        batch = _batch(world, 4)
        dual = model.encode_shared(batch)
        counts = (batch.act_key_mask & batch.src_mask).sum(axis=-1)
        assert len(set(counts)) > 1
        b, s = batch.src.shape
        d = model.cfg.d_model
        assert dual.enc_resp.hidden.shape == (b, s, d)
        assert np.array_equal(dual.enc_resp.source_mask, batch.src_mask)
        assert dual.enc_act.hidden.shape == (b, counts.max(), d)
        assert np.array_equal(dual.enc_act.source_mask,
                              np.arange(counts.max()) < counts[:, None])

    def test_masks_differ_for_multi_turn_history(self, world):
        batch = _batch(world, 4)
        assert any((batch.act_key_mask[i] != batch.src_mask[i]).any()
                   for i in range(4))

    def test_identical_masks_give_identical_states(self, world):
        """On a first turn the act-pass keys equal the full source, so the
        two encoder passes must agree bit for bit."""
        ontology, turns, text_vocab, act_vocab = world
        first = next(t for t in turns if t.turn_index == 0)
        batch = make_batch([first], text_vocab, act_vocab, ontology, 128)
        assert (batch.act_key_mask == batch.src_mask).all()
        model = _model(world)
        dual = model.encode_shared(batch)
        assert np.array_equal(dual.enc_act.hidden.data, dual.enc_resp.hidden.data)

    def test_empty_current_utterance_rejected(self, world):
        model = _model(world)
        batch = _batch(world)
        batch.act_key_mask[:] = False
        with pytest.raises(ContractError):
            model.encode_shared(batch)


class TestCompactActPass:
    """The act pass over gathered key positions against the masked pass over
    every position that it replaced (oracles.masked_encode_shared): the
    outputs at the key positions, the joint loss's act logits and every
    parameter gradient agree to rounding."""

    def _run(self, world, encode_shared, dtype):
        ontology, turns, text_vocab, act_vocab = world
        with use_dtype(dtype):
            cfg = TransformerConfig(n_layers=2, n_heads=2, d_model=8, max_seq_len=128)
            model = CogenModel(cfg, text_vocab, act_vocab, ontology, seed=4)
            batch = _batch(world, 6)
            dual = encode_shared(model, batch)
            act_logits, act_hidden = model.act_forward(dual, batch.belief, batch.act_in)
            resp_logits = model.response_forward(dual, act_hidden, batch.act_in != PAD_ID,
                                                  batch.resp_in)
            loss = combine_losses(model, sequence_loss(act_logits, batch.act_tg),
                                  sequence_loss(resp_logits, batch.resp_tg),
                                  LossMode.parse("uncertainty"))
            loss.backward()
        enc = dual.enc_act
        keys = enc.hidden.data[enc.source_mask]
        return keys, act_logits.data, {n: p.grad for n, p in model.params.items()}

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    def test_matches_masked_pass(self, world, dtype, tol):
        counts = _batch(world, 6).act_key_mask.sum(axis=-1)
        assert len(set(counts)) > 1
        keys, logits, grads = self._run(world, CogenModel.encode_shared, dtype)
        ref_keys, ref_logits, ref_grads = self._run(world, masked_encode_shared, dtype)

        def err(a, b):
            return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))

        assert keys.shape == ref_keys.shape
        assert err(keys, ref_keys) < tol
        assert err(logits, ref_logits) < tol
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.dtype == dtype and err(g, ref_grads[name]) < tol, name


class TestForward:
    def test_act_logit_shapes(self, world):
        model = _model(world)
        batch = _batch(world)
        dual = model.encode_shared(batch)
        logits, hidden = model.act_forward(dual, batch.belief, batch.act_in)
        b, ta = batch.act_in.shape
        assert logits.shape == (b, ta, len(model.act_vocab))
        assert hidden.shape == (b, ta, 2 * model.cfg.d_model)

    def test_belief_changes_act_logits(self, world):
        model = _model(world)
        batch = _batch(world)
        dual = model.encode_shared(batch)
        l1, _ = model.act_forward(dual, batch.belief, batch.act_in)
        l2, _ = model.act_forward(dual, np.zeros_like(batch.belief), batch.act_in)
        assert not np.allclose(l1.data, l2.data)

    def test_response_logit_shapes(self, world):
        for mode in ("dynamic", "mean"):
            model = _model(world, mode)
            batch = _batch(world)
            dual = model.encode_shared(batch)
            _, hidden = model.act_forward(dual, batch.belief, batch.act_in)
            logits = model.response_forward(dual, hidden,
                                            batch.act_in != PAD_ID, batch.resp_in)
            b, tr = batch.resp_in.shape
            assert logits.shape == (b, tr, len(model.text_vocab))

    def test_act_states_feed_response(self, world):
        model = _model(world)
        batch = _batch(world)
        dual = model.encode_shared(batch)
        _, hidden = model.act_forward(dual, batch.belief, batch.act_in)
        mask = batch.act_in != PAD_ID
        l1 = model.response_forward(dual, hidden, mask, batch.resp_in)
        l2 = model.response_forward(dual, hidden * 2.0, mask, batch.resp_in)
        assert not np.allclose(l1.data, l2.data)

    def test_act_token_out_of_range(self, world):
        model = _model(world)
        batch = _batch(world)
        dual = model.encode_shared(batch)
        bad = batch.act_in.copy()
        bad[0, 0] = len(model.act_vocab) + 5
        with pytest.raises(IndexError):
            model.act_forward(dual, batch.belief, bad)

    def test_seed_reproducibility(self, world):
        m1, m2 = _model(world, seed=3), _model(world, seed=3)
        assert all(np.array_equal(m1.params[n].data, m2.params[n].data)
                   for n in m1.params)


class TestLosses:
    def test_sequence_loss_ignores_padding(self, world):
        model = _model(world)
        batch = _batch(world)
        dual = model.encode_shared(batch)
        logits, _ = model.act_forward(dual, batch.belief, batch.act_in)
        loss = sequence_loss(logits, batch.act_tg)
        # further PAD target columns, whatever their logits, leave the mean
        b, _, v = logits.shape
        extra = np.random.default_rng(0).standard_normal((b, 3, v)) * 10
        padded = sequence_loss(Tensor(np.concatenate([logits.data, extra], axis=1)),
                               np.concatenate([batch.act_tg, np.full((b, 3), PAD_ID)], axis=1))
        assert padded.item() == pytest.approx(loss.item(), rel=1e-6)
        assert loss.item() > 0

    def test_sequence_loss_all_pad_rejected(self):
        logits = Tensor(np.zeros((1, 2, 4)))
        with pytest.raises(ContractError):
            sequence_loss(logits, np.zeros((1, 2), dtype=np.int64))

    def test_weighted_sum_endpoints(self):
        la, lr = Tensor(np.asarray(2.0)), Tensor(np.asarray(8.0))
        assert weighted_sum_loss(la, lr, 1.0).item() == pytest.approx(2.0)
        assert weighted_sum_loss(la, lr, 0.0).item() == pytest.approx(8.0)
        assert weighted_sum_loss(la, lr, 0.25).item() == pytest.approx(6.5)

    def test_weighted_sum_alpha_range(self):
        with pytest.raises(ConfigError):
            weighted_sum_loss(Tensor(np.asarray(1.0)), Tensor(np.asarray(1.0)), 1.5)

    def test_uncertainty_at_unit_sigma(self):
        la, lr = Tensor(np.asarray(2.0)), Tensor(np.asarray(8.0))
        s1, s2 = Tensor(np.zeros(())), Tensor(np.zeros(()))
        assert uncertainty_loss(la, lr, s1, s2).item() == pytest.approx(5.0)

    def test_uncertainty_closed_form(self):
        la, lr = Tensor(np.asarray(3.0)), Tensor(np.asarray(1.0))
        s1, s2 = Tensor(np.asarray(0.4)), Tensor(np.asarray(-0.7))
        expect = 0.5 * np.exp(-0.4) * 3 + 0.5 * np.exp(0.7) * 1 + 0.4 - 0.7
        assert uncertainty_loss(la, lr, s1, s2).item() == pytest.approx(expect, abs=1e-6)

    def test_loss_mode_parse(self):
        assert LossMode.parse("uncertainty").kind == "uncertainty"
        mode = LossMode.parse("weighted:0.3")
        assert mode.kind == "weighted" and mode.alpha == pytest.approx(0.3)
        with pytest.raises(ConfigError):
            LossMode.parse("harmonic")

    def test_combine_dispatch(self, world):
        model = _model(world)
        la, lr = Tensor(np.asarray(2.0)), Tensor(np.asarray(8.0))
        w = combine_losses(model, la, lr, LossMode.parse("weighted:0.5"))
        assert w.item() == pytest.approx(5.0)
        u = combine_losses(model, la, lr, LossMode.parse("uncertainty"))
        assert u.item() == pytest.approx(5.0)  # s1 = s2 = 0 at init


class TestSteps:
    def test_act_only_leaves_response_branch_untouched(self, world):
        model = _model(world)
        opt = Adam(model.params, lr=1e-3)
        batch = _batch(world)
        before = {n: model.params[n].data.copy()
                  for n in model.param_names("response")}
        for _ in range(3):
            act_only_step(model, batch, opt)
        for n, prev in before.items():
            assert np.array_equal(model.params[n].data, prev), n
        # while act-branch parameters did move
        assert not np.array_equal(model.params["w_act_out"].data,
                                  _model(world).params["w_act_out"].data)

    def test_joint_step_reduces_loss(self, world):
        model = _model(world)
        opt = Adam(model.params, lr=1e-3)
        batch = _batch(world, 4)
        mode = LossMode.parse("weighted:0.5")
        first = train_step(model, batch, opt, mode)["total"]
        for _ in range(20):
            last = train_step(model, batch, opt, mode)["total"]
        assert last < first

    def test_uncertainty_stats_reported(self, world):
        model = _model(world)
        opt = Adam(model.params, lr=1e-3)
        stats = train_step(model, _batch(world), opt, LossMode.parse("uncertainty"))
        assert set(stats) == {"l_a", "l_r", "total", "sigma1_sq", "sigma2_sq"}
        assert stats["sigma1_sq"] > 0 and stats["sigma2_sq"] > 0
