import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogen.corpus import (EOS_ID, PAD_ID, SOS_ID, SynthSpec, build_vocab,
                          expand_dialogue, make_batch, synth_generate, toy_ontology)
from cogen.decode import (DecodeConfig, beam_search, export_trace, extend_bans,
                          generate_turn, has_repeated_trigram, trigram_allowed)
from cogen.model import CogenModel
from cogen.tensor import no_grad
from cogen.transformer import AttentionTrace, TransformerConfig
from oracles import exhaustive_decode, per_prefix, reference_beam_search

SOS, EOS = 1, 2


def random_step_fn(seed, vocab_size, scale=3.0):
    """Deterministic prefix -> logits map (a random but fixed language model)."""
    def step(prefix):
        key = zlib.crc32(repr((seed,) + tuple(prefix)).encode())
        return np.random.default_rng(key).standard_normal(vocab_size) * scale
    return step


class TestTrigram:
    def test_short_prefix_always_allowed(self):
        assert trigram_allowed((1,), 5)
        assert trigram_allowed((1, 2), 5)

    def test_repeat_blocked(self):
        assert not trigram_allowed((4, 5, 6, 4, 5), 6)

    def test_different_third_token_allowed(self):
        assert trigram_allowed((4, 5, 6, 4, 5), 7)

    @given(st.lists(st.integers(0, 3), max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_ban_map_blocks_what_trigram_allowed_blocks(self, tokens):
        bans, prefix = {}, (SOS,)
        for tok in tokens:
            for cand in range(4):
                blocked = cand in bans.get(prefix[-2:], ())
                assert blocked == (not trigram_allowed(prefix, cand))
            bans = extend_bans(bans, prefix, tok)
            prefix += (tok,)

    def test_has_repeated_trigram(self):
        assert has_repeated_trigram([1, 2, 3, 1, 2, 3])
        assert not has_repeated_trigram([1, 2, 3, 2, 1, 3])
        assert not has_repeated_trigram([1, 2])


class TestBeamAgainstEnumeration:
    def test_admissible_beam_equals_brute_force(self):
        """With beam width covering the whole search space the result must be
        the true argmax sequence, bit for bit, across many random tables."""
        vocab, max_len = 4, 5
        for seed in range(50):
            step = random_step_fn(seed, vocab)
            cfg = DecodeConfig(beam_size=vocab ** max_len, max_len=max_len,
                               trigram_block=False)
            hyp = beam_search(per_prefix(step), cfg, vocab, sos_id=SOS, eos_id=EOS)
            tokens, score, finished = exhaustive_decode(
                step, vocab, max_len, SOS, EOS)
            assert hyp.tokens == tokens, f"seed {seed}"
            assert hyp.score == pytest.approx(score, abs=1e-9)
            assert hyp.finished == finished

    def test_admissible_beam_with_blocking(self):
        vocab, max_len = 4, 5
        for seed in range(20):
            step = random_step_fn(seed + 1000, vocab)
            cfg = DecodeConfig(beam_size=vocab ** max_len, max_len=max_len,
                               trigram_block=True)
            hyp = beam_search(per_prefix(step), cfg, vocab, sos_id=SOS, eos_id=EOS)
            tokens, score, _ = exhaustive_decode(
                step, vocab, max_len, SOS, EOS, trigram_block=True)
            assert hyp.tokens == tokens, f"seed {seed}"
            assert hyp.score == pytest.approx(score, abs=1e-9)

    def test_narrow_beam_never_beats_brute_force(self):
        vocab, max_len = 5, 6
        for seed in range(20):
            step = random_step_fn(seed + 77, vocab)
            cfg = DecodeConfig(beam_size=2, max_len=max_len, trigram_block=False)
            hyp = beam_search(per_prefix(step), cfg, vocab, sos_id=SOS, eos_id=EOS)
            if not hyp.finished:
                continue   # a truncated prefix is not comparable to the optimum
            _, best, _ = exhaustive_decode(step, vocab, max_len, SOS, EOS)
            assert hyp.score <= best + 1e-9


class TestBeamAgainstReference:
    @pytest.mark.parametrize("beam_size", [1, 2, 3, 5])
    @pytest.mark.parametrize("trigram_block,length_norm",
                             [(False, False), (True, False), (True, True)])
    def test_matches_per_prefix_search(self, beam_size, trigram_block, length_norm):
        """The batched search picks what a per-prefix search with a full sort
        and no early stop picks, down to ties: integer logits make many
        candidates score alike."""
        for seed in range(60):
            vocab = 4 + seed % 3
            base = random_step_fn(seed, vocab, scale=1.5)

            def step(prefix, seed=seed, vocab=vocab):
                if seed % 2:
                    logits = np.round(base(prefix))
                else:
                    # one value set, permuted per prefix: equal sums across rows
                    key = zlib.crc32(repr((seed,) + tuple(prefix)).encode())
                    logits = np.random.default_rng(key).permutation(vocab).astype(float)
                logits[EOS] -= 1.0
                return logits
            cfg = DecodeConfig(beam_size=beam_size, max_len=7,
                               trigram_block=trigram_block, length_norm=length_norm)
            hyp = beam_search(per_prefix(step), cfg, vocab, sos_id=SOS, eos_id=EOS)
            ref = reference_beam_search(step, vocab, beam_size, 7, SOS, EOS,
                                        trigram_block, length_norm)
            assert (hyp.tokens, hyp.score, hyp.finished, hyp.truncated) == ref, seed


class TestBeamBehaviour:
    def test_greedy_equals_argmax_rollout(self):
        vocab, max_len = 6, 8
        step = random_step_fn(5, vocab)
        cfg = DecodeConfig(beam_size=1, max_len=max_len, trigram_block=False)
        hyp = beam_search(per_prefix(step), cfg, vocab, sos_id=SOS, eos_id=EOS)
        tokens = (SOS,)
        for _ in range(max_len):
            tok = int(np.argmax(step(tokens)))
            tokens = tokens + (tok,)
            if tok == EOS:
                break
        assert hyp.tokens == tokens

    def test_truncation_flagged_when_eos_unreachable(self):
        vocab = 4
        def step(prefix):
            logits = np.zeros(vocab)
            logits[EOS] = -1e9
            logits[3] = 5.0
            return logits
        cfg = DecodeConfig(beam_size=2, max_len=4, trigram_block=False)
        hyp = beam_search(per_prefix(step), cfg, vocab, sos_id=SOS, eos_id=EOS)
        assert hyp.truncated
        assert len(hyp.tokens) == 5

    def test_blocked_output_has_no_repeated_trigram(self):
        for seed in range(100):
            vocab = 5
            # strongly favor a short loop so blocking actually bites
            def step(prefix, seed=seed):
                logits = random_step_fn(seed, vocab, scale=0.1)(prefix)
                logits[3] += 4.0
                logits[EOS] -= 6.0
                return logits
            cfg = DecodeConfig(beam_size=2, max_len=12, trigram_block=True)
            hyp = beam_search(per_prefix(step), cfg, vocab, sos_id=SOS, eos_id=EOS)
            assert not has_repeated_trigram(hyp.tokens)

    @given(st.integers(3, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_stalled_search_returns_best_prefix(self, vocab, beam_size, seed):
        """No row stalls: trigram blocking never bans the end token, so with
        it in the vocabulary the search ends finished or at max_len, even
        where one token is heavily favoured and the end token nearly ruled
        out. At vocab 3 the favoured loops hit the trigram wall within
        max_len and the end token is the only way out."""
        def step(prefix):
            logits = random_step_fn(seed, vocab, scale=0.1)(prefix)
            logits[0] += 10.0
            logits[EOS] -= 30.0
            return logits
        cfg = DecodeConfig(beam_size=beam_size, max_len=20, trigram_block=True)
        hyp = beam_search(per_prefix(step), cfg, vocab, sos_id=SOS, eos_id=EOS)
        assert hyp.tokens[0] == SOS and not has_repeated_trigram(hyp.tokens)
        if vocab == 3:
            assert hyp.finished
        assert hyp.finished != hyp.truncated
        assert hyp.finished or len(hyp.tokens) == cfg.max_len + 1

    def test_deterministic(self):
        step = random_step_fn(9, 5)
        cfg = DecodeConfig(beam_size=3, max_len=10, trigram_block=True)
        a = beam_search(per_prefix(step), cfg, 5, sos_id=SOS, eos_id=EOS)
        b = beam_search(per_prefix(step), cfg, 5, sos_id=SOS, eos_id=EOS)
        assert a.tokens == b.tokens and a.score == b.score

    def test_tie_breaks_to_lower_token_ids(self):
        vocab = 5
        def step(prefix):
            logits = np.zeros(vocab)
            if len(prefix) >= 2:
                logits[EOS] = 50.0   # finish everything at length 2
            return logits
        cfg = DecodeConfig(beam_size=vocab, max_len=3, trigram_block=False)
        hyp = beam_search(per_prefix(step), cfg, vocab, sos_id=SOS, eos_id=EOS)
        assert hyp.tokens == (SOS, 0, EOS)

    def test_length_norm_changes_ranking(self):
        """A long good sequence should win under normalization where a short
        one wins on raw sum."""
        vocab = 4
        def step(prefix):
            logits = np.full(vocab, -9.0)
            if len(prefix) == 1:
                logits[EOS] = 2.0    # stop now: decent one-step score
                logits[3] = 1.9     # or start a long near-free run
            elif len(prefix) < 5:
                logits[3] = 9.0
            else:
                logits[EOS] = 9.0
            return logits
        raw = beam_search(per_prefix(step), DecodeConfig(beam_size=8, max_len=6,
                                                         trigram_block=False), vocab,
                          sos_id=SOS, eos_id=EOS)
        norm = beam_search(per_prefix(step), DecodeConfig(beam_size=8, max_len=6,
                                                          trigram_block=False,
                                                          length_norm=True), vocab,
                           sos_id=SOS, eos_id=EOS)
        assert len(norm.tokens) > len(raw.tokens)

    def test_invalid_beam_size(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_size=0)


@pytest.fixture(scope="module")
def tiny_model():
    spec = SynthSpec(corpus_size=6, seed=4)
    ontology = toy_ontology(spec)
    turns = [t for d in synth_generate(spec) for t in expand_dialogue(d)]
    text_vocab, act_vocab = build_vocab(turns, ontology)
    cfg = TransformerConfig(n_layers=1, n_heads=2, d_model=8, max_seq_len=128)
    model = CogenModel(cfg, text_vocab, act_vocab, ontology, seed=0)
    return model, turns


class TestGenerateTurn:
    def test_untrained_model_produces_valid_result(self, tiny_model):
        model, turns = tiny_model
        result = generate_turn(model, turns[0])
        assert result.act_tokens[0] == "<sos>"
        assert all(isinstance(t, str) for t in result.response_tokens)
        assert "<sos>" not in result.response_tokens
        assert "<eos>" not in result.response_tokens

    def test_attention_matrix_shape(self, tiny_model):
        model, turns = tiny_model
        result = generate_turn(model, turns[0])
        assert result.act_attention is not None
        n_acts = 1 + len([t for t in result.act_tokens
                          if t not in ("<sos>", "<eos>", "<pad>")])
        assert result.act_attention.shape[1] == n_acts
        assert np.allclose(result.act_attention.sum(axis=-1), 1.0, atol=1e-4)

    def test_trace_export(self, tiny_model, tmp_path):
        model, turns = tiny_model
        result = generate_turn(model, turns[0])
        path = tmp_path / "trace.tsv"
        export_trace(path, result, model)
        lines = path.read_text().splitlines()
        header = lines[0].split("\t")
        assert header[1] == "<sos>"
        for row in lines[1:]:
            cells = row.split("\t")[1:]
            assert all(float(c) >= 0 for c in cells)

    def test_mean_attention_model_has_no_trace(self, tiny_model):
        model, turns = tiny_model
        mean_model = CogenModel(model.cfg, model.text_vocab, model.act_vocab,
                                model.ontology, act_attention="mean", seed=0)
        result = generate_turn(mean_model, turns[0])
        assert result.act_attention is None


def _ban_pad_sos(logits):
    logits[[PAD_ID, SOS_ID]] = -np.inf
    return logits


def prefix_recompute_turn(model, turn, act_cfg, resp_cfg):
    """Generation by full-prefix passes: every step call reruns the decoder
    over its whole prefix, then the act and response decoders run again over
    the winners to collect the act hidden states and the attention trace.
    Neither decoder may emit <pad> or <sos>."""
    with no_grad():
        batch = make_batch([turn], model.text_vocab, model.act_vocab,
                           model.ontology, model.cfg.max_seq_len)
        dual = model.encode_shared(batch)

        def act_step(prefix):
            logits, _ = model.act_forward(dual, batch.belief, np.asarray([prefix]))
            return _ban_pad_sos(logits.data[0, -1])

        act_hyp = beam_search(per_prefix(act_step), act_cfg, len(model.act_vocab))
        body = [t for t in act_hyp.tokens if t not in (SOS_ID, EOS_ID, PAD_ID)]
        act_in = np.asarray([[SOS_ID] + body])
        _, act_hidden = model.act_forward(dual, batch.belief, act_in)

        def resp_step(prefix):
            return _ban_pad_sos(model.response_forward(
                dual, act_hidden, act_in != PAD_ID, np.asarray([prefix])).data[0, -1])

        resp_hyp = beam_search(per_prefix(resp_step), resp_cfg, len(model.text_vocab))
        trace = AttentionTrace()
        model.response_forward(dual, act_hidden, act_in != PAD_ID,
                               np.asarray([resp_hyp.tokens]), trace=trace)
        weights = dict(trace.entries).get("respdec.dyn")
    return (model.act_vocab.decode(act_hyp.tokens),
            model.text_vocab.decode([t for t in resp_hyp.tokens if t not in (SOS_ID, EOS_ID)]),
            None if weights is None else weights[0].mean(axis=0))


@pytest.mark.parametrize("act_attention", ["dynamic", "mean"])
@pytest.mark.parametrize("beam_size", [1, 3])
def test_generate_turn_matches_prefix_recompute(tiny_model, act_attention, beam_size):
    """The cached decoders give the tokens and the act attention of full
    prefix passes. The untrained model runs both searches to max_len."""
    model, turns = tiny_model
    for seed in (0, 1):
        m = CogenModel(model.cfg, model.text_vocab, model.act_vocab, model.ontology,
                       act_attention=act_attention, seed=seed)
        act_cfg = DecodeConfig(beam_size=beam_size, max_len=30, trigram_block=False)
        resp_cfg = DecodeConfig(beam_size=beam_size, max_len=40, trigram_block=True)
        for turn in turns[:4]:
            result = generate_turn(m, turn, act_cfg, resp_cfg)
            acts, response, attn = prefix_recompute_turn(m, turn, act_cfg, resp_cfg)
            assert result.act_tokens == acts
            assert result.response_tokens == response
            if attn is None:
                assert result.act_attention is None
            else:
                assert result.act_attention.shape == attn.shape
                assert np.allclose(result.act_attention, attn, atol=1e-5)


@pytest.mark.parametrize("act_attention", ["dynamic", "mean"])
def test_untrained_decoders_never_emit_pad_or_sos(tiny_model, act_attention):
    """Untrained models, which give <sos> and <pad> real probability, still
    emit them nowhere after the start token."""
    model, turns = tiny_model
    for seed in (0, 1):
        m = CogenModel(model.cfg, model.text_vocab, model.act_vocab, model.ontology,
                       act_attention=act_attention, seed=seed)
        for turn in turns[:4]:
            result = generate_turn(m, turn)
            assert not {"<sos>", "<pad>"} & set(result.act_tokens[1:])
            assert not {"<sos>", "<pad>"} & set(result.response_tokens)
