import dataclasses
import json
import math
import os

import numpy as np
import pytest

from cogen.acts import ActTriple
from cogen.corpus import (BUCKET_WINDOW, DB_BUCKETS, EOS_ID, PAD_ID, RESERVED,
                          SOS_ID, CorpusError, DialogueTurn, SynthSpec, _truncate,
                          batchify, belief_dim, belief_vector, build_vocab,
                          db_bucket, db_token, expand_dialogue, load_corpus,
                          make_batch, synth_generate, tokenize, toy_ontology,
                          write_dialogues)


class TestTokenize:
    def test_lowercase_and_punct(self):
        assert tokenize("Hello, World!") == ["hello", ",", "world", "!"]

    def test_placeholder_atomic(self):
        assert tokenize("try [restaurant_name] .") == ["try", "[restaurant_name]", "."]

    def test_empty(self):
        assert tokenize("") == []


class TestDbBucket:
    @pytest.mark.parametrize("count,bucket",
                             [(0, 0), (-3, 0), (1, 1), (2, 2), (3, 2),
                              (4, 3), (100, 3)])
    def test_boundaries(self, count, bucket):
        assert db_bucket(count) == bucket

    def test_token_text(self):
        assert db_token("hotel", 2) == "<db:hotel:2>"


@pytest.fixture(scope="module")
def synth():
    spec = SynthSpec(corpus_size=12, seed=5)
    dialogues = synth_generate(spec)
    ontology = toy_ontology(spec)
    turns = [t for d in dialogues for t in expand_dialogue(d)]
    return dialogues, ontology, turns


class TestExpand:
    def test_one_turn_per_system_turn(self, synth):
        dialogues, _, turns = synth
        assert len(turns) == sum(len(d["turns"]) for d in dialogues)

    def test_history_grows(self, synth):
        _, _, turns = synth
        first, second = turns[0], turns[1]
        assert len(first.history) == 1
        assert len(second.history) == 3   # user, system, user

    def test_current_span_is_last_user_utterance(self, synth):
        _, _, turns = synth
        t = turns[1]
        start, end = t.current_utterance_span
        seg = t.source_tokens[start:end]
        assert seg[0] == "<usr>"
        assert seg[1:] == t.history[-1][1]

    def test_db_span_holds_db_tokens(self, synth):
        _, _, turns = synth
        t = turns[0]
        ds, de = t.db_span
        assert all(tok.startswith("<db:") for tok in t.source_tokens[ds:de])
        assert de == len(t.source_tokens)

    def test_gold_acts_are_triples(self, synth):
        _, _, turns = synth
        assert all(isinstance(a, ActTriple) for t in turns for a in t.gold_acts)

    def test_missing_key_raises(self):
        with pytest.raises(CorpusError):
            expand_dialogue({"dialogue_id": "x", "turns": [{"user": "hi"}]})


class TestSelfFlatten:
    def test_direct_turn_matches_expanded_turn(self):
        """A turn built directly from a history, as the chat command builds
        one, has the source and spans that expand_dialogue gives it."""
        dialogue = {"dialogue_id": "x", "turns": [
            {"user": "hi", "response": "ok", "acts": [], "db": {"hotel": 2}},
            {"user": "bye now", "response": "ok", "acts": [], "db": {"hotel": 2}}]}
        expanded = expand_dialogue(dialogue)[1]
        direct = DialogueTurn(dialogue_id="chat", turn_index=1, history=expanded.history,
                              db_buckets={"hotel": 2}, belief={}, gold_acts=set(),
                              gold_response=["-"], goal={})
        for t in (direct, expanded):
            assert (t.source_tokens, t.current_utterance_span, t.db_span) == (
                ["<usr>", "hi", "<sys>", "ok", "<usr>", "bye", "now", "<db:hotel:2>"],
                (4, 7), (7, 8))

    @pytest.mark.parametrize("dropped", [1, 3])
    def test_truncate_equals_turn_of_shortened_history(self, synth, dropped):
        """At a limit that fits once `dropped` of the oldest utterances go,
        _truncate gives the turn built from that shorter history, field for
        field."""
        dialogues, _, _ = synth
        chained = dict(dialogues[0], turns=dialogues[0]["turns"] + dialogues[1]["turns"])
        turn = expand_dialogue(chained)[-1]
        assert len(turn.history) == 7
        expected = DialogueTurn(
            dialogue_id=turn.dialogue_id, turn_index=turn.turn_index,
            history=turn.history[dropped:], db_buckets=turn.db_buckets,
            belief=turn.belief, gold_acts=turn.gold_acts,
            gold_response=turn.gold_response, goal=turn.goal)
        assert vars(_truncate(turn, len(expected.source_tokens))) == vars(expected)


class TestVocab:
    def test_reserved_prefix(self, synth):
        _, ontology, turns = synth
        text_vocab, act_vocab = build_vocab(turns, ontology)
        assert text_vocab.tokens[:4] == RESERVED
        assert act_vocab.tokens[:4] == RESERVED

    def test_act_vocab_closed(self, synth):
        _, ontology, turns = synth
        _, act_vocab = build_vocab(turns, ontology)
        assert act_vocab.tokens[4:] == ontology.tokens()

    def test_unknown_maps_to_unk(self, synth):
        _, ontology, turns = synth
        text_vocab, _ = build_vocab(turns, ontology)
        assert text_vocab.id("zzzznotaword") == 3

    def test_min_freq_filters(self, synth):
        _, ontology, turns = synth
        all_vocab, _ = build_vocab(turns, ontology, min_freq=1)
        filtered, _ = build_vocab(turns, ontology, min_freq=5)
        assert len(filtered) < len(all_vocab)

    def test_decode_inverts_ids(self, synth):
        _, ontology, turns = synth
        text_vocab, _ = build_vocab(turns, ontology)
        toks = turns[0].gold_response
        assert text_vocab.decode(text_vocab.ids(toks)) == toks


class TestBelief:
    def test_dim_formula(self, synth):
        _, ontology, _ = synth
        nd, ns = len(ontology.domains), len(ontology.slots)
        assert belief_dim(ontology) == nd * (ns + DB_BUCKETS)

    def test_filled_slot_sets_bit(self, synth):
        _, ontology, _ = synth
        vec = belief_vector(ontology, {"hotel": {"area": "north"}}, {})
        di = ontology.domains.index("hotel")
        si = ontology.slots.index("area")
        assert vec[di * len(ontology.slots) + si] == 1.0
        assert vec.sum() == 1.0

    def test_db_bucket_one_hot(self, synth):
        _, ontology, _ = synth
        vec = belief_vector(ontology, {}, {"restaurant": 3})
        nd, ns = len(ontology.domains), len(ontology.slots)
        di = ontology.domains.index("restaurant")
        assert vec[nd * ns + di * DB_BUCKETS + 3] == 1.0
        assert vec.sum() == 1.0

    def test_empty_value_not_filled(self, synth):
        _, ontology, _ = synth
        vec = belief_vector(ontology, {"hotel": {"area": ""}}, {})
        assert vec.sum() == 0.0


class TestBatch:
    def test_masks_and_padding(self, synth):
        _, ontology, turns = synth
        text_vocab, act_vocab = build_vocab(turns, ontology)
        batch = make_batch(turns[:4], text_vocab, act_vocab, ontology)
        assert batch.src.shape == batch.src_mask.shape == batch.act_key_mask.shape
        # mask exactly covers non-pad prefix
        for i, t in enumerate(batch.turns):
            n = len(t.source_tokens)
            assert batch.src_mask[i, :n].all()
            assert not batch.src_mask[i, n:].any()
        # act keys are a subset of real tokens
        assert not (batch.act_key_mask & ~batch.src_mask).any()

    def test_teacher_forcing_shift(self, synth):
        _, ontology, turns = synth
        text_vocab, act_vocab = build_vocab(turns, ontology)
        batch = make_batch(turns[:1], text_vocab, act_vocab, ontology)
        assert batch.resp_in[0, 0] == SOS_ID
        n = (batch.resp_tg[0] != PAD_ID).sum()
        assert batch.resp_tg[0, n - 1] == EOS_ID
        assert (batch.resp_in[0, 1:n] == batch.resp_tg[0, :n - 1]).all()
        assert batch.act_in[0, 0] == SOS_ID

    def test_truncation_drops_oldest_history(self, synth):
        _, ontology, turns = synth
        text_vocab, act_vocab = build_vocab(turns, ontology)
        long_turn = turns[1]
        batch = make_batch([long_turn], text_vocab, act_vocab, ontology,
                           max_seq_len=len(long_turn.source_tokens) - 1)
        kept = batch.turns[0]
        assert len(kept.source_tokens) < len(long_turn.source_tokens)
        assert kept.history[-1] == long_turn.history[-1]

    def test_batchify_deterministic(self, synth):
        _, ontology, turns = synth
        text_vocab, act_vocab = build_vocab(turns, ontology)
        b1 = batchify(turns, 4, 7, text_vocab, act_vocab, ontology)
        b2 = batchify(turns, 4, 7, text_vocab, act_vocab, ontology)
        assert all(np.array_equal(x.src, y.src) for x, y in zip(b1, b2))

    def test_batchify_seed_changes_order(self, synth):
        _, ontology, turns = synth
        text_vocab, act_vocab = build_vocab(turns, ontology)
        b1 = batchify(turns, 4, 7, text_vocab, act_vocab, ontology)
        b2 = batchify(turns, 4, 8, text_vocab, act_vocab, ontology)
        assert any(not np.array_equal(x.src, y.src) for x, y in zip(b1, b2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batchify_holds_every_turn_once(self, synth, seed):
        """24 turns at batch 5: two windows (20 and 4 turns) and a short
        last chunk, which keeps its size wherever the shuffle puts it."""
        _, ontology, turns = synth
        text_vocab, act_vocab = build_vocab(turns, ontology)
        batches = batchify(turns, 5, seed, text_vocab, act_vocab, ontology)
        held = [_turn_id(t) for b in batches for t in b.turns]
        assert sorted(held) == sorted(_turn_id(t) for t in turns)
        plain = [len(turns[i:i + 5]) for i in range(0, len(turns), 5)]
        assert len(batches) == math.ceil(len(turns) / 5)
        assert sorted(len(b.turns) for b in batches) == sorted(plain)

    def test_batchify_fills_synth_sources(self):
        """The windows sort out most of the padding on the 200-dialogue
        corpus; plain chunks of the permutation fill 0.64."""
        spec = SynthSpec(corpus_size=200, seed=0)
        ontology = toy_ontology(spec)
        turns = [t for d in synth_generate(spec) for t in expand_dialogue(d)]
        text_vocab, act_vocab = build_vocab(turns, ontology)
        real = padded = 0
        for epoch in range(3):
            for b in batchify(turns, 32, epoch, text_vocab, act_vocab, ontology):
                real += int(b.src_mask.sum())
                padded += b.src_mask.size
        assert real / padded >= 0.80

    def test_batchify_ties_keep_the_permutation(self, synth):
        """With every source the same length, the stable sort moves nothing:
        the batches are the plain chunks of the seeded permutation."""
        _, ontology, turns = synth
        text_vocab, act_vocab = build_vocab(turns, ontology)
        tied = [dataclasses.replace(turns[0], dialogue_id=f"tie{i}") for i in range(23)]
        assert len(tied) > BUCKET_WINDOW * 4   # more than one window
        seed = 3
        order = np.random.default_rng(seed).permutation(len(tied))
        plain = sorted(tuple(f"tie{j}" for j in order[i:i + 4])
                       for i in range(0, len(tied), 4))
        batches = batchify(tied, 4, seed, text_vocab, act_vocab, ontology)
        assert sorted(tuple(t.dialogue_id for t in b.turns) for b in batches) == plain

    def test_batchify_truncates_an_overlong_turn(self, synth):
        _, ontology, turns = synth
        text_vocab, act_vocab = build_vocab(turns, ontology)
        limit = max(len(t.source_tokens) for t in turns) - 1
        longest = max(turns, key=lambda t: len(t.source_tokens))
        batches = batchify(turns, 4, 0, text_vocab, act_vocab, ontology,
                           max_seq_len=limit)
        assert all(b.src.shape[1] <= limit for b in batches)
        (kept,) = [t for b in batches for t in b.turns
                   if _turn_id(t) == _turn_id(longest)]
        assert len(kept.source_tokens) < len(longest.source_tokens)
        assert kept.history[-1] == longest.history[-1]


def _turn_id(turn):
    return turn.dialogue_id, turn.turn_index


class TestSynth:
    def test_deterministic_in_seed(self):
        a = synth_generate(SynthSpec(corpus_size=6, seed=9))
        b = synth_generate(SynthSpec(corpus_size=6, seed=9))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_entity_placeholder_planted(self, synth):
        dialogues, _, _ = synth
        for d in dialogues:
            (domain,) = d["goal"].keys()
            assert f"[{domain}_name]" in d["turns"][0]["response"]

    def test_requested_slots_answered(self, synth):
        dialogues, _, _ = synth
        for d in dialogues:
            (domain,) = d["goal"].keys()
            text = " ".join(t["response"] for t in d["turns"])
            for slot in d["goal"][domain]["requested"]:
                assert f"[{domain}_{slot}]" in text

    def test_acts_within_ontology(self, synth):
        dialogues, ontology, _ = synth
        for d in dialogues:
            for t in d["turns"]:
                for dom, act, slot in t["acts"]:
                    assert dom in ontology.domains
                    assert act in ontology.actions
                    assert slot in ontology.slots

    def test_responses_deterministic_in_acts(self):
        """Same act set always yields the same gold response text."""
        dialogues = synth_generate(SynthSpec(corpus_size=60, seed=1))
        seen = {}
        for d in dialogues:
            for t in d["turns"]:
                key = (("name" in [a[2] for a in t["acts"]]),
                       tuple(sorted(map(tuple, t["acts"]))))
                assert seen.setdefault(key, t["response"]) == t["response"]

    def test_write_then_load(self, tmp_path, synth):
        dialogues, _, turns = synth
        path = tmp_path / "corpus.json"
        write_dialogues(path, dialogues)
        assert len(load_corpus(path)) == len(turns)

    def test_write_gives_the_bytes_of_a_streamed_dump(self, tmp_path, synth):
        dialogues = synth[0] + [{"id": "ünïcode", "turns": []}]
        streamed = tmp_path / "streamed.json"
        with open(streamed, "w", encoding="utf-8") as f:
            json.dump(dialogues, f, indent=1, sort_keys=True)
            f.write("\n")
        write_dialogues(tmp_path / "corpus.json", dialogues)
        assert (tmp_path / "corpus.json").read_bytes() == streamed.read_bytes()

    def test_failed_write_leaves_previous_file(self, tmp_path, synth, monkeypatch):
        """A write that fails after serialising, at the rename, leaves the
        previous corpus in place and no temporary file beside it."""
        path = tmp_path / "corpus.json"
        write_dialogues(path, synth[0][:3])
        before = path.read_bytes()

        def replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            write_dialogues(path, synth[0])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.json"]

    def test_written_file_mode_follows_umask(self, tmp_path, synth):
        old = os.umask(0o027)
        try:
            write_dialogues(tmp_path / "corpus.json", synth[0][:1])
        finally:
            os.umask(old)
        assert (tmp_path / "corpus.json").stat().st_mode & 0o777 == 0o640
