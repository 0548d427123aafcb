import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogen.acts import (ActTriple, Ontology, VocabularyError, act_f1,
                        canonicalize, corpus_act_f1, from_onehot, parse,
                        to_onehot)

ONTOLOGY = Ontology(
    domains=["restaurant", "hotel", "attraction"],
    actions=["inform", "request"],
    slots=["area", "address", "stars", "food", "price"],
)


def T(d, a, s):
    return ActTriple(d, a, s)


class TestCanonicalize:
    def test_multi_domain_ordering(self):
        acts = {T("restaurant", "inform", "area"),
                T("restaurant", "inform", "address"),
                T("hotel", "request", "stars")}
        assert canonicalize(ONTOLOGY, acts) == [
            "<sos>", "hotel", "request", "stars",
            "restaurant", "inform", "address", "area", "<eos>"]

    def test_empty_set(self):
        assert canonicalize(ONTOLOGY, set()) == ["<sos>", "<eos>"]

    def test_scope_tokens_emitted_once(self):
        acts = {T("hotel", "inform", "area"), T("hotel", "inform", "stars")}
        seq = canonicalize(ONTOLOGY, acts)
        assert seq.count("hotel") == 1 and seq.count("inform") == 1

    def test_order_independent_of_insertion(self):
        acts = [T("hotel", "request", "stars"), T("restaurant", "inform", "area"),
                T("hotel", "inform", "price")]
        assert (canonicalize(ONTOLOGY, set(acts))
                == canonicalize(ONTOLOGY, set(reversed(acts))))

    def test_unknown_token_rejected(self):
        with pytest.raises(VocabularyError):
            canonicalize(ONTOLOGY, {T("taxi", "inform", "area")})


class TestParse:
    def test_round_trip(self):
        acts = {T("restaurant", "inform", "food"), T("hotel", "request", "stars")}
        assert parse(ONTOLOGY, canonicalize(ONTOLOGY, acts)).triples == acts

    def test_orphan_slot_skipped(self):
        result = parse(ONTOLOGY, ["<sos>", "area", "hotel", "inform", "stars", "<eos>"])
        assert result.triples == {T("hotel", "inform", "stars")}
        assert result.skipped == 1

    def test_action_before_domain_skipped(self):
        result = parse(ONTOLOGY, ["inform", "area"])
        assert result.triples == set()
        assert result.skipped == 2

    def test_unknown_tokens_counted_not_raised(self):
        result = parse(ONTOLOGY, ["hotel", "blorp", "inform", "area"])
        assert result.triples == {T("hotel", "inform", "area")}
        assert result.skipped == 1

    def test_domain_resets_action_scope(self):
        result = parse(ONTOLOGY, ["hotel", "inform", "area", "restaurant", "food"])
        # "food" follows a fresh domain with no action yet
        assert result.triples == {T("hotel", "inform", "area")}
        assert result.skipped == 1


@st.composite
def act_sets(draw):
    n = draw(st.integers(0, 6))
    triples = set()
    for _ in range(n):
        triples.add(ActTriple(
            draw(st.sampled_from(ONTOLOGY.domains)),
            draw(st.sampled_from(ONTOLOGY.actions)),
            draw(st.sampled_from(ONTOLOGY.slots))))
    return triples


class TestRoundTripProperty:
    @given(act_sets())
    @settings(max_examples=200, deadline=None)
    def test_parse_inverts_canonicalize(self, acts):
        seq = canonicalize(ONTOLOGY, acts)
        result = parse(ONTOLOGY, seq)
        assert result.triples == acts
        assert result.skipped == 0

    @given(act_sets())
    @settings(max_examples=100, deadline=None)
    def test_canonical_form_is_fixed_point(self, acts):
        seq = canonicalize(ONTOLOGY, acts)
        assert canonicalize(ONTOLOGY, parse(ONTOLOGY, seq).triples) == seq


class TestOneHot:
    def test_length_is_level_sum(self):
        assert len(to_onehot(ONTOLOGY, set())) == ONTOLOGY.onehot_len() == 10

    def test_bits_set_per_level(self):
        bits = to_onehot(ONTOLOGY, {T("hotel", "inform", "stars")})
        assert sum(bits) == 3

    def test_from_onehot_is_maximal_cross_product(self):
        acts = {T("hotel", "inform", "stars"), T("restaurant", "request", "area")}
        seq = from_onehot(ONTOLOGY, to_onehot(ONTOLOGY, acts))
        recovered = parse(ONTOLOGY, seq).triples
        # lossy: the cross product contains the originals plus mixtures
        assert acts <= recovered
        assert len(recovered) == 2 * 2 * 2

    def test_single_triple_survives_round_trip(self):
        acts = {T("attraction", "inform", "area")}
        seq = from_onehot(ONTOLOGY, to_onehot(ONTOLOGY, acts))
        assert parse(ONTOLOGY, seq).triples == acts

    def test_length_mismatch_rejected(self):
        with pytest.raises(VocabularyError):
            from_onehot(ONTOLOGY, [0, 1])


class TestF1:
    def test_both_empty_is_perfect(self):
        assert act_f1(set(), set()) == (1.0, 1.0, 1.0)

    def test_exact_match(self):
        acts = {T("hotel", "inform", "area")}
        assert act_f1(acts, set(acts)) == (1.0, 1.0, 1.0)

    def test_half_overlap_hand_computed(self):
        gold = {T("hotel", "inform", "area"), T("hotel", "inform", "stars")}
        pred = {T("hotel", "inform", "area"), T("hotel", "request", "price")}
        p, r, f1 = act_f1(pred, gold)
        assert (p, r) == (0.5, 0.5)
        assert f1 == pytest.approx(0.5)

    def test_no_overlap(self):
        assert act_f1({T("hotel", "inform", "area")},
                      {T("restaurant", "request", "food")})[2] == 0.0

    def test_empty_prediction_nonempty_gold(self):
        p, r, f1 = act_f1(set(), {T("hotel", "inform", "area")})
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_micro_average_matches_hand_count(self):
        pairs = [
            ({T("hotel", "inform", "area")}, {T("hotel", "inform", "area")}),
            ({T("hotel", "inform", "stars")}, {T("hotel", "request", "stars")}),
        ]
        p, r, f1 = corpus_act_f1(pairs)
        # tp=1, fp=1, fn=1
        assert p == pytest.approx(0.5) and r == pytest.approx(0.5)
        assert f1 == pytest.approx(0.5)

    def test_micro_all_empty(self):
        assert corpus_act_f1([(set(), set())]) == (1.0, 1.0, 1.0)


class TestOntologyIO:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "ontology.txt"
        ONTOLOGY.save(path)
        loaded = Ontology.load(path)
        assert loaded.domains == ONTOLOGY.domains
        assert loaded.actions == ONTOLOGY.actions
        assert loaded.slots == ONTOLOGY.slots

    def test_failed_save_leaves_previous_file(self, tmp_path, monkeypatch):
        """A save that fails at the rename leaves the previous ontology in
        place and no temporary file beside it."""
        path = tmp_path / "ontology.txt"
        ONTOLOGY.save(path)
        before = path.read_bytes()

        def replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            Ontology(["taxi"], ["inform"], ["phone"]).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ontology.txt"]

    def test_level_collision_suggests_suffix(self):
        with pytest.raises(VocabularyError, match="#level"):
            Ontology(["book"], ["book"], ["area"])

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[verbs]\nrun\n")
        with pytest.raises(VocabularyError):
            Ontology.load(path)

    def test_token_before_section_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hotel\n[domains]\n")
        with pytest.raises(VocabularyError):
            Ontology.load(path)

    def test_tokens_order_stable(self):
        toks = ONTOLOGY.tokens()
        assert toks[:3] == ONTOLOGY.domains
        assert toks[3:5] == ONTOLOGY.actions
        assert toks[5:] == ONTOLOGY.slots
