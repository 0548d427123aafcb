import math

import numpy as np
import pytest

from cogen.corpus import DialogueTurn
from cogen.metrics import (MetricsError, MetricsReport, bleu, combined_score,
                           evaluate_corpus, inform_rate, request_success,
                           write_report)
from oracles import reference_bleu


def _random_corpus(rng, n_pairs, vocab=12, max_len=18, copy_prob=0.5):
    hyps, refs = [], []
    for _ in range(n_pairs):
        ref = [f"w{rng.integers(vocab)}" for _ in range(rng.integers(4, max_len))]
        if rng.random() < copy_prob:
            hyp = list(ref)
            for _ in range(rng.integers(0, 4)):     # a few edits
                if hyp:
                    hyp[rng.integers(len(hyp))] = f"w{rng.integers(vocab)}"
        else:
            hyp = [f"w{rng.integers(vocab)}" for _ in range(rng.integers(1, max_len))]
        hyps.append(hyp)
        refs.append(ref)
    return hyps, refs


class TestBleu:
    def test_perfect_match_is_100(self):
        refs = [["the", "food", "is", "great", "here"]]
        assert bleu(refs, refs) == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_is_near_zero(self):
        score = bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]])
        assert 0.0 <= score < 1e-4

    def test_hand_computed_small_case(self):
        # hyp: 5 tokens; 5/5 unigrams, 3/4 bigrams, 1/3 trigrams, 0/2 4-grams
        hyp = [["the", "cat", "sat", "the", "mat"]]
        ref = [["the", "cat", "sat", "on", "the", "mat"]]
        p1, p2, p3 = 5 / 5, 3 / 4, 1 / 3
        expect = (100.0 * math.exp(1 - 6 / 5)
                  * math.exp((math.log(p1) + math.log(p2) + math.log(p3)
                              + math.log(1e-9 / 2)) / 4))
        assert bleu(hyp, ref) == pytest.approx(expect, rel=1e-9)

    def test_brevity_penalty_applied(self):
        ref = [["a", "b", "c", "d", "e", "f"]]
        short = bleu([["a", "b", "c"]], ref)
        full = bleu([["a", "b", "c", "d", "e", "f"]], ref)
        assert short < full

    def test_no_penalty_for_long_hypotheses(self):
        hyp = [["a", "b", "c", "d", "e", "f", "g", "h"]]
        ref = [["a", "b", "c", "d", "e", "f"]]
        clipped = bleu(hyp, ref)
        # same n-gram stats, longer hyp: bp should be exactly 1
        assert clipped == pytest.approx(
            100.0 * math.exp(sum(math.log(m / t) for m, t in
                                 [(6, 8), (5, 7), (4, 6), (3, 5)]) / 4), rel=1e-9)

    def test_corpus_level_not_mean_of_sentences(self):
        hyps = [["a", "b", "c", "d", "e", "f"], ["w", "x"]]
        refs = [["a", "b", "c", "d", "e", "f"], ["a", "b"]]
        corpus = bleu(hyps, refs)
        mean = (bleu(hyps[:1], refs[:1]) + bleu(hyps[1:], refs[1:])) / 2
        # pooled n-gram counts: 6/8, 5/6, 4/4, 3/3; bp = 1
        expect = 100.0 * math.exp(
            sum(math.log(p) for p in (6 / 8, 5 / 6, 1.0, 1.0)) / 4)
        assert corpus == pytest.approx(expect, rel=1e-9)
        assert abs(corpus - mean) > 10.0

    def test_matches_rational_oracle_on_random_corpora(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            hyps, refs = _random_corpus(rng, int(rng.integers(2, 12)))
            assert bleu(hyps, refs) == pytest.approx(
                reference_bleu(hyps, refs), abs=1e-6), f"seed {seed}"

    def test_empty_corpus_rejected(self):
        with pytest.raises(MetricsError):
            bleu([], [])

    def test_count_mismatch_rejected(self):
        with pytest.raises(MetricsError):
            bleu([["a"]], [["a"], ["b"]])


def _turn(did, goal, idx=0):
    return DialogueTurn(dialogue_id=did, turn_index=idx, history=[],
                        db_buckets={}, belief={},
                        gold_acts=set(), gold_response=["ok"], goal=goal)


GOAL = {"hotel": {"constraints": {}, "requested": ["phone"]}}


class TestTaskMetrics:
    def test_inform_requires_name_placeholder(self):
        turns = [_turn("d1", GOAL)]
        assert inform_rate(turns, [["try", "[hotel_name]"]]) == 100.0
        assert inform_rate(turns, [["try", "this", "one"]]) == 0.0

    def test_inform_any_turn_counts(self):
        turns = [_turn("d1", GOAL, 0), _turn("d1", GOAL, 1)]
        resp = [["no", "luck"], ["try", "[hotel_name]"]]
        assert inform_rate(turns, resp) == 100.0

    def test_success_needs_inform_and_requests(self):
        turns = [_turn("d1", GOAL)]
        assert request_success(turns, [["[hotel_name]", "[hotel_phone]"]]) == 100.0
        assert request_success(turns, [["[hotel_phone]"]]) == 0.0   # not informed
        assert request_success(turns, [["[hotel_name]"]]) == 0.0    # request unmet

    def test_entityless_domain_exempt_from_inform(self):
        turns = [_turn("d1", GOAL)]
        assert inform_rate(turns, [["no", "entity"]], entityless={"hotel"}) == 100.0
        assert request_success(turns, [["[hotel_phone]"]],
                               entityless={"hotel"}) == 100.0

    def test_rates_are_dialogue_level(self):
        turns = [_turn("d1", GOAL), _turn("d2", GOAL)]
        resp = [["[hotel_name]", "[hotel_phone]"], ["nothing"]]
        assert inform_rate(turns, resp) == 50.0
        assert request_success(turns, resp) == 50.0

    def test_multi_domain_goal_needs_all(self):
        goal = {"hotel": {"requested": []}, "restaurant": {"requested": []}}
        turns = [_turn("d1", goal)]
        assert inform_rate(turns, [["[hotel_name]"]]) == 0.0
        assert inform_rate(turns, [["[hotel_name]", "[restaurant_name]"]]) == 100.0


class TestCombined:
    def test_formula(self):
        assert combined_score(90.30, 75.20, 19.45) == pytest.approx(102.20, abs=0.005)
        assert combined_score(91.50, 76.10, 18.52) == pytest.approx(102.32, abs=0.005)

    def test_report_combined_property(self):
        r = MetricsReport(inform=80.0, success=60.0, bleu=20.0)
        assert r.combined == pytest.approx(90.0)


class TestEvaluateCorpus:
    def test_gold_responses_score_perfect(self):
        turns = [_turn("d1", GOAL)]
        turns[0].gold_response = ["call", "[hotel_name]", "at", "[hotel_phone]"]
        turns[0].gold_acts = set()
        report = evaluate_corpus(turns, [turns[0].gold_response], [set()])
        assert report.inform == 100.0
        assert report.success == 100.0
        assert report.bleu == pytest.approx(100.0, abs=1e-6)
        assert report.act_f1 == 1.0
        assert report.combined == pytest.approx(200.0, abs=1e-6)

    def test_per_domain_breakdown(self):
        t1 = _turn("d1", GOAL)
        t1.gold_response = ["[hotel_name]", "[hotel_phone]", "!"]
        g2 = {"restaurant": {"constraints": {}, "requested": []}}
        t2 = _turn("d2", g2)
        t2.gold_response = ["[restaurant_name]", "!"]
        report = evaluate_corpus(
            [t1, t2], [t1.gold_response, ["wrong"]], [set(), set()])
        assert set(report.per_domain) == {"hotel", "restaurant"}
        assert report.per_domain["hotel"] > report.per_domain["restaurant"]

    def test_write_report(self, tmp_path):
        r = MetricsReport(inform=100.0, success=50.0, bleu=25.0, label="run_a")
        path = tmp_path / "report.txt"
        write_report(path, [r], extra_lines=["note x"])
        text = path.read_text()
        assert "run_a" in text
        assert "combined         100.00" in text   # (100 + 50)/2 + 25
        assert text.rstrip().endswith("note x")
