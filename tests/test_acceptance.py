"""Acceptance gate: ten numbered criteria, each recording a pass/fail line.

These are slower, end-to-end checks; the per-module unit tests live in the
sibling test files.
"""

import math
import time

import numpy as np
import pytest

from cogen import tensor as T
from cogen.acts import ActTriple, canonicalize, corpus_act_f1, parse
from cogen.cli import main as cli_main
from cogen.config import RunConfig
from cogen.corpus import SynthSpec, toy_ontology
from cogen.decode import DecodeConfig, beam_search, has_repeated_trigram
from cogen.evaluate import evaluate_model, exact_match_rate
from cogen.gradchecks import run_all
from cogen.metrics import bleu, combined_score, evaluate_corpus, write_report
from cogen.model import uncertainty_loss
from cogen.tensor import Adam, Tensor
from cogen.training import build_model, load_data, train
from oracles import exhaustive_decode, per_prefix, reference_bleu


def test_criterion_01_gradient_suite(record):
    """Every differentiable op and the full joint loss pass finite-difference
    checks over 5 seeds within the time budget."""
    t0 = time.time()
    results = run_all(seeds=(0, 1, 2, 3, 4))
    elapsed = time.time() - t0
    failures = [(n, e, tol) for n, e, tol, ok in results if not ok]
    worst = max(e for _, e, _, _ in results)
    ok = not failures and elapsed < 120
    record(f"{'PASS' if ok else 'FAIL'} criterion 1: gradient suite, "
           f"{len(results)} checks x 5 seeds, worst rel err {worst:.2e}, "
           f"{elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120


def test_criterion_02_uncertainty_stationary_point(record):
    """With frozen task losses (2, 8) the learned variances must converge to
    (1, 4) and the total loss to 2 + ln 4."""
    with T.use_dtype(np.float64):
        s1 = Tensor(np.zeros(()), requires_grad=True)
        s2 = Tensor(np.zeros(()), requires_grad=True)
        l_a, l_r = Tensor(np.asarray(2.0)), Tensor(np.asarray(8.0))
        opt = Adam({"s1": s1, "s2": s2}, lr=0.01)
        for _ in range(4000):
            opt.zero_grad()
            loss = uncertainty_loss(l_a, l_r, s1, s2)
            loss.backward()
            opt.step()
        sigma1_sq = float(np.exp(s1.data))
        sigma2_sq = float(np.exp(s2.data))
        final = uncertainty_loss(l_a, l_r, s1, s2).item()
    target = 2 + math.log(4)
    ok = (abs(sigma1_sq - 1.0) < 1e-3 and abs(sigma2_sq - 4.0) < 1e-3
          and abs(final - target) < 1e-3)
    record(f"{'PASS' if ok else 'FAIL'} criterion 2: uncertainty stationary "
           f"point, sigma^2 ({sigma1_sq:.4f}, {sigma2_sq:.4f}), "
           f"loss {final:.4f} vs {target:.4f}")
    assert abs(sigma1_sq - 1.0) < 1e-3
    assert abs(sigma2_sq - 4.0) < 1e-3
    assert abs(final - target) < 1e-3


def test_criterion_03_combined_score_rows(record):
    a = combined_score(90.30, 75.20, 19.45)
    b = combined_score(91.50, 76.10, 18.52)
    ok = abs(a - 102.20) < 0.005 and abs(b - 102.32) < 0.005
    record(f"{'PASS' if ok else 'FAIL'} criterion 3: combined-score rows, "
           f"{a:.2f} and {b:.2f}")
    assert a == pytest.approx(102.20, abs=0.005)
    assert b == pytest.approx(102.32, abs=0.005)


def test_criterion_04_act_codec_round_trip(record):
    ontology = toy_ontology(SynthSpec())
    rng = np.random.default_rng(0)
    mismatches = 0
    order_violations = 0
    for _ in range(1000):
        acts = set()
        for _ in range(rng.integers(0, 7)):
            acts.add(ActTriple(
                ontology.domains[rng.integers(len(ontology.domains))],
                ontology.actions[rng.integers(len(ontology.actions))],
                ontology.slots[rng.integers(len(ontology.slots))]))
        seq = canonicalize(ontology, acts)
        result = parse(ontology, seq)
        if result.triples != acts or result.skipped != 0:
            mismatches += 1
        if canonicalize(ontology, result.triples) != seq:
            order_violations += 1
        domains_in_seq = [t for t in seq if ontology.level_of(t) == "domain"]
        if domains_in_seq != sorted(domains_in_seq):
            order_violations += 1
    ok = mismatches == 0 and order_violations == 0
    record(f"{'PASS' if ok else 'FAIL'} criterion 4: act codec, 1000 round "
           f"trips, {mismatches} mismatches, {order_violations} ordering "
           f"violations")
    assert mismatches == 0
    assert order_violations == 0


def test_criterion_05_beam_oracle_and_trigrams(record, overfit_decodes):
    """Beam output equals exhaustive enumeration on random toy tables (the
    beam width covers the whole space, so pruning never bites), and blocked
    model decodes contain no repeated trigram."""
    import zlib

    sos, eos = 1, 2
    score_mismatches = 0
    for case in range(50):
        rng = np.random.default_rng(case)
        vocab = int(rng.integers(3, 5))
        max_len = int(rng.integers(2, 6))

        def step(prefix, case=case, vocab=vocab):
            key = zlib.crc32(repr((case,) + tuple(prefix)).encode())
            return np.random.default_rng(key).standard_normal(vocab) * 3.0

        cfg = DecodeConfig(beam_size=vocab ** max_len, max_len=max_len,
                           trigram_block=True)
        hyp = beam_search(per_prefix(step), cfg, vocab, sos_id=sos, eos_id=eos)
        tokens, score, _ = exhaustive_decode(step, vocab, max_len, sos, eos,
                                             trigram_block=True)
        if hyp.tokens != tokens or abs(hyp.score - score) > 1e-9:
            score_mismatches += 1

    decodes = overfit_decodes["results"][:100]
    repeated = sum(has_repeated_trigram(tuple(r.response_tokens))
                   for r in decodes)
    ok = score_mismatches == 0 and repeated == 0 and len(decodes) == 100
    record(f"{'PASS' if ok else 'FAIL'} criterion 5: beam equals enumeration "
           f"on 50/50 tables ({score_mismatches} mismatches), repeated "
           f"trigrams in {repeated}/100 blocked decodes")
    assert score_mismatches == 0
    assert len(decodes) == 100
    assert repeated == 0


def test_criterion_06_overfit_run(record, overfit_world, overfit_decodes):
    """End-to-end overfit: 200 synthetic dialogues, d_model 32 / 2 layers /
    2 heads, act warm-up then joint training, all under the time budget."""
    turns = overfit_world["turns"]
    results = overfit_decodes["results"]
    total_seconds = (overfit_world["train_seconds"]
                     + overfit_decodes["decode_seconds"])
    _, _, act_f1 = corpus_act_f1(
        [(r.act_triples, t.gold_acts) for r, t in zip(results, turns)])
    exact = exact_match_rate(turns, results)
    report = evaluate_corpus(turns, [r.response_tokens for r in results],
                             [r.act_triples for r in results])
    ok = (act_f1 >= 0.95 and exact >= 0.90 and report.inform == 100.0
          and report.success == 100.0 and total_seconds < 900)
    record(f"{'PASS' if ok else 'FAIL'} criterion 6: overfit run, act F1 "
           f"{act_f1:.4f}, exact match {exact:.2%}, inform {report.inform:.1f}, "
           f"success {report.success:.1f}, {overfit_world['epochs_done']} "
           f"epochs, {total_seconds:.0f}s")
    assert act_f1 >= 0.95
    assert exact >= 0.90
    assert report.inform == 100.0
    assert report.success == 100.0
    assert total_seconds < 900


def _small_run(corpus, ontology, **kw):
    base = dict(corpus=corpus, ontology=ontology, d_model=16, n_layers=1,
                n_heads=2, epochs=25, warmup_epochs=3, batch_size=8, lr=3e-3,
                seed=0, resp_max_len=40)
    base.update(kw)
    return RunConfig(**base)


def test_criterion_07_ablation_harness(record, small_files, tmp_path):
    """Joint, pipeline with dynamic act attention, and pipeline with mean act
    states all train and land in one comparison report."""
    corpus, ontology = small_files
    reports = []

    joint = _small_run(corpus, ontology, mode="joint")
    onto, turns, tv, av = load_data(joint)
    model = build_model(joint, tv, av, onto)
    train(joint, model, turns)
    reports.append(evaluate_model(model, turns, joint, label="joint"))

    from cogen import checkpoint as ckpt
    act_run = _small_run(corpus, ontology, mode="act_only", warmup_epochs=0)
    act_model = build_model(act_run, tv, av, onto)
    opt, _, _ = train(act_run, act_model, turns)
    act_ckpt = str(tmp_path / "act.ckpt")
    ckpt.save(act_ckpt, act_model, opt)

    for attn in ("dynamic", "mean"):
        run = _small_run(corpus, ontology, mode="pipeline", init_from=act_ckpt,
                         act_attention=attn, warmup_epochs=0)
        m = build_model(run, tv, av, onto)
        train(run, m, turns)
        reports.append(evaluate_model(m, turns, run, label=f"pipeline_{attn}"))

    path = tmp_path / "ablation.txt"
    write_report(path, reports)
    text = path.read_text()
    labels = [r.label for r in reports]
    ok = (path.exists() and all(lbl in text for lbl in labels)
          and len(reports) == 3)
    scores = ", ".join(f"{r.label} {r.combined:.1f}" for r in reports)
    record(f"{'PASS' if ok else 'FAIL'} criterion 7: ablation harness, "
           f"report with 3 configurations ({scores})")
    assert ok


def test_criterion_08_loss_mode_sweep(record, small_files, tmp_path):
    """Fixed-alpha grid plus uncertainty mode, 5 seeds, one report; the
    top-3 placement of the uncertainty mode is logged, not asserted."""
    corpus, ontology = small_files
    modes = [f"weighted:{alpha:.1f}" for alpha in np.arange(0, 1.01, 0.1)]
    modes.append("uncertainty")
    onto, turns, tv, av = None, None, None, None
    reports = []
    top3_hits = 0
    for seed in range(5):
        per_seed = []
        for mode in modes:
            run = _small_run(corpus, ontology, loss_mode=mode, seed=seed)
            if turns is None:
                onto, turns, tv, av = load_data(run)
            model = build_model(run, tv, av, onto)
            train(run, model, turns)
            per_seed.append(evaluate_model(model, turns, run,
                                           label=f"{mode}/seed{seed}"))
        ranked = sorted(per_seed, key=lambda r: -r.combined)
        rank = next(i for i, r in enumerate(ranked)
                    if r.label.startswith("uncertainty")) + 1
        top3_hits += rank <= 3
        reports.extend(per_seed)
    path = tmp_path / "sweep.txt"
    write_report(path, reports,
                 extra_lines=[f"uncertainty_top3 {top3_hits} of 5 seeds"])
    text = path.read_text()
    all_rows = all(f"{m}/seed{s}" in text for m in modes for s in range(5))
    ok = path.exists() and all_rows and len(reports) == 60
    record(f"{'PASS' if ok else 'FAIL'} criterion 8: loss-mode sweep, 12 modes "
           f"x 5 seeds in one report; uncertainty in top 3 on {top3_hits}/5 "
           f"seeds (logged, not asserted)")
    assert ok


def test_criterion_09_bleu_oracle(record):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        hyps, refs = [], []
        for _ in range(int(rng.integers(2, 10))):
            ref = [f"w{rng.integers(10)}" for _ in range(rng.integers(4, 16))]
            if rng.random() < 0.5:
                hyp = list(ref)
                for _ in range(rng.integers(0, 4)):
                    hyp[rng.integers(len(hyp))] = f"w{rng.integers(10)}"
            else:
                hyp = [f"w{rng.integers(10)}" for _ in range(rng.integers(1, 16))]
            hyps.append(hyp)
            refs.append(ref)
        worst = max(worst, abs(bleu(hyps, refs) - reference_bleu(hyps, refs)))
    self_score = bleu([["a", "b", "c", "d", "e"]], [["a", "b", "c", "d", "e"]])
    ok = worst < 1e-6 and abs(self_score - 100.0) < 1e-9
    record(f"{'PASS' if ok else 'FAIL'} criterion 9: BLEU oracle, 20 corpora, "
           f"worst gap {worst:.2e}, self-BLEU {self_score:.2f}")
    assert worst < 1e-6
    assert self_score == pytest.approx(100.0, abs=1e-9)


def test_criterion_10_determinism(record, small_files, tmp_path):
    """Two cmd-line training runs with the same seed produce bit-identical
    loss logs and checkpoints."""
    corpus, ontology = small_files
    outputs = []
    for tag in ("a", "b"):
        args = ["train"]
        for k, v in (("corpus", corpus), ("ontology", ontology),
                     ("checkpoint", str(tmp_path / f"{tag}.ckpt")),
                     ("loss_log", str(tmp_path / f"{tag}.log")),
                     ("d_model", "16"), ("n_layers", "1"), ("n_heads", "2"),
                     ("epochs", "4"), ("warmup_epochs", "2"),
                     ("batch_size", "8"), ("seed", "13")):
            args += ["--set", f"{k}={v}"]
        assert cli_main(args) == 0
        outputs.append(((tmp_path / f"{tag}.ckpt").read_bytes(),
                        (tmp_path / f"{tag}.log").read_bytes()))
    same_ckpt = outputs[0][0] == outputs[1][0]
    same_log = outputs[0][1] == outputs[1][1]
    ok = same_ckpt and same_log
    record(f"{'PASS' if ok else 'FAIL'} criterion 10: determinism, checkpoint "
           f"bytes identical {same_ckpt}, loss log identical {same_log}")
    assert same_ckpt
    assert same_log
