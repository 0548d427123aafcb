"""Smoke test of the benchmark itself: every workload at a tiny size, epoch
replay, wrapper restoration after a traced run, and the long-context
generator.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import longctx  # noqa: E402
import workloads as w  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

TINY_MODEL = dict(d_model=8, n_layers=1, n_heads=2, act_max_len=8, resp_max_len=12)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink both workloads' training and decoding; the corpora the
    committed models were trained on stay as they are."""
    monkeypatch.setattr(w, "SYNTH", dict(TINY_MODEL, batch_size=32, lr=3e-3, warmup_epochs=1,
                                         epochs=1, stop_exact_match=0.01, stop_check_every=1))
    monkeypatch.setattr(w, "SYNTH_DECODE_DIALOGUES", 2)
    monkeypatch.setattr(w, "LONG", dict(batch_size=4, lr=3e-3, warmup_epochs=0, epochs=1,
                                        stop_exact_match=0.0, beam_size=4, act_max_len=8,
                                        resp_max_len=12))
    monkeypatch.setattr(w, "LONG_DIALOGUES", 1)
    monkeypatch.setattr(w, "LONG_DECODE_DIALOGUES", 1)


def declared(kind):
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


def bound_attributes():
    """Every cogen module attribute and patched-class attribute, by identity."""
    import cogen.model
    import cogen.tensor
    snap = {}
    for name, mod in sys.modules.items():
        if name == "cogen" or name.startswith("cogen."):
            snap.update({(name, attr): value for attr, value in vars(mod).items()})
    for cls in (cogen.tensor.Tensor, cogen.tensor.Adam, cogen.model.CogenModel):
        snap.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return snap


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_workload_runs_and_reports_every_metric(tiny, tmp_path, workload):
    first = w.Measured()
    w.RUNNERS[workload](tmp_path, 0, 0.01, first, repeats=3)
    assert first.attempted > 0 and first.turn_s and first.train["joint_step_s"]
    assert len(first.setup_s) == 3 and first.decode_passes >= 1
    # one round runs every epoch again, and each must log what it did first
    assert first.rounds == 1
    assert not [f for f in first.failures if "differently" in f]
    assert sorted(w.end_to_end(first)) == sorted(declared("end_to_end"))

    untraced = w.Measured()
    w.RUNNERS[workload](tmp_path, 0, None, untraced, repeats=1, rounds=0)
    assert untraced.rounds == 0
    traced = w.Measured()
    tr = w.traced(workload, tmp_path, 0, untraced, traced)
    assert traced.train["epochs"] == untraced.train["epochs"]
    assert traced.tokens == untraced.tokens
    assert traced.decode_passes == untraced.decode_passes
    layers = w.per_layer(tr, traced, untraced)
    assert sorted(layers) == sorted(declared("per_layer"))
    assert layers["decode.step_calls_per_turn"] > 0
    assert 0 < layers["trace.coverage"] <= 1


def test_epoch_run_again_restores_its_start(tmp_path):
    """Running an epoch again starts from the state it first started in."""
    run = w.write_synth(tmp_path, 0)
    run = replace(run, **TINY_MODEL, warmup_epochs=1, epochs=1, stop_exact_match=0.0)
    ontology, turns, text_vocab, act_vocab = w.training.load_data(run)
    model = w.training.build_model(run, text_vocab, act_vocab, ontology)
    trainer = w.Trainer(run, model, turns[:64], w.Measured())
    while trainer.running():
        trainer.run_epoch(len(trainer.lines))
    after = {k: p.data.copy() for k, p in model.params.items()}
    trainer.run_epoch(0)
    trainer.run_epoch(1)
    assert all((p.data == after[k]).all() for k, p in model.params.items())
    assert trainer.out.failures == [] and len(trainer.step_s[1]) == 2


def test_traced_run_restores_every_wrapper(tiny, tmp_path):
    from cogen import decode, tensor
    before = bound_attributes()
    with Tracer() as tr:
        instrument(tr)
        assert decode.beam_search is not before[("cogen.decode", "beam_search")]
        assert tensor.Tensor.backward is not before[("Tensor", "backward")]
        w.synth(tmp_path, 0, None, w.Measured(), repeats=1, rounds=0)
    assert tr.spans
    after = bound_attributes()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_untraced_run_patches_nothing(tiny, tmp_path):
    before = bound_attributes()
    w.synth(tmp_path, 0, None, w.Measured(), repeats=1, rounds=0)
    after = bound_attributes()
    assert [key for key in before if after.get(key) is not before[key]] == []


def test_longctx_generator_is_deterministic():
    first, onto1 = longctx.generate(3, seed=7)
    again, onto2 = longctx.generate(3, seed=7)
    other, _ = longctx.generate(3, seed=8)
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert onto1.tokens() == onto2.tokens()
    assert json.dumps(first, sort_keys=True) != json.dumps(other, sort_keys=True)
    assert [len(d["turns"]) for d in first] == [2 * longctx.CHAIN] * 3


def test_longctx_gold_responses_score_full_marks(tmp_path):
    from cogen import corpus, metrics
    dialogues, _ = longctx.generate(2, seed=1)
    path = tmp_path / "long.json"
    corpus.write_dialogues(path, dialogues)
    turns = corpus.load_corpus(path)
    gold = [t.gold_response for t in turns]
    assert metrics.inform_rate(turns, gold) == 100.0
    assert metrics.request_success(turns, gold) == 100.0
    assert max(len(t.source_tokens) for t in turns) > 100
