import numpy as np
import pytest

from cogen import checkpoint as ckpt
from cogen.config import RunConfig
from cogen.corpus import (SynthSpec, synth_generate, toy_ontology,
                          write_dialogues)
from cogen.tensor import Adam
from cogen.training import (build_model, load_data, teacher_forced_exact,
                            train)


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    spec = SynthSpec(corpus_size=6, seed=11)
    write_dialogues(root / "corpus.json", synth_generate(spec))
    toy_ontology(spec).save(root / "ontology.txt")
    return str(root / "corpus.json"), str(root / "ontology.txt")


def _run(data_files, **kw):
    corpus, ontology = data_files
    base = dict(corpus=corpus, ontology=ontology, d_model=8, n_layers=1,
                n_heads=2, epochs=2, warmup_epochs=1, batch_size=4, seed=0)
    base.update(kw)
    return RunConfig(**base)


class TestWarmup:
    def test_response_branch_bit_identical_through_warmup(self, data_files):
        run = _run(data_files, mode="joint", epochs=0, warmup_epochs=3)
        ontology, turns, text_vocab, act_vocab = load_data(run)
        model = build_model(run, text_vocab, act_vocab, ontology)
        before = {n: model.params[n].data.copy()
                  for n in model.param_names("response")}
        train(run, model, turns)
        for n, prev in before.items():
            assert np.array_equal(model.params[n].data, prev), n

    def test_warmup_lines_then_joint_lines(self, data_files):
        run = _run(data_files, epochs=2, warmup_epochs=2)
        ontology, turns, text_vocab, act_vocab = load_data(run)
        model = build_model(run, text_vocab, act_vocab, ontology)
        _, lines, done = train(run, model, turns)
        assert done == 4
        assert [l.split()[3] for l in lines] == ["warmup", "warmup",
                                                 "joint", "joint"]
        assert lines[0].startswith("epoch 0 ")
        assert lines[3].startswith("epoch 3 ")


class TestModes:
    def test_act_only_never_touches_response(self, data_files):
        run = _run(data_files, mode="act_only", epochs=3, warmup_epochs=0)
        ontology, turns, text_vocab, act_vocab = load_data(run)
        model = build_model(run, text_vocab, act_vocab, ontology)
        before = {n: model.params[n].data.copy()
                  for n in model.param_names("response")}
        _, lines, _ = train(run, model, turns)
        assert all("phase act_only" in l for l in lines)
        for n, prev in before.items():
            assert np.array_equal(model.params[n].data, prev), n

    def _pipeline(self, data_files, tmp_path):
        """An act-only model and the pipeline run and model initialised
        from its checkpoint."""
        act_run = _run(data_files, mode="act_only", epochs=2, warmup_epochs=0,
                       checkpoint=str(tmp_path / "act.ckpt"))
        ontology, turns, text_vocab, act_vocab = load_data(act_run)
        act_model = build_model(act_run, text_vocab, act_vocab, ontology)
        opt, _, _ = train(act_run, act_model, turns)
        ckpt.save(act_run.checkpoint, act_model, opt)

        pipe_run = _run(data_files, mode="pipeline", epochs=2, warmup_epochs=0,
                        init_from=str(tmp_path / "act.ckpt"))
        model = build_model(pipe_run, text_vocab, act_vocab, ontology)
        return act_model, pipe_run, model, turns

    def test_pipeline_freezes_act_branch(self, data_files, tmp_path):
        act_model, pipe_run, model, turns = self._pipeline(data_files, tmp_path)
        # act branch starts from the act-only checkpoint
        for n in model.param_names("act"):
            assert np.array_equal(model.params[n].data,
                                  act_model.params[n].data), n
        frozen = {n: model.params[n].data.copy() for n in model.param_names("act")}
        train(pipe_run, model, turns)
        for n, prev in frozen.items():
            assert np.array_equal(model.params[n].data, prev), n

    def test_pipeline_differentiates_no_frozen_param(self, data_files, tmp_path):
        """Backward computes no gradient for what the pipeline optimizer
        does not hold, so none piles up over the run."""
        _, pipe_run, model, turns = self._pipeline(data_files, tmp_path)
        opt, _, _ = train(pipe_run, model, turns)
        assert set(opt.params) == set(model.param_names("response"))
        for n in model.param_names("act"):
            assert model.params[n].grad is None, n
            assert not model.params[n].requires_grad, n
        assert any(model.params[n].grad is not None for n in opt.params)


class TestResume:
    def test_two_stage_equals_single_run(self, data_files):
        """4 epochs in one go must match 2 epochs + resume for 2 more, bit for
        bit, in both parameters and the loss trace."""
        def fresh():
            run = _run(data_files, epochs=3, warmup_epochs=1)
            ontology, turns, text_vocab, act_vocab = load_data(run)
            return run, turns, build_model(run, text_vocab, act_vocab, ontology)

        run_a, turns, model_a = fresh()
        _, lines_a, _ = train(run_a, model_a, turns)

        run_b, _, model_b = fresh()
        short = _run(data_files, epochs=1, warmup_epochs=1)
        opt, lines_1, done = train(short, model_b, turns)
        assert done == 2
        rest = _run(data_files, epochs=3, warmup_epochs=1)
        _, lines_2, _ = train(rest, model_b, turns, opt=opt, start_epoch=done)

        assert lines_1 + lines_2 == lines_a
        for n in model_a.params:
            assert np.array_equal(model_a.params[n].data,
                                  model_b.params[n].data), n

    def test_same_seed_reproducible(self, data_files):
        def go():
            run = _run(data_files, epochs=2, warmup_epochs=1, seed=7)
            ontology, turns, text_vocab, act_vocab = load_data(run)
            model = build_model(run, text_vocab, act_vocab, ontology)
            _, lines, _ = train(run, model, turns)
            return lines, model
        lines_a, ma = go()
        lines_b, mb = go()
        assert lines_a == lines_b
        assert all(np.array_equal(ma.params[n].data, mb.params[n].data)
                   for n in ma.params)

    def test_seed_changes_trace(self, data_files):
        def go(seed):
            run = _run(data_files, epochs=2, warmup_epochs=0, seed=seed)
            ontology, turns, text_vocab, act_vocab = load_data(run)
            model = build_model(run, text_vocab, act_vocab, ontology)
            _, lines, _ = train(run, model, turns)
            return lines
        assert go(0) != go(1)


class TestEarlyStop:
    def test_probe_reported_and_stop_line_emitted(self, data_files):
        run = _run(data_files, epochs=400, warmup_epochs=2, d_model=16,
                   stop_exact_match=0.99, stop_check_every=25, lr=3e-3)
        ontology, turns, text_vocab, act_vocab = load_data(run)
        model = build_model(run, text_vocab, act_vocab, ontology)
        _, lines, done = train(run, model, turns)
        assert any("exact_match" in l for l in lines)
        assert lines[-1].split()[2] == "early_stop"
        assert done < 402

    def test_exact_match_probe_range(self, data_files):
        run = _run(data_files, epochs=1, warmup_epochs=0)
        ontology, turns, text_vocab, act_vocab = load_data(run)
        model = build_model(run, text_vocab, act_vocab, ontology)
        from cogen.corpus import batchify
        batches = batchify(turns, 4, 0, text_vocab, act_vocab, ontology)
        rate = teacher_forced_exact(model, batches)
        assert 0.0 <= rate <= 1.0
