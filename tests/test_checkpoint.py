import copy
import struct

import numpy as np
import pytest

from cogen import checkpoint as ckpt
from cogen.corpus import (SynthSpec, build_vocab, expand_dialogue, make_batch,
                          synth_generate, toy_ontology)
from cogen.model import CogenModel, LossMode, train_step
from cogen.tensor import Adam, NumericError
from cogen.transformer import TransformerConfig


@pytest.fixture(scope="module")
def trained():
    spec = SynthSpec(corpus_size=4, seed=3)
    ontology = toy_ontology(spec)
    turns = [t for d in synth_generate(spec) for t in expand_dialogue(d)]
    text_vocab, act_vocab = build_vocab(turns, ontology)
    cfg = TransformerConfig(n_layers=1, n_heads=2, d_model=8, max_seq_len=128)
    model = CogenModel(cfg, text_vocab, act_vocab, ontology, seed=1)
    opt = Adam(model.params, lr=1e-3)
    batch = make_batch(turns[:3], text_vocab, act_vocab, ontology, 128)
    for _ in range(3):
        train_step(model, batch, opt, LossMode.parse("uncertainty"))
    return model, opt


class TestRoundTrip:
    def test_parameters_identical(self, trained, tmp_path):
        model, opt = trained
        path = tmp_path / "m.ckpt"
        ckpt.save(path, model, opt, extra={"note": "x"})
        loaded, opt2, header = ckpt.load(path)
        assert set(loaded.params) == set(model.params)
        for n in model.params:
            assert np.array_equal(loaded.params[n].data, model.params[n].data), n
        assert header["extra"]["note"] == "x"

    def test_byte_exact_resave(self, trained, tmp_path):
        model, opt = trained
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ckpt.save(p1, model, opt, extra={"k": 1})
        loaded, opt2, _ = ckpt.load(p1)
        ckpt.save(p2, loaded, opt2, extra={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_optimizer_state_restored(self, trained, tmp_path):
        model, opt = trained
        path = tmp_path / "m.ckpt"
        ckpt.save(path, model, opt)
        _, opt2, _ = ckpt.load(path)
        assert opt2.t == opt.t
        assert opt2.lr == opt.lr
        for n in opt.m:
            assert np.array_equal(opt2.m[n], opt.m[n])
            assert np.array_equal(opt2.v[n], opt.v[n])

    def test_no_optimizer_round_trip(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "m.ckpt"
        ckpt.save(path, model)
        _, opt2, _ = ckpt.load(path)
        assert opt2 is None

    def test_vocab_and_ontology_restored(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "m.ckpt"
        ckpt.save(path, model)
        loaded, _, header = ckpt.load(path)
        assert loaded.text_vocab.tokens == model.text_vocab.tokens
        assert loaded.ontology.domains == model.ontology.domains
        assert header["vocab_hash"] == ckpt.vocab_hash(model.text_vocab)
        assert header["ontology_hash"] == ckpt.ontology_hash(model.ontology)

    def test_forward_pass_identical_after_reload(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "m.ckpt"
        ckpt.save(path, model)
        loaded, _, _ = ckpt.load(path)
        spec = SynthSpec(corpus_size=4, seed=3)
        turns = [t for d in synth_generate(spec) for t in expand_dialogue(d)]
        batch = make_batch(turns[:2], model.text_vocab, model.act_vocab,
                           model.ontology, 128)
        l1, _ = model.act_forward(model.encode_shared(batch), batch.belief,
                                  batch.act_in)
        l2, _ = loaded.act_forward(loaded.encode_shared(batch), batch.belief,
                                   batch.act_in)
        assert np.array_equal(l1.data, l2.data)


class TestCorruption:
    def test_bad_magic(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "m.ckpt"
        ckpt.save(path, model)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ckpt.CheckpointError, match="not a checkpoint"):
            ckpt.load(path)

    def test_unsupported_version(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "m.ckpt"
        ckpt.save(path, model)
        raw = bytearray(path.read_bytes())
        raw[len(ckpt.MAGIC):len(ckpt.MAGIC) + 4] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(ckpt.CheckpointError, match="version"):
            ckpt.load(path)

    def test_truncated_file(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "m.ckpt"
        ckpt.save(path, model)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load(path)

    def test_every_truncation_and_byte_flip_is_a_checkpoint_error(self, trained, tmp_path):
        model, opt = trained
        path = tmp_path / "m.ckpt"
        ckpt.save(path, model, opt)
        raw = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        header_end = len(ckpt.MAGIC) + 8 + struct.unpack_from("<I", raw, len(ckpt.MAGIC) + 4)[0]
        # every cut inside the header and the first records, then a stride
        cuts = list(range(header_end + 200)) + list(range(header_end + 200, len(raw), 997))
        for cut in cuts:
            bad.write_bytes(raw[:cut])
            ends = "ends inside a record" if cut >= len(ckpt.MAGIC) else "not a checkpoint"
            with pytest.raises(ckpt.CheckpointError, match=ends):
                ckpt.load(bad)
        rng = np.random.default_rng(0)
        flips = np.concatenate([rng.integers(len(ckpt.MAGIC), header_end, 150),
                                rng.integers(header_end, len(raw), 150)])
        for pos in flips:
            flipped = bytearray(raw)
            flipped[pos] ^= 0xFF
            bad.write_bytes(bytes(flipped))
            try:
                ckpt.load(bad)     # a flip inside a string can still parse
            except ckpt.CheckpointError as e:
                assert "\n" not in str(e)

    def test_missing_parameter_refused(self, trained, tmp_path):
        """A file without one of the model's parameters is refused by name,
        not loaded with that parameter left at its random init."""
        model, _ = trained
        partial = copy.copy(model)
        partial.params = {n: p for n, p in model.params.items() if n != "w_resp_out"}
        ckpt.save(tmp_path / "m.ckpt", partial)
        with pytest.raises(ckpt.CheckpointError, match="w_resp_out"):
            ckpt.load(tmp_path / "m.ckpt")

    def test_failed_save_leaves_no_partial_file(self, trained, tmp_path, monkeypatch):
        model, _ = trained
        path = tmp_path / "m.ckpt"

        class Boom(RuntimeError):
            pass

        import json as json_mod
        def explode(*a, **k):
            raise Boom()
        monkeypatch.setattr(json_mod, "dumps", explode)
        with pytest.raises(Boom):
            ckpt.save(path, model)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_refused(self, trained, tmp_path, bad):
        model, opt = trained
        p = model.params["respdec.dyn.wq"]
        saved = p.data.copy()
        p.data[1, 2] = bad
        try:
            with pytest.raises(NumericError, match="respdec.dyn.wq"):
                ckpt.save(tmp_path / "m.ckpt", model, opt)
        finally:
            p.data = saved
        assert list(tmp_path.iterdir()) == []


class TestHashes:
    def test_vocab_hash_sensitive_to_order(self, trained):
        model, _ = trained
        from cogen.corpus import Vocab
        shuffled = Vocab(list(reversed(model.text_vocab.tokens)))
        assert ckpt.vocab_hash(model.text_vocab) != ckpt.vocab_hash(shuffled)

    def test_ontology_hash_sensitive_to_content(self, trained):
        model, _ = trained
        from cogen.acts import Ontology
        other = Ontology(model.ontology.domains + ["zoo"],
                         model.ontology.actions, model.ontology.slots)
        assert ckpt.ontology_hash(model.ontology) != ckpt.ontology_hash(other)

    def test_hashes_are_16_hex_chars(self, trained):
        model, _ = trained
        h = ckpt.vocab_hash(model.text_vocab)
        assert len(h) == 16 and int(h, 16) >= 0
