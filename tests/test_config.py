import pytest

from cogen.config import ConfigError, RunConfig


class TestResolve:
    def test_defaults(self):
        cfg = RunConfig.resolve()
        assert cfg.d_model == 32
        assert cfg.loss_mode == "uncertainty"
        assert cfg.mode == "joint"

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nd_model = 16\nlr = 0.01\n\ntrigram_block = false\n")
        cfg = RunConfig.resolve(str(path))
        assert cfg.d_model == 16
        assert cfg.lr == pytest.approx(0.01)
        assert cfg.trigram_block is False

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 5\n")
        cfg = RunConfig.resolve(str(path), {"epochs": "9"})
        assert cfg.epochs == 9

    def test_unknown_key_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d_modell = 16\n")
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.resolve(str(path))

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError):
            RunConfig.resolve("", {"nope": "1"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key=value"):
            RunConfig.resolve(str(path))

    def test_bad_bool(self):
        with pytest.raises(ConfigError):
            RunConfig.resolve("", {"trigram_block": "maybe"})


class TestValidate:
    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            RunConfig.resolve("", {"mode": "cascade"})

    def test_bad_loss_mode(self):
        with pytest.raises(ConfigError):
            RunConfig.resolve("", {"loss_mode": "sum"})

    def test_weighted_loss_mode_accepted(self):
        assert RunConfig.resolve("", {"loss_mode": "weighted:0.7"}).loss_mode \
            == "weighted:0.7"

    def test_pipeline_requires_init_from(self):
        with pytest.raises(ConfigError, match="init_from"):
            RunConfig.resolve("", {"mode": "pipeline"})

    def test_weighted_alpha_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            RunConfig.resolve("", {"loss_mode": "weighted:1.5"})

    def test_zero_beam_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.resolve("", {"beam_size": "0"})


class TestFingerprint:
    def test_stable(self):
        assert RunConfig().fingerprint() == RunConfig().fingerprint()

    def test_sensitive_to_any_field(self):
        base = RunConfig().fingerprint()
        assert RunConfig(seed=1).fingerprint() != base
        assert RunConfig(loss_mode="weighted:0.5").fingerprint() != base

    def test_format(self):
        fp = RunConfig().fingerprint()
        assert len(fp) == 16 and int(fp, 16) >= 0
