"""Flat key=value run configuration with schema validation.

Precedence: command-line overrides > config file > defaults. Unknown keys are
rejected. The fingerprint of the resolved config is embedded in artifacts.
"""

import hashlib
import math
from dataclasses import dataclass, fields


class ConfigError(ValueError):
    """A run setting that is unknown, mistyped or out of range (exit 1)."""


class DataError(ValueError):
    """A corpus, ontology or checkpoint file that cannot be used (exit 2)."""


def _bool(text):
    if isinstance(text, bool):
        return text
    if str(text).lower() in ("1", "true", "yes", "on"):
        return True
    if str(text).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class RunConfig:
    # model
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 0
    max_seq_len: int = 256
    # training
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 300
    warmup_epochs: int = 10
    seed: int = 0
    min_freq: int = 1
    loss_mode: str = "uncertainty"        # or "weighted:<alpha>"
    mode: str = "joint"                   # joint | act_only | pipeline
    act_attention: str = "dynamic"        # dynamic | mean
    stop_exact_match: float = 0.0         # 0 disables early stopping
    stop_check_every: int = 10
    # decoding
    beam_size: int = 2
    trigram_block: bool = True
    act_max_len: int = 30
    resp_max_len: int = 80
    length_norm: bool = False
    # paths
    corpus: str = ""
    ontology: str = ""
    checkpoint: str = ""
    init_from: str = ""
    resume: str = ""
    report: str = ""
    loss_log: str = ""

    @classmethod
    def schema(cls):
        casts = {int: int, float: float, str: str, bool: _bool}
        return {f.name: casts[f.type] for f in fields(cls)}

    @classmethod
    def resolve(cls, file_path: str = "", overrides: dict | None = None) -> "RunConfig":
        schema = cls.schema()

        def cast(key, text, where):
            if key not in schema:
                raise ConfigError(f"{where}: unknown key {key!r}")
            try:
                return schema[key](text)
            except ValueError:
                raise ConfigError(f"{where}: {key}={text!r} is not a valid "
                                  f"{schema[key].__name__.lstrip('_')}") from None

        values = {}
        if file_path:
            try:
                with open(file_path, encoding="utf-8") as f:
                    lines = f.read().splitlines()
            except UnicodeDecodeError as e:
                raise ConfigError(f"{file_path}: not UTF-8 text ({e})") from None
            for lineno, raw in enumerate(lines, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{file_path}:{lineno}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                values[key] = cast(key, val, f"{file_path}:{lineno}")
        for key, val in (overrides or {}).items():
            values[key] = cast(key, val, "override")
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def validate(self):
        """Build the model shape, the search settings and the loss mode,
        each of which checks its own values, then check the ranges that no
        type owns. Raises ConfigError."""
        from .decode import decode_configs
        from .model import LossMode, model_config
        model_config(self)
        decode_configs(self)
        LossMode.parse(self.loss_mode)
        if self.mode not in ("joint", "act_only", "pipeline"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.act_attention not in ("dynamic", "mean"):
            raise ConfigError(f"unknown act_attention {self.act_attention!r}")
        if self.mode == "pipeline" and not self.init_from:
            raise ConfigError("pipeline mode requires init_from=<act-only checkpoint>")
        for name, ok, rule in (
                ("lr", math.isfinite(self.lr) and self.lr > 0, "finite and > 0"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("epochs", self.epochs >= 0, ">= 0"),
                ("warmup_epochs", self.warmup_epochs >= 0, ">= 0"),
                ("stop_check_every", self.stop_check_every >= 1, ">= 1"),
                ("seed", self.seed >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")

    # filesystem locations; excluded from the fingerprint so that runs which
    # differ only in where they read or write artifacts hash identically
    PATH_FIELDS = frozenset(["corpus", "ontology", "checkpoint", "init_from",
                             "resume", "report", "loss_log"])

    def as_items(self):
        return sorted((f.name, getattr(self, f.name)) for f in fields(self))

    def fingerprint(self) -> str:
        text = "\n".join(f"{k}={v}" for k, v in self.as_items()
                         if k not in self.PATH_FIELDS)
        return hashlib.sha256(text.encode()).hexdigest()[:16]
