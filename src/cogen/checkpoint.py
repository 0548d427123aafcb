"""Versioned binary checkpoint: magic, format version, JSON header (model
config, vocabularies, ontology, hashes), named parameter table as raw 32-bit
little-endian values, and optional Adam state. Round-trips byte-exactly.
"""

import hashlib
import io
import json
import struct

import numpy as np

from .acts import Ontology
from .config import DataError
from .corpus import Vocab
from .files import atomic_write
from .transformer import TransformerConfig
from .model import CogenModel
from .tensor import Adam, NumericError

MAGIC = b"COGENCK1"
VERSION = 1


class CheckpointError(DataError):
    pass


def vocab_hash(vocab: Vocab) -> str:
    return hashlib.sha256("\n".join(vocab.tokens).encode()).hexdigest()[:16]


def ontology_hash(ontology: Ontology) -> str:
    text = "|".join(ontology.domains) + "//" + "|".join(ontology.actions) \
        + "//" + "|".join(ontology.slots)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verify(path, header: dict, text_vocab: Vocab, ontology: Ontology):
    """Raise CheckpointError unless the checkpoint at `path`, whose header
    this is, was made with this text vocabulary and ontology."""
    if header["ontology_hash"] != ontology_hash(ontology):
        raise CheckpointError(f"{path}: checkpoint ontology hash does not match corpus ontology")
    if header["vocab_hash"] != vocab_hash(text_vocab):
        raise CheckpointError(f"{path}: checkpoint vocab hash does not match corpus vocabulary")


def _write_bytes(f, b: bytes):
    f.write(struct.pack("<I", len(b)))
    f.write(b)


def _read(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"file ends inside a record ({len(data)} of {n} bytes)")
    return data


def _unpack(f, fmt: str) -> tuple:
    return struct.unpack(fmt, _read(f, struct.calcsize(fmt)))


def _read_bytes(f) -> bytes:
    (n,) = _unpack(f, "<I")
    return _read(f, n)


def _read_floats(f, shape: tuple) -> np.ndarray:
    count = int(np.prod(shape, dtype=np.int64))
    return np.frombuffer(_read(f, 4 * count), dtype="<f4").reshape(shape).astype(np.float32)


def save(path, model: CogenModel, opt: Adam | None = None, extra: dict | None = None):
    """Write the checkpoint; a non-finite parameter raises NumericError and
    writes nothing."""
    for name, p in model.params.items():
        if not np.isfinite(p.data).all():
            raise NumericError(f"refusing to save non-finite parameter {name}")
    header = {
        "config": {"n_layers": model.cfg.n_layers, "n_heads": model.cfg.n_heads,
                   "d_model": model.cfg.d_model, "d_ff": model.cfg.d_ff,
                   "max_seq_len": model.cfg.max_seq_len},
        "act_attention": model.act_attention,
        "text_vocab": model.text_vocab.tokens,
        "act_vocab": model.act_vocab.tokens,
        "ontology": {"domains": model.ontology.domains,
                     "actions": model.ontology.actions,
                     "slots": model.ontology.slots},
        "vocab_hash": vocab_hash(model.text_vocab),
        "ontology_hash": ontology_hash(model.ontology),
        "extra": extra or {},
    }
    names = list(model.params)
    f = io.BytesIO()
    f.write(MAGIC)
    f.write(struct.pack("<I", VERSION))
    _write_bytes(f, json.dumps(header, sort_keys=True).encode())
    f.write(struct.pack("<I", len(names)))
    for name in names:
        data = model.params[name].data.astype("<f4")
        _write_bytes(f, name.encode())
        f.write(struct.pack("<B", data.ndim))
        for dim in data.shape:
            f.write(struct.pack("<I", dim))
        f.write(data.tobytes())
    if opt is None:
        f.write(struct.pack("<B", 0))
    else:
        f.write(struct.pack("<B", 1))
        f.write(struct.pack("<Q", opt.t))
        f.write(struct.pack("<dddd", opt.lr, opt.beta1, opt.beta2, opt.eps))
        opt_names = list(opt.params)
        f.write(struct.pack("<I", len(opt_names)))
        for name in opt_names:
            _write_bytes(f, name.encode())
            f.write(opt.m[name].astype("<f4").tobytes())
            f.write(opt.v[name].astype("<f4").tobytes())
    atomic_write(path, f.getvalue())


def load(path):
    """Returns (model, optimizer-or-None, header). A file that is not a
    whole, well-formed checkpoint raises CheckpointError."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        # parsed from memory, so a garbled length never sizes a file read
        return _load(io.BytesIO(raw))
    except CheckpointError as e:
        raise CheckpointError(f"{path}: {e}") from None
    # ValueError covers bad JSON, bad UTF-8 and bad header values
    except (struct.error, ValueError, KeyError, TypeError) as e:
        raise CheckpointError(
            f"{path}: corrupt checkpoint ({type(e).__name__}: {e})") from e


def _load(f):
    if f.read(len(MAGIC)) != MAGIC:
        raise CheckpointError("not a checkpoint file")
    (version,) = _unpack(f, "<I")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    header = json.loads(_read_bytes(f).decode())
    cfg = TransformerConfig(**header["config"])
    onto = header["ontology"]
    ontology = Ontology(onto["domains"], onto["actions"], onto["slots"])
    model = CogenModel(cfg, Vocab(header["text_vocab"]),
                       Vocab(header["act_vocab"]), ontology,
                       act_attention=header["act_attention"])
    (n_params,) = _unpack(f, "<I")
    loaded = set()
    for _ in range(n_params):
        name = _read_bytes(f).decode()
        (ndim,) = _unpack(f, "<B")
        shape = _unpack(f, f"<{ndim}I")
        arr = _read_floats(f, shape)
        if name not in model.params:
            raise CheckpointError(f"unknown parameter {name!r}")
        if model.params[name].shape != shape:
            raise CheckpointError(
                f"parameter {name!r} shape {shape} vs model "
                f"{model.params[name].shape}")
        model.params[name].data = arr.copy()
        loaded.add(name)
    missing = sorted(model.params.keys() - loaded)
    if missing:
        raise CheckpointError(f"missing parameter(s) {', '.join(missing)}")
    (has_opt,) = _unpack(f, "<B")
    opt = None
    if has_opt:
        (t,) = _unpack(f, "<Q")
        lr, b1, b2, eps = _unpack(f, "<dddd")
        (n_opt,) = _unpack(f, "<I")
        opt_params = {}
        m, v = {}, {}
        for _ in range(n_opt):
            name = _read_bytes(f).decode()
            p = model.params[name]
            m[name] = _read_floats(f, p.data.shape)
            v[name] = _read_floats(f, p.data.shape)
            opt_params[name] = p
        opt = Adam(opt_params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        opt.t = t
        opt.m, opt.v = m, v
    return model, opt, header
