"""Finite-difference check registry for every differentiable operation,
including the full joint loss at tiny dimensions.
"""

import numpy as np

from . import tensor as T
from .tensor import Tensor, attention, gradcheck, matmul, layer_norm, concat, \
    cross_entropy, embedding

PRIMITIVE_TOL = 1e-4
END_TO_END_TOL = 1e-3


def _rt(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _check_matmul(seed):
    rng = np.random.default_rng(seed)
    a, b = _rt(rng, 3, 4), _rt(rng, 4, 2)
    return gradcheck(lambda a, b: matmul(a, b).sum(), [a, b])


def _check_add_broadcast(seed):
    rng = np.random.default_rng(seed)
    x, bias = _rt(rng, 3, 5), _rt(rng, 5)
    return gradcheck(lambda x, b: (x + b).sum(), [x, bias])


def _check_mul(seed):
    rng = np.random.default_rng(seed)
    x, y = _rt(rng, 4, 3), _rt(rng, 4, 3)
    return gradcheck(lambda x, y: (x * y).sum(), [x, y])


def _check_relu(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((4, 4)) + 0.05, requires_grad=True)
    return gradcheck(lambda x: (x.relu() * x).sum(), [x])


def _check_exp_log(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
    return gradcheck(lambda x: (x.exp() + x.log()).sum(), [x])


def _check_layer_norm(seed):
    rng = np.random.default_rng(seed)
    x, g, b = _rt(rng, 3, 6), _rt(rng, 6), _rt(rng, 6)
    def fn(x, g, b):
        y = layer_norm(x, g, b)
        return (y * y).sum()

    return gradcheck(fn, [x, g, b])


def _check_concat_reshape(seed):
    rng = np.random.default_rng(seed)
    a, b = _rt(rng, 2, 3), _rt(rng, 2, 2)
    return gradcheck(
        lambda a, b: (concat([a, b], axis=-1).reshape(10) *
                      concat([a, b], axis=-1).reshape(10)).sum(), [a, b])


def _check_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    logits = _rt(rng, 5, 4)
    targets = rng.integers(0, 4, 5)
    targets[2] = 0
    return gradcheck(lambda l: cross_entropy(l, targets, ignore_id=0), [logits])


def _check_embedding(seed):
    rng = np.random.default_rng(seed)
    table = _rt(rng, 6, 4)
    ids = np.array([[0, 3, 3, 5]])
    return gradcheck(lambda t: (embedding(t, ids) * embedding(t, ids)).sum(), [table])


def _check_attention(seed):
    """The fused attention op, two heads of width 3, over a batch of two
    rows: a masked key, with and without a causal mask (query i is key
    i + 1), and keys and values of batch 1 broadcast over the rows."""
    rng = np.random.default_rng(seed)
    keys = np.array([[True, True, True], [True, False, True]])[:, None, None, :]
    causal = np.tri(2, 3, 1, dtype=bool)
    worst = 0.0
    for kv_batch, mask in ((2, keys), (2, keys & causal), (1, keys & causal)):
        q = _rt(rng, 2, 2, 6)
        k, v = _rt(rng, kv_batch, 3, 6), _rt(rng, kv_batch, 3, 6)
        r = Tensor(rng.standard_normal((2, 2, 6)))

        def fn(q, k, v):
            out, _ = attention(q, k, v, 2, mask)
            return (out * r).sum()

        worst = max(worst, gradcheck(fn, [q, k, v]))
    return worst


def _check_transformer_block(seed, causal=False):
    """One self-attention block over a batch of two rows of three
    positions; the first row's middle key is masked."""
    from .transformer import init_block_params, transformer_block
    rng = np.random.default_rng(seed)
    params = {}
    init_block_params(rng, params, "blk", d_model=4, d_ff=8)
    x = _rt(rng, 2, 3, 4)
    key_mask = np.array([[True, False, True], [True, True, True]])

    def fn(x, *ps):
        out = transformer_block(params, "blk", x, x, key_mask, n_heads=2, causal=causal)
        return (out * out).sum()

    tensors = [x] + list(params.values())
    return gradcheck(fn, tensors)


def _check_joint_loss(seed):
    """Full co-generation forward + uncertainty loss at tiny dimensions, over
    two rows with different act-key counts: a first turn whose act keys are
    its whole source, and a turn with a non-key prefix, so the act pass
    gathers positions and has a padded slot."""
    from .transformer import TransformerConfig
    from .model import CogenModel, sequence_loss, uncertainty_loss
    from .corpus import Vocab, Batch, RESERVED, belief_dim
    from .acts import Ontology

    ontology = Ontology(["d1"], ["inform"], ["s1", "s2"])
    text_vocab = Vocab(RESERVED + ["a", "b"])
    act_vocab = Vocab(RESERVED + ontology.tokens())
    cfg = TransformerConfig(n_layers=1, n_heads=2, d_model=4, d_ff=8, max_seq_len=16)
    model = CogenModel(cfg, text_vocab, act_vocab, ontology, seed=seed)
    rng = np.random.default_rng(seed + 7)
    for p in model.params.values():
        p.data = np.asarray(rng.standard_normal(p.shape) * 0.3)
    batch = Batch(
        turns=[None, None], src=np.array([[5, 4, 5], [4, 5, 4]]),
        src_mask=np.ones((2, 3), dtype=bool),
        act_key_mask=np.array([[True, True, True], [False, True, True]]),
        belief=rng.standard_normal((2, belief_dim(ontology))),
        act_in=np.array([[1, 5, 4], [1, 4, 5]]), act_tg=np.array([[5, 4, 2], [4, 5, 2]]),
        resp_in=np.array([[1, 5, 4], [1, 4, 5]]), resp_tg=np.array([[5, 4, 2], [4, 5, 2]]))

    def fn(*ps):
        act_logits, resp_logits = model.teacher_forced(batch)
        l_a = sequence_loss(act_logits, batch.act_tg)
        l_r = sequence_loss(resp_logits, batch.resp_tg)
        return uncertainty_loss(l_a, l_r, model.params["s1"], model.params["s2"])

    return gradcheck(fn, list(model.params.values()))


REGISTRY = [
    ("matmul", _check_matmul, PRIMITIVE_TOL),
    ("add-broadcast", _check_add_broadcast, PRIMITIVE_TOL),
    ("mul", _check_mul, PRIMITIVE_TOL),
    ("relu", _check_relu, PRIMITIVE_TOL),
    ("exp-log", _check_exp_log, PRIMITIVE_TOL),
    ("layer-norm", _check_layer_norm, PRIMITIVE_TOL),
    ("concat-reshape", _check_concat_reshape, PRIMITIVE_TOL),
    ("softmax-cross-entropy", _check_cross_entropy, PRIMITIVE_TOL),
    ("embedding", _check_embedding, PRIMITIVE_TOL),
    ("attention", _check_attention, PRIMITIVE_TOL),
    ("transformer-block", _check_transformer_block, PRIMITIVE_TOL),
    ("causal-block", lambda seed: _check_transformer_block(seed, causal=True),
     PRIMITIVE_TOL),
    ("joint-loss", _check_joint_loss, END_TO_END_TOL),
]


def run_all(seeds=(0, 1, 2, 3, 4)):
    """[(name, max_error, threshold, passed)] across seeds, in 64-bit mode."""
    results = []
    with T.use_dtype(np.float64):
        for name, fn, tol in REGISTRY:
            worst = max(fn(seed) for seed in seeds)
            results.append((name, worst, tol, worst < tol))
    return results
