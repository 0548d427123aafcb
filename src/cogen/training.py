"""Training orchestration: warm-up, joint/act-only/pipeline loops, loss logs,
and the teacher-forced exact-match probe used for early stopping.
"""

import numpy as np

from .acts import Ontology
from .corpus import load_corpus, build_vocab, batchify, PAD_ID
from .config import RunConfig
from .files import atomic_write
from .model import CogenModel, LossMode, act_only_step, model_config, train_step
from .tensor import Adam, NumericError, no_grad


def load_data(run: RunConfig):
    ontology = Ontology.load(run.ontology)
    turns = load_corpus(run.corpus)
    text_vocab, act_vocab = build_vocab(turns, ontology, run.min_freq)
    return ontology, turns, text_vocab, act_vocab


def build_model(run: RunConfig, text_vocab, act_vocab, ontology) -> CogenModel:
    model = CogenModel(model_config(run), text_vocab, act_vocab, ontology,
                       act_attention=run.act_attention, seed=run.seed)
    if run.init_from:
        from . import checkpoint as ckpt
        src, _, header = ckpt.load(run.init_from)
        ckpt.verify(run.init_from, header, text_vocab, ontology)
        ours = {n: model.params[n].shape for n in model.param_names("act")}
        theirs = {n: src.params[n].shape for n in src.param_names("act")}
        bad = sorted(n for n in ours.keys() | theirs.keys() if ours.get(n) != theirs.get(n))
        if bad:
            raise ckpt.CheckpointError(
                f"{run.init_from}: act parameter {bad[0]!r} is {theirs.get(bad[0])} in the "
                f"checkpoint but {ours.get(bad[0])} in the model ({len(bad)} differ)")
        for name in ours:
            model.params[name].data = src.params[name].data.copy()
    return model


def teacher_forced_exact(model: CogenModel, batches) -> float:
    """Fraction of turns whose gold act AND response tokens are all argmax
    under teacher forcing. Cheap overfitting probe."""
    hit = total = 0
    with no_grad():
        for batch in batches:
            act_logits, resp_logits = model.teacher_forced(batch)
            act_ok = _rows_exact(act_logits.data, batch.act_tg)
            resp_ok = _rows_exact(resp_logits.data, batch.resp_tg)
            hit += int((act_ok & resp_ok).sum())
            total += len(batch.turns)
    return hit / max(1, total)


def _rows_exact(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    pred = logits.argmax(axis=-1)
    keep = targets != PAD_ID
    return ((pred == targets) | ~keep).all(axis=-1)


def train(run: RunConfig, model: CogenModel, turns, opt=None,
          start_epoch: int = 0, log_callback=None) -> tuple:
    """Run the configured training; returns (optimizer, log_lines, epochs_done).

    joint: act-branch warm-up for warmup_epochs, then joint epochs.
    act_only: act branch only, for `epochs`.
    pipeline: encoder + act branch frozen (loaded via init_from), response
    branch and both uncertainty scales trained on the configured combined
    loss, in which the frozen act loss is a constant (in uncertainty mode
    s1 is still fitted to it).

    Only the parameters `opt` holds require gradients, so no backward pass
    differentiates a frozen one.

    Epochs are numbered globally (warm-up included) so a run resumed from a
    checkpoint at `start_epoch` reproduces the single-run loss trace.
    """
    mode = LossMode.parse(run.loss_mode)
    if opt is None:
        if run.mode == "pipeline":
            opt = Adam(model.subset(model.param_names("response")), lr=run.lr)
        else:
            opt = Adam(model.params, lr=run.lr)
    trained = {id(p) for p in opt.params.values()}
    for p in model.params.values():
        p.requires_grad = id(p) in trained
    lines = []

    def emit(line):
        lines.append(line)
        if log_callback:
            log_callback(line)

    def epoch_batches(epoch):
        return batchify(turns, run.batch_size, run.seed * 100003 + epoch,
                        model.text_vocab, model.act_vocab, model.ontology,
                        run.max_seq_len)

    def finite(loss):
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at epoch {epoch}")
        return loss

    warmup = run.warmup_epochs if run.mode == "joint" else 0
    total = warmup + run.epochs
    epoch = start_epoch
    while epoch < total:
        batches = epoch_batches(epoch)
        if run.mode == "act_only" or epoch < warmup:
            phase = "warmup" if run.mode == "joint" else "act_only"
            l_a = finite(np.mean([act_only_step(model, b, opt) for b in batches]))
            emit(f"epoch {epoch} phase {phase} l_a {l_a:.6f}")
        else:
            stats = [train_step(model, b, opt, mode) for b in batches]
            mean = {k: float(np.mean([s[k] for s in stats])) for k in stats[0]}
            finite(mean["total"])
            emit(f"epoch {epoch} phase {run.mode} "
                 f"l_a {mean['l_a']:.6f} l_r {mean['l_r']:.6f} "
                 f"total {mean['total']:.6f} "
                 f"sigma1_sq {stats[-1]['sigma1_sq']:.6f} "
                 f"sigma2_sq {stats[-1]['sigma2_sq']:.6f}")
        epoch += 1
        if (run.stop_exact_match > 0 and run.mode != "act_only"
                and epoch > warmup and epoch % run.stop_check_every == 0):
            exact = teacher_forced_exact(model, epoch_batches(0))
            emit(f"epoch {epoch} exact_match {exact:.4f}")
            if exact >= run.stop_exact_match:
                emit(f"epoch {epoch} early_stop exact_match {exact:.4f}")
                break
    return opt, lines, epoch


def write_loss_log(path, lines):
    atomic_write(path, "\n".join(lines) + "\n")
