"""Rebuild the benchmark's committed models in bench/models/.

    python3 bench/make_models.py

- reference.ckpt: the `synth` recipe trained on the corpus of REFERENCE_SEED
  until it reaches its exact-match target. `synth` decodes with it and
  `longctx` trains on from it.
- longctx.ckpt: reference.ckpt trained on the long corpus with the `longctx`
  recipe, in the batch order of REFERENCE_SEED. `longctx` decodes with it.

The benchmark decodes with these files rather than with models it trains, so
that a change to the training arithmetic does not change the decoding work
it is measured on. Rebuild them only when the corpus generator, the model's
parameters or the checkpoint format change; the benchmark refuses a model
whose vocabulary does not match its corpus.
"""

import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from cogen import checkpoint, training  # noqa: E402

import workloads as w  # noqa: E402


def main() -> int:
    work = BENCH.parent / ".bench_out" / "make-models"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w.MODELS.mkdir(exist_ok=True)
    try:
        run = w.write_synth(work / "synth", w.REFERENCE_SEED)
        ontology, turns, text_vocab, act_vocab = training.load_data(run)
        model = training.build_model(run, text_vocab, act_vocab, ontology)
        _, lines, epochs = training.train(run, model, turns)
        if not any("early_stop" in line for line in lines):
            print(f"reference model missed its target in {epochs} epochs", file=sys.stderr)
            return 1
        checkpoint.save(w.MODELS / "reference.ckpt", model)
        print(f"reference.ckpt: {epochs} epochs, {lines[-1]}")

        run = w.write_long(work / "long", w.REFERENCE_SEED)
        model = w.load_model("reference")
        _, lines, epochs = training.train(run, model, training.load_corpus(run.corpus))
        checkpoint.save(w.MODELS / "longctx.ckpt", model)
        print(f"longctx.ckpt: {epochs} epochs, {lines[-1]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
