"""Command-line harness: synth, train, eval, generate, chat, gradcheck.

Exit codes: 0 ok, 1 usage/config error, 2 data error, 3 numeric failure.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import checkpoint as ckpt
from .config import ConfigError, DataError, RunConfig
from .corpus import (SynthSpec, load_corpus, synth_generate, toy_ontology,
                     write_dialogues)
from .decode import decode_configs, export_trace, generate_turn
from .evaluate import evaluate_model
from .gradchecks import run_all
from .metrics import write_report
from .tensor import ContractError
from .training import NumericError, build_model, load_data, train, write_loss_log

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


def _overrides(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _resolve(args) -> RunConfig:
    return RunConfig.resolve(getattr(args, "config", "") or "",
                             _overrides(getattr(args, "set", None)))


def cmd_synth(args) -> int:
    spec = SynthSpec(corpus_size=args.size, seed=args.seed)
    dialogues = synth_generate(spec)
    write_dialogues(args.out, dialogues)
    if args.ontology_out:
        toy_ontology(spec).save(args.ontology_out)
    print(f"wrote {len(dialogues)} dialogues to {args.out}")
    return EXIT_OK


def _train_once(run: RunConfig, turns, text_vocab, act_vocab, ontology,
                quiet=False):
    cb = None if quiet else print
    if run.resume:
        model, opt, header = ckpt.load(run.resume)
        start = int(header["extra"].get("epochs_done", 0))
        opt2, lines, done = train(run, model, turns, opt=opt, start_epoch=start,
                                  log_callback=cb)
        return model, opt2, lines, done
    model = build_model(run, text_vocab, act_vocab, ontology)
    opt, lines, done = train(run, model, turns, log_callback=cb)
    return model, opt, lines, done


def cmd_train(args) -> int:
    run = _resolve(args)
    ontology, turns, text_vocab, act_vocab = load_data(run)
    if args.sweep:
        return _sweep(run, turns, text_vocab, act_vocab, ontology)
    model, opt, lines, done = _train_once(run, turns, text_vocab, act_vocab,
                                          ontology)
    if run.checkpoint:
        ckpt.save(run.checkpoint, model, opt,
                  extra={"loss_mode": run.loss_mode, "mode": run.mode,
                         "epochs_done": done,
                         "config_fingerprint": run.fingerprint()})
        print(f"checkpoint written to {run.checkpoint}")
    if run.loss_log:
        if run.resume and os.path.exists(run.loss_log):
            with open(run.loss_log, encoding="utf-8") as f:
                lines = f.read().splitlines() + lines
        write_loss_log(run.loss_log, lines)
    return EXIT_OK


def _sweep(run: RunConfig, turns, text_vocab, act_vocab, ontology) -> int:
    """Fixed-weight sweep (alpha 0.0..1.0 step 0.1) plus uncertainty mode,
    trained and scored on the same corpus; one report with a row per mode."""
    modes = [f"weighted:{alpha:.1f}" for alpha in np.arange(0, 1.01, 0.1)]
    modes.append("uncertainty")
    reports = []
    for mode_text in modes:
        sub = replace(run, loss_mode=mode_text)
        model, _, _, _ = _train_once(sub, turns, text_vocab, act_vocab, ontology,
                                     quiet=True)
        report = evaluate_model(model, turns, sub, label=mode_text)
        reports.append(report)
        print(f"{mode_text:<16} combined {report.combined:.2f}")
    ranked = sorted(reports, key=lambda r: -r.combined)
    rank = next(i for i, r in enumerate(ranked) if r.label == "uncertainty") + 1
    extra = [f"uncertainty_rank {rank} of {len(reports)}"]
    if run.report:
        write_report(run.report, reports, extra_lines=extra)
        print(f"sweep report written to {run.report}")
    return EXIT_OK


def cmd_eval(args) -> int:
    run = _resolve(args)
    ontology, turns, text_vocab, act_vocab = load_data(run)
    runs = []
    for item in args.run or []:
        if "=" not in item:
            raise ConfigError(f"--run expects label=checkpoint, got {item!r}")
        label, path = item.split("=", 1)
        runs.append((label, path))
    if not runs:
        if not run.checkpoint:
            raise ConfigError("eval needs --run label=ckpt or checkpoint= in config")
        runs = [("model", run.checkpoint)]
    reports = []
    for label, path in runs:
        model, _, header = ckpt.load(path)
        ckpt.verify(path, header, text_vocab, ontology)
        report = evaluate_model(model, turns, run, label=label)
        reports.append(report)
        print(f"{label:<16} inform {report.inform:.2f} success {report.success:.2f} "
              f"bleu {report.bleu:.2f} combined {report.combined:.2f} "
              f"act_f1 {report.act_f1:.4f}")
    if run.report:
        write_report(run.report, reports)
        print(f"report written to {run.report}")
    return EXIT_OK


def cmd_generate(args) -> int:
    run = _resolve(args)
    model, _, _ = ckpt.load(args.checkpoint)
    act_cfg, resp_cfg = decode_configs(run)
    for turn in load_corpus(args.input):
        result = generate_turn(model, turn, act_cfg, resp_cfg)
        print(f"# {turn.dialogue_id} turn {turn.turn_index}")
        print("acts:     " + " ".join(result.act_tokens))
        print("response: " + " ".join(result.response_tokens))
        for event in result.events:
            print(f"event:    {event}")
        if args.trace_dir and result.act_attention is not None:
            path = os.path.join(
                args.trace_dir, f"{turn.dialogue_id}_{turn.turn_index}.trace.tsv")
            export_trace(path, result, model)
            print(f"trace:    {path}")
    return EXIT_OK


def cmd_chat(args) -> int:
    run = _resolve(args)
    model, _, _ = ckpt.load(args.checkpoint)
    act_cfg, resp_cfg = decode_configs(run)
    from .corpus import DialogueTurn, tokenize, _flatten
    history = []
    print("chat mode; empty line quits")
    while True:
        try:
            line = input("user> ").strip()
        except EOFError:
            break
        if not line:
            break
        history.append(("user", tokenize(line)))
        turn = DialogueTurn(
            dialogue_id="chat", turn_index=len(history) // 2,
            history=list(history), current_utterance_span=(0, 0),
            db_buckets={}, belief={}, gold_acts=set(),
            gold_response=["-"], goal={})
        _flatten(turn)
        result = generate_turn(model, turn, act_cfg, resp_cfg)
        print("acts: " + " ".join(result.act_tokens))
        print("sys>  " + " ".join(result.response_tokens))
        if args.show_trace and result.act_attention is not None:
            np.set_printoptions(precision=3, suppress=True)
            print(result.act_attention)
        history.append(("system", result.response_tokens))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    results = run_all(seeds=tuple(range(args.seeds)))
    width = max(len(name) for name, *_ in results)
    failed = False
    for name, err, tol, ok in results:
        status = "pass" if ok else "FAIL"
        print(f"{name:<{width}}  max_rel_err {err:.3e}  tol {tol:.0e}  {status}")
        failed |= not ok
    return EXIT_NUMERIC if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error (exit 1, one line), not argparse's
    usage text and exit 2; subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cogen", description="act/response co-generation harness")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--ontology-out", default="")
    sp.add_argument("--size", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_synth)

    for name, fn in (("train", cmd_train), ("eval", cmd_eval)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default="")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE")
        if name == "train":
            sp.add_argument("--sweep", action="store_true",
                            help="loss-mode sweep: alpha grid + uncertainty")
        else:
            sp.add_argument("--run", action="append", metavar="LABEL=CKPT")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("generate", help="decode turns from a corpus-schema file")
    sp.add_argument("--config", default="")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--trace-dir", default="")
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("chat", help="interactive inspection REPL")
    sp.add_argument("--config", default="")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--show-trace", action="store_true")
    sp.set_defaults(fn=cmd_chat)

    sp = sub.add_parser("gradcheck", help="finite-difference check of all ops")
    sp.add_argument("--seeds", type=int, default=5)
    sp.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # non-finite values are caught as NumericError; numpy's warnings
        # about them would only precede that one-line message
        with np.errstate(all="ignore"):
            return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ContractError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
