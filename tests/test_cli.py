import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cogen
from cogen.cli import main
from cogen.tensor import Tensor


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out", str(root / "corpus.json"),
                 "--ontology-out", str(root / "ontology.txt"),
                 "--size", "6", "--seed", "3"]) == 0
    return root


def _train_args(root, ckpt_name="model.ckpt", **extra):
    sets = {"corpus": str(root / "corpus.json"),
            "ontology": str(root / "ontology.txt"),
            "checkpoint": str(root / ckpt_name),
            "d_model": "8", "n_layers": "1", "n_heads": "2",
            "epochs": "2", "warmup_epochs": "1", "batch_size": "4",
            "resp_max_len": "40"}
    sets.update({k: str(v) for k, v in extra.items()})
    args = ["train"]
    for k, v in sets.items():
        args += ["--set", f"{k}={v}"]
    return args


class TestSynth:
    def test_outputs_exist_and_parse(self, workdir):
        data = json.loads((workdir / "corpus.json").read_text())
        assert len(data) == 6
        assert "[domains]" in (workdir / "ontology.txt").read_text()

    def test_deterministic(self, workdir, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "again.json"),
                     "--ontology-out", str(tmp_path / "onto.txt"),
                     "--size", "6", "--seed", "3"]) == 0
        assert (tmp_path / "again.json").read_bytes() \
            == (workdir / "corpus.json").read_bytes()
        assert (tmp_path / "onto.txt").read_bytes() \
            == (workdir / "ontology.txt").read_bytes()


class TestTrain:
    def test_writes_checkpoint_and_log(self, workdir):
        rc = main(_train_args(workdir, loss_log=str(workdir / "loss.log")))
        assert rc == 0
        assert (workdir / "model.ckpt").exists()
        log = (workdir / "loss.log").read_text().splitlines()
        assert log[0].startswith("epoch 0 phase warmup")
        assert "phase joint" in log[1]

    def test_same_seed_bit_identical(self, workdir):
        main(_train_args(workdir, "rep_a.ckpt", seed=5,
                         loss_log=str(workdir / "a.log")))
        main(_train_args(workdir, "rep_b.ckpt", seed=5,
                         loss_log=str(workdir / "b.log")))
        assert (workdir / "rep_a.ckpt").read_bytes() \
            == (workdir / "rep_b.ckpt").read_bytes()
        assert (workdir / "a.log").read_text() == (workdir / "b.log").read_text()

    def test_resume_matches_single_run(self, workdir):
        main(_train_args(workdir, "full.ckpt", epochs=3, seed=2,
                         loss_log=str(workdir / "full.log")))
        main(_train_args(workdir, "part.ckpt", epochs=1, seed=2,
                         loss_log=str(workdir / "part.log")))
        args = _train_args(workdir, "part.ckpt", epochs=3, seed=2,
                           loss_log=str(workdir / "part.log"),
                           resume=str(workdir / "part.ckpt"))
        assert main(args) == 0
        assert (workdir / "part.ckpt").read_bytes() \
            == (workdir / "full.ckpt").read_bytes()
        assert (workdir / "part.log").read_text() \
            == (workdir / "full.log").read_text()


    def test_sweep_reports_every_mode(self, small_files, tmp_path, capsys):
        """`train --sweep` trains and scores the eleven fixed weights and the
        uncertainty mode, and ranks the latter among them."""
        corpus, ontology = small_files
        sets = {"corpus": corpus, "ontology": ontology, "report": tmp_path / "sweep.txt",
                "d_model": 8, "n_layers": 1, "n_heads": 2, "epochs": 1,
                "warmup_epochs": 1, "batch_size": 8, "act_max_len": 10,
                "resp_max_len": 20}
        args = ["train", "--sweep"]
        for k, v in sets.items():
            args += ["--set", f"{k}={v}"]
        assert main(args) == 0
        modes = [f"weighted:{a / 10:.1f}" for a in range(11)] + ["uncertainty"]
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out[:12]] == modes
        report = (tmp_path / "sweep.txt").read_text()
        table = report.split("\n\n")[0].splitlines()
        assert [row.split()[0] for row in table[1:]] == modes
        rank = report.splitlines()[-1].split()
        assert rank[0] == "uncertainty_rank" and rank[2:] == ["of", "12"]
        assert 1 <= int(rank[1]) <= 12


class TestEval:
    def test_eval_trained_checkpoint(self, workdir, capsys):
        main(_train_args(workdir))
        rc = main(["eval",
                   "--set", f"corpus={workdir / 'corpus.json'}",
                   "--set", f"ontology={workdir / 'ontology.txt'}",
                   "--set", f"report={workdir / 'report.txt'}",
                   "--set", "resp_max_len=40",
                   "--run", f"model={workdir / 'model.ckpt'}"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inform" in out and "combined" in out
        assert (workdir / "report.txt").exists()

    def test_vocab_mismatch_is_data_error(self, workdir, tmp_path):
        main(_train_args(workdir))
        # different corpus -> different vocabulary -> hash check must fail
        main(["synth", "--out", str(tmp_path / "other.json"),
              "--ontology-out", str(tmp_path / "onto.txt"),
              "--size", "9", "--seed", "99"])
        rc = main(["eval",
                   "--set", f"corpus={tmp_path / 'other.json'}",
                   "--set", f"ontology={tmp_path / 'onto.txt'}",
                   "--run", f"model={workdir / 'model.ckpt'}"])
        assert rc == 2


class TestGenerate:
    def test_prints_acts_and_response(self, workdir, capsys):
        main(_train_args(workdir))
        rc = main(["generate",
                   "--checkpoint", str(workdir / "model.ckpt"),
                   "--input", str(workdir / "corpus.json"),
                   "--set", "resp_max_len=40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "acts:" in out and "response:" in out

    def test_trace_files_written(self, workdir, tmp_path, capsys):
        main(_train_args(workdir))
        rc = main(["generate",
                   "--checkpoint", str(workdir / "model.ckpt"),
                   "--input", str(workdir / "corpus.json"),
                   "--set", "resp_max_len=40",
                   "--trace-dir", str(tmp_path)])
        assert rc == 0
        traces = list(tmp_path.glob("*.trace.tsv"))
        assert traces
        assert "\t" in traces[0].read_text()


def _train_with(**sets):
    return lambda root, tmp, model: _train_args(root, tmp / "out.ckpt", **sets)


def _train_on(corpus=None, ontology=None, warm_start=False, **extra):
    """Train on a corpus file holding `corpus(dialogues)`, or with an
    ontology file holding the bytes `ontology`, with the settings `extra`;
    `warm_start` initialises the act branch from the trained checkpoint."""
    def argv(root, tmp, model):
        sets = dict(extra, init_from=model) if warm_start else dict(extra)
        if corpus is not None:
            dialogues = json.loads((root / "corpus.json").read_text())
            (tmp / "bad.json").write_text(corpus(dialogues))
            sets["corpus"] = tmp / "bad.json"
        if ontology is not None:
            (tmp / "bad.txt").write_bytes(ontology)
            sets["ontology"] = tmp / "bad.txt"
        return _train_args(root, tmp / "out.ckpt", **sets)
    return argv


def _config_file(data):
    def argv(root, tmp, model):
        (tmp / "run.cfg").write_bytes(data)
        return ["train", "--config", str(tmp / "run.cfg")]
    return argv


def _generate(*sets, checkpoint=None, input_text=None):
    def argv(root, tmp, model):
        source = root / "corpus.json"
        if input_text is not None:
            source = tmp / "input.json"
            source.write_text(input_text)
        args = ["generate", "--checkpoint", checkpoint or str(model),
                "--input", str(source)]
        for item in sets:
            args += ["--set", item]
        return args
    return argv


def _argv(*args):
    return lambda root, tmp, model: list(args)


def _synth(size):
    return lambda root, tmp, model: ["synth", "--size", size,
                                     "--out", str(tmp / "synth.json")]


def _new_word(dialogues):
    dialogues[0]["turns"][0]["user"] += " zeppelin"
    return json.dumps(dialogues)


def _infinite_db(dialogues):
    dialogues[0]["turns"][0]["db"] = {"hotel": float("inf")}
    return json.dumps(dialogues)   # writes the count as Infinity


BAD_SETTINGS = [
    {"d_model": "abc"}, {"lr": "abc"}, {"loss_mode": "weighted:abc"},
    {"d_model": "6", "n_heads": "4"}, {"n_heads": "0"}, {"d_model": "0"},
    {"d_ff": "-4"}, {"n_layers": "0"}, {"batch_size": "0"},
    {"stop_exact_match": "0.5", "stop_check_every": "0"}, {"seed": "-1"},
    {"lr": "nan"}, {"epochs": "-1"}, {"stop_exact_match": "nan"},
    {"stop_exact_match": "5"}, {"min_freq": "-1"},
]

# (id, exit code, function of (workdir, tmp_path, trained checkpoint) giving argv)
BAD_INPUTS = [
    *[(" ".join(f"{k}={v}" for k, v in sets.items()), 1, _train_with(**sets))
      for sets in BAD_SETTINGS],
    ("config file not UTF-8", 1, _config_file(b"d_model = 8\nlr = 1\xb5\n")),
    ("generate resp_max_len=0", 1, _generate("resp_max_len=0")),
    ("generate act_max_len=0", 1, _generate("act_max_len=0")),
    ("corpus []", 2, _train_on(corpus=lambda d: "[]")),
    ("turns []", 2, _train_on(corpus=lambda d: json.dumps([dict(d[0], turns=[])]))),
    ("db Infinity", 2, _train_on(corpus=_infinite_db)),
    ("ontology not UTF-8", 2, _train_on(ontology=b"[domains]\nh\xf4tel\n")),
    ("generate input 5", 2, _generate(input_text="5")),
    ("checkpoint .", 2, _generate(checkpoint=".")),
    ("corpus .", 2, _train_with(corpus=".")),
    ("train --bogus", 1, _argv("train", "--bogus")),
    ("gradcheck --seeds 0", 1, _argv("gradcheck", "--seeds", "0")),
    ("gradcheck --seeds -1", 1, _argv("gradcheck", "--seeds", "-1")),
    ("init_from d_model=16", 2, _train_on(warm_start=True, mode="pipeline", d_model=16)),
    ("init_from n_layers=2", 2, _train_on(warm_start=True, n_layers=2)),
    ("init_from other vocabulary", 2, _train_on(corpus=_new_word, warm_start=True)),
    ("synth --size 0", 1, _synth("0")),
    ("synth --size -3", 1, _synth("-3")),
]


@pytest.fixture(scope="module")
def table_model(workdir):
    assert main(_train_args(workdir, "table.ckpt")) == 0
    return workdir / "table.ckpt"


class TestExitCodes:
    def test_unknown_config_key_is_usage_error(self, capsys):
        assert main(["train", "--set", "d_modellll=8"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_corpus_is_data_error(self, workdir, capsys):
        args = _train_args(workdir)
        args[args.index("--set") + 1] = "corpus=/nonexistent/corpus.json"
        assert main(args) == 2

    def test_malformed_corpus_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        args = _train_args(workdir)
        for i, a in enumerate(args):
            if a.startswith("corpus="):
                args[i] = f"corpus={bad}"
        assert main(args) == 2

    def test_wrong_schema_is_data_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"dialogue_id": "x",
                                    "turns": [{"user": "hi"}]}]))
        args = _train_args(workdir)
        for i, a in enumerate(args):
            if a.startswith("corpus="):
                args[i] = f"corpus={bad}"
        assert main(args) == 2

    def test_truncated_checkpoint_is_data_error(self, workdir, tmp_path, capsys):
        main(_train_args(workdir))
        raw = (workdir / "model.ckpt").read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(raw[:len(raw) // 2])
        rc = main(["generate", "--checkpoint", str(cut),
                   "--input", str(workdir / "corpus.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mutate", [
        lambda d: 7,
        lambda d: d["turns"][0].update(user=None),
        lambda d: d["turns"][0].update(response=["a", "list"]),
        lambda d: d["turns"][0].update(acts="hotel inform name"),
        lambda d: d["turns"][0].update(db={"hotel": "many"}),
        lambda d: d["turns"][0].update(db=[3]),
        lambda d: d["turns"][0].update(belief={"hotel": "cheap"}),
        lambda d: d["turns"][0].update(belief=["hotel"]),
        lambda d: d["turns"].__setitem__(0, "hello"),
    ], ids=["dialogue-not-dict", "user-null", "response-list", "acts-str",
            "db-not-int", "db-not-dict", "belief-not-dict-of-dicts",
            "belief-not-dict", "turn-not-dict"])
    def test_mistyped_corpus_field_is_data_error(self, workdir, tmp_path, capsys, mutate):
        dialogues = json.loads((workdir / "corpus.json").read_text())
        replaced = mutate(dialogues[0])
        if replaced is not None:
            dialogues[0] = replaced
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dialogues))
        args = _train_args(workdir)
        for i, a in enumerate(args):
            if a.startswith("corpus="):
                args[i] = f"corpus={bad}"
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("extra", [{"mode": "act_only"}, {"warmup_epochs": 3}],
                             ids=["act-only", "warmup"])
    def test_diverging_run_is_numeric_failure(self, workdir, tmp_path, capsys, extra):
        """A non-finite loss stops training in the epoch it appears, whatever
        the phase, and no checkpoint is written."""
        path = tmp_path / "diverged.ckpt"
        with np.errstate(all="ignore"):
            rc = main(_train_args(workdir, path, lr="1e6", **extra))
        assert rc == 3
        assert capsys.readouterr().err == "numeric failure: non-finite loss at epoch 0\n"
        assert not path.exists()

    def test_diverging_run_prints_one_line(self, workdir, tmp_path):
        """Run as a user runs it, where no test harness captures numpy's
        floating-point warnings: stderr holds only the failure line."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cogen.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "cogen.cli"]
            + _train_args(workdir, tmp_path / "diverged.ckpt", lr="1e6", mode="act_only"),
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 3
        assert proc.stderr == "numeric failure: non-finite loss at epoch 0\n"

    @pytest.mark.parametrize("code, argv", [row[1:] for row in BAD_INPUTS],
                             ids=[row[0] for row in BAD_INPUTS])
    def test_bad_input_exits_with_its_code(self, workdir, table_model, tmp_path,
                                           capsys, code, argv):
        """Each bad setting or file ends in its documented exit code and one
        stderr line naming the kind of error, never a traceback."""
        capsys.readouterr()
        assert main(argv(workdir, tmp_path, table_model)) == code
        err = capsys.readouterr().err
        assert err.startswith({1: "config error: ", 2: "data error: "}[code])
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_bad_set_syntax(self, capsys):
        assert main(["train", "--set", "epochs"]) == 1


class TestGradcheckCommand:
    def test_passes_and_prints_table(self, capsys):
        assert main(["gradcheck", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "joint-loss" in out and "attention" in out
        assert "FAIL" not in out

    def test_corrupted_backward_detected(self, capsys, monkeypatch):
        """Negative control: a subtly wrong derivative must turn the check red
        and map to the numeric-failure exit code."""
        def bad_relu(self):
            out = Tensor(np.maximum(self.data, 0))
            a = self
            return self._record(out, (a,),
                                lambda g: a._accum(g * (a.data > -0.05)))
        monkeypatch.setattr(Tensor, "relu", bad_relu)
        assert main(["gradcheck", "--seeds", "1"]) == 3
        assert "FAIL" in capsys.readouterr().out


class TestChat:
    def test_quits_on_empty_line(self, workdir, monkeypatch, capsys):
        main(_train_args(workdir))
        lines = iter(["hello there", ""])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        rc = main(["chat", "--checkpoint", str(workdir / "model.ckpt"),
                   "--set", "resp_max_len=20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sys>" in out
