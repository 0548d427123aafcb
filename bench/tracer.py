"""Outside-in tracing of the cogen modules for the benchmark's traced run.

The tracer replaces public functions and methods of the program with thin
wrappers for the duration of a `with Tracer(...)` block and restores the
originals on exit. Nothing in `src/` is edited, and the untraced run never
constructs a tracer, so it runs the program exactly as shipped.

Several modules import functions by name (`from .tensor import matmul`,
`from .transformer import transformer_block`), so a function is patched at
every module attribute that refers to it, not only where it is defined.

Spans carry (name, start, end, parent span, op id). An op is one training
step, one probe or one decoded turn; every span and counter inside it shares
its id. Spans stay in memory and are written out as JSON lines at the end.
"""

import json
import sys
import time
from collections import Counter, defaultdict

# Spans with these names start an op when no op is open.
ROOTS = ("model.train_step", "model.act_only_step", "training.teacher_forced_exact",
         "decode.generate_turn")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end, self.parent, self.op = name, start, 0.0, parent, op

    @property
    def ms(self):
        return 1000.0 * (self.end - self.start)


class Tracer:
    """Records spans and counters while patched into the cogen modules."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = 0
        self.op_roots: list = []                     # op id - 1 -> root span index
        self.counts: dict = defaultdict(Counter)     # op id -> counter name -> n
        self._patched: list = []                     # (owner, attr, original)

    # -- recording ------------------------------------------------------------

    def count(self, name: str, n: int = 1):
        self.counts[self.op][name] += n

    def current(self) -> str:
        return self.spans[self.stack[-1]].name if self.stack else ""

    def spanned(self, name: str, fn):
        """Wrap `fn` so that every call records one span called `name`."""
        root = name in ROOTS

        def wrapper(*args, **kwargs):
            opened = root and self.op == 0
            idx = len(self.spans)
            if opened:
                self.op_roots.append(idx)
                self.op = len(self.op_roots)
            span = Span(name, 0.0, self.stack[-1] if self.stack else -1, self.op)
            self.spans.append(span)
            self.stack.append(idx)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if opened:
                    self.op = 0
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """Wrap `fn` so that every call bumps counter `name`."""
        def wrapper(*args, **kwargs):
            self.counts[self.op][name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def patch_attr(self, owner, attr: str, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_function(self, fn, wrapper):
        """Point every cogen module attribute that is `fn` at `wrapper`.
        Returns the number of lookup sites patched."""
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cogen" or mod_name.startswith("cogen.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch_attr(mod, attr, wrapper)
                    sites += 1
        if sites == 0:
            raise LookupError(f"{fn.__module__}.{fn.__qualname__} is bound nowhere")
        return sites

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis -------------------------------------------------------------

    def children(self) -> dict:
        """span index -> list of direct child span indices."""
        kids = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_times(self) -> dict:
        """name -> (calls, total ms, self ms). Self time is a span's duration
        minus the part of it covered by its direct children; children of one
        span never overlap because the program is single-threaded."""
        kids = self.children()
        out: dict = {}
        for i, s in enumerate(self.spans):
            covered = sum(self.spans[k].ms for k in kids.get(i, ()))
            calls, total, own = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (calls + 1, total + s.ms, own + s.ms - covered)
        return out

    def write_jsonl(self, path, header: dict, summary: dict):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"header": header}) + "\n")
            origin = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op,
                    "start_ms": round(1000.0 * (s.start - origin), 4),
                    "end_ms": round(1000.0 * (s.end - origin), 4)}) + "\n")
            for op, counter in sorted(self.counts.items()):
                f.write(json.dumps({"op": op, "counts": dict(counter)}) + "\n")
            f.write(json.dumps({"summary": summary}) + "\n")


# -- what the traced run wraps -------------------------------------------------

SPANNED_FUNCTIONS = {
    "corpus": ("load_corpus", "build_vocab", "batchify"),
    "transformer": ("transformer_block", "encode", "decoder_step"),
    "model": ("sequence_loss", "combine_losses", "train_step", "act_only_step"),
    "training": ("train", "teacher_forced_exact", "build_model"),
    "decode": ("generate_turn",),
    "acts": ("parse",),
    "metrics": ("evaluate_corpus",),
    "checkpoint": ("save", "load"),
}
SPANNED_METHODS = {
    ("tensor", "Tensor", "backward"): "tensor.backward",
    ("tensor", "Adam", "step"): "tensor.adam_step",
    ("tensor", "Adam", "zero_grad"): "tensor.zero_grad",
    ("model", "CogenModel", "encode_shared"): "model.encode_shared",
    ("model", "CogenModel", "act_forward"): "model.act_forward",
    ("model", "CogenModel", "response_forward"): "model.response_forward",
}


def instrument(tr: Tracer):
    """Patch the cogen modules for `tr`; `tr.restore()` undoes all of it."""
    import importlib
    mods = {name: importlib.import_module(f"cogen.{name}") for name in
            ("corpus", "tensor", "transformer", "model", "training", "decode",
             "acts", "metrics", "checkpoint")}
    short = {"transformer_block": "block"}
    for mod_name, names in SPANNED_FUNCTIONS.items():
        for fname in names:
            fn = getattr(mods[mod_name], fname)
            tr.patch_function(fn, tr.spanned(f"{mod_name}.{short.get(fname, fname)}", fn))
    for (mod_name, cls_name, attr), span_name in SPANNED_METHODS.items():
        cls = getattr(mods[mod_name], cls_name)
        tr.patch_attr(cls, attr, tr.spanned(span_name, getattr(cls, attr)))

    tensor, corpus, decode = mods["tensor"], mods["corpus"], mods["decode"]
    tr.patch_attr(tensor.Tensor, "__init__", tr.counted("tensor.nodes", tensor.Tensor.__init__))
    tr.patch_function(tensor.matmul, tr.counted("tensor.matmul", tensor.matmul))

    make_batch = corpus.make_batch
    traced_make_batch = tr.spanned("corpus.make_batch", make_batch)

    def counting_make_batch(*args, **kwargs):
        # batches built per epoch and per decoded turn are counted apart
        where = "epoch" if tr.current() == "corpus.batchify" else "turn"
        batch = traced_make_batch(*args, **kwargs)
        real = batch.src_mask
        tr.count(f"corpus.{where}_src_real", int(real.sum()))
        tr.count(f"corpus.{where}_src_padded", int(real.size))
        tr.count(f"corpus.{where}_act_keys", int((batch.act_key_mask & real).sum()))
        return batch
    tr.patch_function(make_batch, counting_make_batch)

    trigram_allowed = decode.trigram_allowed

    def counting_trigram_allowed(tokens, candidate):
        ok = trigram_allowed(tokens, candidate)
        counts = tr.counts[tr.op]
        counts["decode.trigram_checks"] += 1
        if not ok:
            counts["decode.trigram_blocks"] += 1
        return ok
    tr.patch_function(trigram_allowed, counting_trigram_allowed)

    beam_search = decode.beam_search

    def traced_beam_search(step_fn, cfg, vocab_size, *args, **kwargs):
        def step(prefix):
            counts = tr.counts[tr.op]
            counts["decode.positions"] += len(prefix)
            counts["decode.expansions"] += vocab_size
            return step_fn(prefix)
        return beam_search(tr.spanned("decode.step", step), cfg, vocab_size, *args, **kwargs)
    tr.patch_function(beam_search, tr.spanned("decode.beam_search", traced_beam_search))


# -- per-layer metrics -----------------------------------------------------------

def _median(xs):
    xs = sorted(xs)
    if not xs:
        return 0.0
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, tokens_emitted: int) -> dict:
    """Per-layer figures of one traced run. Times are medians over the ops
    of a kind (ms per step, per turn); counts are means over those ops.
    Layers a workload does not exercise read 0."""
    kids = tr.children()
    by_op = defaultdict(list)
    for i, s in enumerate(tr.spans):
        if s.op:
            by_op[s.op].append(i)

    def ops(root_name):
        out = []
        for op, idxs in sorted(by_op.items()):
            root = tr.op_roots[op - 1]
            if tr.spans[root].name != root_name:
                continue
            ms, calls = Counter(), Counter()
            for i in idxs:
                ms[tr.spans[i].name] += tr.spans[i].ms
                calls[tr.spans[i].name] += 1
            out.append({"root": root, "idxs": idxs, "ms": ms, "calls": calls,
                        "counts": tr.counts.get(op, Counter())})
        return out

    steps, warm = ops("model.train_step"), ops("model.act_only_step")
    turns, probes = ops("decode.generate_turn"), ops("training.teacher_forced_exact")

    def med_ms(group, *names):
        return _median([sum(o["ms"][n] for n in names) for o in group])

    def mean_calls(group, name):
        return _mean([o["calls"][name] for o in group])

    def mean_count(group, name):
        return _mean([o["counts"][name] for o in group])

    def self_ms(i):
        return tr.spans[i].ms - sum(tr.spans[k].ms for k in kids.get(i, ()))

    def coverage(o):
        root = tr.spans[o["root"]]
        return _ratio(sum(tr.spans[k].ms for k in kids.get(o["root"], ())), root.ms)

    totals = Counter()
    for counter in tr.counts.values():
        totals.update(counter)
    where = "epoch" if totals["corpus.epoch_src_padded"] else "turn"
    def span_ms(name):
        return _median([s.ms for s in tr.spans if s.name == name])

    return {
        "corpus.load_ms": span_ms("corpus.load_corpus"),
        "corpus.batchify_ms_per_epoch": span_ms("corpus.batchify"),
        "corpus.src_fill": _ratio(totals[f"corpus.{where}_src_real"],
                                  totals[f"corpus.{where}_src_padded"]),
        "corpus.act_key_share": _ratio(totals[f"corpus.{where}_act_keys"],
                                       totals[f"corpus.{where}_src_real"]),
        "tensor.backward_ms": med_ms(steps, "tensor.backward"),
        "tensor.adam_ms": med_ms(steps, "tensor.adam_step", "tensor.zero_grad"),
        "tensor.nodes_per_step": mean_count(steps, "tensor.nodes"),
        "tensor.matmul_calls_per_step": mean_count(steps, "tensor.matmul"),
        "tensor.nodes_per_turn": mean_count(turns, "tensor.nodes"),
        "transformer.block_ms_per_step": med_ms(steps, "transformer.block"),
        "transformer.block_calls_per_step": mean_calls(steps, "transformer.block"),
        "transformer.encode_ms_per_step": med_ms(steps, "transformer.encode"),
        "transformer.block_ms_per_turn": med_ms(turns, "transformer.block"),
        "transformer.block_calls_per_turn": mean_calls(turns, "transformer.block"),
        "transformer.encode_ms_per_turn": med_ms(turns, "transformer.encode"),
        "model.encode_shared_ms": med_ms(steps, "model.encode_shared"),
        "model.act_forward_ms": med_ms(steps, "model.act_forward"),
        "model.response_forward_ms": med_ms(steps, "model.response_forward"),
        "model.loss_ms": med_ms(steps, "model.sequence_loss", "model.combine_losses"),
        "model.act_forward_calls": mean_calls(turns, "model.act_forward"),
        "model.response_forward_calls": mean_calls(turns, "model.response_forward"),
        "training.probe_ms": _median([tr.spans[o["root"]].ms for o in probes]),
        "training.warmup_step_ms": _median([tr.spans[o["root"]].ms for o in warm]),
        "decode.beam_self_ms": _median([
            sum(self_ms(i) for i in o["idxs"] if tr.spans[i].name == "decode.beam_search")
            for o in turns]),
        "decode.step_calls_per_turn": mean_calls(turns, "decode.step"),
        "decode.positions_per_token": _ratio(
            sum(o["counts"]["decode.positions"] for o in turns), tokens_emitted),
        "decode.rerun_ms": _median([
            sum(tr.spans[k].ms for k in kids.get(o["root"], ())
                if tr.spans[k].name in ("model.act_forward", "model.response_forward"))
            for o in turns]),
        "decode.trigram_checks_per_turn": mean_count(turns, "decode.trigram_checks"),
        "decode.trigram_blocks_per_turn": mean_count(turns, "decode.trigram_blocks"),
        "decode.candidates_per_turn": _mean([
            o["counts"]["decode.expansions"] - o["counts"]["decode.trigram_blocks"]
            for o in turns]),
        "acts.parse_ms": med_ms(turns, "acts.parse"),
        "metrics.evaluate_ms": span_ms("metrics.evaluate_corpus"),
        "checkpoint.save_ms": span_ms("checkpoint.save"),
        "checkpoint.load_ms": span_ms("checkpoint.load"),
        "trace.coverage": _median([coverage(o) for o in steps + warm + turns]),
    }
