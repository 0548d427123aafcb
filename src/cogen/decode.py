"""Inference: beam search with trigram avoidance, the two-pass act -> response
pipeline, and attention-trace export.

Both decoders run incrementally: each search step feeds one token per live
hypothesis and keeps per-layer keys and values (see transformer.KVCache).
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError, RunConfig
from .files import atomic_write
from .tensor import Tensor, no_grad, log_softmax_np
from .transformer import AttentionTrace, gather_cache
from .corpus import make_batch, PAD_ID, SOS_ID, EOS_ID
from .acts import parse


@dataclass
class Hypothesis:
    tokens: tuple                 # includes the leading start token
    score: float                  # sum of chosen-token log-softmax values
    finished: bool = False
    truncated: bool = False
    cache: object = None          # (step state, row) that consumed a prefix of tokens


@dataclass
class DecodeConfig:
    beam_size: int = 2
    max_len: int = 80
    trigram_block: bool = True
    length_norm: bool = False

    def __post_init__(self):
        for name in ("beam_size", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")


def decode_configs(run: RunConfig) -> tuple:
    """The act and response search settings of a run. Acts are short and
    canonically merged, so trigram blocking stays off there."""
    act_cfg = DecodeConfig(beam_size=run.beam_size, max_len=run.act_max_len,
                           trigram_block=False, length_norm=run.length_norm)
    resp_cfg = DecodeConfig(beam_size=run.beam_size, max_len=run.resp_max_len,
                            trigram_block=run.trigram_block,
                            length_norm=run.length_norm)
    return act_cfg, resp_cfg


def trigram_allowed(tokens, candidate) -> bool:
    """False iff appending `candidate` repeats a trigram already in `tokens`.
    The search keeps a ban map instead; this is its reference."""
    if len(tokens) < 2:
        return True
    tri = (tokens[-2], tokens[-1], candidate)
    return all(tuple(tokens[i:i + 3]) != tri for i in range(len(tokens) - 2))


def extend_bans(bans: dict, tokens: tuple, token: int) -> dict:
    """Ban map of `tokens + (token,)` from the ban map of `tokens`: each
    bigram (a, b) maps to the tokens c that already followed it, which
    trigram blocking forbids after a final (a, b)."""
    if len(tokens) < 2:
        return bans
    key = tokens[-2:]
    return {**bans, key: bans.get(key, frozenset()) | {token}}


def has_repeated_trigram(tokens) -> bool:
    tris = [tuple(tokens[i:i + 3]) for i in range(len(tokens) - 2)]
    return len(tris) != len(set(tris))


def _rank_key(cfg: DecodeConfig):
    def key(h: Hypothesis):
        n = max(1, len(h.tokens) - 1)
        score = h.score / n if cfg.length_norm else h.score
        # ties: earlier (lower-id) token sequence wins
        return (-score, h.tokens)
    return key


@dataclass
class Frontier:
    """The argument of a step call: the live prefixes in row order,
    and for each the row it extends in `state`, which the previous call
    returned (None on the first call)."""
    prefixes: list
    parents: np.ndarray
    state: object = None

    def __len__(self):
        return len(self.prefixes)


def beam_search(step_fn, cfg: DecodeConfig, vocab_size: int,
                sos_id: int = SOS_ID, eos_id: int = EOS_ID) -> Hypothesis:
    """Beam search over `step_fn(frontier) -> (logits [len(frontier),
    vocab_size], state)`, one call per step for every live hypothesis.

    Hypotheses emitting the end token are finalized; search stops when all
    beams finished or max_len is reached, or, without length normalisation,
    when every live hypothesis already scores below a finished one. Best =
    highest-scoring finished hypothesis, falling back to the best unfinished
    one (flagged truncated). Each hypothesis keeps as `cache` the state and
    row of the last step call that scored it.
    """
    alive = [Hypothesis(tokens=(sos_id,), score=0.0)]
    bans = [{}]                   # per live hypothesis, see extend_bans
    frontier = Frontier([alive[0].tokens], np.zeros(1, dtype=np.int64))
    finished: list = []
    stalled: list = []
    for _ in range(cfg.max_len):
        logits, state = step_fn(frontier)
        logp = log_softmax_np(np.asarray(logits, dtype=np.float64))
        scores = np.array([h.score for h in alive])[:, None] + logp
        allowed = np.ones(scores.shape, dtype=bool)
        if cfg.trigram_block:
            for row, (hyp, ban) in enumerate(zip(alive, bans)):
                allowed[row, list(ban.get(hyp.tokens[-2:], ()))] = False
        for row in np.flatnonzero(~allowed.any(axis=1)):
            stalled.append(replace(alive[row], truncated=True, cache=(state, row)))
        n = len(alive[0].tokens)  # every candidate has n tokens after the start
        rank = (scores / n if cfg.length_norm else scores).ravel()
        cand = np.flatnonzero(allowed)
        k = min(cfg.beam_size, cand.size)
        if k < cand.size:
            # everything tied with the k-th best stays in for the exact tie rule
            kth = np.partition(rank[cand], cand.size - k)[cand.size - k]
            cand = cand[rank[cand] >= kth]
        order = sorted(cand.tolist(), key=lambda c: (
            -rank[c], alive[c // vocab_size].tokens + (c % vocab_size,)))
        kept, kept_bans, parents = [], [], []
        for c in order[:k]:
            row, tok = divmod(c, vocab_size)
            parent = alive[row]
            kept.append(Hypothesis(tokens=parent.tokens + (tok,),
                                   score=float(scores[row, tok]),
                                   finished=(tok == eos_id), cache=(state, row)))
            if not kept[-1].finished:
                kept_bans.append(extend_bans(bans[row], parent.tokens, tok)
                                 if cfg.trigram_block else bans[row])
                parents.append(row)
        alive = [h for h in kept if not h.finished]
        finished.extend(h for h in kept if h.finished)
        if not alive or (finished and not cfg.length_norm and max(
                h.score for h in alive) < max(h.score for h in finished)):
            # log-probabilities are <= 0: without length normalisation no
            # extension of a live hypothesis can beat a finished one it trails
            break
        bans = kept_bans
        frontier = Frontier([h.tokens for h in alive], np.asarray(parents), state)
    leftovers = stalled + [replace(h, truncated=True) for h in alive]
    pool = finished if finished else leftovers
    return min(pool, key=_rank_key(cfg))


@dataclass
class StepState:
    """What a decoder step keeps per hypothesis row: the model's cache and
    one output row per consumed position (act hidden states, or the
    head-averaged dynamic act attention)."""
    cache: dict
    outputs: np.ndarray | None = None     # [rows, consumed positions, width]

    @property
    def length(self) -> int:
        return 0 if self.outputs is None else self.outputs.shape[1]

    def rows(self, rows) -> "StepState":
        return StepState(gather_cache(self.cache, rows), self.outputs[rows])


def _incremental(forward):
    """Step function around `forward(new_tokens, cache) -> (logits,
    outputs)`, which runs a decoder over the tokens of each prefix past the
    state's length. <pad> and <sos> get no probability: the decoders never
    emit them after the start token."""
    def step(frontier: Frontier):
        state = (StepState({}) if frontier.state is None
                 else frontier.state.rows(frontier.parents))
        new = np.asarray([p[state.length:] for p in frontier.prefixes], dtype=np.int64)
        logits, outputs = forward(new, state.cache)
        state.outputs = outputs if state.outputs is None else np.concatenate(
            [state.outputs, outputs], axis=1)
        logits = logits[:, -1]
        logits[:, [PAD_ID, SOS_ID]] = -np.inf
        return logits, state
    return step


def _consume(step, hyp: Hypothesis, inputs: tuple) -> StepState:
    """The one-row state of a decoder that has consumed `inputs`, which
    extend `hyp.tokens[:-1]`: the state the search left for `hyp`, extended
    by one cached call over the inputs it did not feed."""
    state, row = hyp.cache
    if state.length == len(inputs):
        return state.rows([row])
    return step(Frontier([inputs], np.asarray([row]), state))[1]


@dataclass
class GenerationResult:
    act_tokens: list              # decoded act sequence incl. <sos>/<eos>
    act_triples: set
    response_tokens: list         # without <sos>/<eos>
    act_attention: np.ndarray | None   # [resp_len, act_len], final-layer head avg
    events: list = field(default_factory=list)


def generate_turn(model, turn, act_cfg: DecodeConfig | None = None,
                  resp_cfg: DecodeConfig | None = None) -> GenerationResult:
    """Two-pass generation: beam-decode the act sequence, then beam-decode
    the response attending to the act hidden states, which the act search's
    cache already holds. A config not given is the default run's
    (decode_configs)."""
    default_act, default_resp = decode_configs(RunConfig())
    act_cfg, resp_cfg = act_cfg or default_act, resp_cfg or default_resp
    events = []
    with no_grad():
        batch = make_batch([turn], model.text_vocab, model.act_vocab,
                           model.ontology, model.cfg.max_seq_len)
        dual = model.encode_shared(batch)

        def act_forward(new, cache):
            logits, hidden = model.act_forward(dual, batch.belief, new, cache=cache)
            return logits.data, hidden.data

        act_step = _incremental(act_forward)
        act_hyp = beam_search(act_step, act_cfg, len(model.act_vocab))
        act_in = act_hyp.tokens[:-1] if act_hyp.finished else act_hyp.tokens
        if len(act_in) == 1:
            events.append("empty-act-body")
        act_hidden = Tensor(_consume(act_step, act_hyp, act_in).outputs)
        act_mask = np.ones((1, len(act_in)), dtype=bool)

        def resp_forward(new, cache):
            trace = AttentionTrace()
            logits = model.response_forward(dual, act_hidden, act_mask, new,
                                            trace=trace, cache=cache)
            weights = dict(trace.entries).get("respdec.dyn")   # none in mean mode
            if weights is None:
                return logits.data, np.zeros(new.shape + (0,), dtype=np.float32)
            return logits.data, weights.mean(axis=1)

        resp_step = _incremental(resp_forward)
        resp_hyp = beam_search(resp_step, resp_cfg, len(model.text_vocab))
        resp_ids = [t for t in resp_hyp.tokens if t not in (SOS_ID, EOS_ID)]
        # the row of the last token, which the search scored but never fed
        attn = None
        if model.act_attention == "dynamic":
            attn = _consume(resp_step, resp_hyp, resp_hyp.tokens).outputs[0]

    act_tokens = model.act_vocab.decode(act_hyp.tokens)
    if resp_hyp.truncated:
        events.append("response-truncated")
    return GenerationResult(
        act_tokens=act_tokens,
        act_triples=parse(model.ontology, act_tokens).triples,
        response_tokens=model.text_vocab.decode(resp_ids),
        act_attention=attn,
        events=events)


def export_trace(path, result: GenerationResult, model):
    """Write the dynamic act attention matrix as tab-separated text:
    rows = response tokens, columns = act tokens."""
    if result.act_attention is None:
        raise ValueError("no dynamic act attention trace to export")
    cols = ["<sos>"] + [t for t in result.act_tokens if t not in ("<sos>", "<eos>")]
    rows = ["<sos>"] + list(result.response_tokens)
    attn = result.act_attention
    lines = ["\t" + "\t".join(cols)]
    for i, tok in enumerate(rows[:attn.shape[0]]):
        lines.append(tok + "\t" + "\t".join(f"{w:.6f}" for w in attn[i, :len(cols)]))
    atomic_write(path, "\n".join(lines) + "\n")
