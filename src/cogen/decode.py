"""Inference: beam search with trigram avoidance, the two-pass act -> response
pipeline, and attention-trace export.

Both decoders run incrementally: each search step feeds one token per live
hypothesis, and the per-layer keys and values (see transformer.KVCache) are
the only state the search carries. After each search the winner is read
back by one teacher-forced pass, the one training runs.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError, RunConfig
from .files import atomic_write
from .tensor import no_grad, log_softmax_np
from .transformer import AttentionTrace, gather_cache
from .corpus import make_batch, PAD_ID, SOS_ID, EOS_ID
from .acts import parse


@dataclass
class Hypothesis:
    tokens: tuple                 # includes the leading start token
    score: float                  # sum of chosen-token log-softmax values
    finished: bool = False
    truncated: bool = False


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
    one (flagged truncated). Every step has a candidate: trigram blocking
    never bans the end token, since only unfinished hypotheses extend a ban
    map.
    """
    alive = [Hypothesis(tokens=(sos_id,), score=0.0)]
    bans = [{}]                   # per live hypothesis, see extend_bans
    frontier = Frontier([alive[0].tokens], np.zeros(1, dtype=np.int64))
    finished: list = []
    for _ in range(cfg.max_len):
        logits, state = step_fn(frontier)
        logp = log_softmax_np(np.asarray(logits, dtype=np.float64))
        scores = np.array([h.score for h in alive])[:, None] + logp
        allowed = np.ones(scores.shape, dtype=bool)
        if cfg.trigram_block:
            for row, (hyp, ban) in enumerate(zip(alive, bans)):
                allowed[row, list(ban.get(hyp.tokens[-2:], ()))] = False
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
                                   finished=(tok == eos_id)))
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
    pool = finished or [replace(h, truncated=True) for h in alive]
    return min(pool, key=_rank_key(cfg))


def _incremental(forward):
    """Step function around `forward(tokens [rows, 1], cache) -> logits`,
    which runs a decoder over each prefix's last token (the search feeds
    one per call) into its parent's cache rows, and returns the cache as
    the state. <pad> and <sos> get no probability: the decoders never emit
    them after the start token."""
    def step(frontier: Frontier):
        cache = ({} if frontier.state is None
                 else gather_cache(frontier.state, frontier.parents))
        last = np.asarray([p[-1:] for p in frontier.prefixes], dtype=np.int64)
        logits = forward(last, cache)[:, -1]
        logits[:, [PAD_ID, SOS_ID]] = -np.inf
        return logits, cache
    return step


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
    the response attending to the act hidden states. After each search one
    teacher-forced pass over the winner reads back what the next stage
    needs: the act hidden states, and the dynamic act attention. A config
    not given is the default run's (decode_configs)."""
    default_act, default_resp = decode_configs(RunConfig())
    act_cfg, resp_cfg = act_cfg or default_act, resp_cfg or default_resp
    events = []
    with no_grad():
        batch = make_batch([turn], model.text_vocab, model.act_vocab,
                           model.ontology, model.cfg.max_seq_len)
        dual = model.encode_shared(batch)

        def act_logits(new, cache):
            return model.act_forward(dual, batch.belief, new, cache=cache)[0].data

        act_hyp = beam_search(_incremental(act_logits), act_cfg, len(model.act_vocab))
        act_in = np.asarray([act_hyp.tokens[:-1] if act_hyp.finished else act_hyp.tokens])
        if act_in.shape[1] == 1:
            events.append("empty-act-body")
        _, act_hidden = model.act_forward(dual, batch.belief, act_in)
        act_mask = np.ones(act_in.shape, dtype=bool)

        def resp_logits(new, cache):
            return model.response_forward(dual, act_hidden, act_mask, new,
                                          cache=cache).data

        resp_hyp = beam_search(_incremental(resp_logits), resp_cfg, len(model.text_vocab))
        resp_ids = [t for t in resp_hyp.tokens if t not in (SOS_ID, EOS_ID)]
        attn = None
        if model.act_attention == "dynamic":
            trace = AttentionTrace()
            model.response_forward(dual, act_hidden, act_mask,
                                   np.asarray([resp_hyp.tokens]), trace=trace)
            attn = dict(trace.entries)["respdec.dyn"][0].mean(axis=0)

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
