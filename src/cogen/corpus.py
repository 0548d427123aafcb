"""Corpus handling: MultiWOZ-style JSON ingestion, vocabulary construction,
batching with dual masks, and a synthetic dialogue generator.

Corpus JSON schema (shared by real and synthetic data): a top-level list of
dialogues, each {dialogue_id, goal: {domain: {constraints: {slot: value},
requested: [slot]}}, turns: [{user, response, belief: {domain: {slot: value}},
db: {domain: match_count}, acts: [[domain, action, slot]]}]}.
"""

import json
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .acts import ActTriple, Ontology, SOS, EOS, canonicalize
from .config import ConfigError, DataError
from .files import atomic_write

PAD_ID, SOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED = ["<pad>", SOS, EOS, "<unk>"]
USR, SYS = "<usr>", "<sys>"

DB_BUCKETS = 4  # match counts 0, 1, 2-3, >=4


class CorpusError(DataError):
    """Schema violation while loading a corpus file."""


_TOKEN_RE = re.compile(r"\[[a-z_]+\]|[a-z0-9']+|[?.,!;:]")


def tokenize(text: str) -> list:
    """Lowercase whitespace+punctuation tokenization; [domain_slot]
    placeholders stay atomic."""
    return _TOKEN_RE.findall(text.lower())


def db_bucket(count: int) -> int:
    if count <= 0:
        return 0
    if count == 1:
        return 1
    if count <= 3:
        return 2
    return 3


def db_token(domain: str, bucket: int) -> str:
    return f"<db:{domain}:{bucket}>"


@dataclass
class DialogueTurn:
    """One system turn. The flattened source and its two spans are derived
    from history and db_buckets when the turn is made."""
    dialogue_id: str
    turn_index: int
    history: list                    # [(speaker, tokens)] ending with current user turn
    db_buckets: dict                 # domain -> bucket
    belief: dict                     # domain -> {slot: value}
    gold_acts: set                   # set of ActTriple
    gold_response: list              # delexicalized tokens
    goal: dict                       # domain -> {constraints, requested}
    source_tokens: list = field(init=False)             # flattened history + db
    current_utterance_span: tuple = field(init=False)   # (start, end) into source_tokens
    db_span: tuple = field(init=False)

    def __post_init__(self):
        source = []
        span = (0, 0)
        for speaker, toks in self.history:
            start = len(source)
            source.append(USR if speaker == "user" else SYS)
            source.extend(toks)
            span = (start, len(source))
        db_start = len(source)
        for domain in sorted(self.db_buckets):
            source.append(db_token(domain, self.db_buckets[domain]))
        self.source_tokens = source
        self.current_utterance_span = span
        self.db_span = (db_start, len(source))


@dataclass
class Vocab:
    tokens: list

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def id(self, token: str) -> int:
        return self.index.get(token, UNK_ID)

    def ids(self, tokens) -> list:
        return [self.id(t) for t in tokens]

    def decode(self, ids) -> list:
        return [self.tokens[i] for i in ids]


def read_dialogues(path) -> list:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CorpusError(f"{path}: not a JSON corpus ({e})") from None
    if not isinstance(data, list):
        raise CorpusError("corpus root must be a list of dialogues")
    return data


def write_dialogues(path, dialogues: list):
    """Write the corpus as indented JSON, replacing `path` whole or not at all."""
    atomic_write(path, json.dumps(dialogues, indent=1, sort_keys=True) + "\n")


def _require(cond, dialogue_id, path):
    if not cond:
        raise CorpusError(f"corpus schema violation in {dialogue_id!r} at {path}")


def _db_buckets(db, did, path) -> dict:
    _require(isinstance(db, dict), did, path)
    buckets = {}
    for domain, count in sorted(db.items()):
        try:
            buckets[domain] = db_bucket(int(count))
        except (TypeError, ValueError, OverflowError):   # OverflowError: inf
            raise CorpusError(f"corpus schema violation in {did!r} at {path}.{domain}: "
                              f"match count {count!r} is not a finite number") from None
    return buckets


def expand_dialogue(dlg: dict) -> list:
    """One DialogueTurn per system turn, with the full prior history."""
    _require(isinstance(dlg, dict), "?", "dialogue")
    did = dlg.get("dialogue_id", "?")
    _require("turns" in dlg and isinstance(dlg["turns"], list), did, "turns")
    goal = dlg.get("goal", {})
    turns = []
    history = []
    for i, t in enumerate(dlg["turns"]):
        _require(isinstance(t, dict), did, f"turns[{i}]")
        for key, kind in (("user", str), ("response", str), ("acts", list)):
            _require(key in t, did, f"turns[{i}].{key}")
            _require(isinstance(t[key], kind), did, f"turns[{i}].{key}")
        belief = t.get("belief", {})
        _require(isinstance(belief, dict)
                 and all(isinstance(sv, dict) for sv in belief.values()),
                 did, f"turns[{i}].belief")
        history.append(("user", tokenize(t["user"])))
        gold_acts = set()
        for trip in t["acts"]:
            _require(isinstance(trip, list) and len(trip) == 3, did, f"turns[{i}].acts")
            gold_acts.add(ActTriple(*[str(x).lower() for x in trip]))
        turns.append(DialogueTurn(
            dialogue_id=did,
            turn_index=i,
            history=list(history),
            db_buckets=_db_buckets(t.get("db", {}), did, f"turns[{i}].db"),
            belief={d: dict(sv) for d, sv in belief.items()},
            gold_acts=gold_acts,
            gold_response=tokenize(t["response"]),
            goal=goal,
        ))
        history.append(("system", tokenize(t["response"])))
    return turns


def load_corpus(path) -> list:
    """Load and expand a corpus file into per-system-turn examples."""
    turns = []
    for dlg in read_dialogues(path):
        turns.extend(expand_dialogue(dlg))
    if not turns:
        raise CorpusError(f"{path}: corpus holds no turns")
    return turns


def build_vocab(turns: list, ontology: Ontology, min_freq: int = 1):
    """(source/response shared vocab, act vocab).

    The act vocabulary is closed (ontology only); the text vocabulary keeps
    tokens with frequency >= min_freq, sorted by frequency then lexicographic.
    """
    from collections import Counter
    counts = Counter()
    for t in turns:
        counts.update(t.source_tokens)
        counts.update(t.gold_response)
    kept = sorted((tok for tok, c in counts.items()
                   if c >= min_freq and tok not in RESERVED),
                  key=lambda tok: (-counts[tok], tok))
    text_vocab = Vocab(RESERVED + kept)
    act_vocab = Vocab(RESERVED + ontology.tokens())
    return text_vocab, act_vocab


def belief_vector(ontology: Ontology, belief: dict, db_buckets: dict) -> np.ndarray:
    """Multi-hot (domain, slot) filled flags + per-domain db bucket one-hots."""
    nd, ns = len(ontology.domains), len(ontology.slots)
    vec = np.zeros(belief_dim(ontology), dtype=np.float64)
    for di, domain in enumerate(ontology.domains):
        for si, slot in enumerate(ontology.slots):
            if belief.get(domain, {}).get(slot):
                vec[di * ns + si] = 1.0
        bucket = db_buckets.get(domain)
        if bucket is not None:
            vec[nd * ns + di * DB_BUCKETS + bucket] = 1.0
    return vec


def belief_dim(ontology: Ontology) -> int:
    return len(ontology.domains) * (len(ontology.slots) + DB_BUCKETS)


@dataclass
class Batch:
    turns: list
    src: np.ndarray          # [B, S] token ids
    src_mask: np.ndarray     # [B, S] bool, True = real token
    act_key_mask: np.ndarray  # [B, S] bool, current utterance + db tokens
    belief: np.ndarray       # [B, belief_dim]
    act_in: np.ndarray       # [B, Ta]
    act_tg: np.ndarray       # [B, Ta], PAD_ID = ignore
    resp_in: np.ndarray      # [B, Tr]
    resp_tg: np.ndarray      # [B, Tr]


def _truncate(turn: DialogueTurn, max_seq_len: int):
    """Drop oldest history utterances until the flattened source fits."""
    t = turn
    while len(t.source_tokens) > max_seq_len and len(t.history) > 1:
        t = replace(t, history=t.history[1:])
    if len(t.source_tokens) > max_seq_len:
        raise CorpusError(
            f"turn {t.dialogue_id}:{t.turn_index} exceeds max_seq_len even after truncation")
    return t


def _pad(rows: list, width: int) -> np.ndarray:
    out = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def make_batch(turns: list, text_vocab: Vocab, act_vocab: Vocab,
               ontology: Ontology, max_seq_len: int = 256) -> Batch:
    turns = [_truncate(t, max_seq_len) for t in turns]
    b = len(turns)
    src_rows, act_in_rows, act_tg_rows, resp_in_rows, resp_tg_rows = [], [], [], [], []
    spans = []
    for t in turns:
        src_rows.append(text_vocab.ids(t.source_tokens))
        act_seq = act_vocab.ids(canonicalize(ontology, t.gold_acts))
        act_in_rows.append(act_seq[:-1])
        act_tg_rows.append(act_seq[1:])
        resp_seq = [SOS_ID] + text_vocab.ids(t.gold_response) + [EOS_ID]
        resp_in_rows.append(resp_seq[:-1])
        resp_tg_rows.append(resp_seq[1:])
        spans.append((t.current_utterance_span, t.db_span))
    s = max(len(r) for r in src_rows)
    src = _pad(src_rows, s)
    src_mask = np.zeros((b, s), dtype=bool)
    act_key_mask = np.zeros((b, s), dtype=bool)
    for i, r in enumerate(src_rows):
        src_mask[i, :len(r)] = True
        (us, ue), (ds, de) = spans[i]
        act_key_mask[i, us:ue] = True
        act_key_mask[i, ds:de] = True
    belief = np.stack([belief_vector(ontology, t.belief, t.db_buckets) for t in turns])
    return Batch(
        turns=turns, src=src, src_mask=src_mask, act_key_mask=act_key_mask,
        belief=belief,
        act_in=_pad(act_in_rows, max(len(r) for r in act_in_rows)),
        act_tg=_pad(act_tg_rows, max(len(r) for r in act_tg_rows)),
        resp_in=_pad(resp_in_rows, max(len(r) for r in resp_in_rows)),
        resp_tg=_pad(resp_tg_rows, max(len(r) for r in resp_tg_rows)),
    )


BUCKET_WINDOW = 4   # batches per length-sorted window of batchify


def batchify(turns: list, batch_size: int, seed: int, text_vocab: Vocab,
             act_vocab: Vocab, ontology: Ontology, max_seq_len: int = 256) -> list:
    """Padded batches of similar source length, deterministic in (turns, seed).

    A seeded permutation of the turns is cut into windows of
    BUCKET_WINDOW * batch_size turns; each window is stable-sorted by source
    length and cut into batches of batch_size, and the same generator then
    shuffles the order of all batches. Every turn appears once, and the batch
    sizes are those of plain batch_size chunks of the permutation.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(turns))
    lengths = np.array([len(t.source_tokens) for t in turns])
    window = BUCKET_WINDOW * batch_size
    for i in range(0, len(order), window):
        w = order[i:i + window]
        order[i:i + window] = w[np.argsort(lengths[w], kind="stable")]
    chunks = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    return [make_batch([turns[j] for j in chunks[k]], text_vocab, act_vocab,
                       ontology, max_seq_len)
            for k in rng.permutation(len(chunks))]


# -- synthetic corpus ---------------------------------------------------------

TOY_WORLD = {
    "restaurant": {"food": ["italian", "chinese", "indian"],
                   "price": ["cheap", "moderate", "expensive"],
                   "area": ["north", "south", "east", "west", "centre"]},
    "hotel": {"stars": ["two", "three", "four", "five"],
              "price": ["cheap", "moderate", "expensive"],
              "area": ["north", "south", "east", "west", "centre"]},
    "attraction": {"kind": ["museum", "park", "theatre"],
                   "area": ["north", "south", "east", "west", "centre"]},
}
REQUESTABLE = ["address", "phone"]


@dataclass
class SynthSpec:
    corpus_size: int = 200
    seed: int = 0
    domains: tuple = tuple(sorted(TOY_WORLD))
    n_constraints: int = 2

    def __post_init__(self):
        if self.corpus_size < 1:
            raise ConfigError(f"corpus_size must be >= 1, got {self.corpus_size}")


def toy_ontology(spec: SynthSpec = SynthSpec()) -> Ontology:
    slots = set(REQUESTABLE) | {"name"}
    for d in spec.domains:
        slots.update(TOY_WORLD[d])
    return Ontology(spec.domains, ["inform", "request"], sorted(slots))


def _inform_response(domain: str, slots: list) -> str:
    parts = [f"i recommend [{domain}_name] ."]
    for s in sorted(slots):
        parts.append(f"its {s} is [{domain}_{s}] .")
    return " ".join(parts)


def _answer_response(domain: str, slots: list) -> str:
    return " ".join(f"the {s} is [{domain}_{s}] ." for s in sorted(slots))


def synth_generate(spec: SynthSpec) -> list:
    """Template-based toy dialogues; a pure function of the SynthSpec.

    Each dialogue: the user states constraints for one domain, the system
    recommends an entity (planting the [domain_name] placeholder); the user
    then requests attributes which the system answers, so gold responses score
    Inform = Success = 100 by construction. Responses are a deterministic
    function of the act set, keeping the corpus unambiguous for overfitting.
    """
    rng = np.random.default_rng(spec.seed)
    dialogues = []
    for n in range(spec.corpus_size):
        domain = spec.domains[rng.integers(len(spec.domains))]
        informable = sorted(TOY_WORLD[domain])
        k = min(spec.n_constraints, len(informable))
        chosen = sorted(rng.choice(len(informable), size=k, replace=False).tolist())
        constraints = {informable[i]: TOY_WORLD[domain][informable[i]][
            rng.integers(len(TOY_WORLD[domain][informable[i]]))] for i in chosen}
        requested = sorted(
            REQUESTABLE[i] for i in
            rng.choice(len(REQUESTABLE), size=int(rng.integers(1, len(REQUESTABLE) + 1)),
                       replace=False))
        db_count = int(rng.integers(0, 6))

        want = " and ".join(f"{s} {v}" for s, v in sorted(constraints.items()))
        user1 = f"i want a {domain} with {want}"
        acts1 = [[domain, "inform", "name"]] + [[domain, "inform", s]
                                                for s in sorted(constraints)]
        resp1 = _inform_response(domain, sorted(constraints))

        user2 = "can i get the " + " and the ".join(requested) + " ?"
        acts2 = [[domain, "inform", s] for s in requested]
        resp2 = _answer_response(domain, requested)

        dialogues.append({
            "dialogue_id": f"synth{n:04d}",
            "goal": {domain: {"constraints": constraints, "requested": requested}},
            "turns": [
                {"user": user1, "response": resp1, "acts": acts1,
                 "belief": {domain: dict(constraints)}, "db": {domain: db_count}},
                {"user": user2, "response": resp2, "acts": acts2,
                 "belief": {domain: dict(constraints)}, "db": {domain: db_count}},
            ],
        })
    return dialogues
