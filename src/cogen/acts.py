"""Dialogue act handling: (domain, action, slot) triples, their canonical
linearization as a token sequence, one-hot interop, and act-level F1.

The ontology is a closed three-level vocabulary loaded from a plain text file.
A surface string may legally appear at two levels; it is then disambiguated by
suffixing "#domain" / "#action" / "#slot" at load time.
"""

from dataclasses import dataclass, field
from typing import Iterable

from .config import DataError
from .files import atomic_write

SOS = "<sos>"
EOS = "<eos>"

LEVELS = ("domain", "action", "slot")


class VocabularyError(DataError):
    """Raised for tokens outside the closed ontology."""


@dataclass(frozen=True, order=True)
class ActTriple:
    domain: str
    action: str
    slot: str


@dataclass
class ParseResult:
    triples: set
    skipped: int = 0


class Ontology:
    """Closed act vocabulary: domains, actions, slots.

    File format: three sections headed by lines "[domains]", "[actions]",
    "[slots]"; one token per line; blank lines and "#" comments ignored.
    """

    def __init__(self, domains: Iterable[str], actions: Iterable[str],
                 slots: Iterable[str]):
        self.domains = sorted(set(domains))
        self.actions = sorted(set(actions))
        self.slots = sorted(set(slots))
        self._level = {}
        for level, toks in zip(LEVELS, (self.domains, self.actions, self.slots)):
            for t in toks:
                if t in self._level:
                    raise VocabularyError(
                        f"token {t!r} appears at both {self._level[t]} and {level}; "
                        f"disambiguate with a #level suffix in the ontology file")
                self._level[t] = level

    @classmethod
    def load(cls, path) -> "Ontology":
        sections = {"domains": [], "actions": [], "slots": []}
        current = None
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
        except UnicodeDecodeError as e:
            raise VocabularyError(f"{path}: ontology is not UTF-8 text ({e})") from None
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                if current not in sections:
                    raise VocabularyError(f"unknown ontology section {current!r}")
                continue
            if current is None:
                raise VocabularyError(f"ontology token {line!r} before any section")
            sections[current].append(line.lower())
        return cls(sections["domains"], sections["actions"], sections["slots"])

    def save(self, path):
        """Write the ontology file, replacing `path` whole or not at all."""
        text = ""
        for name, toks in (("domains", self.domains), ("actions", self.actions),
                           ("slots", self.slots)):
            text += f"[{name}]\n" + "".join(t + "\n" for t in toks)
        atomic_write(path, text)

    def level_of(self, token: str):
        return self._level.get(token)

    def validate(self, triple: ActTriple):
        for value, level, known in ((triple.domain, "domain", self.domains),
                                    (triple.action, "action", self.actions),
                                    (triple.slot, "slot", self.slots)):
            if value not in known:
                raise VocabularyError(f"unknown {level} token {value!r}")

    def tokens(self) -> list:
        """All act tokens in a stable order (domains, actions, slots)."""
        return list(self.domains) + list(self.actions) + list(self.slots)

    def onehot_len(self) -> int:
        return len(self.domains) + len(self.actions) + len(self.slots)


def canonicalize(ontology: Ontology, acts: set) -> list:
    """Linearize a triple set: domains in dictionary order, actions within a
    domain, slots within an action; each scope token emitted once."""
    for t in acts:
        ontology.validate(t)
    seq = [SOS]
    by_domain: dict = {}
    for t in acts:
        by_domain.setdefault(t.domain, {}).setdefault(t.action, set()).add(t.slot)
    for domain in sorted(by_domain):
        seq.append(domain)
        for action in sorted(by_domain[domain]):
            seq.append(action)
            seq.extend(sorted(by_domain[domain][action]))
    seq.append(EOS)
    return seq


def parse(ontology: Ontology, seq: list) -> ParseResult:
    """Scope-scan a (possibly malformed, model-generated) act token sequence.

    Never raises on content: tokens arriving out of scope order, or unknown to
    the ontology, are skipped and counted.
    """
    triples = set()
    skipped = 0
    domain = None
    action = None
    for tok in seq:
        if tok in (SOS, EOS):
            continue
        level = ontology.level_of(tok)
        if level == "domain":
            domain, action = tok, None
        elif level == "action":
            if domain is None:
                skipped += 1
            else:
                action = tok
        elif level == "slot":
            if domain is None or action is None:
                skipped += 1
            else:
                triples.add(ActTriple(domain, action, tok))
        else:
            skipped += 1
    return ParseResult(triples=triples, skipped=skipped)


def to_onehot(ontology: Ontology, acts: set) -> list:
    """Level-blocked presence bits: [domains | actions | slots]."""
    for t in acts:
        ontology.validate(t)
    bits = [0] * ontology.onehot_len()
    toks = ontology.tokens()
    index = {t: i for i, t in enumerate(toks)}
    nd, na = len(ontology.domains), len(ontology.actions)
    for t in acts:
        bits[index[t.domain]] = 1
        bits[nd + ontology.actions.index(t.action)] = 1
        bits[nd + na + ontology.slots.index(t.slot)] = 1
    return bits


def from_onehot(ontology: Ontology, bits: list) -> list:
    """Reconstruct the maximal consistent triple set (cross product of the set
    bits per level), then canonicalize. Lossy inverse of to_onehot."""
    if len(bits) != ontology.onehot_len():
        raise VocabularyError(
            f"one-hot length {len(bits)} vs ontology size {ontology.onehot_len()}")
    nd, na = len(ontology.domains), len(ontology.actions)
    domains = [d for d, b in zip(ontology.domains, bits[:nd]) if b]
    actions = [a for a, b in zip(ontology.actions, bits[nd:nd + na]) if b]
    slots = [s for s, b in zip(ontology.slots, bits[nd + na:]) if b]
    acts = {ActTriple(d, a, s) for d in domains for a in actions for s in slots}
    return canonicalize(ontology, acts)


def act_f1(predicted: set, gold: set) -> tuple:
    """Set-overlap precision/recall/F1 for one turn.

    Both-empty scores (1, 1, 1): a turn may legitimately carry no acts and
    predicting none is then exactly right.
    """
    if not predicted and not gold:
        return (1.0, 1.0, 1.0)
    tp = len(predicted & gold)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(gold) if gold else 0.0
    if precision + recall == 0:
        return (precision, recall, 0.0)
    return (precision, recall, 2 * precision * recall / (precision + recall))


def corpus_act_f1(pairs: Iterable[tuple]) -> tuple:
    """Micro-averaged (precision, recall, f1) over (predicted, gold) pairs."""
    tp = fp = fn = 0
    for predicted, gold in pairs:
        tp += len(predicted & gold)
        fp += len(predicted - gold)
        fn += len(gold - predicted)
    if tp + fp + fn == 0:
        return (1.0, 1.0, 1.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return (precision, recall, 0.0)
    return (precision, recall, 2 * precision * recall / (precision + recall))
