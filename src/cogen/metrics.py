"""Evaluation: corpus BLEU-4, Inform Rate, Request Success, the combined
score, and report emission.

Entity matching is placeholder-based: a goal domain counts as informed when
some system response contains its "[domain_name]" placeholder. That is exact
on the synthetic corpus (the generator plants exactly those placeholders) and
an approximation on real data, where the official evaluator grounds entities
in a database.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

from .files import atomic_write

BLEU_SMOOTHING = "epsilon-floor(1e-9)"
_EPS = 1e-9


class MetricsError(ValueError):
    pass


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses: list, references: list) -> float:
    """Corpus-level BLEU-4 in [0, 100].

    Geometric mean of modified n-gram precisions (n = 1..4) with brevity
    penalty; zero precision numerators are floored at 1e-9.
    """
    if not hypotheses:
        raise MetricsError("bleu: empty hypothesis list")
    if len(hypotheses) != len(references):
        raise MetricsError("bleu: hypothesis/reference count mismatch")
    matched = [0] * 4
    total = [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            h = _ngrams(hyp, n)
            r = _ngrams(ref, n)
            matched[n - 1] += sum(min(c, r[g]) for g, c in h.items())
            total[n - 1] += max(0, len(hyp) - n + 1)
    log_prec = 0.0
    for m, t in zip(matched, total):
        if t == 0:
            return 0.0
        log_prec += math.log(max(m, _EPS) / t)
    bp = 1.0 if hyp_len > ref_len else math.exp(1 - ref_len / max(1, hyp_len))
    return 100.0 * bp * math.exp(log_prec / 4)


def _group_by_dialogue(turns, responses):
    groups: dict = {}
    for turn, resp in zip(turns, responses):
        groups.setdefault(turn.dialogue_id, {"goal": turn.goal, "responses": []})
        groups[turn.dialogue_id]["responses"].append(resp)
    return groups


def _informed(goal: dict, responses: list, entityless) -> bool:
    mentioned = {tok for resp in responses for tok in resp}
    for domain in goal:
        if domain in entityless:
            continue
        if f"[{domain}_name]" not in mentioned:
            return False
    return True


def _successful(goal: dict, responses: list, entityless) -> bool:
    if not _informed(goal, responses, entityless):
        return False
    mentioned = {tok for resp in responses for tok in resp}
    for domain, g in goal.items():
        for slot in g.get("requested", []):
            if f"[{domain}_{slot}]" not in mentioned:
                return False
    return True


def inform_rate(turns: list, responses: list, entityless=frozenset()) -> float:
    """Percentage of dialogues whose responses mention an entity placeholder
    for every goal domain (domains in `entityless` are exempt)."""
    groups = _group_by_dialogue(turns, responses)
    if not groups:
        return 0.0
    ok = sum(_informed(g["goal"], g["responses"], entityless)
             for g in groups.values())
    return 100.0 * ok / len(groups)


def request_success(turns: list, responses: list, entityless=frozenset()) -> float:
    """Percentage of dialogues that are informed and answer every requested
    slot with its placeholder."""
    groups = _group_by_dialogue(turns, responses)
    if not groups:
        return 0.0
    ok = sum(_successful(g["goal"], g["responses"], entityless)
             for g in groups.values())
    return 100.0 * ok / len(groups)


def combined_score(inform: float, success: float, bleu_score: float) -> float:
    return (inform + success) * 0.5 + bleu_score


@dataclass
class MetricsReport:
    inform: float
    success: float
    bleu: float
    act_f1: float = 0.0
    per_domain: dict = field(default_factory=dict)
    label: str = ""
    config_fingerprint: str = ""

    @property
    def combined(self) -> float:
        return combined_score(self.inform, self.success, self.bleu)

    def lines(self) -> list:
        out = [f"label            {self.label}",
               f"inform           {self.inform:.2f}",
               f"success          {self.success:.2f}",
               f"bleu             {self.bleu:.2f}  (smoothing {BLEU_SMOOTHING})",
               f"combined         {self.combined:.2f}",
               f"act_f1           {self.act_f1:.4f}"]
        for domain in sorted(self.per_domain):
            out.append(f"combined[{domain}]  {self.per_domain[domain]:.2f}")
        if self.config_fingerprint:
            out.append(f"config           {self.config_fingerprint}")
        return out


def evaluate_corpus(turns: list, responses: list, predicted_acts: list,
                    entityless=frozenset(), label: str = "") -> MetricsReport:
    """Score generated responses + acts against the gold corpus."""
    from .acts import corpus_act_f1
    references = [t.gold_response for t in turns]
    _, _, f1 = corpus_act_f1(list(zip(predicted_acts, [t.gold_acts for t in turns])))
    report = MetricsReport(
        inform=inform_rate(turns, responses, entityless),
        success=request_success(turns, responses, entityless),
        bleu=bleu(responses, references),
        act_f1=f1,
        label=label)
    domains = sorted({d for t in turns for d in t.goal})
    for domain in domains:
        idx = [i for i, t in enumerate(turns) if domain in t.goal]
        sub_turns = [turns[i] for i in idx]
        sub_resp = [responses[i] for i in idx]
        report.per_domain[domain] = combined_score(
            inform_rate(sub_turns, sub_resp, entityless),
            request_success(sub_turns, sub_resp, entityless),
            bleu(sub_resp, [t.gold_response for t in sub_turns]))
    return report


def write_report(path, reports: list, extra_lines=()):
    """Atomic multi-run report: one block per MetricsReport plus a summary
    table row per run."""
    blocks = []
    header = f"{'label':<24}{'inform':>8}{'success':>9}{'bleu':>8}{'combined':>10}"
    table = [header]
    for r in reports:
        blocks.append("\n".join(r.lines()))
        table.append(f"{r.label:<24}{r.inform:>8.2f}{r.success:>9.2f}"
                     f"{r.bleu:>8.2f}{r.combined:>10.2f}")
    text = "\n".join(table) + "\n\n" + "\n\n".join(blocks) + "\n"
    if extra_lines:
        text += "\n" + "\n".join(extra_lines) + "\n"
    atomic_write(path, text)
