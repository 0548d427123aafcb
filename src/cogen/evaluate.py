"""Corpus-level generation + scoring used by the eval command and the
ablation/sweep harnesses.
"""

from .config import RunConfig
from .decode import decode_configs, generate_turn
from .metrics import MetricsReport, evaluate_corpus


def decode_corpus(model, turns, run: RunConfig) -> list:
    act_cfg, resp_cfg = decode_configs(run)
    return [generate_turn(model, t, act_cfg, resp_cfg) for t in turns]


def evaluate_model(model, turns, run: RunConfig, label: str = "") -> MetricsReport:
    results = decode_corpus(model, turns, run)
    report = evaluate_corpus(
        turns,
        [r.response_tokens for r in results],
        [r.act_triples for r in results],
        label=label)
    report.config_fingerprint = run.fingerprint()
    return report


def exact_match_rate(turns, results) -> float:
    """Fraction of turns where generated acts and response both equal gold."""
    hits = sum(1 for t, r in zip(turns, results)
               if r.act_triples == t.gold_acts
               and r.response_tokens == t.gold_response)
    return hits / max(1, len(turns))
