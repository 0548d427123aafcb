"""Long-context corpus for the `longctx` workload.

Chains runs of consecutive synthetic dialogues into one long dialogue, so a
late turn carries the history of several earlier sub-dialogues while the act
pass still keys only on the current utterance and the database tokens. The
result is standard corpus JSON; the program receives only that file.
"""

from cogen import corpus

CHAIN = 5


def chain_dialogues(dialogues: list) -> list:
    """Concatenate each run of CHAIN consecutive dialogues into one.

    Goals are merged per domain (later constraints win, requested slots are
    united), so gold responses still score Inform = Success = 100. Per-turn
    belief and database counts stay those of the sub-dialogue the turn
    comes from.
    """
    out = []
    for i in range(0, len(dialogues) - CHAIN + 1, CHAIN):
        part = dialogues[i:i + CHAIN]
        goal: dict = {}
        for dlg in part:
            for domain, g in dlg["goal"].items():
                merged = goal.setdefault(domain, {"constraints": {}, "requested": []})
                merged["constraints"].update(g["constraints"])
                merged["requested"] = sorted(set(merged["requested"]) | set(g["requested"]))
        out.append({"dialogue_id": f"long{i // CHAIN:04d}", "goal": goal,
                    "turns": [turn for dlg in part for turn in dlg["turns"]]})
    return out


def generate(n_dialogues: int, seed: int) -> tuple:
    """(dialogues, ontology): `n_dialogues` long dialogues of CHAIN seeded
    synthetic dialogues each."""
    spec = corpus.SynthSpec(corpus_size=n_dialogues * CHAIN, seed=seed)
    return chain_dialogues(corpus.synth_generate(spec)), corpus.toy_ontology(spec)
