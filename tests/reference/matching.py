"""Linear-scan template matching: the oracle of the indexed matcher."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.helo.tokenizer import normalize_tokens, tokenize


def classify_tokens_linear(table, tokens: Sequence[str]) -> Optional[int]:
    """Linear bucket scan of a ``TemplateTable`` (first match in id order)."""
    for tid in table._buckets.get(len(tokens), ()):
        if table[tid].matches_tokens(tokens):
            return tid
    return None


def observe_linear(helo, message: str) -> Optional[int]:
    """``OnlineHELO.observe`` with the linear scan in place of the index.

    Misses go through the product's own miss handling, so the table
    evolves exactly as it does under the indexed matcher.
    """
    norm = tuple(normalize_tokens(tokenize(message)))
    if not norm:
        return None
    tid = classify_tokens_linear(helo.table, list(norm))
    if tid is not None:
        return tid
    return helo._handle_miss(norm)


def classify_linear(elsa, records) -> List[Optional[int]]:
    """Online event ids for record objects, one linear scan per message."""
    return [observe_linear(elsa._online_helo, r.message) for r in records]
