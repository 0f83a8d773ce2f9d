"""Offline hierarchical template mining.

The miner recovers event types from a corpus of raw messages in three
stages, mirroring HELO's hierarchical splitting:

1. **Normalize** — obviously-variable tokens (numbers, hex, paths) become
   wildcards (:func:`repro.helo.tokenizer.normalize_tokens`).
2. **Pre-cluster** — messages are grouped by token count.
3. **Split** — each group is recursively partitioned on the most
   discriminating token position: the constant position with the fewest
   distinct values.  A position whose distinct-value count exceeds
   ``max_distinct`` (relative to group size) is declared variable.  When
   no position can split a group further, the group becomes one template:
   constant where all members agree, wildcard elsewhere.

The recursion depth is bounded by the message length, and each message is
touched O(length · depth) times, so mining a million lines stays in
seconds — important because the paper re-runs mining online.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.helo.template import MinedTemplate, TemplateTable
from repro.helo.tokenizer import normalize_tokens, tokenize


@dataclass
class MinerConfig:
    """Tuning knobs of the hierarchical miner.

    A position is a split candidate when its distinct-value count is at
    most ``max(max_distinct_abs, max_distinct_ratio * group_size)`` and
    strictly below the group size (a position where nearly every shape
    differs is a variable field, not vocabulary).  ``min_group``: groups
    smaller than this are not split further.

    ``min_value_support`` rescues vocabulary splits in tiny groups: a
    position where *every* distinct value is backed by at least this many
    raw messages may split even when each value appears in only one shape
    (frequent renders are words; one-off renders are variable fields).
    """

    max_distinct_ratio: float = 0.3
    max_distinct_abs: int = 12
    min_group: int = 2
    min_value_support: int = 5


def _shape(message: str) -> Tuple[str, ...]:
    """A message's normalized token tuple (its template shape)."""
    return tuple(normalize_tokens(tokenize(message)))


class HELOMiner:
    """Mines a :class:`TemplateTable` from raw messages."""

    def __init__(self, config: Optional[MinerConfig] = None) -> None:
        self.config = config or MinerConfig()

    # -- public API ---------------------------------------------------------

    def fit(self, messages: Iterable[str]) -> TemplateTable:
        """Mine templates from a message corpus.

        Duplicate messages are collapsed before clustering (with counts
        retained as support), which makes mining insensitive to volume
        skew between chatty and quiet event types.
        """
        return self._mine([_shape(msg) for msg in messages])

    def fit_transform(
        self, messages: Sequence[str]
    ) -> Tuple[TemplateTable, List[Optional[int]]]:
        """Mine templates and classify the training messages.

        Returns the table and one template id per input message, each
        message normalized once for both.  A message with no tokens gets
        ``None`` (no template has length 0); by construction every other
        training message matches some mined template.
        """
        shapes = [_shape(msg) for msg in messages]
        table = self._mine(shapes)
        ids: List[Optional[int]] = []
        for msg, norm in zip(messages, shapes):
            tid = table.classify_tokens(norm) if norm else None
            if tid is None and norm:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"training message failed to classify: {msg!r}"
                )
            ids.append(tid)
        return table, ids

    def _mine(self, shapes: List[Tuple[str, ...]]) -> TemplateTable:
        """Mine templates from normalized message shapes."""
        with obs.span("mine_templates") as span:
            counts: Counter = Counter(norm for norm in shapes if norm)

            by_len: Dict[int, List[Tuple[Tuple[str, ...], int]]] = (
                defaultdict(list)
            )
            for norm, n in counts.items():
                by_len[len(norm)].append((norm, n))

            table = TemplateTable()
            for length in sorted(by_len):
                for group in self._split(by_len[length]):
                    table.add(self._collapse(group))
            span["messages"] = len(shapes)
            span["shapes"] = len(counts)
            span["templates"] = len(table)
        obs.counter("helo.messages_mined").inc(len(shapes))
        obs.counter("helo.templates_mined").inc(len(table))
        return table

    # -- internals ------------------------------------------------------------

    def _split(
        self, group: List[Tuple[Tuple[str, ...], int]]
    ) -> List[List[Tuple[Tuple[str, ...], int]]]:
        """Recursively partition one same-length group."""
        if len(group) < self.config.min_group:
            return [group]
        pos = self._best_split_position(group)
        if pos is None:
            return [group]
        parts: Dict[str, List[Tuple[Tuple[str, ...], int]]] = defaultdict(list)
        for norm, n in group:
            parts[norm[pos]].append((norm, n))
        if len(parts) <= 1:  # pragma: no cover - guarded by caller
            return [group]
        out: List[List[Tuple[Tuple[str, ...], int]]] = []
        for sub in parts.values():
            out.extend(self._split(sub))
        return out

    def _best_split_position(
        self, group: List[Tuple[Tuple[str, ...], int]]
    ) -> Optional[int]:
        """Position to split on: fewest distinct values, at least 2.

        Positions exceeding the distinct-value thresholds are variable and
        never split on; already-constant positions cannot split.  Ties go
        to the leftmost position (message heads are most template-like).
        """
        length = len(group[0][0])
        size = len(group)
        limit = min(
            size - 1,
            max(
                self.config.max_distinct_abs,
                int(self.config.max_distinct_ratio * size),
            ),
        )
        best_pos, best_card = None, None
        for pos in range(length):
            support: Dict[str, int] = defaultdict(int)
            for norm, n in group:
                support[norm[pos]] += n
            card = len(support)
            if card < 2 or "*" in support:
                continue
            if card > limit:
                # Rescue: every value individually frequent => vocabulary.
                if min(support.values()) < self.config.min_value_support:
                    continue
            if best_card is None or card < best_card:
                best_pos, best_card = pos, card
        return best_pos

    @staticmethod
    def _collapse(group: List[Tuple[Tuple[str, ...], int]]) -> MinedTemplate:
        """Turn one leaf group into a template.

        A position is constant iff all members agree on a non-wildcard
        token; everything else becomes a wildcard.
        """
        support = sum(n for _, n in group)
        first = group[0][0]
        tokens: List[Optional[str]] = []
        for pos in range(len(first)):
            values = {norm[pos] for norm, _ in group}
            if len(values) == 1 and "*" not in values:
                tokens.append(first[pos])
            else:
                tokens.append(None)
        return MinedTemplate(tokens=tuple(tokens), support=support)
