"""Mined template model: constant token skeletons with wildcards.

A mined template is the recovered analogue of
:class:`repro.simulation.templates.Template`: a sequence of tokens where
variable positions hold ``None`` (rendered as ``*``).  Templates match a
message when every constant position agrees; this is the regular
expression semantics the paper describes ("templates represent regular
expressions that describe a set of syntactically related messages").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.helo.tokenizer import normalize_tokens, tokenize


@dataclass(frozen=True)
class MinedTemplate:
    """One recovered event type.

    ``tokens`` holds the constant token at each position, or ``None`` for
    a wildcard.  ``template_id`` is assigned by the owning
    :class:`TemplateTable`; ``support`` counts training messages that
    matched during mining.
    """

    tokens: Tuple[Optional[str], ...]
    template_id: int = -1
    support: int = 0

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("empty template")

    @property
    def n_tokens(self) -> int:
        """Number of token positions."""
        return len(self.tokens)

    @property
    def n_wildcards(self) -> int:
        """Number of variable positions."""
        return sum(1 for t in self.tokens if t is None)

    def matches_tokens(self, tokens: Sequence[str]) -> bool:
        """Token-wise match: equal length, constants agree."""
        if len(tokens) != len(self.tokens):
            return False
        for mine, theirs in zip(self.tokens, tokens):
            if mine is not None and mine != theirs:
                return False
        return True

    def matches(self, message: str) -> bool:
        """Match a raw message string (after token normalization)."""
        return self.matches_tokens(normalize_tokens(tokenize(message)))

    def skeleton(self) -> str:
        """Human-readable form with ``*`` wildcards (paper notation)."""
        return " ".join("*" if t is None else t for t in self.tokens)

    def specificity(self) -> float:
        """Fraction of constant positions (1.0 = fully constant)."""
        return 1.0 - self.n_wildcards / self.n_tokens

    def merge(self, other: "MinedTemplate") -> "MinedTemplate":
        """Generalize two same-length templates into their union.

        Positions that disagree become wildcards.  Used by the online
        updater when a new message is one variable field away from an
        existing template.
        """
        if self.n_tokens != other.n_tokens:
            raise ValueError("cannot merge templates of different lengths")
        merged = tuple(
            a if a == b else None for a, b in zip(self.tokens, other.tokens)
        )
        return MinedTemplate(
            tokens=merged,
            template_id=self.template_id,
            support=self.support + other.support,
        )


class TemplateTable:
    """Indexed collection of mined templates with fast lookup.

    Lookup buckets templates by token count; within a bucket the fast
    path dispatches through two structures instead of scanning:

    * an **exact-shape hash** — fully-constant templates keyed by their
      token tuple, so constant messages resolve in one dict probe;
    * a **discrimination index** — wildcarded templates grouped by their
      constant token at one chosen position (the position that splits
      the bucket best), so only the matching group plus the templates
      wildcarded at that position need verification.

    Candidates from both structures are verified with
    :meth:`MinedTemplate.matches_tokens` and the *lowest* matching id
    wins.  Ids are dense and assigned in insertion order, so bucket
    order equals ascending-id order and min-id reproduces a linear
    scan's first-match semantics bit for bit (the property tests hold
    the index to the reference scan in ``tests/reference/``).  A
    bounded memo on normalized token shapes short-circuits repeats
    entirely — shape cardinality is tiny next to message cardinality
    because normalization collapses the variable fields.  The index
    rebuilds lazily after :meth:`add` / :meth:`replace`, amortizing
    online minting storms.
    """

    #: memo bound; normalized-shape cardinality is typically a few
    #: hundred, the bound only guards pathological shape churn.
    _MEMO_MAX = 1 << 16

    def __init__(self, templates: Iterable[MinedTemplate] = ()) -> None:
        self._templates: List[MinedTemplate] = []
        self._buckets: Dict[int, List[int]] = {}
        self._index_dirty = True
        self._exact: Dict[Tuple[str, ...], int] = {}
        # bucket length -> (disc position or None, constant-token -> tids,
        #                   tids wildcarded at the disc position)
        self._disc: Dict[int, Tuple[Optional[int], Dict[str, List[int]], List[int]]] = {}
        self._memo: Dict[Tuple[str, ...], Optional[int]] = {}
        #: bumped on every mutation; batch classifiers key caches on it
        self.generation = 0
        self._dispatch_cache: Optional[tuple] = None
        for t in templates:
            self.add(t)

    def __len__(self) -> int:
        return len(self._templates)

    def __iter__(self):
        return iter(self._templates)

    def __getitem__(self, tid: int) -> MinedTemplate:
        return self._templates[tid]

    def add(self, template: MinedTemplate) -> MinedTemplate:
        """Register a template, assigning the next dense id."""
        tid = len(self._templates)
        stored = MinedTemplate(
            tokens=template.tokens, template_id=tid, support=template.support
        )
        self._templates.append(stored)
        self._buckets.setdefault(stored.n_tokens, []).append(tid)
        self._invalidate_index()
        return stored

    def replace(self, tid: int, template: MinedTemplate) -> MinedTemplate:
        """Swap the template stored at ``tid`` (id is preserved).

        Bucket membership may change when constants become wildcards; the
        index is updated accordingly.
        """
        old = self._templates[tid]
        if template.n_tokens != old.n_tokens:
            raise ValueError("replacement must preserve token count")
        stored = MinedTemplate(
            tokens=template.tokens, template_id=tid, support=template.support
        )
        self._templates[tid] = stored
        self._invalidate_index()
        return stored

    # -- index ---------------------------------------------------------------

    def _invalidate_index(self) -> None:
        self._index_dirty = True
        self.generation += 1
        if self._memo:
            self._memo.clear()

    def _rebuild_index(self) -> None:
        """Build the exact-shape hash and per-bucket discrimination index."""
        exact: Dict[Tuple[str, ...], int] = {}
        disc: Dict[int, Tuple[Optional[int], Dict[str, List[int]], List[int]]] = {}
        for length, tids in self._buckets.items():
            wild: List[int] = []
            for tid in tids:
                t = self._templates[tid]
                if t.n_wildcards == 0:
                    # first-added (lowest id) wins among duplicate shapes,
                    # mirroring the linear scan
                    exact.setdefault(t.tokens, tid)  # type: ignore[arg-type]
                else:
                    wild.append(tid)
            if not wild:
                continue
            # pick the position where the fewest templates are wildcarded
            # (those must always be verified), breaking ties by how finely
            # the constants split the rest
            best_pos, best_key = None, None
            for pos in range(length):
                groups: Dict[str, int] = {}
                n_wild_here = 0
                for tid in wild:
                    tok = self._templates[tid].tokens[pos]
                    if tok is None:
                        n_wild_here += 1
                    else:
                        groups[tok] = groups.get(tok, 0) + 1
                key = (n_wild_here, max(groups.values()) if groups else 0)
                if best_key is None or key < best_key:
                    best_pos, best_key = pos, key
            by_token: Dict[str, List[int]] = {}
            always: List[int] = []
            for tid in wild:
                tok = self._templates[tid].tokens[best_pos]
                if tok is None:
                    always.append(tid)
                else:
                    by_token.setdefault(tok, []).append(tid)
            disc[length] = (best_pos, by_token, always)
        self._exact = exact
        self._disc = disc
        self._index_dirty = False

    def batch_dispatch(self) -> Dict[int, tuple]:
        """Per-bucket candidate lists for the columnar batch classifier.

        For each token-count bucket: ``(pos, groups, default)`` where
        ``pos`` is the bucket's discrimination position (the one
        :meth:`_rebuild_index` chose; 0 for all-constant buckets),
        ``groups[tok]`` lists ``(tid, spec)`` candidates — every
        template whose token at ``pos`` is ``tok`` or a wildcard, in
        ascending-id order — and ``default`` lists the candidates whose
        ``pos`` token is a wildcard (used when the message token matches
        no group).  ``spec`` is the verification recipe: the template's
        constant ``(position, token)`` pairs excluding ``pos`` when it
        was already matched by group dispatch.

        The first candidate whose spec verifies is the lowest matching
        id, i.e. exactly :meth:`classify_tokens`'s answer: candidate
        lists contain *every* bucket template that can match the
        message (exact shapes included), in id order.  Cached until the
        table mutates (keyed on :attr:`generation`).
        """
        if self._index_dirty:
            self._rebuild_index()
        cached = self._dispatch_cache
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        dispatch: Dict[int, tuple] = {}
        for length, tids in self._buckets.items():
            entry = self._disc.get(length)
            pos = entry[0] if entry is not None and entry[0] is not None else 0
            specs = []
            keys = set()
            for tid in tids:
                t = self._templates[tid]
                ptok = t.tokens[pos]
                if ptok is not None:
                    keys.add(ptok)
                spec = tuple(
                    (j, tok)
                    for j, tok in enumerate(t.tokens)
                    if tok is not None and j != pos
                )
                specs.append((tid, ptok, spec))
            default = [
                (tid, spec) for tid, ptok, spec in specs if ptok is None
            ]
            groups = {
                key: [
                    (tid, spec)
                    for tid, ptok, spec in specs
                    if ptok is None or ptok == key
                ]
                for key in keys
            }
            dispatch[length] = (pos, groups, default)
        self._dispatch_cache = (self.generation, dispatch)
        return dispatch

    def classify_tokens(self, tokens: Sequence[str]) -> Optional[int]:
        """Template id matching the tokens, or ``None``."""
        key = tuple(tokens)
        memo = self._memo
        if key in memo:
            return memo[key]
        if self._index_dirty:
            self._rebuild_index()
        best = self._exact.get(key)
        entry = self._disc.get(len(key))
        if entry is not None:
            pos, by_token, always = entry
            templates = self._templates
            for tid in by_token.get(key[pos], ()):  # type: ignore[index]
                if (best is None or tid < best) and templates[tid].matches_tokens(key):
                    best = tid
                    break  # group lists are id-ordered; first hit is min
            for tid in always:
                if best is not None and tid >= best:
                    break  # id-ordered; nothing smaller remains
                if templates[tid].matches_tokens(key):
                    best = tid
                    break
        if len(memo) >= self._MEMO_MAX:
            memo.clear()
        memo[key] = best
        return best

    def classify(self, message: str) -> Optional[int]:
        """Template id matching a raw message, or ``None``."""
        return self.classify_tokens(normalize_tokens(tokenize(message)))

    def skeletons(self) -> List[str]:
        """All template skeletons, in id order."""
        return [t.skeleton() for t in self._templates]

    # -- checkpoint serialization -------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form; ids are positional (dense, in order)."""
        return {
            "templates": [
                {"tokens": list(t.tokens), "support": t.support}
                for t in self._templates
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TemplateTable":
        """Rebuild a table from :meth:`to_dict` output, ids preserved."""
        table = cls()
        for entry in data["templates"]:
            table.add(
                MinedTemplate(
                    tokens=tuple(entry["tokens"]),
                    support=int(entry["support"]),
                )
            )
        return table
