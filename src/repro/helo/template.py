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


#: ``default`` of a node where no candidate is wildcarded: matches nothing
_EMPTY_LEAF = (-1, (), None)


class TemplateTable:
    """Mined templates, looked up through one dispatch tree per bucket.

    Templates are bucketed by token count, and each bucket has a
    dispatch tree, built on the bucket's first lookup and dropped when
    :meth:`add` or :meth:`replace` changes the bucket.  An inner node
    ``(pos, children, default)`` branches on the normalized token at
    position ``pos``: ``children[tok]`` is the subtree of the candidates
    whose token there is ``tok`` or a wildcard, ``default`` that of the
    candidates wildcarded there.  A leaf ``(-1, entries, None)`` lists
    ``(tid, spec)`` candidates in ascending id, each with the constant
    ``(position, token)`` pairs its path has not checked; the first
    entry whose spec agrees is the answer.  Every list keeps id order
    and keeps every candidate that can still match, so the answer is
    the lowest matching id: a linear scan's first match, bit for bit
    (the property tests hold the tree to ``tests/reference/``).

    A node splits on the unchecked position whose longest child list
    is shortest (then the one whose children hold the fewest entries),
    and only where that list is shorter than the node's own.  Below the
    root a node splits only if its children hold at most
    :attr:`_MAX_GROWTH` times its entries, and a path branches on at
    most :attr:`_MAX_DEPTH` positions.  The root's children hold
    ``N + K * W`` entries for a bucket of ``N`` templates with ``K``
    distinct constants and ``W`` wildcards at the root position, so a
    bucket's leaves hold at most ``_MAX_GROWTH ** (_MAX_DEPTH - 1) *
    (N + K * W)`` entries, however wildcard-heavy the table.
    """

    #: positions one path may branch on
    _MAX_DEPTH = 4
    #: below the root, a split may multiply a node's entries by this much
    _MAX_GROWTH = 2

    def __init__(self, templates: Iterable[MinedTemplate] = ()) -> None:
        self._templates: List[MinedTemplate] = []
        self._buckets: Dict[int, List[int]] = {}
        self._trees: Dict[int, tuple] = {}
        #: bumped on every mutation; batch classifiers refresh on it
        self.generation = 0
        for t in templates:
            self.add(t)

    def __getstate__(self) -> dict:
        """Pickle the templates; the dispatch trees are rebuilt on use."""
        return {
            "_templates": self._templates,
            "_buckets": self._buckets,
            "generation": self.generation,
        }

    def __setstate__(self, state: dict) -> None:
        # tables pickled before the dispatch tree also carry a derived
        # one-position index and a lookup memo; both are dropped here
        self._templates = state["_templates"]
        self._buckets = state["_buckets"]
        self.generation = state.get("generation", 0)
        self._trees = {}

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
        self._changed(stored.n_tokens)
        return stored

    def replace(self, tid: int, template: MinedTemplate) -> MinedTemplate:
        """Swap the template stored at ``tid`` (id and bucket preserved)."""
        old = self._templates[tid]
        if template.n_tokens != old.n_tokens:
            raise ValueError("replacement must preserve token count")
        stored = MinedTemplate(
            tokens=template.tokens, template_id=tid, support=template.support
        )
        self._templates[tid] = stored
        self._changed(stored.n_tokens)
        return stored

    def bucket(self, n_tokens: int) -> List[MinedTemplate]:
        """The templates with ``n_tokens`` tokens, in ascending id."""
        return [self._templates[tid] for tid in self._buckets.get(n_tokens, ())]

    # -- dispatch trees ------------------------------------------------------

    def _changed(self, n_tokens: int) -> None:
        self._trees.pop(n_tokens, None)
        self.generation += 1

    def _tree(self, n_tokens: int) -> Optional[tuple]:
        """The bucket's dispatch tree, built if a mutation dropped it."""
        tree = self._trees.get(n_tokens)
        if tree is None:
            tids = self._buckets.get(n_tokens)
            if tids is None:
                return None
            tree = self._build(tids, frozenset(), 0, {})
            self._trees[n_tokens] = tree
        return tree

    def _build(
        self, tids: List[int], checked: frozenset, depth: int, specs: dict
    ) -> tuple:
        """Dispatch (sub)tree over ``tids`` (ascending ids).

        ``checked`` holds the positions the path has branched on;
        ``specs`` shares each leaf spec among the leaves that have
        checked the same positions.
        """
        templates = self._templates
        n = len(tids)
        best = None
        if n > 1 and depth < self._MAX_DEPTH:
            limit = self._MAX_GROWTH * n if depth else None
            rows = [templates[tid].tokens for tid in tids]
            for pos in range(len(rows[0])):
                if pos in checked:
                    continue
                counts: Dict[Optional[str], int] = {}
                for row in rows:
                    tok = row[pos]
                    counts[tok] = counts.get(tok, 0) + 1
                wild = counts.pop(None, 0)
                if not counts:
                    continue
                longest = max(counts.values()) + wild
                total = n + len(counts) * wild
                if longest < n and (limit is None or total <= limit):
                    key = (longest, total, pos)
                    if best is None or key < best:
                        best = key
        if best is None:
            shared = specs.setdefault(checked, {})
            entries = []
            for tid in tids:
                spec = shared.get(tid)
                if spec is None:
                    spec = shared[tid] = tuple([
                        (j, tok) for j, tok in enumerate(templates[tid].tokens)
                        if tok is not None and j not in checked
                    ])
                entries.append((tid, spec))
            return (-1, tuple(entries), None)
        pos = best[2]
        # one pass in id order: a wildcard joins every group opened so
        # far, a group opens with the wildcards seen before it
        groups: Dict[str, List[int]] = {}
        wild_tids: List[int] = []
        for tid in tids:
            tok = templates[tid].tokens[pos]
            if tok is None:
                wild_tids.append(tid)
                for members in groups.values():
                    members.append(tid)
            else:
                members = groups.get(tok)
                if members is None:
                    members = groups[tok] = list(wild_tids)
                members.append(tid)
        checked = checked | {pos}
        children = {
            tok: self._build(members, checked, depth + 1, specs)
            for tok, members in groups.items()
        }
        default = (
            self._build(wild_tids, checked, depth + 1, specs) if wild_tids
            else _EMPTY_LEAF
        )
        return (pos, children, default)

    def dispatch_trees(self) -> Dict[int, tuple]:
        """Every bucket's dispatch tree, by token count.

        The batch classifier walks these as :meth:`classify_tokens`
        does, normalizing raw tokens as it reads them; the snapshot is
        current until :attr:`generation` next changes.
        """
        return {n: self._tree(n) for n in self._buckets}

    def classify_tokens(self, tokens: Sequence[str]) -> Optional[int]:
        """Template id matching the normalized tokens, or ``None``."""
        tree = self._tree(len(tokens))
        if tree is None:
            return None
        pos, branch, default = tree
        while pos >= 0:
            pos, branch, default = branch.get(tokens[pos], default)
        for tid, spec in branch:
            for j, const in spec:
                if tokens[j] != const:
                    break
            else:
                return tid
        return None

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
