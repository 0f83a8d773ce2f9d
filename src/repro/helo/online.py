"""Online template matching and incremental vocabulary updates.

In the online phase "we use HELO on-line to keep the set of templates
updated and relevant to the output of the system" (section III.A):
software upgrades and configuration changes introduce new message shapes
over a system's lifetime, so the matcher must absorb unseen messages
without a full re-mine.

:class:`OnlineHELO` classifies each incoming message against the current
:class:`~repro.helo.template.TemplateTable`.  Misses go to a buffer; when
the buffer holds enough same-length, same-shape evidence the updater
either *generalizes* an existing template (one constant position becomes a
wildcard) or mints a new one.  Every message therefore gets an id
eventually, and ids are stable — existing signals never need re-keying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.helo import tokenizer
from repro.helo.miner import HELOMiner, MinerConfig
from repro.helo.template import MinedTemplate, TemplateTable
from repro.helo.tokenizer import normalize_raw_token, raw_tokens


@dataclass
class OnlineConfig:
    """Online updater knobs.

    ``new_template_min_evidence``: distinct normalized shapes required in
    the miss buffer before a new template is minted.
    ``generalize_max_mismatch``: a miss within this many constant-position
    disagreements of an existing template generalizes it instead of
    becoming new evidence.
    ``buffer_cap``: misses kept per token-length bucket before the oldest
    evidence is dropped (bounds memory on hostile input).
    ``max_length_buckets``: distinct token-length buckets kept; hostile
    input varying message length on every line would otherwise grow the
    buffer dict without bound.  Least-recently-hit buckets are evicted.
    """

    new_template_min_evidence: int = 3
    generalize_max_mismatch: int = 1
    buffer_cap: int = 512
    max_length_buckets: int = 64


class OnlineHELO:
    """Streaming classifier over an evolving template table."""

    def __init__(
        self,
        table: Optional[TemplateTable] = None,
        config: Optional[OnlineConfig] = None,
    ) -> None:
        self.table = table if table is not None else TemplateTable()
        self.config = config or OnlineConfig()
        # insertion order doubles as bucket LRU (see _buffer_for)
        self._miss_buffer: Dict[int, List[Tuple[str, ...]]] = {}
        #: ids of templates created or generalized online (observability).
        self.updated_ids: List[int] = []
        #: classification misses seen so far (batch metrics read this).
        self._n_misses = 0

    # -- classification ---------------------------------------------------

    def observe(self, message: str) -> Optional[int]:
        """Classify one message; may update the table on a miss.

        Returns the template id, or ``None`` while evidence for a brand
        new template is still accumulating.
        """
        return self.observe_many([message])[0]

    def observe_many(self, messages: List[str]) -> List[Optional[int]]:
        """Classify a batch, applying updates as they trigger.

        :meth:`observe_tokens_batch` over the messages'
        :func:`~repro.helo.tokenizer.raw_tokens`, with ``None`` where it
        gives ``-1``.
        """
        ids = self.observe_tokens_batch([raw_tokens(m) for m in messages])
        return [None if tid < 0 else tid for tid in ids.tolist()]

    def observe_tokens_batch(self, token_lists) -> "np.ndarray":
        """Classify raw token sequences; returns an id array.

        ``token_lists`` holds one read-only sequence per record, the
        message's :func:`~repro.helo.tokenizer.raw_tokens` tuple (the
        batch parser caches them on ``RecordBatch.token_lists``).  Each
        record walks its bucket's dispatch tree
        (:meth:`TemplateTable.dispatch_trees`), as
        :meth:`TemplateTable.classify_tokens` does, normalizing a raw
        token (through the raw-token cache) only when the walk or a
        leaf check reads it.  Misses fall back to the exact scalar
        :meth:`_handle_miss` (same table mutations, same minting), after
        which the trees are refreshed if the table changed.  Returns
        int64 ids with ``-1`` for ``None``.

        Results (ids *and* table mutations) are identical to a linear
        template scan over the messages the tokens came from;
        ``tests/test_columnar.py::TestClassifyEquivalence`` holds the
        property.
        """
        n = len(token_lists)
        ids = np.empty(n, dtype=np.int64)
        if n == 0:
            return ids
        misses_before = self._n_misses
        updates_before = len(self.updated_ids)
        table = self.table
        trees = table.dispatch_trees()
        gen = table.generation
        cache_get = tokenizer._RAW_NORM_CACHE.get
        for i, toks in enumerate(token_lists):
            if not toks:
                ids[i] = -1
                continue
            tid = -1
            tree = trees.get(len(toks))
            if tree is not None:
                pos, branch, default = tree
                while pos >= 0:
                    raw = toks[pos]
                    nt = cache_get(raw)
                    if nt is None:
                        nt = normalize_raw_token(raw)
                    pos, branch, default = branch.get(nt, default)
                for cand_tid, spec in branch:
                    for j, const in spec:
                        raw = toks[j]
                        nj = cache_get(raw)
                        if nj is None:
                            nj = normalize_raw_token(raw)
                        if nj != const:
                            break
                    else:
                        tid = cand_tid
                        break
            if tid < 0:
                norm = []
                for raw in toks:
                    nj = cache_get(raw)
                    if nj is None:
                        nj = normalize_raw_token(raw)
                    norm.append(nj)
                res = self._handle_miss(tuple(norm))
                if res is not None:
                    tid = res
                if table.generation != gen:
                    trees = table.dispatch_trees()
                    gen = table.generation
            ids[i] = tid
        obs.counter("helo.online.observed").inc(n)
        obs.counter("helo.online.misses").inc(self._n_misses - misses_before)
        obs.counter("helo.online.table_updates").inc(
            len(self.updated_ids) - updates_before
        )
        return ids

    # -- miss handling ------------------------------------------------------

    def _buffer_for(self, length: int) -> List[Tuple[str, ...]]:
        """The miss bucket for ``length``, with LRU bucket eviction.

        Accessing a bucket marks it most-recently-used; when a new
        length would exceed ``max_length_buckets``, the stalest bucket's
        evidence is discarded — an adversary cycling message lengths can
        therefore never grow the buffer dict beyond the cap.
        """
        buf = self._miss_buffer.pop(length, None)
        if buf is None:
            buf = []
            if len(self._miss_buffer) >= self.config.max_length_buckets:
                evicted = next(iter(self._miss_buffer))
                del self._miss_buffer[evicted]
                obs.counter("helo.online.buckets_evicted").inc()
        self._miss_buffer[length] = buf
        return buf

    def _handle_miss(self, norm: Tuple[str, ...]) -> Optional[int]:
        self._n_misses += 1
        near = self._nearest_template(norm)
        if near is not None:
            tid, mismatches = near
            if mismatches <= self.config.generalize_max_mismatch:
                self._generalize(tid, norm)
                return tid
        buf = self._buffer_for(len(norm))
        buf.append(norm)
        if len(buf) > self.config.buffer_cap:
            del buf[0]
        return self._try_mint(norm)

    def _nearest_template(
        self, norm: Tuple[str, ...]
    ) -> Optional[Tuple[int, int]]:
        """Closest same-length template: (id, constant mismatches)."""
        best: Optional[Tuple[int, int]] = None
        for tpl in self.table.bucket(len(norm)):
            mism = shared = 0
            for mine, theirs in zip(tpl.tokens, norm):
                if mine is not None:
                    if mine == theirs:
                        shared += 1
                    else:
                        mism += 1
            # Require some shared constant so we never generalize an
            # unrelated template into mush.
            if shared and (best is None or mism < best[1]):
                best = (tpl.template_id, mism)
        return best

    def _generalize(self, tid: int, norm: Tuple[str, ...]) -> None:
        """Wildcard the disagreeing positions of template ``tid``."""
        tpl = self.table[tid]
        merged = tuple(
            mine if (mine is not None and mine == theirs) else
            (mine if mine is None or mine == theirs else None)
            for mine, theirs in zip(tpl.tokens, norm)
        )
        self.table.replace(
            tid,
            MinedTemplate(tokens=merged, support=tpl.support + 1),
        )
        self.updated_ids.append(tid)
        obs.counter("helo.online.generalized").inc()

    def _try_mint(self, norm: Tuple[str, ...]) -> Optional[int]:
        """Mint a new template once the buffer shows stable evidence.

        Evidence = buffered shapes that agree with ``norm`` on at least
        half of their constant positions; ``new_template_min_evidence``
        of them (including duplicates) trigger the mint.
        """
        buf = self._buffer_for(len(norm))
        kin = [b for b in buf if self._kinship(b, norm)]
        if len(kin) < self.config.new_template_min_evidence:
            return None
        tokens: List[Optional[str]] = []
        for pos in range(len(norm)):
            values = {b[pos] for b in kin}
            if len(values) == 1 and "*" not in values:
                tokens.append(norm[pos])
            else:
                tokens.append(None)
        stored = self.table.add(
            MinedTemplate(tokens=tuple(tokens), support=len(kin))
        )
        self._miss_buffer[len(norm)] = [b for b in buf if b not in kin]
        self.updated_ids.append(stored.template_id)
        obs.counter("helo.online.minted").inc()
        return stored.template_id

    @staticmethod
    def _kinship(a: Tuple[str, ...], b: Tuple[str, ...]) -> bool:
        """Do two same-length shapes agree on >= half their tokens?"""
        agree = sum(1 for x, y in zip(a, b) if x == y)
        return agree * 2 >= len(a)

    # -- checkpoint serialization -------------------------------------------

    def state_dict(self) -> dict:
        """Full online state as a JSON-ready dict (crash recovery).

        Captures the template table *and* the miss buffers: evidence
        accumulating toward a future mint survives a restart, so a
        resumed run classifies the remaining stream identically to an
        uninterrupted one.
        """
        return {
            "table": self.table.to_dict(),
            "miss_buffer": {
                str(length): [list(shape) for shape in shapes]
                for length, shapes in self._miss_buffer.items()
            },
            "updated_ids": list(self.updated_ids),
            "n_misses": self._n_misses,
            "config": {
                "new_template_min_evidence":
                    self.config.new_template_min_evidence,
                "generalize_max_mismatch":
                    self.config.generalize_max_mismatch,
                "buffer_cap": self.config.buffer_cap,
                "max_length_buckets": self.config.max_length_buckets,
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineHELO":
        """Rebuild a matcher from :meth:`state_dict` output."""
        helo = cls(
            table=TemplateTable.from_dict(state["table"]),
            config=OnlineConfig(**state["config"]),
        )
        for length, shapes in state["miss_buffer"].items():
            helo._miss_buffer[int(length)] = [
                tuple(shape) for shape in shapes
            ]
        helo.updated_ids = list(state["updated_ids"])
        helo._n_misses = int(state["n_misses"])
        return helo


def bootstrap_online(
    messages: List[str], miner_config: Optional[MinerConfig] = None
) -> OnlineHELO:
    """Convenience: offline-mine a corpus, return the online matcher."""
    miner = HELOMiner(miner_config)
    return OnlineHELO(table=miner.fit(messages))
