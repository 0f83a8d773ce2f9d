"""Ingestion routing: tenant keying, bounded queues, dead-lettering.

The router is the fleet's front door: every incoming batch is split by
tenant (:func:`rack_subtree_key` for topology-aligned sharding,
:func:`hashed_tenant_key` for an arbitrary shard count), offered to that
tenant's bounded queue, and — when the shard is fenced or unknown —
diverted to a bounded dead-letter ring of batch segments instead of
blocking or poisoning siblings.  Window checks and backpressure on a
full queue are the shard's (stride-sampling, severe-always) policy; the
router just counts the verdicts.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro import obs
from repro.columnar import RecordBatch
from repro.fleet.policy import FleetPolicy
from repro.fleet.shard import Shard, ShardState

__all__ = [
    "IngestionRouter",
    "hashed_tenant_key",
    "partition_faults",
    "rack_subtree_key",
]


def rack_subtree_key(depth: int = 2) -> Callable[[str], str]:
    """Key a location to its rack subtree prefix.

    BlueGene-style locations (``R05-M0-N0-C:J00-U00``) are hierarchical;
    ``depth=2`` shards by rack-midplane (``R05-M0``), ``depth=1`` by
    rack.  Returns a function over *location strings* (apply it to
    ``record.location`` or a fault's ``locations[0]``).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")

    def key(location: str) -> str:
        return "-".join(location.split("-")[:depth])

    return key


def hashed_tenant_key(n_tenants: int) -> Callable[[str], str]:
    """Key a location to one of ``n_tenants`` stable hash buckets.

    CRC32 (not ``hash()``) so the assignment survives interpreter
    restarts and ``PYTHONHASHSEED`` — the same log always shards the
    same way.
    """
    if n_tenants < 1:
        raise ValueError("n_tenants must be >= 1")
    width = len(str(n_tenants - 1))

    def key(location: str) -> str:
        bucket = zlib.crc32(location.encode("utf-8")) % n_tenants
        return f"t{bucket:0{width}d}"

    return key


def partition_faults(
    faults: Sequence, key: Callable[[str], str]
) -> Dict[str, list]:
    """Group ground-truth faults by the tenant of their first location."""
    out: Dict[str, list] = {}
    for f in faults:
        locs = getattr(f, "locations", ()) or ()
        if not locs:
            continue
        out.setdefault(key(locs[0]), []).append(f)
    return out


class IngestionRouter:
    """Routes records to shard queues; fenced/unknown → dead letter."""

    def __init__(
        self,
        shards: Dict[str, Shard],
        key: Callable[[str], str],
        policy: Optional[FleetPolicy] = None,
    ) -> None:
        self.shards = shards
        self.key = key
        self.policy = policy or FleetPolicy()
        #: ``(reason, tenant, RecordBatch)`` segments, oldest first,
        #: holding at most ``policy.dead_letter_cap`` records in all
        self.dead_letter: deque = deque()
        self._dead_depth = 0
        self.stats = {
            "routed": 0,
            "accepted": 0,
            "shed": 0,
            "rejected": 0,
            "dead_lettered": 0,
        }

    def route_batch(self, batch: RecordBatch) -> dict:
        """Place a whole batch; returns ``{verdict: count}``.

        The tenant key runs once per *pool location*, not per record
        (a batch has thousands of rows over a handful of locations);
        each tenant's rows then travel to its shard as one sub-batch,
        in arrival order, and enqueue as a single segment via
        :meth:`Shard.offer_batch`.  Rows for an unknown or fenced
        tenant go to the dead-letter ring instead.
        """
        totals = {"accepted": 0, "rejected": 0, "shed": 0,
                  "dead-letter": 0}
        if not len(batch):
            return totals
        self.stats["routed"] += len(batch)
        tenant_ix: Dict[str, int] = {}
        codes = np.empty(len(batch.loc_pool), dtype=np.int64)
        for i, loc in enumerate(batch.loc_pool):
            t = self.key(loc)
            codes[i] = tenant_ix.setdefault(t, len(tenant_ix))
        row_codes = codes[batch.loc_ids]
        for tc, tenant in enumerate(tenant_ix):
            rows = np.flatnonzero(row_codes == tc)
            if not rows.size:
                continue
            sub = batch if len(tenant_ix) == 1 else batch.take(rows)
            shard = self.shards.get(tenant)
            if shard is None or shard.state is ShardState.QUARANTINED:
                reason = "unknown-tenant" if shard is None else "fenced"
                self.dead_letter_batch(sub, reason, tenant)
                totals["dead-letter"] += len(sub)
                continue
            shed_before = dict(shard.shed_by_severity)
            counts = shard.offer_batch(sub)
            for verdict, c in counts.items():
                self.stats[verdict] = self.stats.get(verdict, 0) + c
                totals[verdict] += c
            if counts["accepted"] and shard.pending_trace is None:
                from repro.obs.forensics import mint_trace

                shard.pending_trace = mint_trace(tenant=tenant)
            if counts["shed"]:
                obs.counter("fleet.records_shed").inc(counts["shed"])
                obs.counter("fleet.records_shed").labels(
                    tenant=tenant
                ).inc(counts["shed"])
                for name, c in shard.shed_by_severity.items():
                    d = c - shed_before.get(name, 0)
                    if d:
                        obs.counter("fleet.records_shed").labels(
                            severity=name
                        ).inc(d)
        return totals

    def dead_letter_batch(
        self, batch: RecordBatch, reason: str, tenant: str
    ) -> None:
        """Put a batch on the dead-letter ring as one segment.

        Past ``dead_letter_cap`` records the oldest rows are trimmed
        first (whole segments, then the front of the oldest one left).
        """
        n = len(batch)
        if not n:
            return
        self.dead_letter.append((reason, tenant, batch))
        self._dead_depth += n
        excess = self._dead_depth - self.policy.dead_letter_cap
        while excess > 0:
            old_reason, old_tenant, old = self.dead_letter[0]
            if len(old) <= excess:
                self.dead_letter.popleft()
                cut = len(old)
            else:
                self.dead_letter[0] = (
                    old_reason, old_tenant, old.slice(excess, len(old))
                )
                cut = excess
            self._dead_depth -= cut
            excess -= cut
        self.stats["dead_lettered"] += n
        obs.counter("fleet.dead_letters").inc(n)
        obs.counter("fleet.dead_letters").labels(reason=reason).inc(n)

    def info(self) -> dict:
        """The ``/fleet`` router section."""
        return dict(self.stats, dead_letter_depth=self._dead_depth)
