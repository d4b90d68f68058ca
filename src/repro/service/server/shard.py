"""Sharded engine pools with consistent-hash routing.

Warm engine state — prepared plans re-bound from the plan cache, live
table layouts, collected statistics — is per *engine instance*, and
an :class:`~repro.service.jobs.EnginePool` hands instances out at random
within a (method, options) key.  Sharding pins each key to one shard of
smaller pools via a consistent-hash ring, so the same kind of work keeps
landing on the same warm engines, and resizing the shard count moves only
``~1/shards`` of the keys (the consistent-hashing property, checked by the
shard tests).

:class:`ShardedEnginePool` is a drop-in for :class:`EnginePool`: ``acquire``
returns an opaque key that ``release`` uses to find the owning shard, which
is exactly the contract ``JobService`` already programs against.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Mapping

from ...errors import QymeraError
from ..jobs import EnginePool, options_fingerprint


class ConsistentHashRing:
    """A hash ring of numbered nodes with virtual replicas.

    ``node_for(key)`` maps a string key to the first node clockwise from
    the key's hash; replicas smooth the load split across nodes.
    """

    def __init__(self, nodes: int, replicas: int = 64) -> None:
        if nodes < 1:
            raise QymeraError("the ring needs at least one node")
        if replicas < 1:
            raise QymeraError("replicas must be positive")
        self.nodes = int(nodes)
        self.replicas = int(replicas)
        points: list[tuple[int, int]] = []
        for node in range(self.nodes):
            for replica in range(self.replicas):
                points.append((self._hash(f"node:{node}:replica:{replica}"), node))
        points.sort()
        self._hashes = [point for point, _node in points]
        self._owners = [node for _point, node in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")

    def node_for(self, key: str) -> int:
        position = bisect.bisect(self._hashes, self._hash(key))
        if position == len(self._hashes):
            position = 0
        return self._owners[position]


class ShardedEnginePool:
    """N engine-pool shards behind one EnginePool-shaped interface.

    Routing key is ``(method, options-fingerprint)`` — the same identity the
    flat pool leases by — so every submit of one workload shape reaches the
    same shard and re-leases its warm engines.
    """

    def __init__(self, shards: int = 4, max_idle_per_key: int = 4, replicas: int = 64) -> None:
        if shards < 1:
            raise QymeraError("ShardedEnginePool needs at least one shard")
        self._shards = [EnginePool(max_idle_per_key=max_idle_per_key) for _ in range(shards)]
        self._ring = ConsistentHashRing(shards, replicas=replicas)

    def shard_for(self, method: str, options: Mapping[str, object]) -> int:
        """Which shard a (method, options) key routes to."""
        fingerprint = options_fingerprint(options)
        return self._ring.node_for(f"{method}|{fingerprint!r}")

    def acquire(self, method: str, options: Mapping[str, object]):
        shard_index = self.shard_for(method, options)
        key, instance = self._shards[shard_index].acquire(method, options)
        return (shard_index, key), instance

    def release(self, key, instance) -> None:
        shard_index, inner_key = key
        self._shards[shard_index].release(inner_key, instance)

    def close(self) -> None:
        for shard in self._shards:
            shard.close()

    @property
    def closed(self) -> bool:
        return all(shard.closed for shard in self._shards)

    def stats(self) -> dict:
        """Roll-up plus per-shard pool counters."""
        shard_stats = [shard.stats() for shard in self._shards]
        total = {
            "created": sum(stats["created"] for stats in shard_stats),
            "reused": sum(stats["reused"] for stats in shard_stats),
            "contended": sum(stats["contended"] for stats in shard_stats),
            "closed": all(stats["closed"] for stats in shard_stats),
            "discarded_on_close": sum(stats["discarded_on_close"] for stats in shard_stats),
        }
        idle: dict[str, int] = {}
        for stats in shard_stats:
            for method, count in stats["idle"].items():
                idle[method] = idle.get(method, 0) + count
        total["idle"] = idle
        total["shards"] = shard_stats
        return total
