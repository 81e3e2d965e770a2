"""Deterministic lake sharding: :class:`LakePartitioner` and :class:`LakeShard`.

A large lake is indexed and served in **shards** — disjoint subsets of its
tables.  A :class:`LakeShard` is a cheap *view*: it names its member tables
and materialises a :class:`~repro.datalake.lake.DataLake` that shares the
parent's :class:`~repro.datalake.table.Table` objects without copying a cell.
Because shard lakes are content-fingerprinted exactly like any other lake,
everything built on fingerprints composes per shard for free: the
:class:`~repro.serving.store.IndexStore` persists one entry per shard, and
mutating one shard changes only that shard's fingerprint, so only that
shard's index is rebuilt and re-persisted.

Two partitioning strategies, both deterministic across processes and runs:

* ``"hash"`` (default) — each table is assigned by a stable hash of its
  *name*.  Assignment is mutation-stable: adding or removing a table never
  moves any other table between shards, which keeps incremental refreshes
  local to the mutated shard.
* ``"size"`` — size-balanced greedy assignment (largest table first onto the
  least-loaded shard, by cell count).  Shards carry near-equal build cost,
  but a mutation can rebalance tables across shards, touching more shards on
  refresh.  Prefer it for one-shot builds of skewed lakes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.datalake.lake import DataLake
from repro.datalake.table import Table
from repro.utils.errors import DataLakeError

#: Partitioning strategies understood by :class:`LakePartitioner`.
PARTITION_STRATEGIES = ("hash", "size")


def _stable_shard_hash(name: str) -> int:
    """Process-stable integer hash of a table name (no PYTHONHASHSEED drift)."""
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class LakeShard:
    """One shard of a partitioned lake: a named, ordered subset of its tables.

    Table objects are shared with the parent lake — materialising the shard
    via :meth:`to_lake` copies references, never cell values — so a shard is
    always a live view of the parent's current content.
    """

    parent: DataLake
    shard_id: int
    num_shards: int
    strategy: str
    #: Member table names, in the parent lake's insertion order.
    table_names: tuple[str, ...]

    @property
    def num_tables(self) -> int:
        return len(self.table_names)

    @property
    def is_empty(self) -> bool:
        return not self.table_names

    def tables(self) -> list[Table]:
        """The member tables (shared objects, parent insertion order)."""
        return [self.parent.get(name) for name in self.table_names]

    def to_lake(self) -> DataLake:
        """Materialise the shard as a lake sharing the parent's tables.

        The name encodes the shard topology for readability only — lake
        fingerprints deliberately exclude the name, so a shard lake's
        fingerprint is purely its members' content and persisted shard
        indexes are shared with any equal-content lake.
        """
        return DataLake(
            self.tables(),
            name=f"{self.parent.name}#shard{self.shard_id}of{self.num_shards}",
        )

    def table_fingerprints(self) -> dict[str, str]:
        """``name -> content fingerprint`` of the member tables, in order."""
        return {
            name: self.parent.get(name).content_fingerprint()
            for name in self.table_names
        }

    def fingerprint(self) -> str:
        """Content fingerprint of the shard (same digest as :meth:`to_lake`).

        Depends only on the member tables' content — not on shard topology —
        so mutating one table changes exactly one shard's fingerprint and
        re-sharding an unchanged lake re-addresses existing persisted
        entries instead of invalidating them.
        """
        hasher = hashlib.sha256()
        for name in self.table_names:
            hasher.update(self.parent.get(name).content_fingerprint().encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"LakeShard({self.shard_id}/{self.num_shards}, "
            f"strategy={self.strategy!r}, tables={self.num_tables})"
        )


class LakePartitioner:
    """Splits a lake into ``num_shards`` deterministic :class:`LakeShard` views."""

    def __init__(self, num_shards: int, *, strategy: str = "hash") -> None:
        if num_shards < 1:
            raise DataLakeError(f"num_shards must be >= 1, got {num_shards}")
        if strategy not in PARTITION_STRATEGIES:
            raise DataLakeError(
                f"partition strategy must be one of {'/'.join(PARTITION_STRATEGIES)}, "
                f"got {strategy!r}"
            )
        self.num_shards = int(num_shards)
        self.strategy = strategy

    def shard_id_of(self, table_name: str) -> int:
        """The shard a table name maps to under the ``"hash"`` strategy.

        Only the hash strategy is name-addressable — size-balanced assignment
        depends on the whole lake's contents, so it has no per-name answer.
        """
        if self.strategy != "hash":
            raise DataLakeError(
                f"shard_id_of is only defined for the 'hash' strategy, "
                f"not {self.strategy!r}"
            )
        return _stable_shard_hash(table_name) % self.num_shards

    def _assignment(self, lake: DataLake) -> dict[str, int]:
        """``table name -> shard id`` for every table of ``lake``."""
        if self.strategy == "hash":
            return {name: self.shard_id_of(name) for name in lake.table_names()}
        # Size-balanced: largest first onto the least-loaded shard (LPT).
        # Cell count approximates build cost; ties break by name then shard
        # id, so the assignment is a pure function of the lake's contents.
        sized = sorted(
            ((table.num_rows * table.num_columns, table.name) for table in lake),
            key=lambda item: (-item[0], item[1]),
        )
        loads = [0] * self.num_shards
        assignment: dict[str, int] = {}
        for cells, name in sized:
            shard_id = min(range(self.num_shards), key=lambda i: (loads[i], i))
            assignment[name] = shard_id
            loads[shard_id] += cells
        return assignment

    def partition(self, lake: DataLake) -> list[LakeShard]:
        """Partition ``lake`` into exactly ``num_shards`` disjoint shards.

        Every table lands in exactly one shard; shards may be empty (more
        shards than tables).  Member order within a shard follows the lake's
        insertion order, so partitioning is stable under re-partition of an
        unchanged lake.
        """
        assignment = self._assignment(lake)
        members: list[list[str]] = [[] for _ in range(self.num_shards)]
        for name in lake.table_names():  # lake insertion order within shards
            members[assignment[name]].append(name)
        return [
            LakeShard(
                parent=lake,
                shard_id=shard_id,
                num_shards=self.num_shards,
                strategy=self.strategy,
                table_names=tuple(names),
            )
            for shard_id, names in enumerate(members)
        ]
