"""Message and volume accounting for collectives.

The paper's central communication-scaling argument (§2.2) is stated in
message counts and volumes: a 1D all-to-all needs O(p^2) messages,
while 2D group collectives need O(sqrt(p)) serialized messages per
group and O(p) in total, at the price of up to O(N / sqrt(p))
communicated state per rank.  These counters make both quantities
observable so the scaling benches (and tests) can verify them.

Two message notions are tracked:

* ``serial_messages`` — the latency-chain length of an operation (ring
  steps for a collective, ``k-1`` for an all-to-all participant).  This
  is the count the paper's O(p) vs O(p^2) argument refers to.
* ``transfers`` — every point-to-point send issued, including the
  pipelined concurrent ones.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

__all__ = ["OpStats", "CounterSnapshot", "CommCounters"]


@dataclass
class OpStats:
    """Aggregate statistics for one collective kind."""

    calls: int = 0
    serial_messages: int = 0
    transfers: int = 0
    bytes: int = 0

    def add(
        self, serial_messages: int, transfers: int, nbytes: int, calls: int = 1
    ) -> None:
        self.calls += calls
        self.serial_messages += serial_messages
        self.transfers += transfers
        self.bytes += int(nbytes)

    def as_dict(self) -> dict[str, int]:
        return {
            "calls": self.calls,
            "serial_messages": self.serial_messages,
            "transfers": self.transfers,
            "bytes": self.bytes,
        }


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable point-in-time copy of :class:`CommCounters`.

    Snapshots are taken at iteration boundaries
    (:meth:`~repro.comm.clocks.VirtualClocks.mark_iteration`) so that
    per-iteration traffic can be recovered *exactly* by subtracting
    consecutive snapshots — integer arithmetic, no apportioning.
    """

    by_kind: Mapping[str, OpStats]

    @classmethod
    def empty(cls) -> "CounterSnapshot":
        return cls(by_kind=MappingProxyType({}))

    @classmethod
    def of(cls, counters: "CommCounters") -> "CounterSnapshot":
        return cls(
            by_kind=MappingProxyType(
                {
                    kind: OpStats(s.calls, s.serial_messages, s.transfers, s.bytes)
                    for kind, s in counters.by_kind.items()
                }
            )
        )

    def __sub__(self, prev: "CounterSnapshot") -> "CounterSnapshot":
        """Exact per-kind delta (kinds with no activity are dropped)."""
        delta: dict[str, OpStats] = {}
        for kind, s in self.by_kind.items():
            p = prev.by_kind.get(kind, OpStats())
            d = OpStats(
                calls=s.calls - p.calls,
                serial_messages=s.serial_messages - p.serial_messages,
                transfers=s.transfers - p.transfers,
                bytes=s.bytes - p.bytes,
            )
            if d.calls or d.serial_messages or d.transfers or d.bytes:
                delta[kind] = d
        return CounterSnapshot(by_kind=MappingProxyType(delta))

    # totals mirror CommCounters so either can feed reports
    @property
    def total_serial_messages(self) -> int:
        return sum(s.serial_messages for s in self.by_kind.values())

    @property
    def total_transfers(self) -> int:
        return sum(s.transfers for s in self.by_kind.values())

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.by_kind.values())

    @property
    def total_calls(self) -> int:
        return sum(s.calls for s in self.by_kind.values())

    def __bool__(self) -> bool:
        return any(
            s.calls or s.serial_messages or s.transfers or s.bytes
            for s in self.by_kind.values()
        )

    def summary(self) -> dict[str, dict[str, int]]:
        return {kind: s.as_dict() for kind, s in sorted(self.by_kind.items())}

    def calls_by_kind(self) -> dict[str, int]:
        return {kind: s.calls for kind, s in sorted(self.by_kind.items())}

    # ------------------------------------------------------------------
    # checkpoint support (plain, picklable data — MappingProxyType is
    # not picklable, so snapshots flatten to nested dicts on the way to
    # a checkpoint and rebuild exactly on the way back)
    # ------------------------------------------------------------------
    def as_state(self) -> dict[str, dict[str, int]]:
        """Plain nested-dict form for checkpoints (picklable)."""
        return {kind: s.as_dict() for kind, s in self.by_kind.items()}

    @classmethod
    def from_state(cls, state: Mapping[str, Mapping[str, int]]) -> "CounterSnapshot":
        """Rebuild a snapshot from :meth:`as_state` output."""
        return cls(
            by_kind=MappingProxyType(
                {kind: OpStats(**dict(stats)) for kind, stats in state.items()}
            )
        )


@dataclass
class CommCounters:
    """Per-kind communication statistics for one run."""

    by_kind: dict[str, OpStats] = field(default_factory=lambda: defaultdict(OpStats))

    def record(
        self,
        kind: str,
        serial_messages: int,
        transfers: int,
        nbytes: int,
        calls: int = 1,
    ) -> None:
        """Record ``calls`` collectives of one kind with their summed
        statistics (a stage collective records one call per group)."""
        self.by_kind[kind].add(serial_messages, transfers, nbytes, calls)

    def snapshot(self) -> CounterSnapshot:
        """Immutable copy of the current per-kind statistics."""
        return CounterSnapshot.of(self)

    def reset(self) -> None:
        """Drop all recorded statistics, preserving identity (holders
        of this object observe the reset)."""
        self.by_kind.clear()

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------
    @property
    def total_serial_messages(self) -> int:
        return sum(s.serial_messages for s in self.by_kind.values())

    @property
    def total_transfers(self) -> int:
        return sum(s.transfers for s in self.by_kind.values())

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.by_kind.values())

    @property
    def total_calls(self) -> int:
        return sum(s.calls for s in self.by_kind.values())

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, dict[str, int]]:
        """Plain nested-dict copy of the per-kind statistics."""
        return {kind: s.as_dict() for kind, s in self.by_kind.items()}

    def load_state(self, state: Mapping[str, Mapping[str, int]]) -> None:
        """Restore a :meth:`state_dict` snapshot in place (identity is
        preserved: holders of this object observe the restore)."""
        self.by_kind.clear()
        for kind, stats in state.items():
            self.by_kind[kind] = OpStats(**dict(stats))

    def merge(self, other: "CommCounters") -> None:
        """Accumulate another run's counters into this one."""
        for kind, stats in other.by_kind.items():
            agg = self.by_kind[kind]
            agg.calls += stats.calls
            agg.serial_messages += stats.serial_messages
            agg.transfers += stats.transfers
            agg.bytes += stats.bytes

    def summary(self) -> dict[str, dict[str, int]]:
        """Plain-dict view for reports."""
        return {
            kind: {
                "calls": s.calls,
                "serial_messages": s.serial_messages,
                "transfers": s.transfers,
                "bytes": s.bytes,
            }
            for kind, s in sorted(self.by_kind.items())
        }
