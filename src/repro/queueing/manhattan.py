"""Local Manhattan Collapse scheduling model (paper §3.4.2, Alg. 6).

On the GPU, the collapse assigns one queue vertex per thread of a
block, prefix-sums the degrees in shared memory, and then walks the
block's total edge work with a binary search per edge — giving each
thread (almost) the same number of edges regardless of degree skew.

In the simulator the *functional* expansion is done by
:func:`repro.queueing.frontier.expand_csr`; this module reproduces the
*schedule* so the cost model can charge realistic kernel times:

* :func:`manhattan_schedule` computes, per thread block, the prefix
  sums and per-thread edge counts exactly as Alg. 6 would; its
  ``balance`` output is the efficiency the cost model multiplies into
  the edge rate.
* :func:`vertex_per_thread_balance` models the naive alternative (each
  thread serially expands its own vertex) where a warp's runtime is its
  maximum degree — the behaviour the paper's queue-based kernels avoid.

Both are the one-segment case of a *segmented* schedule
(:func:`manhattan_schedule_segments`, :func:`vertex_per_thread_segments`)
that schedules every rank's queue of a superstep stage in one pass,
given the concatenated degrees and per-rank queue lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "BLOCK_SIZE",
    "WARP_SIZE",
    "ScheduleStats",
    "SegmentedScheduleStats",
    "manhattan_schedule",
    "manhattan_schedule_segments",
    "vertex_per_thread_balance",
    "vertex_per_thread_segments",
]

#: Threads per block the paper's kernels launch with.
BLOCK_SIZE = 256
#: SIMT warp width.
WARP_SIZE = 32


@dataclass(frozen=True)
class ScheduleStats:
    """Work distribution produced by a schedule."""

    total_edges: int
    n_blocks: int
    balance: float  # in (0, 1]: useful work / occupied thread-cycles
    max_thread_edges: int

    @property
    def effective_slowdown(self) -> float:
        return 1.0 / self.balance if self.balance > 0 else float("inf")


@dataclass(frozen=True)
class SegmentedScheduleStats:
    """Per-segment :class:`ScheduleStats` columns of a segmented schedule.

    Entry ``i`` of every array is the statistic of segment ``i`` — the
    same values the one-segment schedule computes for that segment's
    degrees alone (an empty segment: zero work, balance 1.0).
    """

    total_edges: np.ndarray  # int64
    n_blocks: np.ndarray  # int64
    balance: np.ndarray  # float64, in (0, 1]
    max_thread_edges: np.ndarray  # int64

    def __getitem__(self, i: int) -> ScheduleStats:
        return ScheduleStats(
            total_edges=int(self.total_edges[i]),
            n_blocks=int(self.n_blocks[i]),
            balance=float(self.balance[i]),
            max_thread_edges=int(self.max_thread_edges[i]),
        )


def _segments(degrees, lengths=None) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(degrees, lengths)`` as int64 arrays; ``lengths=None``
    is the one-segment case."""
    degrees = np.asarray(degrees, dtype=np.int64)
    if lengths is None:
        lengths = np.array([degrees.size], dtype=np.int64)
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or (lengths.size and lengths.min() < 0):
            raise ValueError("segment lengths must be a 1-D array of counts >= 0")
        if int(lengths.sum()) != degrees.size:
            raise ValueError(
                f"segment lengths sum to {int(lengths.sum())}, "
                f"but {degrees.size} degrees were given"
            )
    if degrees.size and degrees.min() < 0:
        raise ValueError("negative degree in queue")
    return degrees, lengths


def _tile(lengths: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Tile every segment with ``width``-sized chunks (the last one per
    segment may be short); return ``(chunk_starts, chunks_per_segment)``
    with the starts as positions into the concatenated degrees."""
    n_chunks = -(-lengths // width)
    if lengths.size == 1:
        return np.arange(0, int(lengths[0]), width, dtype=np.int64), n_chunks
    seg_start = np.cumsum(lengths) - lengths
    chunk_seg = np.repeat(np.arange(lengths.size), n_chunks)
    first = np.cumsum(n_chunks) - n_chunks
    within = np.arange(chunk_seg.size, dtype=np.int64) - first[chunk_seg]
    return seg_start[chunk_seg] + within * width, n_chunks


def _per_segment(chunk_vals: np.ndarray, n_chunks: np.ndarray, ufunc) -> np.ndarray:
    """Reduce per-chunk values over each segment's chunks (0 if none)."""
    if n_chunks.size == 1:
        return np.array([ufunc.reduce(chunk_vals, initial=0)], dtype=np.int64)
    out = np.zeros(n_chunks.size, dtype=np.int64)
    nonempty = np.flatnonzero(n_chunks)
    if nonempty.size:
        first = np.cumsum(n_chunks) - n_chunks
        out[nonempty] = ufunc.reduceat(chunk_vals, first[nonempty])
    return out


def _balance(total: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    """``total / occupied`` (1.0 where nothing is occupied), floored at
    1e-6 — the scalar schedules' formula, element-wise."""
    balance = np.divide(
        total, occupied, out=np.ones(total.size), where=occupied > 0
    )
    return np.maximum(balance, 1e-6, out=balance)


def manhattan_schedule_segments(
    degrees: np.ndarray, lengths: Optional[np.ndarray], block_size: int = BLOCK_SIZE
) -> SegmentedScheduleStats:
    """:func:`manhattan_schedule` of every segment in one pass.

    ``degrees`` is the concatenation of the segments' queues and
    ``lengths`` their sizes (one segment per rank: every rank's queue
    of one superstep stage; ``None`` means one segment).  Blocks never
    span segments; all block sums come from one ``np.add.reduceat``,
    and every integer total is exactly the one-segment result.
    """
    degrees, lengths = _segments(degrees, lengths)
    starts, n_blocks = _tile(lengths, block_size)
    block_work = (
        np.add.reduceat(degrees, starts) if starts.size else degrees[:0]
    )
    per_thread = -(-block_work // block_size)  # ceil per block
    total = _per_segment(block_work, n_blocks, np.add)
    occupied = _per_segment(per_thread, n_blocks, np.add) * block_size
    return SegmentedScheduleStats(
        total_edges=total,
        n_blocks=n_blocks,
        balance=_balance(total, occupied),
        max_thread_edges=_per_segment(per_thread, n_blocks, np.maximum),
    )


def manhattan_schedule(
    degrees: np.ndarray, block_size: int = BLOCK_SIZE
) -> ScheduleStats:
    """Model Alg. 6: per block, edges are strided evenly over threads.

    Within a block the prefix sum + binary search hands thread ``t``
    edges ``t, t + BS, t + 2 BS, ...`` of the block total, so the
    per-thread imbalance is at most one edge; across blocks, the last
    partial block and ragged totals create the only inefficiency.  The
    residual is tiny — the paper calls the overhead "near-negligible" —
    and this model shows exactly why.

    The one-segment case of :func:`manhattan_schedule_segments`.
    """
    return manhattan_schedule_segments(degrees, None, block_size)[0]


def vertex_per_thread_segments(
    degrees: np.ndarray, lengths: Optional[np.ndarray], warp_size: int = WARP_SIZE
) -> SegmentedScheduleStats:
    """:func:`vertex_per_thread_balance` of every segment in one pass
    (``lengths`` as in :func:`manhattan_schedule_segments`).

    Warps never span segments.  A segment's last warp is short instead
    of zero-padded; degrees are non-negative, so its maximum is the
    padded warp's maximum.
    """
    degrees, lengths = _segments(degrees, lengths)
    starts, n_warps = _tile(lengths, warp_size)
    warp_max = (
        np.maximum.reduceat(degrees, starts) if starts.size else degrees[:0]
    )
    total = _per_segment(degrees, lengths, np.add)
    occupied = _per_segment(warp_max, n_warps, np.add) * warp_size
    return SegmentedScheduleStats(
        total_edges=total,
        n_blocks=n_warps,
        balance=_balance(total, occupied),
        max_thread_edges=_per_segment(warp_max, n_warps, np.maximum),
    )


def vertex_per_thread_balance(
    degrees: np.ndarray, warp_size: int = WARP_SIZE
) -> ScheduleStats:
    """Model the naive kernel: thread ``t`` expands vertex ``t`` alone.

    A warp retires when its slowest lane finishes, so each warp costs
    ``warp_size * max(degree in warp)`` thread-cycles.  On power-law
    queues this collapses to the hub degree — the load imbalance the
    Manhattan Collapse exists to fix.

    The one-segment case of :func:`vertex_per_thread_segments`.
    """
    return vertex_per_thread_segments(degrees, None, warp_size)[0]
