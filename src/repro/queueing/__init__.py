"""Work queues, frontier expansion, and GPU load-balance models."""

from .frontier import StackedCSR, expand_block, expand_csr
from .hashtable import HashTable, histogram_via_hash_table
from .manhattan import (
    BLOCK_SIZE,
    WARP_SIZE,
    ScheduleStats,
    SegmentedScheduleStats,
    manhattan_schedule,
    manhattan_schedule_segments,
    vertex_per_thread_balance,
    vertex_per_thread_segments,
)

__all__ = [
    "StackedCSR",
    "expand_block",
    "expand_csr",
    "HashTable",
    "histogram_via_hash_table",
    "BLOCK_SIZE",
    "WARP_SIZE",
    "ScheduleStats",
    "SegmentedScheduleStats",
    "manhattan_schedule",
    "manhattan_schedule_segments",
    "vertex_per_thread_balance",
    "vertex_per_thread_segments",
]
