"""2D communication patterns: dense, sparse, switching, complex."""

from .dense import (
    DensePlan,
    dense_exchange,
    dense_exchange_lanes,
    dense_plan,
    dense_pull,
    dense_push,
)
from .sparse import (
    LANE_PAIR_DTYPE,
    PAIR_DTYPE,
    LaneSparseResult,
    SparseResult,
    allgatherv_ranks,
    propagate_active_pull,
    sparse_pull,
    sparse_push,
    sparse_push_lanes,
)
from .switching import SwitchPolicy

__all__ = [
    "DensePlan",
    "dense_exchange",
    "dense_exchange_lanes",
    "dense_plan",
    "dense_pull",
    "dense_push",
    "LANE_PAIR_DTYPE",
    "PAIR_DTYPE",
    "LaneSparseResult",
    "SparseResult",
    "allgatherv_ranks",
    "propagate_active_pull",
    "sparse_pull",
    "sparse_push",
    "sparse_push_lanes",
    "SwitchPolicy",
]
