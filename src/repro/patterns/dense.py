"""Dense 2D communication pattern (paper §3.3.1, Alg. 2, Fig. 2).

Dense exchanges communicate *every* vertex state along the groups,
whether or not it changed:

* **push** — AllReduce over each *column* group (combining all pushed
  contributions to each ghost vertex, whose matrix column spans the
  column group) followed by Broadcasts over each *row* group to give
  owners the final values;
* **pull** — AllReduce over each *row* group (combining the partial
  gathers of each owned vertex, whose matrix row spans the row group)
  followed by Broadcasts over each *column* group to refresh ghosts.

When ``R == C``, the broadcast root in each group is the diagonal rank
(its row and column GID ranges coincide).  When ``R != C``, a group
needs several broadcasts — one per overlapping range — which the paper
aggregates into one NCCL group call; :func:`dense_plan` computes
exactly those overlap segments for any grid shape, once per engine.

Each phase is one stage collective over all of its groups
(:meth:`~repro.comm.collectives.Communicator.allreduce_stage`, then
:meth:`~repro.comm.collectives.Communicator.grouped_broadcast_stage`):
the groups' data still moves group by group, but the cost model,
clocks and counters are charged once per stage, bit-identically to one
call per group.

Because local IDs of a group are consecutive (paper Table 2), every
transfer here is a contiguous state-array slice: the whole exchange
needs only offsets and lengths, no index buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.collectives import BroadcastCall
from ..core.engine import Engine

__all__ = [
    "DensePlan",
    "dense_plan",
    "dense_push",
    "dense_pull",
    "dense_exchange",
    "dense_exchange_lanes",
]


@dataclass(frozen=True)
class _Segment:
    """One broadcast of a group's second phase: the root's ``src``
    window slice goes to each ``(rank, slice)`` destination."""

    root: int
    src: slice
    dests: tuple[tuple[int, slice], ...]


@dataclass(frozen=True)
class DensePlan:
    """Everything a dense exchange needs besides the state's values.

    One AllReduce stage over ``reduce_groups`` on each rank's
    ``reduce_window``, then one grouped-broadcast stage over
    ``bcast_groups`` whose group ``g`` runs the ``segments[g]``
    broadcasts.  A pure function of the engine's partition and grid,
    so it is built once per engine (and per direction).
    """

    reduce_groups: np.ndarray
    reduce_window: tuple[slice, ...]
    reduce_share: int
    bcast_groups: np.ndarray
    segments: tuple[tuple[_Segment, ...], ...]
    bcast_share: int


def _segments(engine: Engine, along: str, group_id: int) -> tuple[_Segment, ...]:
    """Broadcasts distributing reduced values across one group.

    ``along="row"``: within row group ``group_id``, each rank holding a
    column range that overlaps the group's row range roots a broadcast
    of that overlap into everyone's *row* window (push second phase).

    ``along="col"``: within column group ``group_id``, each rank whose
    row range overlaps the group's column range roots a broadcast into
    everyone's *col* window (pull second phase).
    """
    part, grid = engine.partition, engine.grid
    if along == "row":
        ranks = grid.row_group_ranks(group_id)
        gs, ge = part.row_range(group_id)
        others = [
            (part.col_range(j), grid.rank_of(group_id, j)) for j in range(grid.R)
        ]
    else:
        ranks = grid.col_group_ranks(group_id)
        gs, ge = part.col_range(group_id)
        others = [
            (part.row_range(i), grid.rank_of(i, group_id)) for i in range(grid.C)
        ]
    out = []
    for (os_, oe), root in others:
        lo, hi = max(gs, os_), min(ge, oe)
        if lo >= hi:
            continue
        lm_root = engine.ctx(root).localmap
        # The root reads its opposite window; every other member
        # writes its own ``along`` window.  Overlap GIDs share one LID
        # on the root (its map Type is 1/2 there), so the root's own
        # ``along`` window already holds the reduced values.
        src_off = lm_root.col_offset if along == "row" else lm_root.row_offset
        dests = []
        for r in ranks:
            if r == root:
                continue
            lm = engine.ctx(r).localmap
            off = lm.row_offset if along == "row" else lm.col_offset
            dests.append((r, slice(off + (lo - gs), off + (hi - gs))))
        src = slice(src_off + (lo - os_), src_off + (hi - os_))
        out.append(_Segment(root, src, tuple(dests)))
    return tuple(out)


def dense_plan(engine: Engine, direction: str) -> DensePlan:
    """The engine's cached :class:`DensePlan` for ``"push"`` (column
    AllReduce, row broadcasts) or ``"pull"`` (row AllReduce, column
    broadcasts); a regridded engine builds its own."""
    if direction not in ("push", "pull"):
        raise ValueError(f"direction must be 'push' or 'pull', got {direction!r}")
    plan = engine._dense_plans.get(direction)
    if plan is None:
        grid = engine.grid
        reduce_axis, bcast_axis = (
            ("col", "row") if direction == "push" else ("row", "col")
        )
        plan = engine._dense_plans[direction] = DensePlan(
            reduce_groups=getattr(grid, f"{reduce_axis}_group_matrix"),
            reduce_window=tuple(
                getattr(ctx, f"{reduce_axis}_slice") for ctx in engine
            ),
            reduce_share=engine.stage_nic_sharing(reduce_axis),
            bcast_groups=getattr(grid, f"{bcast_axis}_group_matrix"),
            segments=tuple(
                _segments(engine, bcast_axis, g)
                for g in range(grid.C if bcast_axis == "row" else grid.R)
            ),
            bcast_share=engine.stage_nic_sharing(bcast_axis),
        )
    return plan


def _run(engine: Engine, plan: DensePlan, name: str, op: str) -> None:
    """One AllReduce stage, then one grouped-broadcast stage."""
    states = [ctx.get(name) for ctx in engine]
    engine.comm.allreduce_stage(
        plan.reduce_groups,
        [s[w] for s, w in zip(states, plan.reduce_window)],
        op=op,
        nic_sharing=plan.reduce_share,
    )
    calls = [
        [
            BroadcastCall(
                src=states[seg.root][seg.src],
                dests=[states[r][sl] for r, sl in seg.dests],
            )
            for seg in group
        ]
        for group in plan.segments
    ]
    engine.comm.grouped_broadcast_stage(
        plan.bcast_groups, calls, nic_sharing=plan.bcast_share
    )


def dense_push(engine: Engine, name: str, op: str = "min") -> None:
    """Dense push: column-group AllReduce, then row-group Broadcasts."""
    _run(engine, dense_plan(engine, "push"), name, op)


def dense_pull(engine: Engine, name: str, op: str = "sum") -> None:
    """Dense pull: row-group AllReduce, then column-group Broadcasts."""
    _run(engine, dense_plan(engine, "pull"), name, op)


def dense_exchange(
    engine: Engine, name: str, direction: str, op: str
) -> None:
    """Dispatch to :func:`dense_push` or :func:`dense_pull`."""
    if direction == "push":
        dense_push(engine, name, op=op)
    elif direction == "pull":
        dense_pull(engine, name, op=op)
    else:
        raise ValueError(f"direction must be 'push' or 'pull', got {direction!r}")


def dense_exchange_lanes(
    engine: Engine, name: str, direction: str, op: str, lanes: np.ndarray
) -> None:
    """Dense exchange over a subset of a 2-D state's query lanes.

    Every transfer in the dense patterns is an axis-0 slice of the
    state array, so a full ``(N_T, k)`` lane state flows through
    :func:`dense_exchange` unchanged — one AllReduce per group carries
    all k columns at once (the α amortization of query batching).
    When only some lanes are still live, this wrapper packs the active
    columns into a pooled ``(N_T, L)`` scratch state, runs the ordinary
    exchange on it, and unpacks — still one collective per group, sized
    to the live lanes.

    Per lane the reduction is bit-identical to a 1-D exchange of that
    lane's column: the group AllReduce reduces elementwise over the
    member axis, so each column sees exactly the 1-D combine order.
    """
    lanes = np.asarray(lanes, dtype=np.int64)
    state0 = engine.ctx(0).get(name)
    k = state0.shape[1]
    if lanes.size == k:
        # All lanes live: exchange the state array directly.
        dense_exchange(engine, name, direction, op)
        return
    tmp = f"{name}#lanes"

    def pack(ctx) -> None:
        state = ctx.get(name)
        buf = ctx.scratch_pool(state.dtype).take2d(state.shape[0], lanes.size)
        buf[...] = state[:, lanes]
        ctx.adopt(tmp, buf)

    engine.foreach(pack)
    dense_exchange(engine, tmp, direction, op)

    def unpack(ctx) -> None:
        state = ctx.get(name)
        buf = ctx.get(tmp)
        state[:, lanes] = buf
        ctx.free(tmp)
        ctx.scratch_pool(state.dtype).give(buf)

    engine.foreach(unpack)
