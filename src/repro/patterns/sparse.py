"""Sparse queue-based 2D communication (paper §3.3.2, Algs. 3-5).

Sparse exchanges trade queue-building compute for communication volume
proportional to the number of *actual* state updates.  Buffers hold
``{vertex GID, state value}`` pairs; communication uses AllGatherv
along the reduction group followed by the mirrored broadcast stage,
exactly as Alg. 3:

* **push**: queue of updated ghost (column) vertices -> AllGatherv over
  the column group -> ``ReduceQueue`` -> queue of updated *owned* (row)
  vertices -> exchange over the row group -> final assignment.
* **pull**: the same with row/column roles swapped (partial gathers
  reduce over the row group first, ghosts refresh over column groups).

``ReduceQueue`` change-detection (Alg. 5 lines 8-12) runs through the
fused :func:`repro.kernels.scatter_reduce` kernel: one segmented
reduction that applies the op and returns the unique changed LIDs in
the same pass.  A rank's own
locally-updated row vertices are unioned into the second-stage queue
(its own echoes produce ``new == old`` in the reduce, exactly as in
the CUDA code, but their values still must travel to the rest of the
row group).

Each stage runs in three phases: **build** one rank-major send array
(rank ``r``'s buffer is a slice of it), run **one stage collective**
over every group
(:meth:`~repro.comm.collectives.Communicator.allgatherv_stage`, which
returns one receive buffer per group, shared by its members), and
**apply** the received buffers.  :func:`sparse_push` and
:func:`sparse_push_lanes` are *rank-fused*: the build is one gather
over the rank-stacked state (:meth:`~repro.core.engine.Engine.stacked`)
and the apply is one reduction over every rank's copy of its group's
buffer, rank-major — each rank is still charged its own kernels (see
"Rank-fused stages" and "Stage-level collectives" in docs/PERF.md).
:func:`sparse_pull` and :func:`propagate_active_pull` still build and
apply through per-rank closures on the rank executor
(:mod:`repro.exec`), reading the shared group buffers.  Either way the
result is bit-identical to the historical fully-serial interleaving.

On an overlapped engine (``Engine(overlap=True)``) each stage is
*issued* split-phase instead: data and counters materialize at issue,
the apply runs against the in-flight buffers, and the comm-time charge
lands at the trailing ``wait`` — hiding the apply compute behind the
stage's exchanges.  Values, counters,
and the compute/comm lanes stay bit-identical to a blocking run; only
exposed time shrinks (see docs/MODEL.md).

The functions return a :class:`SparseResult` carrying the per-rank
active row-vertex queues (paper §3.4.1) and the global count of
vertices whose state changed — the quantity the dense/sparse switch
policy consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..comm.collectives import Communicator
from ..core.context import RankContext
from ..core.engine import Engine
from ..kernels import scatter_reduce, scatter_reduce_lanes, unique_bounded

__all__ = [
    "LANE_PAIR_DTYPE",
    "PAIR_DTYPE",
    "LaneSparseResult",
    "SparseResult",
    "allgatherv_ranks",
    "sparse_push",
    "sparse_push_lanes",
    "sparse_pull",
    "propagate_active_pull",
]

#: One queue entry: {vertex GID, state value} (paper Alg. 4 lines 6-7).
PAIR_DTYPE = np.dtype([("gid", np.int64), ("val", np.float64)])

#: A lane-tagged queue entry for batched multi-source exchanges: the
#: same pair plus the query lane the update belongs to.
LANE_PAIR_DTYPE = np.dtype(
    [("gid", np.int64), ("lane", np.int64), ("val", np.float64)]
)

#: Custom reduction hook: (state, lids, vals) -> unique changed lids.
ReduceFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

_EMPTY_I64 = np.empty(0, dtype=np.int64)


@dataclass
class SparseResult:
    """Outcome of one sparse exchange."""

    active_row: list[np.ndarray]  # per-rank row-vertex LIDs updated
    n_updated: int  # unique vertices whose state changed globally


def _gather_stage(engine: Engine, groups: np.ndarray, send, bounds, nic_sharing: int):
    """One stage of group AllGathervs, blocking or split-phase per the
    engine; returns ``(recv, recv_bounds, handle)``.

    ``recv`` is the group-major output of
    :meth:`~repro.comm.collectives.Communicator.allgatherv_stage`
    (group ``g``'s buffer is ``recv[recv_bounds[g]:recv_bounds[g +
    1]]``).  With ``engine.overlap`` the stage is *issued* split-phase —
    data and counters materialize now, the comm-time charge is deferred
    — and the caller passes ``handle`` to :func:`_wait` after the apply
    phase, hiding the apply compute behind the in-flight exchanges.
    Blocking engines pay the comm charge here (``handle`` is ``None``);
    either way the buffers are bit-identical.
    """
    if engine.overlap:
        h = engine.comm.start_allgatherv_stage(
            groups, send, bounds, nic_sharing=nic_sharing
        )
        return (*h.result, h)
    recv, recv_bounds = engine.comm.allgatherv_stage(
        groups, send, bounds, nic_sharing=nic_sharing
    )
    return recv, recv_bounds, None


def _wait(engine: Engine, handle) -> None:
    """Complete an in-flight stage (no-op on blocking runs)."""
    if handle is not None:
        engine.comm.wait(handle)


def _stream(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank arrays -> one rank-major send array and its bounds."""
    Communicator._check_dtypes(range(len(parts)), parts)
    # Naming the (checked) dtype spares NumPy a field-by-field
    # promotion pass on structured buffers.
    return np.concatenate(parts, dtype=parts[0].dtype), _bounds(
        np.array([a.shape[0] for a in parts], dtype=np.int64)
    )


def _rank_views(groups: np.ndarray, recv: np.ndarray, rb: np.ndarray) -> list:
    """Group-major stage output -> every rank's receive buffer, one
    view per group shared by its members (as :meth:`allgatherv`
    shares its result)."""
    out: list = [None] * groups.size
    for g, ranks in enumerate(groups.tolist()):
        buf = recv[rb[g] : rb[g + 1]]
        for r in ranks:
            out[r] = buf
    return out


def _replicated(
    groups: np.ndarray, recv: np.ndarray, rb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group-major stage output -> the rank-major replicated stream
    (rank ``r``'s slice is its group's buffer) and its ``(p + 1,)``
    bounds, for an apply that runs over every rank's state at once."""
    row_of = np.empty(groups.size, dtype=np.int64)
    row_of[groups] = np.arange(groups.shape[0])[:, None]
    lengths = np.diff(rb)[row_of]
    bounds = _bounds(lengths)
    idx = np.repeat(rb[:-1][row_of] - bounds[:-1], lengths)
    idx += np.arange(idx.size)
    return np.take(recv, idx, axis=0), bounds


def _gather_ranks(engine: Engine, groups: np.ndarray, parts, nic_sharing: int):
    """:func:`_gather_stage` of per-rank ``parts``; returns every rank's
    receive buffer (see :func:`_rank_views`) and the handle."""
    recv, rb, handle = _gather_stage(engine, groups, *_stream(parts), nic_sharing)
    return _rank_views(groups, recv, rb), handle


def allgatherv_ranks(
    engine: Engine, groups: np.ndarray, parts: list[np.ndarray]
) -> list[np.ndarray]:
    """One blocking stage AllGatherv of per-rank ``parts`` over the rows
    of ``groups``; returns every rank's receive buffer.

    The stage form of one ``engine.comm.allgatherv(ranks, [parts[r] for
    r in ranks])`` per group: the members of a group share one buffer,
    their parts concatenated in group-row order, with the same
    accounting.
    """
    return _rank_views(
        groups, *engine.comm.allgatherv_stage(groups, *_stream(parts))
    )


def _pairs(gids: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """A ``{gid, val}`` send buffer."""
    buf = np.empty(gids.size, dtype=PAIR_DTYPE)
    buf["gid"] = gids
    buf["val"] = vals
    return buf


def _apply_op(
    state: np.ndarray,
    lids: np.ndarray,
    vals: np.ndarray,
    op: str,
    reduce_fn: Optional[ReduceFn],
) -> np.ndarray:
    """Apply the reduction; return sorted unique LIDs whose value changed.

    ``op`` is one of ``"min"``/``"max"``/``"sum"`` (``"sum"`` has delta
    semantics: callers send deltas, not absolutes).  Change detection is
    the kernel's exact float compare of the stored value before/after —
    for ``"sum"`` that means a zero delta, or deltas cancelling exactly,
    leave the vertex out of the changed set.
    """
    if reduce_fn is not None:
        return np.unique(np.asarray(reduce_fn(state, lids, vals), dtype=np.int64))
    return scatter_reduce(state, lids, vals, op)


# ----------------------------------------------------------------------
# rank-fused stage helpers (see "Rank-fused stages" in docs/PERF.md)
# ----------------------------------------------------------------------
def _bounds(lengths: np.ndarray) -> np.ndarray:
    """``(p + 1,)`` offsets of rank-major segments of ``lengths``."""
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _split(values: np.ndarray, bounds: np.ndarray) -> list[np.ndarray]:
    """Rank-major ``values`` cut into per-rank slices at ``bounds``."""
    return [values[bounds[r] : bounds[r + 1]] for r in range(bounds.size - 1)]


def _stacked_queues(queues, base: np.ndarray):
    """Per-rank local-LID queues -> ``(stacked_idx, lengths)``."""
    lengths = np.array([len(q) for q in queues], dtype=np.int64)
    flat = np.concatenate([np.asarray(q, dtype=np.int64) for q in queues])
    return flat + np.repeat(base[:-1], lengths), lengths


def sparse_push(
    engine: Engine,
    name: str,
    queues: list[np.ndarray],
    op: str = "min",
    reduce_fn: Optional[ReduceFn] = None,
) -> SparseResult:
    """Sparse push exchange.

    Parameters
    ----------
    queues:
        Per-rank arrays of *column-vertex LIDs* whose state the local
        compute kernel updated (deduplicated, as per the ``q_in``
        convention).
    op / reduce_fn:
        Reduction applied in ``ReduceQueue``; ``reduce_fn`` overrides
        ``op`` for complex reductions (paper §3.3.3).  It is called
        once on the rank-stacked state with every rank's receive
        indices, so it must act element-wise on the indices it is
        given.

    Every stage is rank-fused: one gather builds every rank's send
    buffer, and one reduction applies every rank's receive buffer over
    the rank-stacked state (:meth:`Engine.stacked`).
    """
    p = engine.n_ranks
    n_v = engine.partition.n_vertices
    col_share = engine.stage_nic_sharing("col")
    row_share = engine.stage_nic_sharing("row")
    state = engine.stacked_full(name)
    lay = engine.stacked_csr()
    base = lay.state_base

    # ---- stage 1: AllGatherv + reduce along each column group -------
    q_idx, q_len = _stacked_queues(queues, base)
    engine.charge_vertices_ranks(q_len)  # BuildQueue kernel
    send = np.empty(q_idx.size, dtype=PAIR_DTYPE)
    send["gid"] = q_idx - np.repeat(lay.col_shift, q_len)
    send["val"] = state[q_idx]
    cols = engine.grid.col_group_matrix
    recv, rb, handle = _gather_stage(engine, cols, send, _bounds(q_len), col_share)
    recv, rb = _replicated(cols, recv, rb)
    r_len = np.diff(rb)
    lids = recv["gid"] + np.repeat(lay.col_shift, r_len)
    changed = _apply_op(state, lids, recv["val"], op, reduce_fn)
    engine.charge_vertices_ranks(r_len)  # ReduceQueue kernel
    # Row-stage queues: changed ghosts plus each rank's own local
    # updates, restricted to row-owned vertices, deduplicated per rank
    # through one rank-major composite ``rank * n_v + gid``.
    ch_len = np.diff(np.searchsorted(changed, base))
    cand = np.concatenate([changed, q_idx])
    cand_rank = np.concatenate(
        [np.repeat(np.arange(p), ch_len), np.repeat(np.arange(p), q_len)]
    )
    gid = cand - lay.col_shift[cand_rank]
    owned = (gid >= lay.row_start[cand_rank]) & (gid < lay.row_stop[cand_rank])
    comp = unique_bounded(cand_rank[owned] * n_v + gid[owned], p * n_v)
    row_bounds = np.searchsorted(comp, np.arange(p + 1) * n_v)
    row_len = np.diff(row_bounds)
    row_gids = comp - np.repeat(np.arange(p) * n_v, row_len)
    _wait(engine, handle)

    # ---- stage 2: exchange final values along each row group --------
    engine.charge_vertices_ranks(row_len)
    send = np.empty(row_gids.size, dtype=PAIR_DTYPE)
    send["gid"] = row_gids
    send["val"] = state[row_gids + np.repeat(lay.row_shift, row_len)]
    rows = engine.grid.row_group_matrix
    recv, rb, handle = _gather_stage(engine, rows, send, row_bounds, row_share)
    uniq_of: list = [None] * p
    n_updated = 0
    for g, ranks in enumerate(rows.tolist()):
        uniq = unique_bounded(recv["gid"][rb[g] : rb[g + 1]], n_v)
        n_updated += int(uniq.size)
        for r in ranks:
            uniq_of[r] = uniq
    # Values are final after the column reduction; assignment (each
    # vertex appears from exactly one root rank).
    recv, rb = _replicated(rows, recv, rb)
    r_len = np.diff(rb)
    state[recv["gid"] + np.repeat(lay.row_shift, r_len)] = recv["val"]
    engine.charge_vertices_ranks(r_len)
    to_lid = lay.row_offset - lay.row_start
    active_row = [uniq_of[r] + to_lid[r] for r in range(p)]
    _wait(engine, handle)
    return SparseResult(active_row=active_row, n_updated=n_updated)


@dataclass
class LaneSparseResult:
    """Outcome of one fused k-lane sparse exchange."""

    #: Per-rank ``(row_lids, lanes)`` of updated owned cells,
    #: lane-major sorted (within each lane, LIDs ascend — exactly the
    #: order the 1-D exchange reports for that lane alone).
    active_row: list[tuple[np.ndarray, np.ndarray]]
    #: Per-lane count of unique vertices whose state changed globally.
    n_updated: np.ndarray
    #: Per-rank ``(col_lids, lanes)`` of every column-window cell this
    #: exchange may have written: the column reduce's changed ghosts
    #: plus the rank's own local update queue.  Unsorted and possibly
    #: duplicated — a superset of the actually-changed column cells,
    #: for callers that track freshness without a full state scan.
    active_col: list[tuple[np.ndarray, np.ndarray]]


def sparse_push_lanes(
    engine: Engine,
    name: str,
    queues: list[tuple[np.ndarray, np.ndarray]],
    op: str = "min",
) -> LaneSparseResult:
    """Sparse push exchange fusing ``k`` query lanes into one stream.

    The lane-batched analogue of :func:`sparse_push` over a 2-D
    ``(N_T, k)`` state: ``queues[rank]`` is a ``(col_lids, lanes)``
    pair naming the cells the local kernel updated, and every group
    exchange ships **one** ``{gid, lane, val}`` buffer carrying all k
    frontiers — one collective (one α charge) per group per stage,
    where k sequential runs would pay k.

    Per lane the exchange is bit-identical to :func:`sparse_push` on
    that lane's column: the reduce runs through the composite-index
    path of :func:`~repro.kernels.scatter_reduce_lanes` (same update
    order per lane as the 1-D kernel), queue dedup is lane-major (so
    within a lane, GIDs sort exactly as the 1-D ``np.unique``), and the
    final row assignment writes values already made final by the column
    reduction.  Stages are rank-fused exactly as in :func:`sparse_push`.
    """
    p = engine.n_ranks
    n_v = engine.partition.n_vertices
    col_share = engine.stage_nic_sharing("col")
    row_share = engine.stage_nic_sharing("row")
    state = engine.stacked_full(name)
    k = state.shape[1]
    lay = engine.stacked_csr()
    base = lay.state_base

    # ---- stage 1: AllGatherv + lane reduce along each column group --
    q_idx, q_len = _stacked_queues([q[0] for q in queues], base)
    q_lane = np.concatenate([np.asarray(q[1], dtype=np.int64) for q in queues])
    engine.charge_vertices_ranks(q_len)  # BuildQueue kernel
    send = np.empty(q_idx.size, dtype=LANE_PAIR_DTYPE)
    send["gid"] = q_idx - np.repeat(lay.col_shift, q_len)
    send["lane"] = q_lane
    send["val"] = state[q_idx, q_lane]
    q_bounds = _bounds(q_len)
    cols = engine.grid.col_group_matrix
    recv, rb, handle = _gather_stage(engine, cols, send, q_bounds, col_share)
    recv, rb = _replicated(cols, recv, rb)
    r_len = np.diff(rb)
    lids = recv["gid"] + np.repeat(lay.col_shift, r_len)
    ch_idx, ch_lane = scatter_reduce_lanes(
        state, lids, recv["val"], op, lanes=recv["lane"]
    )
    engine.charge_vertices_ranks(r_len)  # ReduceQueue kernel
    # ``ch_idx`` ascends, so rank boundaries are a searchsorted away.
    ch_bounds = np.searchsorted(ch_idx, base)
    ch_len = np.diff(ch_bounds)
    chi, chl = _split(ch_idx, ch_bounds), _split(ch_lane, ch_bounds)
    qi, ql = _split(q_idx, q_bounds), _split(q_lane, q_bounds)
    active_col = [
        (np.concatenate([chi[r], qi[r]]) - base[r], np.concatenate([chl[r], ql[r]]))
        for r in range(p)
    ]
    # Row-stage queues: changed ghosts plus local updates, restricted to
    # row-owned cells; one dedup over ``rank·(k·n_v) + lane·n_v + gid``
    # keeps each rank's queue lane-major with 1-D-sorted GIDs per lane.
    cand = np.concatenate([ch_idx, q_idx])
    cand_lane = np.concatenate([ch_lane, q_lane])
    cand_rank = np.concatenate(
        [np.repeat(np.arange(p), ch_len), np.repeat(np.arange(p), q_len)]
    )
    gid = cand - lay.col_shift[cand_rank]
    owned = (gid >= lay.row_start[cand_rank]) & (gid < lay.row_stop[cand_rank])
    span = k * n_v
    comp = unique_bounded(
        cand_rank[owned] * span + cand_lane[owned] * n_v + gid[owned], p * span
    )
    row_bounds = np.searchsorted(comp, np.arange(p + 1) * span)
    row_len = np.diff(row_bounds)
    within = comp - np.repeat(np.arange(p) * span, row_len)
    row_gids = within % n_v
    row_lanes = within // n_v
    _wait(engine, handle)

    # ---- stage 2: exchange final values along each row group --------
    engine.charge_vertices_ranks(row_len)
    send = np.empty(row_gids.size, dtype=LANE_PAIR_DTYPE)
    send["gid"] = row_gids
    send["lane"] = row_lanes
    send["val"] = state[row_gids + np.repeat(lay.row_shift, row_len), row_lanes]
    rows = engine.grid.row_group_matrix
    recv, rb, handle = _gather_stage(engine, rows, send, row_bounds, row_share)
    uniq_of: list = [None] * p
    n_updated = np.zeros(k, dtype=np.int64)
    for g, ranks in enumerate(rows.tolist()):
        rbuf = recv[rb[g] : rb[g + 1]]
        uniq = unique_bounded(rbuf["lane"] * n_v + rbuf["gid"], span)
        cells = (uniq % n_v, uniq // n_v)
        n_updated += np.bincount(cells[1], minlength=k)
        for r in ranks:
            uniq_of[r] = cells
    # Values are final after the column reduction; assignment.
    recv, rb = _replicated(rows, recv, rb)
    r_len = np.diff(rb)
    state[recv["gid"] + np.repeat(lay.row_shift, r_len), recv["lane"]] = recv["val"]
    engine.charge_vertices_ranks(r_len)
    to_lid = lay.row_offset - lay.row_start
    active_row = [(uniq_of[r][0] + to_lid[r], uniq_of[r][1]) for r in range(p)]
    _wait(engine, handle)
    return LaneSparseResult(
        active_row=active_row, n_updated=n_updated, active_col=active_col
    )


def sparse_pull(
    engine: Engine,
    name: str,
    queues: list[np.ndarray],
    op: str = "min",
    reduce_fn: Optional[ReduceFn] = None,
) -> SparseResult:
    """Sparse pull exchange: row-group reduce, column-group refresh.

    ``queues`` hold per-rank *row-vertex LIDs* updated by the local
    (partial) gather kernel.
    """
    grid = engine.grid
    col_share = engine.stage_nic_sharing("col")
    row_share = engine.stage_nic_sharing("row")

    # ---- stage 1: AllGatherv + reduce along each row group ----------
    def build_row(ctx: RankContext) -> np.ndarray:
        q = np.asarray(queues[ctx.rank], dtype=np.int64)
        engine.charge_vertices(ctx.rank, q.size)
        return _pairs(ctx.localmap.row_gid(q), ctx.get(name)[q])

    row_bufs, handle = _gather_ranks(
        engine, grid.row_group_matrix, engine.map_ranks(build_row), row_share
    )

    def apply_row(ctx: RankContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lm = ctx.localmap
        state = ctx.get(name)
        rbuf = row_bufs[ctx.rank]
        lids = lm.row_lid(rbuf["gid"])
        changed = _apply_op(state, lids, rbuf["val"], op, reduce_fn)
        engine.charge_vertices(ctx.rank, rbuf.size)
        cand = np.unique(
            np.concatenate(
                [
                    lm.row_gid(changed),
                    lm.row_gid(np.asarray(queues[ctx.rank], dtype=np.int64)),
                ]
            )
        )
        return cand, cand[lm.owns_col_gid(cand)], lm.row_lid(cand)

    applied = engine.map_ranks(apply_row)
    _wait(engine, handle)
    col_queues_gids = [a[1] for a in applied]
    active_row = [a[2] for a in applied]
    # ``cand`` is identical on every member of a row group, so each
    # group contributes its first member's count exactly once.
    n_updated = 0
    for id_r, ranks in engine.row_groups():
        n_updated += int(applied[ranks[0]][0].size)

    # ---- stage 2: refresh ghosts along each column group ------------
    def build_col(ctx: RankContext) -> np.ndarray:
        gids = col_queues_gids[ctx.rank]
        engine.charge_vertices(ctx.rank, gids.size)
        return _pairs(gids, ctx.get(name)[ctx.localmap.row_lid(gids)])

    col_bufs, handle = _gather_ranks(
        engine, grid.col_group_matrix, engine.map_ranks(build_col), col_share
    )

    def apply_col(ctx: RankContext) -> None:
        state = ctx.get(name)
        rbuf = col_bufs[ctx.rank]
        state[ctx.localmap.col_lid(rbuf["gid"])] = rbuf["val"]
        engine.charge_vertices(ctx.rank, rbuf.size)

    engine.foreach(apply_col)
    _wait(engine, handle)
    return SparseResult(active_row=active_row, n_updated=n_updated)


def propagate_active_pull(
    engine: Engine, updated_row: list[np.ndarray]
) -> list[np.ndarray]:
    """Build the next pull-iteration active queue (paper §3.4.1).

    For pull updates the next active vertices are the *neighbors* of
    this iteration's updated vertices, not the updated vertices
    themselves.  Each rank expands the local adjacency of its updated
    row vertices into a set of neighbor GIDs, which is then shared
    push-style: across the column groups (to reach the neighbors'
    owners) and then across the row groups (to make the queue
    row-group-consistent).
    """
    grid = engine.grid
    col_share = engine.stage_nic_sharing("col")
    row_share = engine.stage_nic_sharing("row")

    # Expand neighbors locally.
    def expand_neighbors(ctx: RankContext) -> np.ndarray:
        lids = np.asarray(updated_row[ctx.rank], dtype=np.int64)
        degs = ctx.local_degrees()[lids - ctx.localmap.row_offset]
        engine.charge_edges(ctx.rank, degs)
        _, dst, _ = ctx.expand(lids)
        return np.unique(ctx.localmap.col_gid(np.unique(dst)))

    neighbor_gids = engine.map_ranks(expand_neighbors)

    # Column stage: route neighbor GIDs to their row owners.
    col_bufs, handle = _gather_ranks(
        engine, grid.col_group_matrix, neighbor_gids, col_share
    )

    def keep_owned(ctx: RankContext) -> np.ndarray:
        rbuf = col_bufs[ctx.rank]
        engine.charge_vertices(ctx.rank, rbuf.size)
        return np.unique(rbuf[ctx.localmap.owns_row_gid(rbuf)])

    partial = engine.map_ranks(keep_owned)
    _wait(engine, handle)

    # Row stage: union into a row-group-consistent active queue.
    row_bufs, handle = _gather_ranks(engine, grid.row_group_matrix, partial, row_share)
    merged_of: list[Optional[np.ndarray]] = [None] * grid.n_ranks
    for id_r, ranks in engine.row_groups():
        merged = np.unique(row_bufs[ranks[0]])
        for r in ranks:
            merged_of[r] = merged

    def to_active(ctx: RankContext) -> np.ndarray:
        engine.charge_vertices(ctx.rank, row_bufs[ctx.rank].size)
        return ctx.localmap.row_lid(merged_of[ctx.rank])

    active = engine.map_ranks(to_active)
    _wait(engine, handle)
    return active
