"""K-core decomposition (extension; a second 2.5D complex reduction).

Computes every vertex's *core number* — the largest ``k`` such that the
vertex belongs to a subgraph where all degrees are at least ``k`` — via
the distributed h-index formulation (Montresor, De Pellegrini & Miorandi):
initialize each estimate to the vertex degree, then repeatedly replace
it with the h-index of its neighbors' estimates.  Estimates decrease
monotonically and converge to the exact core numbers.

The per-vertex h-index is a *complex reduction* over the whole
neighborhood (which spans the row group), so the implementation reuses
the paper's 2.5D machinery exactly as Label Propagation does:
per-rank histograms of neighbor estimates -> owner-routed personalized
exchange -> owner-side h-index -> row broadcast -> column ghost
refresh, with active-vertex queues carrying the neighbors of changed
vertices.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..patterns.complex import (
    build_histogram,
    h_index_from_histograms,
    merge_histograms,
    owner_chunks,
    owner_of_vertex,
)
from ..patterns.sparse import PAIR_DTYPE, allgatherv_ranks, propagate_active_pull
from .pagerank import compute_global_degrees

__all__ = ["core_numbers"]

_STATE = "core"


def _pairs(gids: np.ndarray, vals: np.ndarray) -> np.ndarray:
    buf = np.empty(gids.size, dtype=PAIR_DTYPE)
    buf["gid"] = gids
    buf["val"] = vals
    return buf


def core_numbers(
    engine: Engine, max_iterations: int | None = None
) -> AlgorithmResult:
    """Exact core numbers of every vertex, in original vertex order."""
    engine.reset_timers()
    part, grid = engine.partition, engine.grid

    # Estimates start at the global degrees (computed with a dense pull
    # over the local degrees, as in PageRank).
    compute_global_degrees(engine)

    def init_estimates(ctx):
        est = ctx.alloc(_STATE, np.float64)
        est[...] = ctx.get("deg")
        engine.charge_vertices(ctx.rank, ctx.n_total)

    engine.foreach(init_estimates)

    all_rows = [ctx.row_lids() for ctx in engine]
    active = list(all_rows)
    iterations = 0

    while True:
        iterations += 1
        # ---- per-rank neighbor-estimate histograms -------------------
        def local_histogram(ctx):
            est = ctx.get(_STATE)
            rows = active[ctx.rank]
            degs = ctx.local_degrees()[rows - ctx.localmap.row_offset]
            engine.charge_edges(ctx.rank, degs, work_per_edge=4.0)
            src, dst, _ = ctx.expand(rows)
            return build_histogram(ctx.localmap.row_gid(src), est[dst])

        histograms = engine.map_ranks(local_histogram)

        # ---- 2.5D owner exchange + h-index, per row group -------------
        def route_to_owners(ctx):
            rs, re = part.row_range(ctx.block.id_r)
            bounds = owner_chunks(rs, re, grid.R)
            tri = histograms[ctx.rank]
            owners = owner_of_vertex(tri["gid"], bounds)
            order = np.argsort(owners, kind="stable")
            tri, owners = tri[order], owners[order]
            cuts = np.searchsorted(owners, np.arange(grid.R + 1))
            engine.charge_vertices(ctx.rank, tri.size)
            return [tri[cuts[k] : cuts[k + 1]] for k in range(grid.R)]

        sends = engine.map_ranks(route_to_owners)
        received_of: list[np.ndarray | None] = [None] * grid.n_ranks
        for id_r, ranks in engine.row_groups():
            received = engine.comm.alltoallv(ranks, [sends[r] for r in ranks])
            for pos, r in enumerate(ranks):
                received_of[r] = received[pos]

        def owner_h_index(ctx):
            merged = merge_histograms(received_of[ctx.rank])
            gids, h = h_index_from_histograms(merged)
            engine.charge_vertices(ctx.rank, merged.size)
            return _pairs(gids, h.astype(np.float64))

        finals = engine.map_ranks(owner_h_index)

        rbuf_of = allgatherv_ranks(engine, grid.row_group_matrix, finals)

        def apply_estimates(ctx):
            lm = ctx.localmap
            est = ctx.get(_STATE)
            rbuf = rbuf_of[ctx.rank]
            lids = lm.row_lid(rbuf["gid"])
            # Monotone: estimates only decrease toward the core number.
            old = est[lids].copy()
            est[lids] = np.minimum(old, rbuf["val"])
            engine.charge_vertices(ctx.rank, rbuf.size)
            return np.asarray(lids[est[lids] < old], dtype=np.int64)

        changed_rows = engine.map_ranks(apply_estimates)
        n_changed = 0
        for id_r, ranks in engine.row_groups():
            if ranks:
                n_changed += int(changed_rows[ranks[0]].size)

        # ---- refresh ghosts along column groups ----------------------
        def build_refresh(ctx):
            lm = ctx.localmap
            gids = lm.row_gid(changed_rows[ctx.rank])
            mine = gids[lm.owns_col_gid(gids)]
            est = ctx.get(_STATE)
            engine.charge_vertices(ctx.rank, mine.size)
            return _pairs(mine, est[lm.row_lid(mine)])

        sbufs = engine.map_ranks(build_refresh)
        rbuf_of = allgatherv_ranks(engine, grid.col_group_matrix, sbufs)

        def apply_refresh(ctx):
            lm = ctx.localmap
            est = ctx.get(_STATE)
            rbuf = rbuf_of[ctx.rank]
            est[lm.col_lid(rbuf["gid"])] = rbuf["val"]
            engine.charge_vertices(ctx.rank, rbuf.size)

        engine.foreach(apply_refresh)

        # ---- next active queue = neighbors of changed vertices --------
        active = propagate_active_pull(engine, changed_rows)
        engine.superstep_boundary("kcore")
        if n_changed == 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break

    values = engine.gather(_STATE).astype(np.int64)
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=iterations,
        counters=engine.counters.summary(),
        extra={"max_core": int(values.max(initial=0))},
    )
