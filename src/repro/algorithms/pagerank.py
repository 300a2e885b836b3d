"""PageRank as a pull-based vertex state program (paper §4).

The paper deliberately implements PageRank in the *general* graph
computational model — a pull update with dense communications — rather
than as an optimized linear-algebra routine (that optimized form is the
CuGraph baseline, :mod:`repro.baselines.spmv`, which the paper finds
~1.47x faster at small scale).

Every iteration:

1. each rank gathers ``pr[u] / deg[u]`` over its local edges into a
   per-owned-vertex accumulator (partial sums — a vertex's full
   neighborhood spans its row group);
2. a dense pull exchange (row-group AllReduce SUM + column-group
   Broadcasts) completes the sums and refreshes ghosts;
3. dangling mass is folded in via a one-word AllReduce and the damping
   update is applied locally.

Vertex degrees are *global* degrees, themselves computed with one
dense pull exchange over the local degrees (paper §3.2: the true
degree is the sum of local degrees across the row group).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..kernels import scatter_reduce
from ..patterns.dense import dense_pull

__all__ = ["pagerank", "compute_global_degrees"]


def compute_global_degrees(
    engine: Engine, name: str = "deg", weighted: bool = False
) -> None:
    """Compute each vertex's true (possibly weighted) degree into state
    array ``name``.

    Fills the row window with local degrees and runs a dense pull
    (SUM) exchange; afterwards both windows hold global degrees
    (paper §3.2: the true degree is the row-group sum of local
    degrees).
    """
    def local_degrees(ctx):
        deg = ctx.alloc(name, np.float64)
        if weighted:
            blk = ctx.block
            if blk.weights is None:
                raise ValueError("weighted degrees need an edge-weighted graph")
            sums = np.zeros(ctx.localmap.n_row)
            scatter_reduce(
                sums,
                np.repeat(np.arange(ctx.localmap.n_row), ctx.local_degrees()),
                blk.weights,
                "sum",
            )
            deg[ctx.row_slice] = sums
        else:
            deg[ctx.row_slice] = ctx.local_degrees()
        engine.charge_vertices(ctx.rank, ctx.n_total)

    engine.foreach(local_degrees)
    dense_pull(engine, name, op="sum")


def pagerank(
    engine: Engine,
    iterations: int = 20,
    damping: float = 0.85,
    personalization: Optional[np.ndarray] = None,
    weighted: bool = False,
    tol: Optional[float] = None,
    resume: bool = False,
    elastic=None,
    certify: bool = False,
) -> AlgorithmResult:
    """Run synchronous PageRank (paper default: 20 fixed iterations).

    Parameters
    ----------
    personalization:
        Optional teleport distribution in original vertex order
        (normalized internally); dangling mass follows it.
    weighted:
        Spread rank proportionally to edge weights instead of uniformly
        over neighbors.
    tol:
        Optional early stop once ``max |delta pr| < tol`` (checked with
        a one-word MAX AllReduce each iteration); ``iterations``
        remains the hard bound.
    resume:
        Continue from the engine's latest attached checkpoint instead
        of starting over (falls back to a fresh run when there is
        none); see ``docs/ROBUSTNESS.md``.

    Returns the PageRank vector in original vertex order; it matches
    the serial reference to floating-point roundoff.

    ``elastic=`` survives permanent rank loss by regridding onto the
    surviving GPUs.  Note that PageRank's floating-point sum reductions
    are sensitive to the operand grouping a different grid induces:
    values after a shrink-regrid agree with the fault-free run to
    within ~1 ulp rather than bit-exactly (spare-pool recoveries, which
    keep the grid, stay bit-exact); see ``docs/ROBUSTNESS.md``.
    ``certify=True`` runs
    :func:`~repro.faults.integrity.certify_pagerank` (mass
    conservation + residual bound) on the final vector, charging the
    ``certify`` clock lane.
    """
    if elastic:
        from ..faults.elastic import drive_elastic

        return drive_elastic(
            lambda e, r: pagerank(
                e,
                iterations=iterations,
                damping=damping,
                personalization=personalization,
                weighted=weighted,
                tol=tol,
                resume=r,
                certify=certify,
            ),
            engine,
            elastic,
            resume=resume,
        )
    n = engine.partition.n_vertices
    grid = engine.grid
    all_ranks = list(range(grid.n_ranks))

    if personalization is not None:
        personalization = np.asarray(personalization, dtype=np.float64)
        if personalization.shape != (n,):
            raise ValueError(f"personalization must have shape ({n},)")
        if personalization.min() < 0 or personalization.sum() <= 0:
            raise ValueError("personalization must be non-negative and non-zero")

    st = engine.resume_from_checkpoint("pagerank") if resume else None
    if st is None:
        engine.reset_timers()
        if personalization is not None:
            teleport_global = personalization / personalization.sum()
            engine.scatter_global("tele", teleport_global)
        compute_global_degrees(engine, weighted=weighted)

        def alloc_state(ctx):
            ctx.alloc("pr", np.float64, fill=1.0 / n)
            ctx.alloc("acc", np.float64)

        engine.foreach(alloc_state)
        iterations_run = 0
        done = False
    else:
        iterations_run = st["iterations_run"]
        done = st["done"]

    # Every stage runs once over the rank-stacked state (see "Rank-fused
    # stages" in docs/PERF.md), each rank still charged its own kernels.
    # deg is static after compute_global_degrees, so everything derived
    # from it is built once — from the (restored) deg state on resume,
    # so it never needs checkpointing.
    lay = engine.stacked_csr()
    n_row = np.diff(lay.row_base)
    n_total = np.diff(lay.state_base)
    deg = engine.stacked_full("deg")
    deg_safe = np.maximum(deg, 1e-300)
    deg_zero = deg == 0
    # Dangling row vertices, per rank in row order (stacked state idx).
    dangling = lay.row_state[deg_zero[lay.row_state]]
    dangling_cut = np.searchsorted(
        np.flatnonzero(deg_zero[lay.row_state]), lay.row_base
    )
    if weighted:
        edge_row = np.repeat(np.arange(n_row.sum()), lay.degrees)
        edge_w = np.concatenate([ctx.block.weights for ctx in engine])
    else:
        adjacency = lay.adjacency()
    while iterations_run < iterations and not done:
        iterations_run += 1
        pr = engine.stacked_full("pr")
        acc = engine.stacked_full("acc")

        # Dangling mass: each rank contributes its row window's share
        # divided by the row-group size (R ranks share each window).
        # Depends only on the previous iteration's pr and the static
        # degrees, so it runs *before* the gather: on an overlapped
        # engine its one-word AllReduce is issued split-phase here and
        # completed only where the total is consumed, hiding the whole
        # gather + dense-exchange phase behind it.
        engine.charge_vertices_ranks(n_row)
        masked = pr[dangling]
        partials = [
            np.array([masked[dangling_cut[r] : dangling_cut[r + 1]].sum() / grid.R])
            for r in all_ranks
        ]
        dangling_handle = (
            engine.comm.start_allreduce(all_ranks, partials, op="sum")
            if engine.overlap
            else None
        )

        # Local partial gathers: every rank's edges in one pass.  Each
        # row sums its edge terms from 0.0 in CSR order — the order
        # np.add.at used on a zeroed accumulator — so the sums are
        # bit-identical; 1.0 * x is exact (even fused into an FMA).
        for ctx in engine:
            ctx.expand_all()  # the cached expansion's device footprint
        engine.charge_edges_ranks(n_row, lay.degrees, cache_key="pr.full")
        x = pr / deg_safe
        x[deg_zero] = 0.0
        if weighted:
            rows = np.bincount(
                edge_row, weights=x[lay.indices] * edge_w, minlength=n_row.sum()
            )
        else:
            rows = adjacency @ x
        acc[...] = 0.0
        acc[lay.row_state] = rows

        # Complete the sums along row groups, refresh ghosts.
        dense_pull(engine, "acc", op="sum")

        # Fold in the dangling total (waiting out the in-flight
        # AllReduce on an overlapped engine).
        if dangling_handle is not None:
            engine.comm.wait(dangling_handle)
        else:
            engine.comm.allreduce(all_ranks, partials, op="sum")
        dangling_total = float(partials[0][0])

        # Damping update (acc is consistent on every LID).
        if personalization is not None:
            tele = engine.stacked_full("tele")
            new = (1.0 - damping) * tele + damping * (acc + dangling_total * tele)
        else:
            new = (1.0 - damping) / n + damping * (acc + dangling_total / n)
        max_delta = 0.0
        if tol is not None:
            rw = lay.row_state
            max_delta = float(np.abs(new[rw] - pr[rw]).max(initial=0.0))
        pr[...] = new
        engine.charge_vertices_ranks(n_total)
        if tol is not None:
            flags = [np.array([max_delta]) for _ in all_ranks]
            engine.comm.allreduce(all_ranks, flags, op="max")
        if tol is not None and max_delta < tol:
            done = True
        engine.superstep_boundary(
            "pagerank", {"iterations_run": iterations_run, "done": done}
        )

    values = engine.gather("pr")
    extra = {"damping": damping}
    if certify:
        from ..faults.integrity import certify_pagerank

        # The residual bound models the uniform-spread update; weighted
        # runs certify mass conservation and non-negativity only.
        extra["certification"] = certify_pagerank(
            engine,
            values,
            damping=damping,
            personalization=personalization,
            resid_tol=None if weighted else 1e-2,
        ).as_dict()
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=iterations_run,
        counters=engine.counters.summary(),
        extra=extra,
    )
