"""The BSP execution engine binding a partitioned graph to a cluster.

An :class:`Engine` is the public entry point of the library: it
partitions a graph over a 2D grid of simulated GPU ranks on a chosen
machine, and provides the algorithms with

* per-rank :class:`~repro.core.context.RankContext` objects,
* a :class:`~repro.comm.collectives.Communicator` with virtual-time
  accounting,
* kernel charging that runs the Manhattan-collapse (or naive) schedule
  through the machine's cost model.

Typical usage::

    from repro import Engine, algorithms
    from repro.graph import rmat

    engine = Engine(rmat(14), n_ranks=16)      # square 4x4 grid on AiMOS
    result = algorithms.pagerank(engine, iterations=20)
    print(result.timings.total, result.timings.comm_fraction)
"""

from __future__ import annotations

import os
from typing import Iterator, Optional, Sequence

import numpy as np

from ..cluster.config import AIMOS, ClusterConfig
from ..cluster.costmodel import NCCL_PROFILE, CommProfile, CostModel
from ..cluster.device import VirtualGPU
from ..cluster.topology import Topology
from ..comm.clocks import VirtualClocks
from ..comm.collectives import Communicator
from ..comm.counters import CommCounters
from ..comm.grid import Grid2D, square_grid
from ..exec import RankExecutor, resolve_executor
from ..graph.csr import Graph
from ..graph.partition.twod import TwoDPartition, partition_2d
from ..queueing.frontier import StackedCSR
from ..queueing.manhattan import (
    manhattan_schedule,
    manhattan_schedule_segments,
    vertex_per_thread_balance,
    vertex_per_thread_segments,
)
from .context import RankContext
from .result import TimingReport

__all__ = ["Engine", "OVERLAP_ENV_VAR"]

#: Environment variable consulted when ``Engine(overlap=None)``.
OVERLAP_ENV_VAR = "REPRO_OVERLAP"


class Engine:
    """Distributed 2D graph-processing engine over simulated GPUs.

    Parameters
    ----------
    graph:
        Input graph (treated as already symmetrized; see
        :meth:`repro.graph.csr.Graph.from_edges`).
    n_ranks:
        Total GPUs; must be a perfect square unless ``grid`` is given.
    grid:
        Explicit ``Grid2D`` for non-square layouts (paper Fig. 7).
    cluster:
        Machine model (default AiMOS).
    distribution:
        Vertex-to-row-group distribution: ``"striped"`` (paper
        default), ``"random"``, or ``"block"``.
    profile:
        Communication substrate profile; swap in ``GENERIC_PROFILE``
        for the Gluon-like baseline.
    load_balance:
        ``"manhattan"`` (paper default) or ``"vertex"`` for the naive
        per-thread expansion (used by the Fig. 6 ablation).
    memory_scale:
        Multiplier on modeled allocations, to account full-scale
        dataset footprints while simulating a scaled stand-in.
    enforce_memory:
        Raise :class:`~repro.cluster.device.DeviceMemoryError` on
        over-subscription instead of just recording it.
    executor:
        Rank-execution strategy for per-rank superstep closures
        (see :mod:`repro.exec`): a :class:`~repro.exec.RankExecutor`
        instance, ``"serial"``, ``"threads"``, ``"threads:N"``, or
        ``None`` to consult the ``REPRO_EXECUTOR`` environment
        variable (default serial).  Either way results are
        deterministic — see :meth:`map_ranks`.
    overlap:
        Run the comm/compute-overlap variants of the block-sweep hot
        loops: patterns issue collectives split-phase
        (``Communicator.start_*``) and hide apply-phase compute behind
        the in-flight exchanges.  Values, counters, and the compute and
        comm lanes stay bit-identical to a blocking run; only the total
        drops (by the time recorded in the ``overlap`` lane).  ``None``
        consults the ``REPRO_OVERLAP`` environment variable
        (``1``/``true``/``on``/``yes`` enable; default blocking).  See
        docs/MODEL.md.
    """

    def __init__(
        self,
        graph: Graph,
        n_ranks: Optional[int] = None,
        grid: Optional[Grid2D] = None,
        cluster: ClusterConfig = AIMOS,
        distribution: str = "striped",
        profile: CommProfile = NCCL_PROFILE,
        load_balance: str = "manhattan",
        memory_scale: float = 1.0,
        enforce_memory: bool = False,
        seed: int = 0,
        executor: "RankExecutor | str | None" = None,
        overlap: Optional[bool] = None,
    ):
        if grid is None:
            if n_ranks is None:
                raise ValueError("pass n_ranks or an explicit grid")
            grid = square_grid(n_ranks)
        elif n_ranks is not None and n_ranks != grid.n_ranks:
            raise ValueError(
                f"n_ranks={n_ranks} disagrees with grid ({grid.n_ranks} ranks)"
            )
        if load_balance not in ("manhattan", "vertex"):
            raise ValueError("load_balance must be 'manhattan' or 'vertex'")

        if overlap is None:
            overlap = os.environ.get(OVERLAP_ENV_VAR, "").strip().lower() in (
                "1",
                "true",
                "on",
                "yes",
            )

        self.graph = graph
        self.grid = grid
        self.cluster = cluster
        self.load_balance = load_balance
        self.overlap = bool(overlap)
        # Everything (besides graph/grid/executor) a rebuild on a new
        # grid needs to reproduce this engine's configuration — the
        # elastic-recovery seam (see rebuild_on_grid).
        self._rebuild_args = dict(
            cluster=cluster,
            distribution=distribution,
            profile=profile,
            load_balance=load_balance,
            memory_scale=memory_scale,
            enforce_memory=enforce_memory,
            seed=seed,
            overlap=self.overlap,
        )
        self.partition: TwoDPartition = partition_2d(
            graph, grid, distribution=distribution, seed=seed
        )
        self.topology = Topology(cluster, grid.n_ranks)
        self.costmodel = CostModel(cluster.gpu, self.topology, profile)
        # Memoized ScheduleStats for repeated identical queue expansions
        # (dense iterations re-schedule the same full queue every time).
        # Keys are scoped by (graph identity, grid shape, distribution,
        # seed, load-balance model) so the dict can be *shared* across
        # rebuild_on_grid generations: an elastic shrink that later
        # revisits a previous grid hits that grid's warm entries instead
        # of re-running every schedule from cold.
        self._schedule_scope = (
            id(graph),
            grid.R,
            grid.C,
            distribution,
            seed,
            load_balance,
        )
        self._schedule_cache: dict[tuple, object] = {}
        self.counters = CommCounters()
        self.clocks = VirtualClocks(grid.n_ranks, counters=self.counters)
        self.comm = Communicator(self.costmodel, self.clocks, self.counters)
        # Robustness hooks (see repro.faults): the bare communicator is
        # kept so attach/detach_faults can wrap and unwrap self.comm.
        self._base_comm = self.comm
        self._injector = None
        self._last_injector = None
        self._checkpoints = None
        # Rank-health watchdog hooks (see repro.faults.health): the
        # monitor samples per-rank clock lanes at superstep boundaries;
        # the autoscaler turns its classifications (and planned spare
        # arrivals) into demote/grow decisions.
        self._health = None
        self._autoscaler = None
        # State-integrity ledger (see repro.faults.integrity): verifies
        # replicated-window digests at superstep boundaries, before the
        # boundary's checkpoint is saved.
        self._integrity = None
        # Spares delivered by consumed ``recover`` specs and not yet
        # adopted by a grow; carried across rebuild_on_grid.
        self.spare_ranks = 0
        # Regrid events recorded by elastic recovery; the list is
        # *shared* across rebuild_on_grid generations so the final
        # engine's fault_events tells the whole run's story.
        self._regrid_events: list[dict] = []
        # Rank-stacked state (see stacked) and the stacked CSR the
        # rank-fused stages expand; both host-side, built on first use.
        self._stacks: dict[str, tuple[np.ndarray, np.ndarray, list]] = {}
        self._stacked_csr: Optional[StackedCSR] = None
        # ``patterns.dense.dense_plan``'s plans, one per direction.
        self._dense_plans: dict[str, object] = {}
        self.executor: RankExecutor = resolve_executor(executor)
        # Precomputed eagerly (the cluster and grid are immutable) so a
        # concurrent first call cannot race a half-built memo.
        self._stage_sharing = self._compute_stage_sharing()
        self.contexts: list[RankContext] = [
            RankContext(
                block,
                VirtualGPU(
                    rank=block.rank,
                    spec=cluster.gpu,
                    scale_factor=memory_scale,
                    enforce=enforce_memory,
                ),
            )
            for block in self.partition.blocks
        ]

    # ------------------------------------------------------------------
    # rank / group access
    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return self.grid.n_ranks

    def ctx(self, rank: int) -> RankContext:
        return self.contexts[rank]

    def __iter__(self) -> Iterator[RankContext]:
        return iter(self.contexts)

    def row_groups(self) -> Iterator[tuple[int, list[int]]]:
        """Yield ``(ID_R, ranks)`` for every row group."""
        for id_r in range(self.grid.C):
            yield id_r, self.grid.row_group_ranks(id_r)

    def col_groups(self) -> Iterator[tuple[int, list[int]]]:
        """Yield ``(ID_C, ranks)`` for every column group."""
        for id_c in range(self.grid.R):
            yield id_c, self.grid.col_group_ranks(id_c)

    # ------------------------------------------------------------------
    # rank execution (see repro.exec)
    # ------------------------------------------------------------------
    def map_ranks(self, fn, ranks: Optional[Sequence[int]] = None) -> list:
        """Run ``fn(ctx)`` for every rank (or a subset) on the
        configured executor; return the results in rank order.

        This is the superstep fan-out: the closures may run
        concurrently, so ``fn`` must touch only state owned by its rank
        — the context's arrays, the rank's own :class:`VirtualClocks`
        lane (``charge_edges``/``charge_vertices`` with ``ctx.rank``),
        and per-rank slots of caller-held lists indexed by ``ctx.rank``.
        Collectives must never run inside ``fn``; the call returns only
        after every closure finished (the barrier before the
        collective).  Under that contract the results — state, clocks,
        and counters — are bit-identical to the serial loop.
        """
        contexts = (
            self.contexts
            if ranks is None
            else [self.contexts[r] for r in ranks]
        )
        return self.executor.map(fn, contexts)

    def foreach(self, fn, ranks: Optional[Sequence[int]] = None) -> None:
        """:meth:`map_ranks` for in-place closures (results discarded)."""
        self.map_ranks(fn, ranks=ranks)

    def stage_nic_sharing(self, axis: str) -> int:
        """NIC sharing when all groups of one axis communicate at once.

        In a BSP stage every row (or column) group runs its collective
        concurrently, so a node's NIC is shared by as many *distinct*
        groups as have members on that node: the 6 consecutive ranks of
        an AiMOS node belong to up to 6 different column groups (heavy
        sharing) but usually to a single row group (row groups are
        consecutive ranks).  This is why the paper's Fig. 7 advises
        biasing the reduction direction toward fewer ranks.
        """
        if axis not in ("row", "col"):
            raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
        return self._stage_sharing[axis]

    def _compute_stage_sharing(self) -> dict[str, int]:
        g = self.cluster.node.gpus_per_node
        R = self.grid.R
        sharing = {"row": 1, "col": 1}
        for node in range(self.topology.n_nodes()):
            members = [
                r for r in range(node * g, min((node + 1) * g, self.n_ranks))
            ]
            sharing["row"] = max(sharing["row"], len({r // R for r in members}))
            sharing["col"] = max(sharing["col"], len({r % R for r in members}))
        return sharing

    # ------------------------------------------------------------------
    # state helpers
    # ------------------------------------------------------------------
    def alloc(
        self, name: str, dtype=np.float64, fill=0, width: Optional[int] = None
    ) -> list[np.ndarray]:
        """Allocate a state array on every rank; returns the list.

        ``width=k`` allocates ``(N_T, k)`` lane arrays (one column per
        batched query lane) instead of flat vectors.
        """
        return [
            ctx.alloc(name, dtype=dtype, fill=fill, width=width)
            for ctx in self.contexts
        ]

    def states(self, name: str) -> list[np.ndarray]:
        self._require_state(name)
        return [ctx.get(name) for ctx in self.contexts]

    def free(self, name: str) -> None:
        self._require_state(name)
        self._stacks.pop(name, None)
        for ctx in self.contexts:
            ctx.free(name)

    def stacked(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Every rank's ``name`` state as one rank-stacked buffer.

        Returns ``(buffer, base)``: rank ``r``'s array is
        ``buffer[base[r]:base[r + 1]]`` (rows, for ``(N_T, k)`` lane
        states).  When every rank's array already is that view — the
        common case, checked by identity in O(p) — the buffer is
        returned as is.  Otherwise the ranks' arrays are concatenated
        once and each ``ctx.arrays[name]`` is rebound to its view:
        values are preserved, the device ledger is unchanged, and
        ``ctx.get`` keeps working everywhere.  A re-``alloc`` with a new
        shape or dtype, ``adopt`` or ``restore`` of a differently shaped
        array simply breaks the identity, and the next call restacks.

        With empty rank blocks consecutive bases repeat, so a
        rank-of-index lookup must use
        ``np.searchsorted(base, idx, side="right") - 1``.
        """
        arrays = [ctx.get(name) for ctx in self.contexts]
        cached = self._stacks.get(name)
        if cached is not None and all(a is v for a, v in zip(arrays, cached[2])):
            return cached[0], cached[1]
        first = arrays[0]
        for ctx, a in zip(self.contexts, arrays):
            if a.dtype != first.dtype or a.shape[1:] != first.shape[1:]:
                raise ValueError(
                    f"cannot stack state {name!r}: rank {ctx.rank} holds "
                    f"{a.dtype} {a.shape}, rank 0 holds {first.dtype} {first.shape}"
                )
        base = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum([a.shape[0] for a in arrays], out=base[1:])
        buf = np.concatenate(arrays)
        views = [buf[base[r] : base[r + 1]] for r in range(len(arrays))]
        for ctx, view in zip(self.contexts, views):
            ctx.arrays[name] = view
        self._stacks[name] = (buf, base, views)
        return buf, base

    def stacked_csr(self) -> StackedCSR:
        """The partition's blocks as one :class:`StackedCSR` (cached;
        a regridded engine builds its own)."""
        if self._stacked_csr is None:
            self._stacked_csr = StackedCSR.from_blocks(self.partition.blocks)
        return self._stacked_csr

    def stacked_full(self, name: str) -> np.ndarray:
        """:meth:`stacked` for a state spanning every rank's full LID
        space — the layout the :meth:`stacked_csr` indices address."""
        buf, base = self.stacked(name)
        if not np.array_equal(base, self.stacked_csr().state_base):
            raise ValueError(
                f"state {name!r} does not span each rank's [0, N_T) LID space"
            )
        return buf

    def _require_state(self, name: str) -> None:
        """Raise a KeyError naming the allocated states when no rank
        has ``name`` (a typo'd state name should fail loudly, listing
        what *does* exist, rather than rank-by-rank)."""
        if not any(ctx.has(name) for ctx in self.contexts):
            known = sorted({n for ctx in self.contexts for n in ctx.arrays})
            raise KeyError(
                f"no state array named {name!r} on any rank; "
                f"allocated states: {known}"
            )

    def free_expand_caches(self) -> None:
        """Release every rank's cached full expansion (see
        :meth:`RankContext.free_expand_cache`)."""
        for ctx in self.contexts:
            ctx.free_expand_cache()

    def scatter_global(self, name: str, vec: np.ndarray, dtype=None) -> list[np.ndarray]:
        """Distribute a global per-vertex vector into a named state
        array on every rank (row and column windows filled).  A 2-D
        ``(n, k)`` input distributes each lane column."""
        vec = np.asarray(vec)
        width = vec.shape[1] if vec.ndim == 2 else None
        out = []
        for ctx in self.contexts:
            local = self.partition.scatter_global(vec, ctx.rank)
            arr = ctx.alloc(name, dtype=dtype or local.dtype, width=width)
            arr[...] = local
            out.append(arr)
        return out

    def gather(self, name: str) -> np.ndarray:
        """Collect a named state into a global original-order vector."""
        return self.partition.gather_row_state(self.states(name))

    # ------------------------------------------------------------------
    # kernel charging
    # ------------------------------------------------------------------
    def schedule_stats(
        self, queue_degrees: np.ndarray, cache_key: Optional[str] = None, rank: int = -1
    ):
        """Run the configured schedule model over a queue's degrees.

        ``cache_key`` memoizes the resulting :class:`ScheduleStats`
        per ``(rank, cache_key)``: dense iterations expand the identical
        full queue every time (PageRank runs 20 identical schedules per
        rank), so callers passing a stable key for a *static* degree
        array skip the recomputation entirely.  The caller guarantees
        the degrees for a given key never change (local degrees are
        fixed by the partition).
        """
        if cache_key is not None:
            key = self._schedule_scope + (rank, cache_key)
            stats = self._schedule_cache.get(key)
            if stats is not None:
                return stats
        if self.load_balance == "manhattan":
            stats = manhattan_schedule(queue_degrees)
        else:
            stats = vertex_per_thread_balance(queue_degrees)
        if cache_key is not None:
            self._schedule_cache[key] = stats
        return stats

    def charge_edges(
        self,
        rank: int,
        queue_degrees: np.ndarray,
        work_per_edge: float = 1.0,
        extra_vertices: int = 0,
        launches: int = 1,
        cache_key: Optional[str] = None,
    ) -> None:
        """Charge an edge-expansion kernel over a vertex queue.

        The load-balance efficiency comes from the configured schedule
        model (Manhattan collapse vs. naive vertex-per-thread); pass
        ``cache_key`` when the queue is a static full-queue expansion
        (see :meth:`schedule_stats`).
        """
        stats = self.schedule_stats(queue_degrees, cache_key=cache_key, rank=rank)
        t = self.costmodel.kernel_time(
            n_vertices=len(queue_degrees) + extra_vertices,
            n_edges=stats.total_edges,
            work_per_edge=work_per_edge,
            balance=stats.balance,
            launches=launches,
        )
        self.clocks.add_compute(rank, t)

    def charge_vertices(self, rank: int, n_vertices: int, launches: int = 1) -> None:
        """Charge a per-vertex kernel (queue builds, initialization)."""
        t = self.costmodel.kernel_time(
            n_vertices=n_vertices, launches=launches
        )
        self.clocks.add_compute(rank, t)

    def charge_edges_ranks(
        self,
        lengths: np.ndarray,
        queue_degrees: np.ndarray,
        cache_key: Optional[str] = None,
    ) -> None:
        """:meth:`charge_edges` for every rank in one batched call.

        ``queue_degrees`` concatenates the ranks' queue degrees in rank
        order and ``lengths[r]`` is rank ``r``'s queue length.  The
        schedule model runs segmented, one segment per rank, and each
        rank's clock gets exactly the charge :meth:`charge_edges` would
        give it.  ``cache_key`` memoizes the per-rank charges of a
        static queue, as in :meth:`schedule_stats`.
        """
        key = None if cache_key is None else self._schedule_scope + ("ranks", cache_key)
        seconds = self._schedule_cache.get(key) if key is not None else None
        if seconds is None:
            if self.load_balance == "manhattan":
                stats = manhattan_schedule_segments(queue_degrees, lengths)
            else:
                stats = vertex_per_thread_segments(queue_degrees, lengths)
            seconds = self.costmodel.kernel_times(
                lengths, stats.total_edges, stats.balance
            )
            if key is not None:
                self._schedule_cache[key] = seconds
        self.clocks.add_compute_ranks(seconds)

    def charge_vertices_ranks(self, n_vertices: np.ndarray) -> None:
        """:meth:`charge_vertices` for every rank: rank ``r`` is charged
        a kernel over ``n_vertices[r]`` vertices."""
        self.clocks.add_compute_ranks(self.costmodel.kernel_times(n_vertices))

    # ------------------------------------------------------------------
    # robustness: fault injection and checkpoint/recovery (repro.faults)
    # ------------------------------------------------------------------
    def attach_faults(self, faults, max_retries: int = 4):
        """Route all collectives through a fault-injecting
        :class:`~repro.faults.resilient.ResilientCommunicator`.

        ``faults`` is a :class:`~repro.faults.plan.FaultPlan` or an
        already-built :class:`~repro.faults.injector.FaultInjector`.
        Returns the injector (for event inspection).  Imported lazily —
        ``repro.faults`` sits above the core in the layer order.
        """
        from ..faults.injector import FaultInjector
        from ..faults.plan import FaultPlan
        from ..faults.resilient import ResilientCommunicator

        if isinstance(faults, FaultPlan):
            bad = [
                s
                for s in faults
                if s.rank is not None and s.rank >= self.n_ranks
            ]
            if bad:
                listing = ", ".join(
                    f"{s.kind}@superstep {s.superstep} rank={s.rank}"
                    for s in bad
                )
                raise ValueError(
                    f"fault plan targets ranks outside this engine's "
                    f"[0, {self.n_ranks}): {listing}"
                )
            injector = FaultInjector(faults)
        else:
            injector = faults
        self._injector = injector
        self._last_injector = injector
        self.comm = ResilientCommunicator(
            self._base_comm, injector, max_retries=max_retries
        )
        return injector

    def detach_faults(self) -> None:
        """Unwrap the communicator; fault events stay readable via
        :attr:`fault_events` until the next :meth:`attach_faults`."""
        self.comm = self._base_comm
        self._injector = None

    def attach_checkpoints(self, manager) -> None:
        """Save a checkpoint at every (interval-matching) superstep
        boundary; ``manager`` is a
        :class:`~repro.faults.checkpoint.CheckpointManager`."""
        self._checkpoints = manager

    @property
    def checkpoints(self):
        return self._checkpoints

    def attach_health(self, monitor) -> None:
        """Sample per-rank progress at every superstep boundary;
        ``monitor`` is a :class:`~repro.faults.health.HealthMonitor`.
        Binding (re)baselines it against this engine's current clocks.
        """
        self._health = monitor
        monitor.bind(self)

    @property
    def health(self):
        return self._health

    def attach_autoscaler(self, controller) -> None:
        """Give ``controller`` (an object with ``on_boundary(engine,
        superstep)`` and ``spare_arrived(engine, superstep, count)``,
        e.g. :class:`~repro.faults.health.AutoscaleRecovery`) the
        boundary hook where it may raise
        :class:`~repro.faults.injector.RankDemotion` or
        :class:`~repro.faults.injector.SpareArrival`."""
        self._autoscaler = controller

    def attach_integrity(self, ledger) -> None:
        """Verify state-array integrity at superstep boundaries;
        ``ledger`` is a
        :class:`~repro.faults.integrity.IntegrityLedger`.  The ledger
        runs *after* planned memflips land and *before* the boundary's
        checkpoint is saved, so saved checkpoints are verified-good."""
        self._integrity = ledger

    @property
    def integrity(self):
        return self._integrity

    @property
    def fault_events(self) -> list:
        """Fault events observed by the current (or most recent)
        injector, plus any elastic regrid events, as plain dicts —
        trace rows and reports attach these."""
        inj = self._injector or self._last_injector
        events = [e.as_dict() for e in inj.events] if inj is not None else []
        events.extend(self._regrid_events)
        events.sort(key=lambda e: e.get("superstep", 0))
        return events

    def record_event(self, event: dict) -> None:
        """Record one robustness event (regrid, health transition,
        demotion, grow, hold, checkpoint skip, ...); it surfaces
        through :attr:`fault_events` and therefore on trace rows.
        Events should carry a ``"superstep"`` key so the trace recorder
        can attach them to the right iteration row."""
        self._regrid_events.append(event)

    def rebuild_on_grid(self, grid: Grid2D) -> "Engine":
        """Build a fresh engine for the same graph on a new grid.

        The elastic-recovery seam: the new engine re-partitions the
        graph with the original distribution/seed/cluster/profile
        configuration, reuses this engine's executor, carries the
        communication counters and virtual clocks forward
        (:meth:`VirtualClocks.align_state` reshapes the per-rank lanes
        onto the new rank count), and re-attaches the same fault
        injector and checkpoint manager so remaining planned faults
        and the checkpoint series follow the run onto the new grid.
        Regrid-event history is shared, not copied.
        """
        new = Engine(
            self.graph,
            grid=grid,
            executor=self.executor,
            **self._rebuild_args,
        )
        # Share (don't copy) the schedule cache: entries are keyed by
        # grid scope, so a later regrid back onto a previously-used grid
        # starts warm instead of re-deriving every schedule.
        new._schedule_cache = self._schedule_cache
        new.counters.load_state(self.counters.state_dict())
        new.clocks.load_state(
            VirtualClocks.align_state(self.clocks.state_dict(), grid.n_ranks)
        )
        if self._injector is not None:
            max_retries = getattr(self.comm, "max_retries", 4)
            new.attach_faults(self._injector, max_retries=max_retries)
        if self._checkpoints is not None:
            new.attach_checkpoints(self._checkpoints)
        if self._health is not None:
            # Re-binding resizes the ledger to the new rank count and
            # re-baselines scores (rank identities changed anyway).
            new.attach_health(self._health)
        if self._autoscaler is not None:
            new.attach_autoscaler(self._autoscaler)
        if self._integrity is not None:
            new.attach_integrity(self._integrity)
        new.spare_ranks = self.spare_ranks
        new._regrid_events = self._regrid_events
        return new

    def superstep_boundary(self, algo: str = "", state: Optional[dict] = None):
        """Mark the end of a BSP superstep.

        This is the robustness-aware replacement for calling
        ``engine.clocks.mark_iteration()`` directly: it records the
        iteration mark (returning the phase-time delta, as before),
        saves a checkpoint when a manager is attached and the algorithm
        supplied its loop ``state``, delivers planned spare arrivals,
        advances the fault injector to the next superstep, feeds the
        health monitor a progress sample, and gives the autoscaler its
        decision point.  Algorithms call this exactly once per
        superstep.

        The ordering is deliberate: planned memflips land first
        (corruption strikes between the compute that produced the
        state and the hash that should catch it), then the attached
        :class:`~repro.faults.integrity.IntegrityLedger` verifies —
        *before* the checkpoint is saved, so corrupt state is never
        checkpointed — and the checkpoint is saved *before* the
        autoscaler may raise
        :class:`~repro.faults.injector.RankDemotion` /
        :class:`~repro.faults.injector.SpareArrival`, so a demotion or
        grow drains from the checkpoint of *this* boundary and the
        resumed run recomputes nothing.
        """
        delta = self.clocks.mark_iteration()
        superstep = len(self.clocks.iteration_marks)
        if self._injector is not None:
            flips = self._injector.memflips_for(superstep)
            if flips:
                from ..faults.integrity import apply_memflip
                from ..faults.plan import FaultEvent

                for spec in flips:
                    # A rank lost to an earlier regrid cannot corrupt
                    # the survivors' state; the spec is still consumed.
                    if spec.rank is not None and spec.rank < self.n_ranks:
                        apply_memflip(self.contexts[spec.rank], spec)
                    self._injector.record(
                        FaultEvent(
                            kind="memflip",
                            rank=spec.rank,
                            superstep=superstep,
                            collective="boundary",
                            detected=False,
                        )
                    )
        if self._integrity is not None:
            checkpoint_due = (
                self._checkpoints is not None
                and state is not None
                and superstep % self._checkpoints.interval == 0
            )
            self._integrity.on_boundary(
                self, superstep, checkpoint_due=checkpoint_due
            )
        if self._checkpoints is not None and state is not None:
            self._checkpoints.maybe_save(self, superstep, algo, state)
        if self._injector is not None:
            arrivals = self._injector.arrivals_for(superstep)
            if arrivals:
                from ..faults.plan import FaultEvent

                for spec in arrivals:
                    self.spare_ranks += spec.count
                    self._injector.record(
                        FaultEvent(
                            kind="recover",
                            rank=None,
                            superstep=superstep,
                            collective="boundary",
                        )
                    )
                    if self._autoscaler is not None:
                        self._autoscaler.spare_arrived(
                            self, superstep, spec.count
                        )
            self._injector.begin_superstep(superstep + 1)
        if self._health is not None:
            self._health.observe(self, superstep)
        if self._autoscaler is not None:
            self._autoscaler.on_boundary(self, superstep)
        return delta

    def restore(self, ckpt) -> None:
        """Restore engine state from a
        :class:`~repro.faults.checkpoint.Checkpoint`, in place.

        Per-rank arrays are reallocated through the normal ``alloc``
        path (so device ledgers stay consistent and array identities
        are fresh), counters and clocks are restored bit-exactly, and
        an attached injector is fast-forwarded to the checkpoint's
        superstep so remaining planned faults line up with the resumed
        run.
        """
        for ctx, saved in zip(self.contexts, ckpt.states):
            for name in [n for n in ctx.arrays if n not in saved]:
                ctx.free(name)
            for name, arr in saved.items():
                dest = ctx.alloc(
                    name,
                    dtype=arr.dtype,
                    length=arr.shape[0],
                    width=arr.shape[1] if arr.ndim == 2 else None,
                )
                dest[...] = arr
        self.counters.load_state(ckpt.counters)
        self.clocks.load_state(ckpt.clocks)
        if self._injector is not None:
            self._injector.begin_superstep(ckpt.superstep + 1)
        if self._integrity is not None:
            # Drop ledger rows from the abandoned attempt; the restored
            # clocks already erased its transient certify charges.
            self._integrity.rewind(ckpt.superstep)
        if self._health is not None:
            # Clocks just rewound; re-baseline so the next observation
            # diffs against the restored values, not the pre-crash ones.
            self._health.bind(self)

    def resume_from_checkpoint(self, algo: str) -> Optional[dict]:
        """Restore from the attached manager's latest checkpoint.

        Returns a fresh copy of the algorithm loop state saved with the
        checkpoint, or ``None`` when there is nothing to resume from
        (no manager attached, or no checkpoint saved yet).  Refuses to
        resume a different algorithm's checkpoint.
        """
        import copy as _copy

        if self._checkpoints is None:
            return None
        ckpt = self._checkpoints.latest()
        if ckpt is None:
            return None
        if ckpt.algo != algo:
            raise ValueError(
                f"latest checkpoint belongs to {ckpt.algo!r}, "
                f"cannot resume {algo!r} from it"
            )
        self.restore(ckpt)
        return _copy.deepcopy(ckpt.algo_state)

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def reset_timers(self) -> None:
        """Zero all clocks and counters (before a timed run).

        Resets **in place**: ``engine.counters``, ``engine.clocks``,
        and ``engine.comm`` keep their identities, so a
        :class:`~repro.core.trace.TraceRecorder` or any caller holding
        a reference observes the reset instead of silently watching an
        orphaned object.  Robustness state resets with the run: an
        attached fault injector re-arms its plan, and stale checkpoints
        from a previous run are dropped (they describe state this run
        will overwrite).
        """
        self.counters.reset()
        self.clocks.reset()
        self._regrid_events.clear()
        self.spare_ranks = 0
        if self._injector is not None:
            self._injector.reset()
        if self._checkpoints is not None:
            self._checkpoints.clear()
        if self._integrity is not None:
            self._integrity.reset()
        if self._health is not None:
            self._health.bind(self)

    def timing_report(self) -> TimingReport:
        snap = self.clocks.snapshot()
        # per-iteration deltas from the cumulative marks
        marks = self.clocks.iteration_marks
        deltas = []
        prev = None
        for m in marks:
            deltas.append(m if prev is None else m - prev)
            prev = m
        return TimingReport(
            total=snap.total,
            compute=snap.compute,
            comm=snap.comm,
            per_iteration=tuple(deltas),
            recovery=self.clocks.recovery_total,
            regrid=self.clocks.regrid_total,
            overlap=self.clocks.overlap_total,
            certify=self.clocks.certify_total,
        )

    def memory_report(self) -> dict[int, float]:
        """Peak modeled memory utilization per rank."""
        return {ctx.rank: ctx.device.utilization() for ctx in self.contexts}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Engine({self.grid}, cluster={self.cluster.name}, "
            f"N={self.graph.n_vertices}, M={self.graph.n_edges})"
        )
