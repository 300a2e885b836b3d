"""Span tracer that wraps the program's layer entry points from outside.

The program itself carries no instrumentation: the tracer replaces
module-level names and class methods with timing wrappers while it is
installed, and puts every original back on :meth:`Tracer.uninstall`.
Call sites bind names at import time (``from ..kernels import
scatter_reduce``), so a function is replaced in every ``repro`` module
that holds it, not only where it is defined.

A span record is ``(name, start, end, parent, op)``: ``parent`` is the
index of the enclosing record (-1 for a root) and ``op`` the id of the
benchmark op the span belongs to.  Records stay in memory until
:meth:`Tracer.dump`.  A span's self time is its duration minus the time
its direct children cover; the bench runs single-threaded
(``executor="serial"``), so spans nest strictly.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

import numpy as np

_perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.records: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _wrap(self, name, fn, on_result=None):
        records, stack = self.records, self._stack

        def traced(*args, **kwargs):
            idx = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = _perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _perf_counter()
                stack.pop()
                records[idx] = (name, t0, t1, parent, self.op)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span opened by the bench itself."""
        return self._wrap(name, fn)(*args, **kwargs)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def replace(self, owner, attr, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def patch_function(self, fn, name, on_result=None, skip_defining=True):
        """Replace ``fn`` in every loaded ``repro`` module that binds it.

        ``skip_defining`` leaves the defining module's own global alone,
        so calls between functions of that module stay inside the
        caller's span (``scatter_reduce_lanes`` calling
        ``scatter_reduce`` is lane-kernel time, not scatter time).
        """
        traced = self._wrap(name, fn, on_result)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            if skip_defining and mod_name == fn.__module__:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, traced)

    def patch_methods(self, cls, names, span, on_result=None):
        for attr in names:
            self.replace(cls, attr, self._wrap(span, vars(cls)[attr], on_result))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # aggregation and output
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self seconds of every record, in record order."""
        own = [t1 - t0 for _, t0, t1, _, _ in self.records]
        for _, t0, t1, parent, _ in self.records:
            if parent >= 0:
                own[parent] -= t1 - t0
        return own

    def dump(self, path) -> None:
        """Write every span record as gzip'd CSV (times relative to the
        first record, in microseconds)."""
        base = self.records[0][1] if self.records else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("idx,name,start_us,end_us,parent,op\n")
            for idx, (name, t0, t1, parent, op) in enumerate(self.records):
                out.write(
                    f"{idx},{name},{(t0 - base) * 1e6:.1f},"
                    f"{(t1 - base) * 1e6:.1f},{parent},{op}\n"
                )


def install_layers(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark reports.

    The span names are the per-layer metric prefixes in
    ``BENCHMARK.json``.
    """
    from repro.cluster.costmodel import CostModel
    from repro.comm.clocks import VirtualClocks
    from repro.comm.collectives import Communicator
    from repro.core.engine import Engine
    from repro.faults import checkpoint, health, integrity
    from repro.graph.partition.twod import partition_2d
    from repro.kernels import scatter
    from repro.patterns import dense, sparse
    from repro.queueing import frontier, manhattan

    counts = tracer.counts

    def scatter_counts(args, kwargs, out):
        lids = kwargs["lids"] if "lids" in kwargs else args[1]
        counts["kernels.scatter.elems"] += np.size(lids)
        counts["kernels.scatter.changed"] += np.size(out)

    def expand_counts(args, kwargs, out):
        counts["queueing.expand.edges"] += out[1].size

    def checkpoint_bytes(args, kwargs, out):
        counts["faults.checkpoint.bytes"] += out.nbytes

    tracer.patch_function(scatter.scatter_reduce, "kernels.scatter", scatter_counts)
    tracer.patch_function(scatter.scatter_reduce_lanes, "kernels.lanes")
    # expand_block calls expand_csr through its own module, so the
    # defining module is wrapped too.
    tracer.patch_function(
        frontier.expand_csr, "queueing.expand", expand_counts, skip_defining=False
    )
    for fn in (manhattan.manhattan_schedule, manhattan.vertex_per_thread_balance):
        tracer.patch_function(fn, "queueing.schedule")
    for fn in (dense.dense_push, dense.dense_pull, dense.dense_exchange,
               dense.dense_exchange_lanes):
        tracer.patch_function(fn, "patterns.dense")
    for fn in (sparse.sparse_push, sparse.sparse_pull, sparse.propagate_active_pull,
               sparse.sparse_push_lanes):
        tracer.patch_function(fn, "patterns.sparse")
    tracer.patch_function(partition_2d, "graph.partition")
    # Result certifiers are imported at call time from the integrity
    # module, so the defining module's names are the ones to wrap.
    for fn in (integrity.certify_bfs, integrity.certify_cc,
               integrity.certify_pagerank, integrity.certify_sssp):
        tracer.patch_function(fn, "faults.certify", skip_defining=False)

    tracer.patch_methods(Engine, ["map_ranks"], "exec.map_ranks")
    tracer.patch_methods(Engine, ["superstep_boundary"], "core.boundary")
    tracer.patch_methods(
        Communicator,
        ["allreduce", "broadcast", "grouped_broadcast", "allgatherv", "sendrecv",
         "alltoallv", "start_allreduce", "start_allgatherv", "start_alltoallv",
         "wait"],
        "comm.collectives",
    )
    tracer.patch_methods(
        VirtualClocks,
        ["add_compute", "sync_group", "add_stall", "charge_recovery",
         "charge_regrid", "charge_certify", "issue_collective",
         "complete_collective", "barrier", "snapshot", "mark_iteration",
         "per_rank_lanes", "state_dict", "load_state"],
        "comm.clocks",
    )
    tracer.patch_methods(
        CostModel,
        ["kernel_time", "spmv_time", "allreduce_time", "broadcast_time",
         "grouped_broadcast_time", "allgather_time", "sendrecv_time",
         "alltoall_time"],
        "cluster.costmodel",
    )
    tracer.patch_methods(integrity.IntegrityLedger, ["on_boundary"], "faults.integrity")
    tracer.patch_methods(
        checkpoint.CheckpointManager, ["save"], "faults.checkpoint", checkpoint_bytes
    )
    tracer.patch_methods(health.HealthMonitor, ["observe", "bind"], "faults.health")

    schedule_stats = Engine.schedule_stats

    def schedule_lookup(engine, *args, **kwargs):
        # A lookup hits when the engine answers without running the
        # schedule model (no queueing.schedule span opened inside).
        before = len(tracer.records)
        out = schedule_stats(engine, *args, **kwargs)
        ran = any(rec[0] == "queueing.schedule" for rec in tracer.records[before:])
        counts["core.schedule_cache.lookups"] += 1
        counts["core.schedule_cache.hits"] += 0 if ran else 1
        return out

    tracer.replace(Engine, "schedule_stats", schedule_lookup)
