"""The benchmark's workloads: inputs, one op, and the correctness check.

An op is one call of the workload's queries: eight BFS roots through
``bfs_batch`` then PageRank and CC on the web stand-in, or a guarded
BFS + PR + CC triple.

Inputs come from the bench seed alone: root workloads draw a pool of
``pool_size`` distinct degree>0 roots, and op ``i`` takes the next roots
of that pool in a cycle, so oracle answers are computed once per root
and ops one cycle apart must repeat every modeled number exactly.  The
program receives only the generated graph and roots.
"""

from __future__ import annotations

import numpy as np

from repro import Engine, algorithms
from repro.comm.clocks import VirtualClocks
from repro.faults import CheckpointManager, HealthMonitor, IntegrityLedger
from repro.graph import rmat
from repro.graph.datasets import load
from repro.reference import serial

# Bound before any tracer patches VirtualClocks: the bench's own reads
# of the per-rank lanes must not show up as clock-layer calls.
_per_rank_lanes = VirtualClocks.per_rank_lanes

RANKS = 16
#: PageRank oracle tolerance (relative, per vertex): the distributed
#: sums run in another order than the serial sparse product.
PR_RTOL = 1e-9
PR_ATOL = 1e-15

#: ``full`` is what ``BENCHMARK.json`` runs; ``tiny`` is the smoke test.
SIZES = {
    "full": {"web_edges": 1 << 18, "guard_scale": 12},
    "tiny": {"web_edges": 1 << 14, "guard_scale": 7},
}


class OpRecord:
    """What one op produced that the bench keeps: modeled lanes, comm
    counters, the per-rank compute lane, and a digest of all of it."""

    __slots__ = ("total", "lanes", "counters", "rank_compute", "iterations", "signature")

    def __init__(self, results, rank_computes):
        self.total = sum(r.timings.total for r in results)
        self.lanes = {
            lane: sum(getattr(r.timings, lane) for r in results)
            for lane in ("compute", "comm", "overlap", "recovery", "certify")
        }
        self.counters: dict[str, dict[str, int]] = {}
        for r in results:
            for kind, stats in r.counters.items():
                agg = self.counters.setdefault(kind, dict.fromkeys(stats, 0))
                for key, value in stats.items():
                    agg[key] += value
        self.rank_compute = np.sum(rank_computes, axis=0)
        self.iterations = sum(r.iterations for r in results)
        self.signature = repr(
            [
                (
                    r.timings.total, r.timings.compute, r.timings.comm,
                    r.timings.overlap, r.timings.recovery, r.timings.regrid,
                    r.timings.certify, tuple(p.total for p in r.timings.per_iteration),
                    sorted((k, sorted(v.items())) for k, v in r.counters.items()),
                )
                for r in results
            ]
            + [c.tobytes().hex() for c in rank_computes]
        )


class Workload:
    """Base: inputs, op and checks; perfbench/README.md says why each
    workload exists."""

    name = ""
    #: Queries (algorithm runs) per op, for medge_per_gauge.
    queries_per_op = 1
    #: Distinct roots in the stream; modeled time varies by root, so
    #: the batched workload averages it over a larger pool.
    pool_size = 64
    #: Roots per op.
    roots_per_op = 1
    #: Algorithms an op runs (selects the oracles to precompute).
    algos = frozenset({"bfs"})

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = SIZES[size]
        self.graph = None
        self._levels: dict[int, np.ndarray] = {}
        self._pr = self._cc = None

    # -- inputs ---------------------------------------------------------
    def build_graph(self):
        raise NotImplementedError

    def make_engine(self, graph) -> Engine:
        return Engine(graph, RANKS, executor="serial")

    def prepare(self, graph) -> None:
        """Derive the root stream and the edge list the checks use
        (outside every timed region)."""
        self.graph = graph
        n = graph.n_vertices
        self._src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
        self._dst = graph.indices.astype(np.int64)
        live = np.flatnonzero(graph.degrees() > 0)
        if live.size < self.pool_size:
            raise ValueError(
                f"{self.name}: {live.size} roots with degree > 0, need {self.pool_size}"
            )
        rng = np.random.default_rng(self.seed)
        self.pool = rng.choice(live, size=self.pool_size, replace=False)
        self.fill_oracles()

    def fill_oracles(self) -> None:
        """Compute the serial answers the checks compare against."""
        if "bfs" in self.algos:
            for root in map(int, self.pool):
                levels = serial.bfs_levels(self.graph, root)
                self._levels[root] = levels.astype(np.int32)
        if "pr" in self.algos:
            self._pr = serial.pagerank(self.graph, iterations=20)
        if "cc" in self.algos:
            self._cc = serial.canonical_labels(serial.connected_components(self.graph))

    @property
    def cycle(self) -> int:
        """Ops until the root stream repeats."""
        return self.pool_size // self.roots_per_op

    def roots(self, i: int) -> list[int]:
        k = self.roots_per_op
        return [int(self.pool[(i * k + j) % self.pool_size]) for j in range(k)]

    # -- the op ---------------------------------------------------------
    def queries(self, engine, i: int, call) -> list:
        raise NotImplementedError

    def run_op(self, engine, i: int, call=None) -> tuple[list, OpRecord]:
        """Run op ``i``; ``call(fn, *args, **kw)`` wraps each algorithm
        call (the tracer passes one that opens a span)."""
        computes = []

        def run(fn, *args, **kwargs):
            res = call(fn, *args, **kwargs) if call else fn(*args, **kwargs)
            computes.append(_per_rank_lanes(engine.clocks)["compute"])
            return res

        results = self.queries(engine, i, run)
        return results, OpRecord(results, computes)

    # -- checks ---------------------------------------------------------
    def check_bfs(self, root, parents, levels, full: bool) -> list[str]:
        """Levels must equal the serial oracle; parents must form a BFS
        tree.  The tree test is ``serial.bfs_parents_valid``'s
        invariants in vectorized form; ``full`` also runs that oracle
        itself (it loops in Python, so once per run)."""
        want = self._levels[root]
        if not np.array_equal(levels, want):
            return [f"bfs root {root}: levels differ from serial.bfs_levels"]
        reached = want >= 0
        non_root = reached.copy()
        non_root[root] = False
        p = parents[non_root]
        has_edge = np.zeros(reached.size, dtype=bool)
        on_tree = parents[self._src] == self._dst
        has_edge[self._src[on_tree]] = True
        ok = (
            parents[root] == root
            and np.array_equal(parents >= 0, reached)
            and np.all(want[p] == want[non_root] - 1)
            and np.all(has_edge[non_root])
        )
        if ok and full:
            ok = serial.bfs_parents_valid(self.graph, root, parents)
        return [] if ok else [f"bfs root {root}: invalid parent tree"]

    def check_pagerank(self, res) -> list[str]:
        if np.allclose(res.values, self._pr, rtol=PR_RTOL, atol=PR_ATOL):
            return []
        return ["pagerank differs from serial.pagerank"]

    def check_cc(self, res) -> list[str]:
        if np.array_equal(serial.canonical_labels(res.values), self._cc):
            return []
        return ["connected_components differs from serial.connected_components"]

    def check(self, i: int, results: list, full: bool) -> list[str]:
        raise NotImplementedError


class WebOverlap(Workload):
    name = "web-overlap"
    queries_per_op = 10
    pool_size = 256
    roots_per_op = 8
    algos = frozenset({"bfs", "pr", "cc"})

    def build_graph(self):
        # The seed relabels the vertices: the same web graph, striped
        # over the ranks differently, so modeled time varies by seed.
        g = load("GSH", target_edges=self.size["web_edges"]).graph
        perm = np.random.default_rng(self.seed).permutation(g.n_vertices)
        return g.permute(perm)

    def make_engine(self, graph):
        return Engine(graph, RANKS, executor="serial", overlap=True)

    def queries(self, engine, i, run):
        return [
            run(algorithms.bfs_batch, engine, self.roots(i)),
            run(algorithms.pagerank, engine, iterations=20),
            run(algorithms.connected_components, engine),
        ]

    def check(self, i, results, full):
        batch, pr, cc = results
        errors = []
        for lane, root in enumerate(self.roots(i)):
            errors += self.check_bfs(
                root,
                np.ascontiguousarray(batch.values[:, lane]),
                batch.extra["levels"][:, lane],
                full and lane == 0,
            )
        return errors + self.check_pagerank(pr) + self.check_cc(cc)


class Guarded(Workload):
    name = "guarded"
    queries_per_op = 3
    algos = frozenset({"bfs", "pr", "cc"})

    def build_graph(self):
        return rmat(self.size["guard_scale"], seed=1)

    def make_engine(self, graph):
        engine = Engine(graph, RANKS, executor="serial")
        engine.attach_checkpoints(CheckpointManager(interval=1))
        engine.attach_integrity(IntegrityLedger())
        engine.attach_health(HealthMonitor())
        return engine

    def queries(self, engine, i, run):
        return [
            run(algorithms.bfs, engine, self.roots(i)[0], certify=True),
            run(algorithms.pagerank, engine, certify=True),
            run(algorithms.connected_components, engine, certify=True),
        ]

    def check(self, i, results, full):
        bfs, pr, cc = results
        errors = self.check_bfs(self.roots(i)[0], bfs.values, bfs.extra["levels"], full)
        errors += self.check_pagerank(pr) + self.check_cc(cc)
        for res in results:
            cert = res.extra.get("certification")
            if not (cert and cert["ok"]):
                errors.append(f"certification failed: {cert}")
        return errors


WORKLOADS = {w.name: w for w in (WebOverlap, Guarded)}
