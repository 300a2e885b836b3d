"""Benchmark of the simulator: host time, modeled time and correctness.

Run from the repository root::

    python3 perfbench/run.py --workload guarded --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer split from a traced pass (see perfbench/README.md).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every op matched its oracle and every modeled number repeated
exactly where the bench requires it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-ups spread over the measured window, besides the first.
SETUP_REPEATS = 9
MIN_OPS = 100
#: Ops the traced pass runs at most: spans are kept in memory, and
#: per-op averages settle well before this.
TRACED_OPS = 32


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


class Gauge:
    """A fixed reference kernel, timed next to every op.

    Other tenants of a shared host slow its CPU for seconds to minutes
    at a time: on a 2-core host the same op ran 1.7x slower in some 50-s
    runs than in others.  They slow this kernel by about the same
    factor, so an op's host time divided by the kernel's time next to it
    measures the program rather than the host.  The kernel mixes what an
    op spends its host time on: interpreter work on a small dict, and
    numpy calls on arrays of a few hundred to a few thousand elements.
    Its inputs are fixed; it depends on neither the seed nor the program.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.idx = rng.integers(0, 4096, 512)
        self.val = rng.random(4096)
        self()  # warm-up: first calls pay numpy's lazy set-up

    def __call__(self) -> float:
        """Run the kernel once; return its host seconds (~5 ms)."""
        np = self.np
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(20000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        acc = np.zeros(4096)
        for _ in range(200):
            np.add.at(acc, self.idx[:256], self.val[:256])
            np.minimum(acc, self.val, out=acc)
            np.flatnonzero(acc > 0.5)
            self.idx.argsort()
        return time.perf_counter() - t0


def percentile(values, q):
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Bench:
    def __init__(self, workload, seconds: float):
        self.w = workload
        self.seconds = seconds
        self.errors: list[str] = []
        self.warm = None
        self.attempted = 0
        self.failed = 0

    # -- set-up ----------------------------------------------------------
    def setup(self, call=None):
        """Build the graph and engine (hooks attached) and run one
        warm-up op; return ``(seconds, graph, engine, record)``."""
        call = call or (lambda name, fn, *a, **kw: fn(*a, **kw))
        gc.collect()
        t0 = time.perf_counter()
        graph = call("graph.build", self.w.build_graph)
        engine = call("setup.engine", self.w.make_engine, graph)
        results, record = self.w.run_op(engine, 0)
        elapsed = time.perf_counter() - t0
        del results
        return elapsed, graph, engine, record

    def first_setup(self):
        """Derive the root stream, then set up the engine the ops run on."""
        # The roots are drawn from the graph, so it is built once before
        # the timed set-ups.
        self.w.prepare(self.w.build_graph())
        elapsed, graph, engine, record = self.setup()
        self.warm = record.signature
        return elapsed, graph, engine

    def extra_setup(self) -> float:
        """One more set-up, discarded; its warm-up op must repeat the
        first set-up's modeled numbers exactly."""
        elapsed, _, _, record = self.setup()
        if record.signature != self.warm:
            self.errors.append("warm-up op modeled numbers differ between set-ups")
        return elapsed

    # -- the closed loop ---------------------------------------------------
    def loop(self, engine, seconds, min_ops=0, max_ops=None, call=None, on_op=None,
             setups=0, gauge=None):
        """Run ops back to back for ``seconds`` (at least ``min_ops``, at
        most ``max_ops``); each op is timed alone, then checked outside
        its timed region.  ``setups`` extra set-ups are spread evenly
        over the window, between ops, so their median sees the same host
        conditions as the ops do; their times are returned.

        With a ``gauge``, it runs before every op and once after the
        last, and each op's time is also returned divided by the mean of
        the gauge times just before and just after it."""
        times, records, setup_times, rel = [], [], [], []
        pending = None  # (op seconds, gauge seconds before it)
        gc.collect()
        start = time.perf_counter()
        deadline = start + seconds
        due = [start + (k + 0.5) * seconds / setups for k in range(setups)]
        i = 0
        while (time.perf_counter() < deadline or i < min_ops) and (
            max_ops is None or i < max_ops
        ):
            if due and time.perf_counter() >= due[0]:
                due.pop(0)
                setup_times.append(self.extra_setup())
            if on_op:
                on_op(i)
            if gauge:
                g = gauge()
                if pending:
                    rel.append(pending[0] / ((pending[1] + g) / 2))
                pending = None
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                results, record = self.w.run_op(engine, i, call)
                times.append(time.perf_counter() - t0)
                if gauge:
                    pending = (times[-1], g)
                errors = self.w.check(i, results, full=(i == 0))
            except Exception as exc:  # an op that raises is a failed op
                errors = [f"op {i} raised {type(exc).__name__}: {exc}"]
                record = None
            if errors:
                self.failed += 1
                self.errors.extend(errors[:3])
            records.append(record)
            i += 1
        if pending:
            rel.append(pending[0] / ((pending[1] + gauge()) / 2))
        return times, records, setup_times, rel

    def check_repeats(self, records):
        """Ops one root-stream cycle apart must match exactly.

        The loop's op 0 is not compared with the warm-up op: with a
        checkpoint manager attached, the first op on a fresh engine
        snapshots fewer state arrays than later ones (earlier runs leave
        theirs on the ranks), so its modeled recovery time is lower.
        """
        cycle = self.w.cycle
        for i in range(cycle, len(records)):
            a, b = records[i - cycle], records[i]
            if a and b and a.signature != b.signature:
                self.errors.append(f"op {i} modeled numbers differ from op {i - cycle}")
                break

    def digest(self, records):
        sigs = [r.signature if r else "" for r in records[: self.w.cycle]]
        return hashlib.sha256("\n".join(sigs).encode()).hexdigest()[:16]

    # -- modes -------------------------------------------------------------
    def end_to_end(self):
        first, graph, engine = self.first_setup()
        # One full cycle at least, so modeled_s and the digest cover the
        # same ops on every run of a seed; MIN_OPS so op_gauge_p90 has ten
        # samples above it.
        gauge = Gauge()
        times, records, setup_times, rel = self.loop(
            engine, self.seconds, min_ops=max(self.w.cycle, MIN_OPS),
            setups=SETUP_REPEATS, gauge=gauge,
        )
        self.check_repeats(records)
        ok = [r for r in records[: self.w.cycle] if r]
        edges = self.w.queries_per_op * graph.n_edges
        metrics = {
            "setup_s": (statistics.median([first] + setup_times), "s"),
            "op_gauge_p50": (percentile(rel, 50), "gauge"),
            "op_gauge_p90": (percentile(rel, 90), "gauge"),
            "medge_per_gauge": (edges / statistics.fmean(rel) / 1e6, "Medge/gauge"),
            "modeled_s": (statistics.fmean(r.total for r in ok), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }
        # The raw host times, for the reader: on a shared host they move
        # with the host's load, so no metric is taken from them.
        op_ms = [t * 1e3 for t in times]
        raw = {
            "op_ms_p50": round(percentile(op_ms, 50), 3),
            "op_ms_p90": round(percentile(op_ms, 90), 3),
            "host_meps": round(len(times) * edges / sum(times) / 1e6, 4),
        }
        return graph, metrics, {"ops": len(times), "digest": self.digest(records), **raw}

    def per_layer(self):
        from tracer import Tracer, install_layers

        _, graph, engine = self.first_setup()
        plain_times, plain, _, _ = self.loop(engine, self.seconds / 2)
        self.check_repeats(plain)
        engine = None

        tracer = Tracer()
        install_layers(tracer)
        try:
            _, _, engine, traced_warm = self.setup(call=tracer.call)
            traced_setup = len(tracer.records)

            def set_op(i):
                tracer.op = i

            traced_times, traced, _, _ = self.loop(
                engine,
                self.seconds / 2,
                max_ops=min(len(plain), TRACED_OPS),
                call=lambda fn, *a, **kw: tracer.call("algorithms", fn, *a, **kw),
                on_op=set_op,
            )
        finally:
            tracer.uninstall()
        if traced_warm.signature != self.warm:
            self.errors.append("traced set-up changed the warm-up op's modeled numbers")
        for i, (a, b) in enumerate(zip(plain, traced)):
            if a and b and a.signature != b.signature:
                self.errors.append(f"tracing changed op {i}'s modeled numbers")
                break

        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{self.w.name}-seed{self.w.seed}.csv.gz")
        metrics = layer_metrics(tracer, traced_setup, traced, plain_times, traced_times)
        return graph, metrics, {"ops": len(traced_times), "spans": len(tracer.records)}


def layer_metrics(tracer, setup_records, records, plain_times, traced_times):
    """Per-op averages of the traced pass (graph.* per set-up)."""
    n = max(len(traced_times), 1)
    setup = {"graph.build": 0.0, "graph.partition": 0.0}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for idx, (record, own) in enumerate(zip(tracer.records, tracer.self_times())):
        name = record[0]
        if idx < setup_records:
            if name in setup:
                setup[name] += own
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own

    def c(name):
        return calls.get(name, 0) / n

    def ms(name):
        return self_s.get(name, 0.0) * 1e3 / n

    counts = tracer.counts
    ok = [r for r in records if r]
    m = max(len(ok), 1)

    def mean(fn):
        return sum(fn(r) for r in ok) / m

    def comm(kind, key="calls"):
        return mean(lambda r: r.counters.get(kind, {}).get(key, 0))

    def imbalance(r):
        avg = float(r.rank_compute.mean())
        return float(r.rank_compute.max()) / avg if avg > 0 else 1.0

    elems = counts["kernels.scatter.elems"]
    lookups = counts["core.schedule_cache.lookups"]
    k = min(len(plain_times), len(traced_times))
    out = {
        "graph.build_s": (setup["graph.build"], "s"),
        "graph.partition_s": (setup["graph.partition"], "s"),
        "algorithms.self_ms": (ms("algorithms"), "ms"),
        "algorithms.supersteps": (mean(lambda r: r.iterations), "count"),
        "exec.map_ranks.calls": (c("exec.map_ranks"), "count"),
        "exec.map_ranks.self_ms": (ms("exec.map_ranks"), "ms"),
        "kernels.scatter.calls": (c("kernels.scatter"), "count"),
        "kernels.scatter.self_ms": (ms("kernels.scatter"), "ms"),
        "kernels.scatter.elems": (elems / n, "count"),
        "kernels.scatter.useful_ratio": (
            counts["kernels.scatter.changed"] / elems if elems else 0.0, "ratio"),
        "kernels.lanes.calls": (c("kernels.lanes"), "count"),
        "kernels.lanes.self_ms": (ms("kernels.lanes"), "ms"),
        "queueing.expand.calls": (c("queueing.expand"), "count"),
        "queueing.expand.self_ms": (ms("queueing.expand"), "ms"),
        "queueing.expand.edges": (counts["queueing.expand.edges"] / n, "count"),
        "queueing.schedule.calls": (c("queueing.schedule"), "count"),
        "queueing.schedule.self_ms": (ms("queueing.schedule"), "ms"),
        "core.schedule_cache.hit_ratio": (
            counts["core.schedule_cache.hits"] / lookups if lookups else 0.0, "ratio"),
        "core.boundary.calls": (c("core.boundary"), "count"),
        "core.boundary.self_ms": (ms("core.boundary"), "ms"),
        "patterns.dense.calls": (c("patterns.dense"), "count"),
        "patterns.dense.self_ms": (ms("patterns.dense"), "ms"),
        "patterns.sparse.calls": (c("patterns.sparse"), "count"),
        "patterns.sparse.self_ms": (ms("patterns.sparse"), "ms"),
        "comm.collectives.calls": (c("comm.collectives"), "count"),
        "comm.collectives.self_ms": (ms("comm.collectives"), "ms"),
        "comm.allgatherv.calls": (comm("allgatherv"), "count"),
        "comm.allreduce.calls": (comm("allreduce"), "count"),
        "comm.bytes": (mean(lambda r: sum(s["bytes"] for s in r.counters.values())), "B"),
        "comm.clocks.calls": (c("comm.clocks"), "count"),
        "comm.clocks.self_ms": (ms("comm.clocks"), "ms"),
        "cluster.costmodel.calls": (c("cluster.costmodel"), "count"),
        "cluster.costmodel.self_ms": (ms("cluster.costmodel"), "ms"),
        "faults.integrity.calls": (c("faults.integrity"), "count"),
        "faults.integrity.self_ms": (ms("faults.integrity"), "ms"),
        "faults.checkpoint.calls": (c("faults.checkpoint"), "count"),
        "faults.checkpoint.self_ms": (ms("faults.checkpoint"), "ms"),
        "faults.checkpoint.bytes": (counts["faults.checkpoint.bytes"] / n, "B"),
        "faults.health.self_ms": (ms("faults.health"), "ms"),
        "faults.certify.self_ms": (ms("faults.certify"), "ms"),
        "modeled.compute_s": (mean(lambda r: r.lanes["compute"]), "s"),
        "modeled.comm_s": (mean(lambda r: r.lanes["comm"]), "s"),
        "modeled.overlap_s": (mean(lambda r: r.lanes["overlap"]), "s"),
        "modeled.recovery_s": (mean(lambda r: r.lanes["recovery"]), "s"),
        "modeled.certify_s": (mean(lambda r: r.lanes["certify"]), "s"),
        "modeled.imbalance": (mean(imbalance), "ratio"),
        "trace.overhead": (
            statistics.median(traced_times[:k]) / statistics.median(plain_times[:k])
            if k else 0.0,
            "ratio",
        ),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size (tiny is for the smoke test)",
    )
    args = parser.parse_args(argv)
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    bench = Bench(WORKLOADS[args.workload](args.seed, args.size), args.seconds)
    if args.trace:
        graph, metrics, info = bench.per_layer()
    else:
        graph, metrics, info = bench.end_to_end()

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "N": graph.n_vertices,
        "M": graph.n_edges,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **info,
    }
    print("# stamp " + json.dumps(stamp))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6g} {unit}")
    for error in bench.errors[:20]:
        print(f"# FAIL {error}", file=sys.stderr)
    correct = not bench.errors and bench.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
