"""Bit-identity digests of the exchange-heavy algorithms, per case.

Each case runs one algorithm on one grid and hashes everything a
change to the simulator's host-side execution must leave untouched:
the result values and array-valued extras, every per-rank clock lane,
the per-iteration marks, and the ``CommCounters`` summary.  The
digests recorded in ``golden_digests.json`` pin those numbers;
``test_golden.py`` recomputes and compares them.

Regenerate the fixture (only when a change is *meant* to move modeled
numbers, and say so in the change description)::

    PYTHONPATH=src python -m tests.core.golden --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

from repro import Engine
from repro.algorithms.batch import bfs_batch, pagerank_batch, sssp_batch
from repro.algorithms.bfs import bfs
from repro.algorithms.components import connected_components
from repro.algorithms.matching import max_weight_matching
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.comm.grid import Grid2D
from repro.graph import path_graph, rmat, web_graph

FIXTURE = Path(__file__).with_name("golden_digests.json")

#: (label, R, C): square, non-square both ways, and the trivial grid.
GRIDS = [
    ("1x1", 1, 1),
    ("2x2", 2, 2),
    ("4x4", 4, 4),
    ("2x8", 2, 8),
    ("8x2", 8, 2),
]

#: Clock lanes hashed per rank.
LANES = ("clock", "compute", "comm", "overlap", "recovery", "regrid", "certify")


def _graphs() -> dict:
    return {
        "rmat8": rmat(8, edgefactor=8, seed=3).with_random_weights(seed=4),
        # Power-law core plus pendant chains: long sparse-push tails.
        "web": web_graph(1500, 6000, seed=5).with_random_weights(seed=6),
        # Three vertices on sixteen ranks: empty row blocks, and on the
        # 4x4 grid one rank with no state at all (N_T = 0).
        "path3": path_graph(3).with_random_weights(seed=2),
    }


def _roots(graph, k: int) -> list[int]:
    """The ``k`` highest-degree vertices (ties by id), deterministic."""
    deg = graph.degrees()
    order = np.lexsort((np.arange(deg.size), -deg))
    return [int(v) for v in order[:k]]


def _personalization(graph) -> np.ndarray:
    """A deterministic teleport vector with zeros and unequal weights."""
    return (np.arange(graph.n_vertices) % 4).astype(np.float64)


def _algorithms(graph) -> dict:
    r1 = _roots(graph, 1)[0]
    return {
        "cc_push_switch": lambda e: connected_components(e),
        "cc_push_sparse": lambda e: connected_components(e, mode="sparse"),
        "cc_push_dense": lambda e: connected_components(e, mode="dense"),
        "cc_pull_switch": lambda e: connected_components(e, direction="pull"),
        "bfs": lambda e: bfs(e, r1),
        "bfs_batch_k3": lambda e: bfs_batch(e, _roots(graph, 3)),
        "bfs_batch_k8": lambda e: bfs_batch(e, _roots(graph, 8)),
        "sssp": lambda e: sssp(e, r1),
        "sssp_batch_k3": lambda e: sssp_batch(e, _roots(graph, 3)),
        "matching": lambda e: max_weight_matching(e),
        "pagerank": lambda e: pagerank(e),
        "pagerank_personalized": lambda e: pagerank(
            e, personalization=_personalization(graph)
        ),
        "pagerank_weighted": lambda e: pagerank(e, weighted=True),
        "pagerank_tol": lambda e: pagerank(e, tol=1e-6),
        "pagerank_batch_k3": lambda e: pagerank_batch(e, _roots(graph, 3)),
    }


def cases() -> list[tuple[str, str, int, int, bool, str]]:
    """Every ``(case_id, graph, R, C, overlap, algorithm)``."""
    out = []
    algos = list(_algorithms(path_graph(2)))
    for gname, grids in (
        ("rmat8", GRIDS),
        ("web", [("4x4", 4, 4)]),
        ("path3", [("4x4", 4, 4), ("2x8", 2, 8)]),
    ):
        for glabel, R, C in grids:
            for overlap in (False, True):
                for algo in algos:
                    tag = "ovl" if overlap else "blk"
                    out.append(
                        (f"{gname}-{glabel}-{tag}-{algo}", gname, R, C, overlap, algo)
                    )
    return out


def digest(engine: Engine, result) -> str:
    """SHA-256 over values, extras, per-rank lanes, marks and counters."""
    h = hashlib.sha256()

    def put_array(a) -> None:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())

    put_array(result.values)
    for key in sorted(result.extra):
        val = result.extra[key]
        h.update(key.encode())
        if isinstance(val, np.ndarray):
            put_array(val)
        else:
            h.update(repr(val).encode())
    state = engine.clocks.state_dict()
    for lane in LANES:
        h.update(lane.encode())
        put_array(state[lane])
    h.update(repr(state["iteration_marks"]).encode())
    h.update(repr(sorted(engine.counters.summary().items())).encode())
    h.update(repr(result.iterations).encode())
    return h.hexdigest()


def compute(selected=None) -> dict[str, str]:
    """Digest of every case (or of the ``selected`` case ids)."""
    graphs = _graphs()
    algos = {name: _algorithms(g) for name, g in graphs.items()}
    out = {}
    for case_id, gname, R, C, overlap, algo in cases():
        if selected is not None and case_id not in selected:
            continue
        engine = Engine(
            graphs[gname], grid=Grid2D(R=R, C=C), executor="serial", overlap=overlap
        )
        result = algos[gname][algo](engine)
        out[case_id] = digest(engine, result)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the fixture")
    args = parser.parse_args()
    digests = compute()
    if args.write:
        FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {FIXTURE}")
        return
    recorded = json.loads(FIXTURE.read_text())
    bad = sorted(c for c in digests if recorded.get(c) != digests[c])
    print(f"{len(digests) - len(bad)}/{len(digests)} digests match")
    for c in bad:
        print("  differs:", c)


if __name__ == "__main__":
    main()
