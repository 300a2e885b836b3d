"""Golden bit-identity: the exchange-heavy algorithms reproduce recorded
digests of values, per-rank clock lanes, iteration marks and counters.

The digests were recorded with the per-rank (one closure per rank per
stage) superstep code, so they pin the rank-fused passes to exactly the
numbers the per-rank code produced — on square, R != C and 1x1 grids,
blocking and overlapped, and with empty rank blocks.  The PageRank
(plain, personalized, weighted, ``tol``, batched) and dense/pull CC
digests were recorded with one collective call per group and
per-rank PageRank closures, so they pin the stage collectives and the
rank-fused PageRank superstep the same way.  The four
``rmat8-2x8-*-bfs_batch_*`` digests were recorded after the R < C
frontier-aliasing fix in ``bfs_batch`` (the per-rank code crashed
there); ``test_batch_matches_single_source_on_wide_grid`` pins their
values to the single-source runs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Engine
from repro.algorithms.batch import bfs_batch
from repro.algorithms.bfs import bfs
from repro.comm.grid import Grid2D
from repro.graph import rmat

from . import golden

RECORDED = json.loads(golden.FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(RECORDED) == sorted(c[0] for c in golden.cases())


@pytest.mark.parametrize("case_id", [c[0] for c in golden.cases()])
def test_digest_matches_recorded(case_id):
    assert golden.compute({case_id}) == {case_id: RECORDED[case_id]}


@pytest.mark.parametrize("R,C", [(2, 8), (2, 4)])
def test_batch_matches_single_source_on_wide_grid(R, C):
    """Row-group members with different row offsets (R < C) still get
    their own LIDs for the shared frontier."""
    g = rmat(8, edgefactor=8, seed=3)
    roots = golden._roots(g, 8)
    batch = bfs_batch(Engine(g, grid=Grid2D(R=R, C=C)), roots)
    for lane, root in enumerate(roots):
        single = bfs(Engine(g, grid=Grid2D(R=R, C=C)), root)
        assert np.array_equal(batch.values[:, lane], single.values)
        assert np.array_equal(batch.extra["levels"][:, lane], single.extra["levels"])
