"""Rank-stacked state: ``Engine.stacked`` across the state lifecycle.

``stacked(name)`` concatenates every rank's array once and rebinds each
``ctx.arrays[name]`` to its view; later calls return the same buffer
after an identity check.  Every lifecycle event — restore, regrid,
memflip repair, adopt/free, re-alloc — must keep values and device
ledgers intact, and checkpointed runs of the rank-fused algorithms
must resume bit-identically.
"""

import numpy as np
import pytest

from repro import Engine
from repro.algorithms.batch import bfs_batch
from repro.algorithms.components import connected_components
from repro.comm.grid import Grid2D
from repro.faults import CheckpointManager, FaultPlan, FaultSpec, RankFailure
from repro.faults.integrity import apply_memflip
from repro.graph import path_graph, rmat

GRAPH = rmat(8, edgefactor=8, seed=5)


def _fill(engine, name="x", width=None, dtype=np.float64):
    """Allocate ``name`` per rank with rank-distinct values."""
    for ctx in engine:
        arr = ctx.alloc(name, dtype=dtype, width=width)
        vals = np.arange(arr.size).reshape(arr.shape) + 1000 * ctx.rank
        arr[...] = vals.astype(dtype)
    return [ctx.get(name).copy() for ctx in engine]


def _ledgers(engine):
    return [(dict(c.device.ledger), c.device.allocated_bytes) for c in engine]


def _check_views(engine, name, want):
    buf, base = engine.stacked(name)
    for ctx, w in zip(engine, want):
        arr = ctx.get(name)
        assert arr.size == 0 or np.shares_memory(arr, buf)
        assert np.array_equal(arr, w)
        assert np.array_equal(buf[base[ctx.rank] : base[ctx.rank + 1]], w)
    return buf, base


class TestStacked:
    def test_first_call_stacks_then_identity(self):
        engine = Engine(GRAPH, 16)
        want = _fill(engine)
        ledgers = _ledgers(engine)
        buf, base = _check_views(engine, "x", want)
        assert base[0] == 0 and base[-1] == buf.shape[0]
        assert _ledgers(engine) == ledgers
        again, base2 = engine.stacked("x")
        assert again is buf and base2 is base

    def test_writes_through_views_and_buffer(self):
        engine = Engine(GRAPH, 4)
        _fill(engine)
        buf, base = engine.stacked("x")
        engine.ctx(2).get("x")[0] = -5.0
        assert buf[base[2]] == -5.0
        buf[base[3] + 1] = -7.0
        assert engine.ctx(3).get("x")[1] == -7.0

    def test_lane_state_rows(self):
        engine = Engine(GRAPH, 16)
        want = _fill(engine, width=3)
        buf, base = _check_views(engine, "x", want)
        assert buf.shape == (base[-1], 3) and buf.flags.c_contiguous
        assert all(ctx.get("x").flags.c_contiguous for ctx in engine)

    def test_empty_rank_blocks_repeat_bases(self):
        engine = Engine(path_graph(3), 16)
        want = _fill(engine)
        buf, base = _check_views(engine, "x", want)
        sizes = np.diff(base)
        assert (sizes == 0).any()
        idx = np.arange(buf.shape[0])
        owner = np.searchsorted(base, idx, side="right") - 1
        for i, r in zip(idx, owner):
            assert base[r] <= i < base[r + 1]

    def test_mismatched_dtype_rejected(self):
        engine = Engine(GRAPH, 4)
        _fill(engine)
        engine.ctx(1).alloc("x", dtype=np.int32)
        with pytest.raises(ValueError, match="cannot stack"):
            engine.stacked("x")

    def test_stacked_full_rejects_short_states(self):
        engine = Engine(GRAPH, 4)
        for ctx in engine:
            ctx.alloc("short", length=3)
        engine.stacked("short")
        with pytest.raises(ValueError, match="LID space"):
            engine.stacked_full("short")


class TestLifecycle:
    def test_restore_keeps_the_stack(self):
        engine = Engine(GRAPH, 16)
        want = _fill(engine)
        buf, _ = engine.stacked("x")
        mgr = CheckpointManager(interval=1)
        engine.attach_checkpoints(mgr)
        mgr.maybe_save(engine, 1, "t", {})
        ledgers = _ledgers(engine)
        buf[:] = -1.0
        engine.restore(mgr.latest())
        again, _ = _check_views(engine, "x", want)
        assert again is buf  # same shape: alloc reuses the views
        assert _ledgers(engine) == ledgers

    def test_rebuild_on_grid_restacks_on_the_new_partition(self):
        engine = Engine(GRAPH, 16)
        _fill(engine)
        engine.stacked("x")
        new = engine.rebuild_on_grid(Grid2D(R=2, C=2))
        assert new.stacked_csr() is not engine.stacked_csr()
        assert np.array_equal(
            new.stacked_csr().state_base,
            np.concatenate([[0], np.cumsum([c.n_total for c in new])]),
        )
        want = _fill(new)
        _check_views(new, "x", want)

    def test_memflip_then_repair(self):
        engine = Engine(GRAPH, 16)
        want = _fill(engine)
        buf, _ = engine.stacked("x")
        mgr = CheckpointManager(interval=1)
        engine.attach_checkpoints(mgr)
        mgr.maybe_save(engine, 1, "t", {})
        assert apply_memflip(engine.ctx(5), FaultSpec("memflip", 1, rank=5, bit=77))
        assert not np.array_equal(engine.ctx(5).get("x"), want[5])
        engine.restore(mgr.latest())
        again, _ = _check_views(engine, "x", want)
        assert again is buf

    def test_adopt_and_free(self):
        engine = Engine(GRAPH, 4)
        want = _fill(engine)
        buf, _ = engine.stacked("x")
        external = np.full(engine.ctx(1).n_total, 3.5)
        engine.ctx(1).adopt("x", external)
        want[1] = external.copy()
        ledgers = _ledgers(engine)
        new_buf, _ = _check_views(engine, "x", want)
        assert new_buf is not buf
        assert _ledgers(engine) == ledgers
        engine.free("x")
        assert all(c.device.ledger.get("state.x") is None for c in engine)
        with pytest.raises(KeyError):
            engine.stacked("x")

    @pytest.mark.parametrize("width,dtype", [(2, np.float64), (None, np.int64)])
    def test_realloc_with_new_shape_or_dtype(self, width, dtype):
        engine = Engine(GRAPH, 16)
        _fill(engine)
        buf, _ = engine.stacked("x")
        want = _fill(engine, width=width, dtype=dtype)
        ledgers = _ledgers(engine)
        new_buf, _ = _check_views(engine, "x", want)
        assert new_buf is not buf and new_buf.dtype == dtype
        assert _ledgers(engine) == ledgers
        for ctx, w in zip(engine, want):
            assert ctx.device.ledger["state.x"] == w.nbytes


def _ckpt_engine(plan=None, overlap=False):
    engine = Engine(GRAPH, 16, overlap=overlap)
    engine.attach_checkpoints(CheckpointManager(interval=1))
    if plan is not None:
        engine.attach_faults(plan, max_retries=2)
    return engine


RUNS = {
    "cc": lambda e, r=False: connected_components(e, resume=r),
    "cc_sparse": lambda e, r=False: connected_components(
        e, mode="sparse", resume=r
    ),
    "bfs_batch": lambda e, r=False: bfs_batch(e, [0, 3, 17, 42, 99], resume=r),
}


@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_crash_resume_matches_fault_free(name, overlap):
    run = RUNS[name]
    ref_engine = _ckpt_engine(overlap=overlap)
    ref = run(ref_engine)
    engine = _ckpt_engine(FaultPlan([FaultSpec("crash", 2, rank=5)]), overlap=overlap)
    with pytest.raises(RankFailure):
        run(engine)
    result = run(engine, True)
    assert np.array_equal(ref.values, result.values)
    assert ref.iterations == result.iterations
    assert ref_engine.counters.summary() == engine.counters.summary()
    ref_lanes = ref_engine.clocks.per_rank_lanes()
    lanes = engine.clocks.per_rank_lanes()
    for lane in ref_lanes:
        assert np.array_equal(ref_lanes[lane], lanes[lane]), lane
    assert ref_engine.clocks.iteration_marks == engine.clocks.iteration_marks
