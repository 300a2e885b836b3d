"""Stage collectives: one call over every group of a BSP stage.

Each ``*_stage`` method must be bit-identical to the per-group
sequence it replaces — one call per group, in group-row order — in the
data it moves, every per-rank clock lane, and the ``CommCounters``
(``calls`` included), blocking and split-phase.  Under a fault plan the
:class:`ResilientCommunicator` stage must also record the same
``FaultEvent`` list, and a crash must name the same rank and
collective.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import AIMOS, CostModel, Topology
from repro.cluster.costmodel import GENERIC_PROFILE, NCCL_PROFILE
from repro.comm import BroadcastCall, Communicator, Grid2D, VirtualClocks
from repro.comm.counters import CommCounters
from repro.faults.injector import FaultInjector, RankFailure
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.resilient import ResilientCommunicator
from repro.patterns.sparse import PAIR_DTYPE, allgatherv_ranks

#: (R, C): the trivial grid, square, and R != C both ways, up to three
#: AiMOS nodes (so stage NIC sharing matters).
GRIDS = [(1, 1), (2, 2), (3, 2), (2, 3), (4, 4), (2, 8), (8, 2), (1, 4), (4, 1)]
LANES = ("clock", "compute", "comm", "overlap", "recovery", "regrid", "certify")


def _comm(p: int, seed: int, profile=NCCL_PROFILE, plan=None):
    """A communicator whose ranks start at seed-determined clocks."""
    counters = CommCounters()
    clocks = VirtualClocks(p, counters=counters)
    rng = np.random.default_rng(seed)
    for r in range(p):
        clocks.add_compute(r, float(rng.uniform(0.0, 1e-4)))
    costmodel = CostModel(AIMOS.gpu, Topology(AIMOS, p), profile)
    comm = Communicator(costmodel, clocks, counters)
    if plan is not None:
        comm = ResilientCommunicator(comm, FaultInjector(plan), max_retries=2)
    return comm


def _assert_same_accounting(a, b) -> None:
    sa, sb = a.clocks.state_dict(), b.clocks.state_dict()
    for lane in LANES:
        assert np.array_equal(sa[lane], sb[lane]), lane
    assert a.counters.summary() == b.counters.summary()


def _groups(R: int, C: int, axis: str) -> np.ndarray:
    grid = Grid2D(R=R, C=C)
    return grid.row_group_matrix if axis == "row" else grid.col_group_matrix


def _send(rng, p: int, empty: bool):
    lengths = np.zeros(p, dtype=np.int64) if empty else rng.integers(0, 5, p)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    send = np.empty(int(bounds[-1]), dtype=PAIR_DTYPE)
    send["gid"] = rng.integers(0, 100, send.size)
    send["val"] = rng.random(send.size)
    return send, bounds


def _compute_inside(comm, rng) -> None:
    """Charge some compute inside an overlap window."""
    for r in range(comm.clocks.n_ranks):
        if rng.random() < 0.5:
            comm.clocks.add_compute(r, float(rng.uniform(0.0, 1e-4)))


def _per_group_allgatherv(comm, groups, send, bounds, share, split, rng):
    """The per-group sequence a stage replaces; returns the groups'
    receive buffers concatenated in group order."""
    rbufs = []
    handles = []
    for ranks in groups.tolist():
        parts = [send[bounds[r] : bounds[r + 1]] for r in ranks]
        if split:
            h = comm.start_allgatherv(ranks, parts, nic_sharing=share)
            handles.append(h)
            rbufs.append(h.result)
        else:
            rbufs.append(comm.allgatherv(ranks, parts, nic_sharing=share))
    if split:
        _compute_inside(comm, rng)
        for h in handles:
            comm.wait(h)
    return np.concatenate(rbufs), np.cumsum([0] + [b.size for b in rbufs])


def _stage_allgatherv(comm, groups, send, bounds, share, split, rng):
    if split:
        h = comm.start_allgatherv_stage(groups, send, bounds, nic_sharing=share)
        recv, rb = h.result
        _compute_inside(comm, rng)
        comm.wait(h)
    else:
        recv, rb = comm.allgatherv_stage(groups, send, bounds, nic_sharing=share)
    assert rb.shape == (groups.shape[0] + 1,) and rb[-1] == recv.size
    return recv, rb


stage_cases = dict(
    grid=st.sampled_from(GRIDS),
    axis=st.sampled_from(["row", "col"]),
    share=st.integers(1, 3),
    split=st.booleans(),
    seed=st.integers(0, 2**16),
)


class TestAllgathervStage:
    @settings(max_examples=60, deadline=None)
    @given(empty=st.booleans(), **stage_cases)
    def test_matches_per_group(self, grid, axis, share, split, seed, empty):
        groups = _groups(*grid, axis)
        p = groups.size
        send, bounds = _send(np.random.default_rng(seed), p, empty)
        a, b = _comm(p, seed), _comm(p, seed)
        args = (send, bounds, share, split)
        ra, ba = _stage_allgatherv(a, groups, *args, np.random.default_rng(1))
        rb, bb = _per_group_allgatherv(b, groups, *args, np.random.default_rng(1))
        assert ra.dtype == rb.dtype == PAIR_DTYPE
        assert ra.tobytes() == rb.tobytes()
        assert ba.tolist() == bb.tolist()
        _assert_same_accounting(a, b)
        assert a.counters.by_kind["allgatherv"].calls == groups.shape[0]

    def test_receive_layout_is_group_major(self):
        groups = _groups(2, 2, "col")  # [[0, 2], [1, 3]]
        comm = _comm(4, 0)
        send = np.arange(6)
        recv, rb = comm.allgatherv_stage(groups, send, [0, 2, 3, 5, 6])
        assert recv.tolist() == [0, 1, 3, 4, 2, 5]
        assert rb.tolist() == [0, 4, 6]


def _buffers(rng, groups: np.ndarray, width: int):
    """Per-rank buffers, one length per group (groups may differ)."""
    bufs = [None] * groups.size
    for ranks in groups.tolist():
        m = int(rng.integers(0, 4))
        for r in ranks:
            bufs[r] = rng.random((m, width)) if width else rng.random(m)
    return bufs


class TestAllreduceStage:
    @settings(max_examples=60, deadline=None)
    @given(op=st.sampled_from(["sum", "min", "max"]), width=st.sampled_from([0, 3]),
           **stage_cases)
    def test_matches_per_group(self, grid, axis, share, split, seed, op, width):
        groups = _groups(*grid, axis)
        p = groups.size
        bufs_a = _buffers(np.random.default_rng(seed), groups, width)
        bufs_b = [x.copy() for x in bufs_a]
        a, b = _comm(p, seed), _comm(p, seed)
        ca, cb = np.random.default_rng(1), np.random.default_rng(1)
        if split:
            h = a.start_allreduce_stage(groups, bufs_a, op=op, nic_sharing=share)
            _compute_inside(a, ca)
            a.wait(h)
            hs = [
                b.start_allreduce(
                    ranks, [bufs_b[r] for r in ranks], op=op, nic_sharing=share
                )
                for ranks in groups.tolist()
            ]
            _compute_inside(b, cb)
            for h in hs:
                b.wait(h)
        else:
            a.allreduce_stage(groups, bufs_a, op=op, nic_sharing=share)
            for ranks in groups.tolist():
                b.allreduce(ranks, [bufs_b[r] for r in ranks], op=op, nic_sharing=share)
        for x, y in zip(bufs_a, bufs_b):
            assert x.tobytes() == y.tobytes()
        _assert_same_accounting(a, b)
        assert a.counters.by_kind["allreduce"].calls == groups.shape[0]


def _calls(rng, groups: np.ndarray):
    """Per group 0-3 broadcasts from random members into the others."""
    srcs, dests = [], []
    for ranks in groups.tolist():
        n_calls = int(rng.integers(0, 4))
        srcs.append([rng.random(int(rng.integers(0, 5))) for _ in range(n_calls)])
        dests.append(
            [[np.zeros(s.size) for _ in range(len(ranks) - 1)] for s in srcs[-1]]
        )
    return srcs, dests


class TestGroupedBroadcastStage:
    @settings(max_examples=60, deadline=None)
    @given(profile=st.sampled_from([NCCL_PROFILE, GENERIC_PROFILE]),
           grid=st.sampled_from(GRIDS), axis=st.sampled_from(["row", "col"]),
           share=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_matches_per_group(self, profile, grid, axis, share, seed):
        groups = _groups(*grid, axis)
        p = groups.size
        srcs, dests_a = _calls(np.random.default_rng(seed), groups)
        dests_b = [[[d.copy() for d in ds] for ds in g] for g in dests_a]

        def calls(dests):
            return [
                [BroadcastCall(src=s, dests=d) for s, d in zip(gs, gd)]
                for gs, gd in zip(srcs, dests)
            ]

        a, b = _comm(p, seed, profile), _comm(p, seed, profile)
        a.grouped_broadcast_stage(groups, calls(dests_a), nic_sharing=share)
        for ranks, group_calls in zip(groups.tolist(), calls(dests_b)):
            b.grouped_broadcast(ranks, group_calls, nic_sharing=share)
        for ga, gb, gs in zip(dests_a, dests_b, srcs):
            for da, db, s in zip(ga, gb, gs):
                for x, y in zip(da, db):
                    assert x.tobytes() == y.tobytes() == s.tobytes()
        _assert_same_accounting(a, b)

    def test_groups_without_broadcasts_cost_nothing(self):
        groups = _groups(2, 2, "row")
        comm = _comm(4, 0)
        before = comm.clocks.state_dict()
        comm.grouped_broadcast_stage(groups, [[], []])
        after = comm.clocks.state_dict()
        assert all(np.array_equal(before[lane], after[lane]) for lane in LANES)
        assert "grouped_broadcast" not in comm.counters.by_kind


# ----------------------------------------------------------------------
# fault plans: the resilient stage guards group by group, in order
# ----------------------------------------------------------------------
def _plans(p: int):
    last = p - 1
    return {
        "crash": [FaultSpec("crash", 1, rank=last)],
        "crash-first": [FaultSpec("crash", 1, rank=0)],
        "straggler": [
            FaultSpec("straggler", 1, rank=last, delay_s=1e-3),
            FaultSpec("straggler", 1, rank=0, delay_s=2e-3),
        ],
        "corruption": [FaultSpec("corruption", 1, rank=last, bit=11)],
        "transient": [FaultSpec("transient", 1, count=2)],
        "retries-exhausted": [FaultSpec("transient", 1, rank=last, count=5)],
        "memflip": [FaultSpec("memflip", 1, rank=0, bit=3)],
    }


def _run_guarded(fn):
    try:
        fn()
    except RankFailure as exc:
        return (exc.rank, exc.collective, exc.fault_kind, exc.retries)
    return None


class TestResilientStage:
    @settings(max_examples=40, deadline=None)
    @given(plan=st.sampled_from(list(_plans(1))), empty=st.booleans(), **stage_cases)
    def test_allgatherv_matches_per_group(
        self, grid, axis, share, split, seed, plan, empty
    ):
        groups = _groups(*grid, axis)
        p = groups.size
        specs = _plans(p)[plan]
        send, bounds = _send(np.random.default_rng(seed), p, empty)
        a = _comm(p, seed, plan=FaultPlan(list(specs)))
        b = _comm(p, seed, plan=FaultPlan(list(specs)))
        fa = _run_guarded(lambda: _stage_allgatherv(
            a, groups, send, bounds, share, split, np.random.default_rng(1)))
        fb = _run_guarded(lambda: _per_group_allgatherv(
            b, groups, send, bounds, share, split, np.random.default_rng(1)))
        assert fa == fb
        assert a.injector.events == b.injector.events
        if fa is None:
            _assert_same_accounting(a, b)

    @settings(max_examples=40, deadline=None)
    @given(plan=st.sampled_from(list(_plans(1))), **stage_cases)
    def test_allreduce_matches_per_group(self, grid, axis, share, split, seed, plan):
        groups = _groups(*grid, axis)
        p = groups.size
        specs = _plans(p)[plan]
        bufs_a = _buffers(np.random.default_rng(seed), groups, 0)
        bufs_b = [x.copy() for x in bufs_a]
        a = _comm(p, seed, plan=FaultPlan(list(specs)))
        b = _comm(p, seed, plan=FaultPlan(list(specs)))

        def stage():
            if split:
                a.wait(a.start_allreduce_stage(groups, bufs_a, nic_sharing=share))
            else:
                a.allreduce_stage(groups, bufs_a, nic_sharing=share)

        def per_group():
            if split:
                hs = [
                    b.start_allreduce(
                        ranks, [bufs_b[r] for r in ranks], nic_sharing=share
                    )
                    for ranks in groups.tolist()
                ]
                for h in hs:
                    b.wait(h)
            else:
                for ranks in groups.tolist():
                    b.allreduce(ranks, [bufs_b[r] for r in ranks], nic_sharing=share)

        fa, fb = _run_guarded(stage), _run_guarded(per_group)
        assert fa == fb
        assert a.injector.events == b.injector.events
        if fa is None:
            _assert_same_accounting(a, b)
            for x, y in zip(bufs_a, bufs_b):
                assert x.tobytes() == y.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(plan=st.sampled_from(list(_plans(1))), grid=st.sampled_from(GRIDS),
           axis=st.sampled_from(["row", "col"]), seed=st.integers(0, 2**16))
    def test_grouped_broadcast_matches_per_group(self, grid, axis, seed, plan):
        groups = _groups(*grid, axis)
        p = groups.size
        specs = _plans(p)[plan]
        srcs, dests = _calls(np.random.default_rng(seed), groups)
        calls = [
            [BroadcastCall(src=s, dests=d) for s, d in zip(gs, gd)]
            for gs, gd in zip(srcs, dests)
        ]
        a = _comm(p, seed, plan=FaultPlan(list(specs)))
        b = _comm(p, seed, plan=FaultPlan(list(specs)))
        fa = _run_guarded(lambda: a.grouped_broadcast_stage(groups, calls))
        fb = _run_guarded(
            lambda: [b.grouped_broadcast(r, c) for r, c in zip(groups.tolist(), calls)]
        )
        assert fa == fb
        assert a.injector.events == b.injector.events
        if fa is None:
            _assert_same_accounting(a, b)

    def test_crash_names_rank_and_collective(self):
        groups = _groups(4, 4, "col")
        a = _comm(16, 0, plan=FaultPlan([FaultSpec("crash", 1, rank=9)]))
        send, bounds = _send(np.random.default_rng(0), 16, False)
        with pytest.raises(RankFailure) as exc:
            a.allgatherv_stage(groups, send, bounds)
        assert (exc.value.rank, exc.value.collective) == (9, "allgatherv")
        # The crash aborted the stage before anything was charged.
        assert "allgatherv" not in a.counters.by_kind


# ----------------------------------------------------------------------
# validation: bad group matrices and bounds name the offending value
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize(
        "groups,match",
        [
            ([[0, 1], [2, 2]], "rank 2 2 times"),
            ([[0, 1], [2, 7]], "rank 7 outside"),
            ([[0, 1], [-1, 3]], "rank -1 outside"),
            ([[0, 1, 2]], "misses rank 3"),
            ([0, 1, 2, 3], "2-D"),
            ([[0.0, 1.0], [2.0, 3.0]], "integer"),
        ],
    )
    def test_group_matrix_must_partition(self, groups, match):
        comm = _comm(4, 0)
        with pytest.raises(ValueError, match=match):
            comm.allgatherv_stage(groups, np.zeros(0), [0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match=match):
            comm.allreduce_stage(groups, [np.zeros(1)] * 4)
        with pytest.raises(ValueError, match=match):
            comm.grouped_broadcast_stage(groups, [[], []])

    @pytest.mark.parametrize(
        "bounds,match",
        [
            ([0, 1, 2, 3], "5 integer entries"),
            ([0, 1, 2, 3, 4, 4], "5 integer entries"),
            ([1, 1, 2, 3, 4], r"bounds\[0\] = 1"),
            ([0, 2, 1, 3, 4], r"bounds\[2\] = 1 < bounds\[1\] = 2"),
            ([0, 1, 2, 3, 3], r"send length 4, got bounds\[4\] = 3"),
            ([0, 1, 2, 3, 5], r"bounds\[4\] = 5"),
        ],
    )
    def test_bounds_must_cover_send(self, bounds, match):
        groups = _groups(2, 2, "row")
        for comm in (_comm(4, 0), _comm(4, 0, plan=FaultPlan([]))):
            with pytest.raises(ValueError, match=match):
                comm.allgatherv_stage(groups, np.arange(4), bounds)

    def test_stage_buffers_one_per_rank(self):
        with pytest.raises(ValueError, match="one buffer per rank"):
            _comm(4, 0).allreduce_stage(_groups(2, 2, "row"), [np.zeros(1)] * 3)


class TestAllgathervRanks:
    @settings(max_examples=30, deadline=None)
    @given(grid=st.sampled_from(GRIDS), axis=st.sampled_from(["row", "col"]),
           seed=st.integers(0, 2**16), empty=st.booleans())
    def test_members_share_their_groups_buffer(self, grid, axis, seed, empty):
        groups = _groups(*grid, axis)
        p = groups.size
        send, bounds = _send(np.random.default_rng(seed), p, empty)
        parts = [send[bounds[r] : bounds[r + 1]] for r in range(p)]
        a, b = _comm(p, seed), _comm(p, seed)
        got = allgatherv_ranks(SimpleNamespace(comm=a), groups, parts)
        for ranks in groups.tolist():
            want = b.allgatherv(ranks, [parts[r] for r in ranks])
            for r in ranks:
                assert got[r] is got[ranks[0]]
                assert got[r].dtype == PAIR_DTYPE
                assert got[r].tobytes() == want.tobytes()
        _assert_same_accounting(a, b)

    def test_mixed_dtypes_name_the_rank(self):
        parts = [np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.int64), np.zeros(1)]
        with pytest.raises(ValueError, match="rank 2: dtype int64"):
            allgatherv_ranks(
                SimpleNamespace(comm=_comm(4, 0)), _groups(2, 2, "row"), parts
            )
