"""Segmented schedules and batched per-rank charging.

The segmented Manhattan and vertex-per-thread schedules must equal a
loop of one-segment schedules, segment by segment, and the batched
``charge_*_ranks`` calls must leave bit-identical ``clock``/``compute``
lanes to one scalar ``charge_*`` call per rank.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.graph import rmat
from repro.queueing import (
    manhattan_schedule,
    manhattan_schedule_segments,
    vertex_per_thread_balance,
    vertex_per_thread_segments,
)

SCHEDULES = [
    (manhattan_schedule_segments, manhattan_schedule),
    (vertex_per_thread_segments, vertex_per_thread_balance),
]

#: Segment lengths around the block (256) and warp (32) boundaries,
#: plus empty segments.
LENGTHS = st.one_of(
    st.sampled_from([0, 1, 31, 32, 33, 255, 256, 257, 513]),
    st.integers(0, 600),
)

DEGREES = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 5000))


@st.composite
def segmented_queue(draw):
    lengths = draw(st.lists(LENGTHS, min_size=1, max_size=6))
    degrees = [draw(st.lists(DEGREES, min_size=n, max_size=n)) for n in lengths]
    flat = np.array([d for seg in degrees for d in seg], dtype=np.int64)
    return flat, np.array(lengths, dtype=np.int64)


def _fields(stats):
    return (stats.total_edges, stats.n_blocks, stats.balance, stats.max_thread_edges)


@pytest.mark.parametrize("segmented,single", SCHEDULES)
@settings(max_examples=150, deadline=None)
@given(queue=segmented_queue())
def test_segmented_equals_per_segment_loop(segmented, single, queue):
    degrees, lengths = queue
    stats = segmented(degrees, lengths)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    for i in range(lengths.size):
        want = single(degrees[bounds[i] : bounds[i + 1]])
        got = stats[i]
        assert _fields(got) == _fields(want)
        assert type(got.total_edges) is int and type(got.balance) is float


@pytest.mark.parametrize("segmented,single", SCHEDULES)
def test_boundary_lengths_and_zero_degree_rows(segmented, single):
    lengths = np.array([0, 255, 256, 257, 0, 3], dtype=np.int64)
    rng = np.random.default_rng(7)
    degrees = rng.integers(0, 40, int(lengths.sum()))
    degrees[rng.random(degrees.size) < 0.4] = 0
    degrees[-3:] = 0  # an all-zero segment: no work, balance 1.0
    stats = segmented(degrees, lengths)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    for i in range(lengths.size):
        want = single(degrees[bounds[i] : bounds[i + 1]])
        assert _fields(stats[i]) == _fields(want)
    assert stats[0].total_edges == 0 and stats[0].balance == 1.0
    assert stats[5].total_edges == 0 and stats[5].balance == 1.0


@pytest.mark.parametrize("segmented,single", SCHEDULES)
def test_negative_degree_rejected(segmented, single):
    with pytest.raises(ValueError, match="negative degree"):
        segmented(np.array([1, -1, 2]), np.array([1, 2]))
    with pytest.raises(ValueError, match="negative degree"):
        single(np.array([3, -2]))


@pytest.mark.parametrize("segmented,single", SCHEDULES)
def test_lengths_must_cover_degrees(segmented, single):
    with pytest.raises(ValueError, match="sum to"):
        segmented(np.array([1, 2, 3]), np.array([1, 1]))
    with pytest.raises(ValueError, match="counts >= 0"):
        segmented(np.array([1, 2]), np.array([3, -1]))


def _engine_pair(load_balance):
    graph = rmat(7, seed=2)
    return (
        Engine(graph, 16, load_balance=load_balance),
        Engine(graph, 16, load_balance=load_balance),
    )


def _lanes_equal(a, b):
    return np.array_equal(a.clocks.clock, b.clocks.clock) and np.array_equal(
        a.clocks.compute, b.clocks.compute
    )


@pytest.mark.parametrize("load_balance", ["manhattan", "vertex"])
@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(LENGTHS, min_size=16, max_size=16),
    seed=st.integers(0, 2**16),
)
def test_charge_edges_ranks_matches_scalar_loop(load_balance, lengths, seed):
    batched, scalar = _engine_pair(load_balance)
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths, dtype=np.int64)
    degrees = rng.integers(0, 300, int(lengths.sum()))
    # Two stages with prior clock state, as in a superstep.
    for _ in range(2):
        batched.charge_edges_ranks(lengths, degrees)
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        for r in range(16):
            scalar.charge_edges(r, degrees[bounds[r] : bounds[r + 1]])
        assert _lanes_equal(batched, scalar)


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(0, 10**7), min_size=16, max_size=16))
def test_charge_vertices_ranks_matches_scalar_loop(counts):
    batched, scalar = _engine_pair("manhattan")
    for _ in range(2):
        batched.charge_vertices_ranks(np.array(counts))
        for r, n in enumerate(counts):
            scalar.charge_vertices(r, n)
        assert _lanes_equal(batched, scalar)


def test_batched_charge_needs_one_entry_per_rank():
    engine, _ = _engine_pair("manhattan")
    with pytest.raises(ValueError, match="one charge per rank"):
        engine.charge_vertices_ranks(np.array([1, 2, 3]))


def test_kernel_times_rejects_out_of_range_balance():
    engine, _ = _engine_pair("manhattan")
    with pytest.raises(ValueError, match="balance"):
        engine.costmodel.kernel_times([1, 2], balance=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="balance"):
        engine.costmodel.kernel_times([1], balance=1.5)
