"""NCCL-like collectives over simulated ranks.

Each operation *really* moves/reduces NumPy data between per-rank
buffers — so algorithm results are exact — while charging virtual time
from the :class:`~repro.cluster.costmodel.CostModel` and recording
message/byte counters.  Buffers are typically views into per-rank state
arrays, so in-place assignment updates rank state directly, the way an
NCCL collective writes into device memory.

Supported reduction ops mirror what the paper's patterns need: ``sum``,
``min``, ``max``, ``prod``, plus ``or``/``and`` on boolean state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..cluster.costmodel import CostModel
from .clocks import InflightCollective, VirtualClocks, group_matrix
from .counters import CommCounters

__all__ = [
    "BroadcastCall",
    "CollectiveHandle",
    "Communicator",
    "REDUCE_OPS",
    "check_stage_bounds",
    "check_stage_groups",
]

REDUCE_OPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sum": lambda stacked: np.add.reduce(stacked, axis=0),
    "min": lambda stacked: np.minimum.reduce(stacked, axis=0),
    "max": lambda stacked: np.maximum.reduce(stacked, axis=0),
    "prod": lambda stacked: np.multiply.reduce(stacked, axis=0),
    "or": lambda stacked: np.logical_or.reduce(stacked, axis=0),
    "and": lambda stacked: np.logical_and.reduce(stacked, axis=0),
}


@dataclass
class BroadcastCall:
    """One broadcast inside an aggregated NCCL group call.

    ``src`` is the root's payload; ``dests`` are the destination views
    (one per non-root group member) that receive a copy.
    """

    src: np.ndarray
    dests: list[np.ndarray]


@dataclass
class CollectiveHandle:
    """In-flight split-phase collectives (see ``start_*`` methods), one
    per row of the ``(G, k)`` group matrix ``groups``.

    ``result`` holds the simulated payload — data movement happens
    eagerly at issue so results stay bit-identical to the blocking
    path.  A real split-phase collective delivers it incrementally
    (segment by segment along the ring), so a consumer that reads
    ``result`` before :meth:`Communicator.wait` returns it models a
    pipelined receive-and-apply and must therefore process it in a
    segment-order-independent way (element-wise reductions and
    assignments qualify; see docs/MODEL.md).  Time is charged only at
    ``wait``.
    """

    kind: str
    groups: np.ndarray
    inflight: InflightCollective
    result: object = None

    @property
    def ranks(self) -> tuple[int, ...]:
        """Every participating rank, group by group."""
        return tuple(self.groups.ravel().tolist())


def check_stage_groups(groups, n_ranks: int) -> np.ndarray:
    """Validate a stage's ``(G, k)`` group matrix: its rows must
    partition ``[0, n_ranks)``.  Returns it as an int64 array; the
    error names the offending rank."""
    groups = np.asarray(groups)
    if groups.ndim != 2 or (groups.size and groups.dtype.kind not in "iu"):
        raise ValueError(
            f"group matrix must be a 2-D integer array, got {groups.dtype} "
            f"of shape {groups.shape}"
        )
    groups = groups.astype(np.int64, copy=False)
    flat = groups.ravel()
    outside = flat[(flat < 0) | (flat >= n_ranks)]
    if outside.size:
        raise ValueError(
            f"group matrix names rank {int(outside[0])} outside [0, {n_ranks})"
        )
    counts = np.bincount(flat, minlength=n_ranks)
    if (counts > 1).any():
        r = int(np.argmax(counts > 1))
        raise ValueError(
            f"group matrix names rank {r} {int(counts[r])} times; the groups "
            f"must partition [0, {n_ranks})"
        )
    if (counts == 0).any():
        raise ValueError(
            f"group matrix misses rank {int(np.argmin(counts))}; the groups "
            f"must partition [0, {n_ranks})"
        )
    return groups


def check_stage_bounds(bounds, n_ranks: int, n_send: int) -> np.ndarray:
    """Validate rank-major send ``bounds``: ``n_ranks + 1``
    nondecreasing entries from 0 to ``n_send`` (rank ``r`` sends
    ``send[bounds[r]:bounds[r + 1]]``).  The error names the offending
    entry."""
    bounds = np.asarray(bounds)
    if bounds.shape != (n_ranks + 1,) or bounds.dtype.kind not in "iu":
        raise ValueError(
            f"bounds must hold {n_ranks + 1} integer entries (one per rank plus "
            f"one), got {bounds.dtype} of shape {bounds.shape}"
        )
    bounds = bounds.astype(np.int64, copy=False)
    if bounds[0] != 0:
        raise ValueError(f"bounds must start at 0, got bounds[0] = {bounds[0]}")
    drops = np.flatnonzero(bounds[1:] < bounds[:-1])
    if drops.size:
        i = int(drops[0]) + 1
        raise ValueError(
            f"bounds must be nondecreasing, got bounds[{i}] = {bounds[i]} "
            f"< bounds[{i - 1}] = {bounds[i - 1]}"
        )
    if bounds[-1] != n_send:
        raise ValueError(
            f"bounds must end at the send length {n_send}, got "
            f"bounds[{n_ranks}] = {bounds[-1]}"
        )
    return bounds


class Communicator:
    """Executes collectives with time/counter accounting.

    Every blocking collective has a split-phase twin (``start_X`` +
    :meth:`wait`) that separates *issue* from *completion*: the data
    moves and the counters record at issue, but the virtual-time charge
    is deferred to ``wait``, where the clocks charge
    ``max(compute_elapsed, comm_cost)`` for the overlapped window (the
    comm lane still receives the full blocking cost; the hidden part
    lands in the ``overlap`` lane).  Issuing and waiting immediately is
    bit-identical to the blocking call — values, counters, *and*
    clocks.

    The ``*_stage`` methods run one collective per row of a ``(G, k)``
    group matrix whose rows partition the ranks — the concurrent group
    collectives of one BSP stage — in a single call.  Their accounting
    (cost model, clocks, counters) is evaluated once, element-wise over
    the groups; the per-group methods are its one-group case, so a
    stage is bit-identical to one call per group in group order.
    """

    def __init__(
        self,
        costmodel: CostModel,
        clocks: VirtualClocks,
        counters: CommCounters | None = None,
    ):
        self.costmodel = costmodel
        self.clocks = clocks
        self.counters = counters if counters is not None else CommCounters()
        # Validated stage group matrices, keyed by shape and bytes.
        self._stages: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_group(
        ranks: Sequence[int],
        buffers: Sequence[np.ndarray],
        uniform: bool = False,
    ) -> None:
        """Validate a collective's group, loudly and precisely.

        Always checks the rank/buffer pairing; with ``uniform=True``
        (element-wise reductions) additionally requires every buffer to
        share the first buffer's shape and dtype, and names the
        offending ranks when they don't — a shape/dtype skew would
        otherwise surface as an inscrutable ``np.stack`` error.
        """
        if len(ranks) != len(buffers):
            raise ValueError(
                f"collective group mismatch: {len(ranks)} ranks "
                f"{list(ranks)} but {len(buffers)} buffers supplied"
            )
        if uniform and len(buffers) > 1:
            ref = np.asarray(buffers[0])
            offenders = [
                f"rank {r}: shape {a.shape}, dtype {a.dtype}"
                for r, b in zip(ranks, buffers)
                if (a := np.asarray(b)).shape != ref.shape or a.dtype != ref.dtype
            ]
            if offenders:
                raise ValueError(
                    "collective buffers disagree with rank "
                    f"{ranks[0]} (shape {ref.shape}, dtype {ref.dtype}): "
                    + "; ".join(offenders)
                )

    @staticmethod
    def _check_dtypes(ranks: Sequence[int], buffers: Sequence[np.ndarray]) -> None:
        """Require one dtype across variable-size send buffers.

        A skewed dtype would silently promote through
        ``np.concatenate`` and corrupt structured consumers; fail
        instead, naming the offending ranks.
        """
        if len(buffers) < 2:
            return
        ref = np.asarray(buffers[0]).dtype
        offenders = [
            f"rank {r}: dtype {a.dtype}"
            for r, b in zip(ranks, buffers)
            if (a := np.asarray(b)).dtype != ref
        ]
        if offenders:
            raise ValueError(
                f"variable-size collective needs one dtype, but rank "
                f"{ranks[0]} sends {ref} while " + "; ".join(offenders)
            )

    def _stage(self, groups) -> np.ndarray:
        """A validated stage group matrix (cached: a stage passes the
        same few matrices every superstep)."""
        if isinstance(groups, np.ndarray) and groups.dtype == np.int64:
            cached = self._stages.get((groups.shape, groups.tobytes()))
            if cached is not None:
                return cached
        groups = check_stage_groups(groups, self.clocks.n_ranks)
        self._stages[(groups.shape, groups.tobytes())] = groups
        return groups

    # ------------------------------------------------------------------
    # accounting: one path for a group and for a stage of groups
    # ------------------------------------------------------------------
    def _account_allreduce(self, groups, nbytes: list, nic_sharing) -> np.ndarray:
        """Record AllReduces of ``nbytes[g]`` (ints) per rank over each
        group; return their costs."""
        n_groups, k = groups.shape
        t = self.costmodel.allreduce_times(groups, nbytes, nic_sharing)
        self.counters.record(
            "allreduce",
            serial_messages=n_groups * 2 * (k - 1),
            transfers=n_groups * 2 * k * (k - 1),
            nbytes=2 * int(sum(nbytes)) * (k - 1) if k > 1 else 0,
            calls=n_groups,
        )
        return t

    def _account_allgatherv(
        self, groups, nbytes_total: list, nic_sharing
    ) -> np.ndarray:
        """Record AllGathervs of ``nbytes_total[g]`` (ints) summed
        payload over each group; return their costs."""
        n_groups, k = groups.shape
        t = self.costmodel.allgather_times(groups, nbytes_total, nic_sharing)
        self.counters.record(
            "allgatherv",
            serial_messages=n_groups * (k - 1),
            transfers=n_groups * k * (k - 1),
            nbytes=sum(nbytes_total) * (k - 1) if k > 1 else 0,
            calls=n_groups,
        )
        return t

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _allreduce_core(
        self,
        groups: np.ndarray,
        group_buffers: Sequence[Sequence[np.ndarray]],
        op: str,
        nic_sharing: int,
    ) -> np.ndarray:
        """Validate, reduce each group's buffers in place, record
        counters; return each group's comm cost."""
        for ranks, buffers in zip(groups.tolist(), group_buffers):
            self._check_group(ranks, buffers, uniform=True)
        if op not in REDUCE_OPS:
            raise ValueError(f"unknown op {op!r}; choose from {sorted(REDUCE_OPS)}")
        reduce = REDUCE_OPS[op]
        nbytes = []
        for buffers in group_buffers:
            nbytes.append(buffers[0].nbytes if len(buffers) else 0)
            if len(buffers) > 1:
                result = reduce(np.stack([np.asarray(b) for b in buffers]))
                for b in buffers:
                    b[...] = result
        return self._account_allreduce(groups, nbytes, nic_sharing)

    def _stage_buffers(self, groups, buffers) -> list[list[np.ndarray]]:
        """Per-rank ``buffers`` regrouped along a stage's group rows."""
        if len(buffers) != self.clocks.n_ranks:
            raise ValueError(
                f"stage collective needs one buffer per rank "
                f"({self.clocks.n_ranks}), got {len(buffers)}"
            )
        return [[buffers[r] for r in ranks] for ranks in groups.tolist()]

    def allreduce(
        self,
        ranks: Sequence[int],
        buffers: Sequence[np.ndarray],
        op: str = "sum",
        nic_sharing: int = 1,
    ) -> None:
        """In-place AllReduce: every buffer ends up holding the
        element-wise reduction of all of them."""
        groups = group_matrix(ranks)
        t = self._allreduce_core(groups, [buffers], op, nic_sharing)
        self.clocks.sync_groups(groups, t)

    def allreduce_stage(
        self,
        groups,
        buffers: Sequence[np.ndarray],
        op: str = "sum",
        nic_sharing: int = 1,
    ) -> None:
        """One in-place AllReduce per row of the ``(G, k)`` group matrix
        ``groups``, whose rows partition the ranks; ``buffers[r]`` is
        rank ``r``'s buffer.  Bit-identical to :meth:`allreduce` over
        each group in row order."""
        groups = self._stage(groups)
        t = self._allreduce_core(
            groups, self._stage_buffers(groups, buffers), op, nic_sharing
        )
        self.clocks.sync_groups(groups, t)

    def broadcast(
        self,
        ranks: Sequence[int],
        buffers: Sequence[np.ndarray],
        root_pos: int,
        nic_sharing: int = 1,
    ) -> None:
        """In-place Broadcast from ``buffers[root_pos]`` to the rest."""
        self._check_group(ranks, buffers)
        k = len(ranks)
        if not 0 <= root_pos < k:
            raise ValueError(f"root position {root_pos} out of range")
        src = np.asarray(buffers[root_pos])
        for i, b in enumerate(buffers):
            if i != root_pos:
                b[...] = src
        groups = group_matrix(ranks)
        t = self.costmodel.broadcast_times(groups, [src.nbytes], nic_sharing)
        self.clocks.sync_groups(groups, t)
        self.counters.record(
            "broadcast",
            serial_messages=k - 1,
            transfers=k - 1,
            nbytes=src.nbytes * (k - 1) if k > 1 else 0,
        )

    def _grouped_broadcast_core(
        self,
        groups: np.ndarray,
        group_calls: Sequence[Sequence[BroadcastCall]],
        nic_sharing: int,
    ) -> None:
        """Run every group's broadcasts, then charge and record the
        groups that had any (a group without broadcasts costs
        nothing)."""
        active = []
        sizes = []
        transfers = nbytes = n_calls = 0
        for g, calls in enumerate(group_calls):
            if not calls:
                continue
            active.append(g)
            sz = []
            for call in calls:
                src = np.asarray(call.src)
                for dest in call.dests:
                    dest[...] = src
                sz.append(src.nbytes)
                transfers += len(call.dests)
                nbytes += src.nbytes * len(call.dests)
            sizes.append(sz)
            n_calls += len(calls)
        if not active:
            return
        sub = groups if len(active) == groups.shape[0] else groups[active]
        t = self.costmodel.grouped_broadcast_times(sub, sizes, nic_sharing=nic_sharing)
        self.clocks.sync_groups(sub, t)
        k = groups.shape[1]
        self.counters.record(
            "grouped_broadcast",
            serial_messages=len(active) * (k - 1)
            if self.costmodel.profile.grouped_calls
            else n_calls * (k - 1),
            transfers=transfers,
            nbytes=nbytes,
            calls=len(active),
        )

    def grouped_broadcast(
        self,
        ranks: Sequence[int],
        calls: Sequence[BroadcastCall],
        nic_sharing: int = 1,
    ) -> None:
        """Multiple broadcasts over one group in a single aggregated
        launch (NCCL group call; paper §3.3.1 for the R != C case)."""
        self._grouped_broadcast_core(group_matrix(ranks), [calls], nic_sharing)

    def grouped_broadcast_stage(
        self,
        groups,
        calls: Sequence[Sequence[BroadcastCall]],
        nic_sharing: int = 1,
    ) -> None:
        """:meth:`grouped_broadcast` over every row of the ``(G, k)``
        group matrix ``groups`` (rows partition the ranks);
        ``calls[g]`` lists group ``g``'s broadcasts."""
        groups = self._stage(groups)
        if len(calls) != groups.shape[0]:
            raise ValueError(
                f"need one call list per group ({groups.shape[0]}), got {len(calls)}"
            )
        self._grouped_broadcast_core(groups, calls, nic_sharing)

    def allgatherv(
        self,
        ranks: Sequence[int],
        send_buffers: Sequence[np.ndarray],
        nic_sharing: int = 1,
    ) -> np.ndarray:
        """Variable-size AllGather: every rank receives the
        concatenation (in group-rank order) of all send buffers.

        Implemented by the paper as an NCCL AllGather plus grouped
        broadcasts; modeled here as one ring allgather over the total
        payload.  Returns the concatenated array (identical on every
        rank, so a single shared copy is returned).
        """
        groups = group_matrix(ranks)
        result, t = self._allgatherv_core(groups, send_buffers, nic_sharing)
        self.clocks.sync_groups(groups, t)
        return result

    def _allgatherv_core(
        self,
        groups: np.ndarray,
        send_buffers: Sequence[np.ndarray],
        nic_sharing: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate, move data, record counters; return (result, cost)."""
        ranks = groups[0].tolist()
        self._check_group(ranks, send_buffers)
        self._check_dtypes(ranks, send_buffers)
        arrays = [np.asarray(b) for b in send_buffers]
        # Preserve the send-buffer dtype even when every buffer is empty
        # (structured consumers index fields like rbuf["gid"], which a
        # plain float64 np.empty(0) would break).  The dtype is checked
        # uniform above; naming it spares NumPy a field-by-field
        # promotion pass on structured buffers.
        result = (
            np.concatenate(arrays, dtype=arrays[0].dtype)
            if any(a.size for a in arrays)
            else np.empty(0, dtype=arrays[0].dtype if arrays else np.float64)
        )
        total = int(sum(a.nbytes for a in arrays))
        return result, self._account_allgatherv(groups, [total], nic_sharing)

    def allgatherv_stage(
        self,
        groups,
        send: np.ndarray,
        bounds: np.ndarray,
        nic_sharing: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One variable-size AllGather per row of the ``(G, k)`` group
        matrix ``groups`` (rows partition the ranks), in one call.

        Rank ``r`` sends ``send[bounds[r]:bounds[r + 1]]``.  Returns
        ``(recv, recv_bounds)``, group-major: group ``g``'s receive
        buffer — its members' send buffers concatenated in group-row
        order, exactly what :meth:`allgatherv` returns to that group
        and shares among its members — is ``recv[recv_bounds[g]:
        recv_bounds[g + 1]]``.
        """
        recv, recv_bounds, groups, t = self._allgatherv_stage_core(
            groups, send, bounds, nic_sharing
        )
        self.clocks.sync_groups(groups, t)
        return recv, recv_bounds

    def _allgatherv_stage_core(self, groups, send, bounds, nic_sharing):
        """Validate, gather each group's buffer, record counters;
        return ``(recv, recv_bounds, groups, cost)``."""
        groups = self._stage(groups)
        send = np.asarray(send)
        bounds = check_stage_bounds(bounds, self.clocks.n_ranks, send.shape[0])
        lengths = bounds[1:] - bounds[:-1]
        flat = groups.ravel()
        seg_len = lengths[flat]
        seg_end = np.cumsum(seg_len)
        k = groups.shape[1]
        recv_bounds = np.zeros(groups.shape[0] + 1, dtype=np.int64)
        recv_bounds[1:] = seg_end[k - 1 :: k]
        # Concatenated aranges: segment i of the output copies
        # send[bounds[m]:bounds[m + 1]] for the i-th member m, group by
        # group.
        idx = np.repeat(bounds[:-1][flat] - (seg_end - seg_len), seg_len)
        idx += np.arange(idx.size)
        # ``np.take``: several times faster than ``send[idx]`` on
        # structured records of 24 bytes.
        recv = np.take(send, idx, axis=0)
        row_bytes = send[:1].nbytes if send.shape[0] else send.dtype.itemsize
        group_bytes = (recv_bounds[1:] - recv_bounds[:-1]) * row_bytes
        t = self._account_allgatherv(groups, group_bytes.tolist(), nic_sharing)
        return recv, recv_bounds, groups, t

    def sendrecv(self, src_rank: int, dst_rank: int, payload: np.ndarray) -> np.ndarray:
        """Point-to-point transfer; returns the received copy."""
        payload = np.asarray(payload)
        t = self.costmodel.sendrecv_time(src_rank, dst_rank, payload.nbytes)
        self.clocks.sync_group([src_rank, dst_rank], t)
        self.counters.record(
            "sendrecv", serial_messages=1, transfers=1, nbytes=payload.nbytes
        )
        return payload.copy()

    def alltoallv(
        self,
        ranks: Sequence[int],
        send_matrix: Sequence[Sequence[np.ndarray]],
        nic_sharing: int = 1,
    ) -> list[np.ndarray]:
        """All-to-all exchange for the 1D baseline engine.

        ``send_matrix[i][j]`` is what group member ``i`` sends to group
        member ``j``.  Returns, per member, the concatenation of
        everything addressed to it.  Charged with the O(p^2)-message
        model the paper ascribes to 1D distributions.
        """
        received, t = self._alltoallv_core(ranks, send_matrix, nic_sharing)
        self.clocks.sync_group(ranks, t)
        return received

    def _alltoallv_core(
        self,
        ranks: Sequence[int],
        send_matrix: Sequence[Sequence[np.ndarray]],
        nic_sharing: int,
    ) -> tuple[list[np.ndarray], float]:
        """Validate, move data, record counters; return (result, cost)."""
        k = len(ranks)
        if len(send_matrix) != k or any(len(row) != k for row in send_matrix):
            shape = f"{len(send_matrix)} x {[len(row) for row in send_matrix]}"
            raise ValueError(
                f"send_matrix must be {k} x {k} for group {list(ranks)}; "
                f"got {shape}"
            )
        for row in send_matrix:
            self._check_dtypes(ranks, row)
        received: list[np.ndarray] = []
        max_pair = 0
        total = 0
        for j in range(k):
            parts = [np.asarray(send_matrix[i][j]) for i in range(k)]
            # As in allgatherv: an all-empty column keeps its dtype.
            received.append(
                np.concatenate(parts)
                if any(p.size for p in parts)
                else np.empty(0, dtype=parts[0].dtype if parts else np.float64)
            )
            for p in parts:
                total += p.nbytes
                max_pair = max(max_pair, p.nbytes)
        t = self.costmodel.alltoall_time(ranks, max_pair, nic_sharing=nic_sharing)
        self.counters.record(
            "alltoallv",
            serial_messages=k * (k - 1),
            transfers=k * (k - 1),
            nbytes=total,
        )
        return received, t

    # ------------------------------------------------------------------
    # split-phase collectives (issue now, charge time at wait)
    # ------------------------------------------------------------------
    def start_allreduce(
        self,
        ranks: Sequence[int],
        buffers: Sequence[np.ndarray],
        op: str = "sum",
        nic_sharing: int = 1,
    ) -> CollectiveHandle:
        """Issue an AllReduce; complete it with :meth:`wait`.

        The buffers hold the reduced values from issue onward (eager
        simulated data movement); callers must not mutate them until
        the matching ``wait``.
        """
        groups = group_matrix(ranks)
        t = self._allreduce_core(groups, [buffers], op, nic_sharing)
        return CollectiveHandle(
            "allreduce", groups, self.clocks.issue_groups(groups, t)
        )

    def start_allreduce_stage(
        self,
        groups,
        buffers: Sequence[np.ndarray],
        op: str = "sum",
        nic_sharing: int = 1,
    ) -> CollectiveHandle:
        """Issue :meth:`allreduce_stage`; complete with :meth:`wait`."""
        groups = self._stage(groups)
        t = self._allreduce_core(
            groups, self._stage_buffers(groups, buffers), op, nic_sharing
        )
        return CollectiveHandle(
            "allreduce", groups, self.clocks.issue_groups(groups, t)
        )

    def start_allgatherv(
        self,
        ranks: Sequence[int],
        send_buffers: Sequence[np.ndarray],
        nic_sharing: int = 1,
    ) -> CollectiveHandle:
        """Issue a variable-size AllGather; complete with :meth:`wait`.

        ``handle.result`` carries the concatenated array (see
        :class:`CollectiveHandle` for the pipelined-consumption
        contract); send buffers may be recycled once this returns.
        """
        groups = group_matrix(ranks)
        result, t = self._allgatherv_core(groups, send_buffers, nic_sharing)
        return CollectiveHandle(
            "allgatherv", groups, self.clocks.issue_groups(groups, t), result
        )

    def start_allgatherv_stage(
        self,
        groups,
        send: np.ndarray,
        bounds: np.ndarray,
        nic_sharing: int = 1,
    ) -> CollectiveHandle:
        """Issue :meth:`allgatherv_stage`; complete with :meth:`wait`.

        ``handle.result`` carries the group-major ``(recv,
        recv_bounds)``.
        """
        recv, recv_bounds, groups, t = self._allgatherv_stage_core(
            groups, send, bounds, nic_sharing
        )
        inflight = self.clocks.issue_groups(groups, t)
        return CollectiveHandle("allgatherv", groups, inflight, (recv, recv_bounds))

    def start_alltoallv(
        self,
        ranks: Sequence[int],
        send_matrix: Sequence[Sequence[np.ndarray]],
        nic_sharing: int = 1,
    ) -> CollectiveHandle:
        """Issue a personalized exchange; complete with :meth:`wait`.

        ``handle.result`` carries the per-member received buffers.
        """
        received, t = self._alltoallv_core(ranks, send_matrix, nic_sharing)
        groups = group_matrix(ranks)
        return CollectiveHandle(
            "alltoallv", groups, self.clocks.issue_groups(groups, [t]), received
        )

    def wait(self, handle: CollectiveHandle):
        """Complete a split-phase collective (or stage); returns its
        result.

        Charges the overlapped window to the participants' clocks (see
        :meth:`VirtualClocks.complete_collective`): the comm lane pays
        the full blocking cost, the total only its exposed remainder.
        Each handle completes exactly once.
        """
        self.clocks.complete_collective(handle.inflight)
        return handle.result
