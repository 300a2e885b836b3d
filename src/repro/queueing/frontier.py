"""Vectorized CSR frontier expansion.

The CUDA code expands a queue of vertices into their edges with the
Local Manhattan Collapse (paper Alg. 6).  The NumPy equivalent is a
single gather built from ``repeat`` and ``arange`` — one "edge-parallel"
pass with no per-vertex Python loop, which is both the performant NumPy
idiom and a faithful functional model of edge-parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["StackedCSR", "expand_csr", "expand_block"]


def expand_csr(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand ``rows`` (row-local positions) into their incident edges.

    Returns ``(edge_src_pos, edge_dst, edge_index)`` where
    ``edge_src_pos[k]`` is the queue entry's row position repeated per
    edge, ``edge_dst[k]`` the adjacency target, and ``edge_index[k]``
    the position in ``indices`` (for weight lookups).
    """
    rows = np.asarray(rows, dtype=np.int64)
    row_ptr = indptr[rows]
    degs = indptr[rows + 1] - row_ptr
    total = int(degs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    # One repeat of the queue-entry index; src and the per-edge offset
    # into `indices` are then plain gathers.  Per entry the run starts
    # at indptr[row], shifted by the entry's start in the output
    # (cumsum-offset trick) — fused so the expansion does a single
    # repeat instead of three.
    entry = np.repeat(np.arange(rows.size, dtype=np.int64), degs)
    offsets = row_ptr - (np.cumsum(degs) - degs)
    edge_index = np.arange(total, dtype=np.int64) + offsets[entry]
    src = rows[entry]
    dst = indices[edge_index]
    return src, dst, edge_index


def expand_block(block, row_lids: np.ndarray):
    """Expand a :class:`~repro.graph.partition.twod.RankBlock` queue.

    ``row_lids`` are row-vertex LIDs; returns ``(src_lids, dst_lids,
    weights_or_None)`` with both endpoint columns in LID space.
    """
    lm = block.localmap
    rows = np.asarray(row_lids, dtype=np.int64) - lm.row_offset
    src_pos, dst, edge_index = expand_csr(block.indptr, block.indices, rows)
    src_lids = src_pos + lm.row_offset
    weights = block.weights[edge_index] if block.weights is not None else None
    return src_lids, dst, weights


@dataclass(frozen=True, eq=False)
class StackedCSR:
    """Every rank block's CSR as one CSR over *rank-stacked* coordinates.

    Rank-stacked state concatenates the ranks' ``[0, N_T)`` state arrays
    in rank order, rank ``r`` starting at ``state_base[r]``; rank ``r``'s
    row-local positions likewise start at stacked row ``row_base[r]``.
    ``indices`` already points into stacked state, so one
    :func:`expand_csr` over stacked rows expands every rank's queue at
    once.  Built from the partition alone (host-side simulator data,
    never charged to a device).

    Per rank, ``row_shift``/``col_shift`` map a row/column GID to its
    stacked state index (``gid + shift``), and ``row_start``/
    ``row_stop`` bound the rank's owned GIDs.
    """

    indptr: np.ndarray  # (sum N_R + 1,)
    indices: np.ndarray  # stacked state index of each edge's target
    degrees: np.ndarray  # local degree per stacked row
    row_state: np.ndarray  # stacked row -> stacked state index
    row_base: np.ndarray  # (p + 1,) stacked-row offsets
    state_base: np.ndarray  # (p + 1,) stacked-state offsets
    row_offset: np.ndarray  # (p,) C_offset_R per rank
    row_shift: np.ndarray  # (p,)
    col_shift: np.ndarray  # (p,)
    row_start: np.ndarray  # (p,)
    row_stop: np.ndarray  # (p,)

    @classmethod
    def from_blocks(cls, blocks) -> "StackedCSR":
        maps = [b.localmap for b in blocks]
        n_row = np.array([lm.n_row for lm in maps], dtype=np.int64)
        n_total = np.array([lm.n_total for lm in maps], dtype=np.int64)
        nnz = np.array([b.indices.size for b in blocks], dtype=np.int64)
        row_base = np.concatenate([[0], np.cumsum(n_row)])
        state_base = np.concatenate([[0], np.cumsum(n_total)])
        edge_base = np.concatenate([[0], np.cumsum(nnz)])
        row_offset = np.array([lm.row_offset for lm in maps], dtype=np.int64)
        col_offset = np.array([lm.col_offset for lm in maps], dtype=np.int64)
        row_start = np.array([lm.row_start for lm in maps], dtype=np.int64)
        col_start = np.array([lm.col_start for lm in maps], dtype=np.int64)
        indptr = np.concatenate(
            [b.indptr[:-1] + edge_base[r] for r, b in enumerate(blocks)]
            + [edge_base[-1:]]
        ).astype(np.int64, copy=False)
        indices = np.concatenate(
            [b.indices + state_base[r] for r, b in enumerate(blocks)]
        ).astype(np.int64, copy=False)
        row_state = np.arange(row_base[-1], dtype=np.int64) + np.repeat(
            state_base[:-1] + row_offset - row_base[:-1], n_row
        )
        return cls(
            indptr=indptr,
            indices=indices,
            degrees=np.diff(indptr),
            row_state=row_state,
            row_base=row_base,
            state_base=state_base,
            row_offset=row_offset,
            row_shift=state_base[:-1] + row_offset - row_start,
            col_shift=state_base[:-1] + col_offset - col_start,
            row_start=row_start,
            row_stop=np.array([lm.row_stop for lm in maps], dtype=np.int64),
        )

    def adjacency(self) -> sp.csr_matrix:
        """The stacked CSR as a unit-valued SciPy matrix (stacked rows x
        stacked state), for one sparse matrix-vector product over every
        rank's edges.  Built anew on each call, so a caller holds it only
        while it uses it.  It shares this CSR's int64 index arrays (the
        constructor would copy them down to int32), so it costs only its
        unit values, 8 bytes per edge."""
        m = sp.csr_matrix((int(self.row_base[-1]), int(self.state_base[-1])))
        m.indptr, m.indices = self.indptr, self.indices
        m.data = np.ones(self.indices.size)
        return m

    def unstack(self, idx: np.ndarray, lanes=None) -> list:
        """Ascending stacked state indices -> per-rank local LIDs.

        Each rank's indices form one contiguous run, cut at the state
        bases (repeated bases of empty ranks cut empty runs).  With
        ``lanes`` (parallel to ``idx``) each entry is a ``(lids,
        lanes)`` pair instead.
        """
        cut = np.searchsorted(idx, self.state_base)
        base = self.state_base
        if lanes is None:
            return [idx[cut[r] : cut[r + 1]] - base[r] for r in range(cut.size - 1)]
        return [
            (idx[cut[r] : cut[r + 1]] - base[r], lanes[cut[r] : cut[r + 1]])
            for r in range(cut.size - 1)
        ]

    def stack_rows(self, row_lids) -> tuple[np.ndarray, np.ndarray]:
        """Per-rank row-LID queues -> ``(stacked_rows, lengths)``, rank-major."""
        lengths = np.array([len(q) for q in row_lids], dtype=np.int64)
        rows = np.concatenate([np.asarray(q, dtype=np.int64) for q in row_lids])
        return rows + np.repeat(self.row_base[:-1] - self.row_offset, lengths), lengths
