"""Global-to-local vertex ID mapping (paper §3.2, Tables 1-2).

Each 2D rank holds a contiguous global-ID range of *row* vertices
(the vertices it co-owns) and a contiguous range of *column* vertices
(its ghosts).  Both are remapped into a compact local ID space
``[0, N_T)`` by simple arithmetic — no hash tables — according to the
rank's ``Type``:

===== =============================== =========================================
Type  Condition                       Mapping
===== =============================== =========================================
0     ranges do not overlap           row LIDs ``[0, N_R)``,
                                      col LIDs ``[N_R, N_R + N_C)``
1     overlap, ``Offset_R <= Offset_C`` ``diff = Offset_C - Offset_R``;
                                      row LIDs ``[0, N_R)``,
                                      col LIDs ``[diff, diff + N_C)``
2     overlap, ``Offset_R > Offset_C``  ``diff = Offset_R - Offset_C``;
                                      row LIDs ``[diff, diff + N_R)``,
                                      col LIDs ``[0, N_C)``
===== =============================== =========================================

Because local IDs of a group are consecutive, a dense communication of
a state-array slice needs only the group's local offset (``C_offset_R``
or ``C_offset_C``) and length — regardless of row/column overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = ["LocalMap"]


@dataclass(frozen=True)
class LocalMap:
    """Arithmetic GID<->LID mapping for one rank's row/column ranges.

    Parameters are global-ID ranges: rows ``[row_start, row_stop)`` and
    columns ``[col_start, col_stop)``.  The derived geometry (``type``,
    offsets, ``n_total`` and the slices) is computed on first access and
    cached on the instance; equality, hashing and pickles see only the
    four fields.
    """

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    def __post_init__(self) -> None:
        if self.row_stop < self.row_start or self.col_stop < self.col_start:
            raise ValueError("ranges must be non-decreasing")

    def __getstate__(self) -> dict:
        # Pickle the fields only, never the cached geometry.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # ------------------------------------------------------------------
    # Table 1 quantities
    # ------------------------------------------------------------------
    @property
    def n_row(self) -> int:
        """``N_R``: vertices in the rank's row group."""
        return self.row_stop - self.row_start

    @property
    def n_col(self) -> int:
        """``N_C``: vertices in the rank's column group."""
        return self.col_stop - self.col_start

    @cached_property
    def type(self) -> int:
        """The mapping ``Type`` (0, 1 or 2; see module docstring)."""
        if self.row_stop <= self.col_start or self.col_stop <= self.row_start:
            return 0
        return 1 if self.row_start <= self.col_start else 2

    @cached_property
    def row_offset(self) -> int:
        """``C_offset_R``: first local ID of the row vertices."""
        if self.type == 2:
            return self.row_start - self.col_start
        return 0

    @cached_property
    def col_offset(self) -> int:
        """``C_offset_C``: first local ID of the column vertices."""
        t = self.type
        if t == 0:
            return self.n_row
        if t == 1:
            return self.col_start - self.row_start
        return 0

    @cached_property
    def n_total(self) -> int:
        """``N_T``: unique row+column vertices (size of the LID space)."""
        t = self.type
        if t == 0:
            return self.n_row + self.n_col
        # Overlapping intervals: the union is one interval.
        return max(self.row_stop, self.col_stop) - min(self.row_start, self.col_start)

    # ------------------------------------------------------------------
    # conversions (vectorized; accept scalars or arrays)
    # ------------------------------------------------------------------
    def row_lid(self, gids):
        """Local IDs of row-vertex global IDs."""
        gids = np.asarray(gids)
        return gids - self.row_start + self.row_offset

    def col_lid(self, gids):
        """Local IDs of column-vertex global IDs."""
        gids = np.asarray(gids)
        return gids - self.col_start + self.col_offset

    def row_gid(self, lids):
        """Global IDs of row-vertex local IDs."""
        lids = np.asarray(lids)
        return lids - self.row_offset + self.row_start

    def col_gid(self, lids):
        """Global IDs of column-vertex local IDs."""
        lids = np.asarray(lids)
        return lids - self.col_offset + self.col_start

    def owns_row_gid(self, gids):
        """Boolean mask: is each GID in this rank's row range?"""
        gids = np.asarray(gids)
        return (gids >= self.row_start) & (gids < self.row_stop)

    def owns_col_gid(self, gids):
        """Boolean mask: is each GID in this rank's column range?"""
        gids = np.asarray(gids)
        return (gids >= self.col_start) & (gids < self.col_stop)

    @cached_property
    def row_slice(self) -> slice:
        """LID slice of the row vertices in a state array."""
        return slice(self.row_offset, self.row_offset + self.n_row)

    @cached_property
    def col_slice(self) -> slice:
        """LID slice of the column vertices in a state array."""
        return slice(self.col_offset, self.col_offset + self.n_col)
