"""Disk blocks for the simulated external memory.

A block is the unit of transfer in the I/O model: it holds at most ``B``
records (the paper's parameter).  Records are arbitrary Python objects;
the simulation counts *records per block*, not bytes, which matches the
way the paper states all of its bounds (``n = N/B`` blocks, ``t = T/B``
output I/Os, and so on).

A block has one form, fixed when it is written
(:meth:`~repro.io.backend.StorageBackend.put`): a *point block* — rows of
floats of one width, by far the most common payload — is one read-only
``(n, d)`` float64 matrix; any other block is its record list.  The
backend, the store's buffer pool and the batch scan kernels all hold and
hand over that one value.  :func:`as_point_matrix` is the rule that
decides the form of a record list (the backend's ``put`` is its one
caller); :func:`copy_point_matrix` is the gate of an array written as a
matrix from the start; :func:`block_records` decodes either form into a
fresh record list.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, Union

import numpy as np

BlockId = int
"""Identifier of a block on the simulated disk (a simple integer address)."""

#: Element type of the columnar representation of point blocks.
POINT_DTYPE = np.float64

#: A block as stored, pooled and read: its matrix, or its record list.
StoredBlock = Union[np.ndarray, List[Any]]


def as_point_matrix(records) -> Optional[np.ndarray]:
    """The records as a read-only ``(n, d)`` float64 matrix, or None.

    A block qualifies for the columnar path only when *every* record is a
    non-empty tuple of floats of one common width.  The type check is
    deliberately strict (ints, strings and nested tuples are rejected,
    not coerced): the file backends persist columnar blocks as raw float64
    bytes, so any record that would not round-trip bit-for-bit through
    ``float`` must keep the pickled list path.
    """
    if not records:
        return None
    first = records[0]
    if not isinstance(first, tuple) or not first:
        return None
    width = len(first)
    for record in records:
        if not isinstance(record, tuple) or len(record) != width:
            return None
        for coordinate in record:
            if not isinstance(coordinate, (float, np.floating)):
                return None
    matrix = np.asarray(records, dtype=POINT_DTYPE)
    matrix.setflags(write=False)
    return matrix


def copy_point_matrix(matrix) -> np.ndarray:
    """A private, read-only, C-contiguous float64 copy of an ``(n, d)``
    float array: what the columnar write path stores.

    The array counterpart of :func:`as_point_matrix`, and as strict: a
    2-D array of a floating dtype with at least one column qualifies
    (float32 widens exactly), anything else raises :class:`ValueError`.
    The copy is what lets the caller keep writing to its own array.
    """
    matrix = np.asarray(matrix)
    if (matrix.ndim != 2 or matrix.shape[1] == 0
            or matrix.dtype.kind != "f"):
        raise ValueError("a columnar block is an (n, d) float array with "
                         "d >= 1, got shape %r of %s"
                         % (matrix.shape, matrix.dtype))
    matrix = np.array(matrix, dtype=POINT_DTYPE, order="C")
    matrix.setflags(write=False)
    return matrix


def matrix_to_records(matrix: np.ndarray) -> List[Tuple[float, ...]]:
    """The rows of a float64 matrix as tuples of Python floats.

    ``tolist`` converts to builtin floats in one pass, so the tuples are
    JSON-serializable and compare equal (``==``, ``hash``) to the record
    tuples a caller writes.
    """
    return list(map(tuple, matrix.tolist()))


def block_records(block: StoredBlock) -> List[Any]:
    """A fresh record list of a block in its stored form."""
    if isinstance(block, np.ndarray):
        return matrix_to_records(block)
    return list(block)
