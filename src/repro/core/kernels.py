"""Batch scan kernels: vectorized block filtering behind the I/O seam.

Every index in this repository reads blocks through the same accounting
seam (:class:`~repro.io.store.BlockStore`), then filters the records it
got with pure-Python point-at-a-time predicates.  This module batches
that second half: a block arrives as one contiguous ``(n, d)`` float64
matrix (:meth:`DiskArray.scan_batches`) and the predicate is evaluated
as a masked numpy expression over the whole matrix.  The I/O counters
are untouched — the kernels consume exactly the block reads the scalar
path would have issued, in the same order.

Parity is guaranteed, not approximate: the batch predicates
(:meth:`LinearConstraint.below_many`, :meth:`Simplex.contains_many`)
replay the scalar accumulation order coefficient by coefficient, so a
point exactly on the boundary hyperplane resolves identically in both
paths.  Blocks that are not columnar (mixed record types, ragged
widths) silently take the scalar fallback per block.

A process-wide toggle (:func:`set_vectorized`, :func:`scalar_kernels`)
forces the scalar path everywhere; the benchmark uses it to measure the
speedup with identical I/O traces on both sides.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.geometry.primitives import LinearConstraint
from repro.geometry.simplex import Simplex
from repro.io.block import BlockPayload
from repro.io.disk_array import DiskArray

_VECTORIZED = True


def set_vectorized(enabled: bool) -> bool:
    """Enable/disable the vectorized kernels; returns the previous value."""
    global _VECTORIZED
    previous = _VECTORIZED
    _VECTORIZED = bool(enabled)
    return previous


def vectorized_enabled() -> bool:
    """True when the batch kernels are active (the default)."""
    return _VECTORIZED


@contextmanager
def scalar_kernels():
    """Context manager forcing the original record-at-a-time loops."""
    previous = set_vectorized(False)
    try:
        yield
    finally:
        set_vectorized(previous)


def matrix_rows(matrix: np.ndarray) -> List[Tuple[float, ...]]:
    """Materialize matrix rows as plain-float tuples.

    ``tolist`` converts to builtin floats in one pass, so results are
    JSON-serializable and compare equal (``==``, ``hash``) to the tuples
    the scalar path returns.
    """
    return [tuple(row) for row in matrix.tolist()]


def _columnar_stack(payloads: List[BlockPayload]) -> Optional[np.ndarray]:
    """One matrix for an all-columnar, same-width payload list, else None.

    Stacking lets a multi-block scan evaluate its predicate once instead
    of once per block (the per-call numpy overhead dominates small
    blocks).  Row order is exactly scan order, and the predicate kernels
    are row-independent, so the stacked evaluation is bit-identical to
    the per-block one.  The payloads were already read — I/O counters
    are untouched.
    """
    if not payloads or not all(p.is_columnar for p in payloads):
        return None
    width = payloads[0].matrix.shape[1]
    if any(p.matrix.shape[1] != width for p in payloads):
        return None
    if len(payloads) == 1:
        return payloads[0].matrix
    return np.concatenate([p.matrix for p in payloads])


def filter_constraint(array: DiskArray, constraint: LinearConstraint,
                      out: Optional[List[Any]] = None) -> List[Any]:
    """All records of ``array`` satisfying ``constraint``.

    The batch analogue of ``[r for r in array.scan() if
    constraint.below(r)]`` with identical I/O charging and identical
    results (order preserved).  Appends into ``out`` when given.
    """
    results = out if out is not None else []
    if not _VECTORIZED:
        for record in array.scan():
            if constraint.below(record):
                results.append(record)
        return results
    payloads = list(array.scan_batches())
    matrix = _columnar_stack(payloads)
    if matrix is not None:
        mask = constraint.below_many(matrix)
        if mask.any():
            results.extend(matrix_rows(matrix[mask]))
        return results
    for payload in payloads:
        _filter_payload_constraint(payload, constraint, results)
    return results


def _filter_payload_constraint(payload: BlockPayload,
                               constraint: LinearConstraint,
                               results: List[Any]) -> None:
    if payload.is_columnar:
        mask = constraint.below_many(payload.matrix)
        if mask.any():
            results.extend(matrix_rows(payload.matrix[mask]))
    else:
        for record in payload.records():
            if constraint.below(record):
                results.append(record)


def filter_simplex(array: DiskArray, simplex: Simplex,
                   out: Optional[List[Any]] = None) -> List[Any]:
    """All records of ``array`` inside ``simplex`` (batch per block)."""
    results = out if out is not None else []
    if not _VECTORIZED:
        for record in array.scan():
            if simplex.contains(record):
                results.append(record)
        return results
    payloads = list(array.scan_batches())
    matrix = _columnar_stack(payloads)
    if matrix is not None:
        mask = simplex.contains_many(matrix)
        if mask.any():
            results.extend(matrix_rows(matrix[mask]))
        return results
    for payload in payloads:
        if payload.is_columnar:
            mask = simplex.contains_many(payload.matrix)
            if mask.any():
                results.extend(matrix_rows(payload.matrix[mask]))
        else:
            for record in payload.records():
                if simplex.contains(record):
                    results.append(record)
    return results


def collect_records(array: DiskArray,
                    out: Optional[List[Any]] = None) -> List[Any]:
    """All records of ``array`` (the unfiltered report path).

    Same I/Os as ``list(array.scan())``; columnar blocks materialize via
    one ``tolist`` instead of a per-record Python loop.
    """
    results = out if out is not None else []
    if not _VECTORIZED:
        results.extend(array.scan())
        return results
    for payload in array.scan_batches():
        if payload.is_columnar:
            results.extend(matrix_rows(payload.matrix))
        else:
            results.extend(payload.records())
    return results

