"""Batch scan kernels: vectorized block filtering behind the I/O seam.

Every index in this repository reads blocks through the same accounting
seam (:class:`~repro.io.store.BlockStore`), then filters the records it
got with pure-Python point-at-a-time predicates.  This module batches
that second half.  A block is read in the one form it was stored in
(:meth:`BlockStore.read_run`, :meth:`DiskArray.scan_batches`): a point
block is one read-only ``(n, d)`` float64 matrix, and the predicate is
evaluated as a masked numpy expression over the whole matrix.  The I/O
counters are untouched — the kernels consume exactly the block reads
a record-at-a-time loop would issue, in the same order.

Parity is guaranteed, not approximate: a scan filters with its query
region's ``contains_many`` (:meth:`LinearConstraint.below_many`, or a
polytope's over the same facets), the membership fold over the matrix's
columns, so a point exactly on the boundary hyperplane resolves as
:meth:`LinearConstraint.below` resolves it.  Any other block (mixed
record types, ragged widths) arrives as its record list — the backend's
write decided that, nothing here re-checks it — and is filtered record
by record.  There is one scan path; the record loops it replaced are the
tests' oracle (``tests/scan_oracle.py``), which holds it to the same
answers, row order, reads and pool hits.
:func:`matrix_rows` is the one function that boxes matrix rows into
tuples, here and in the store.

One scan serves one query (:class:`DeferredScan`): a tree walk hands it
the leaf blocks it read, in its order, and the predicate runs once, over
all the rows read, when the walk is over; ``filter_constraint`` is that
scan over a single array.

What a kernel selects stays a matrix: every index answers with one
read-only C-contiguous ``(n, d)`` float64 matrix (:func:`answer_matrix`,
``(0, d)`` when empty), and the engine carries it to the socket as it
is.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.io.block import POINT_DTYPE, matrix_to_records
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore

#: Matrix rows as plain-float tuples: the one row-boxing function (the
#: store decodes a point block with it too), called by this name here.
matrix_rows = matrix_to_records


def answer_matrix(parts: Sequence[Any], dimension: int) -> np.ndarray:
    """Matrices and record lists, in order, as one answer: a read-only
    C-contiguous ``(n, d)`` float64 matrix, ``(0, d)`` when empty.

    Records become rows here, once; a lone part that already is such a
    matrix (a pool block) is the answer itself, not a copy.
    """
    chunks = [part if isinstance(part, np.ndarray)
              else np.asarray(part, dtype=POINT_DTYPE)
              for part in parts if len(part)]
    if not chunks:
        matrix = np.empty((0, dimension), dtype=POINT_DTYPE)
    else:
        matrix = np.ascontiguousarray(
            chunks[0] if len(chunks) == 1 else np.concatenate(chunks),
            dtype=POINT_DTYPE)
    if matrix.flags.writeable:
        matrix = matrix.view()
        matrix.setflags(write=False)
    return matrix


# ----------------------------------------------------------------------
# the answer matrix as JSON text
# ----------------------------------------------------------------------
#: Below this many values :func:`matrix_json` is ``json.dumps``: the
#: vector kernel costs ~0.2 ms before its first digit.  Medians on the
#: builder's host (kernel | json.dumps, us, d = 2; d = 3 the same):
#: 96 values 210 | 118, 192 values 245 | 236, 256 values 253 | 314,
#: 384 values 294 | 462, 512 values 350 | 638, 1024 values 494 | 1239,
#: 8192 values 2785 | 10812 -- the curves cross near 200.
_JSON_CROSSOVER = 384
#: Values encoded per kernel call (~300 B of temporaries each).
_JSON_CHUNK = 4096
#: One value's text: sign, "0.000", 17 digits around a point slot, then
#: "," or "],[" and a spare byte; unused bytes stay NUL.
_FIELD = 28
_SPLITTER = 134217729.0             # 2**27 + 1: Veltkamp's split
_TWO52 = 4503599627370496.0
#: repr prints positional notation for 1e-4 <= |x| < 1e16.  The four
#: negative powers round up as doubles, so ``a >= _TENS[k]`` decides
#: ``a >= 10**(k - 4)`` exactly.
_TENS = np.array([float("1e%d" % k) for k in range(-4, 17)])
_SCALE = np.array([float("1e%d" % k) for k in range(21)])   # exact doubles
_SCALE_HI = _SCALE * _SPLITTER
_SCALE_HI = _SCALE_HI - (_SCALE_HI - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
#: "0000" .. "9999" as little-endian words: four digits per lookup.
_QUADS = np.frombuffer(b"".join(b"%04d" % n for n in range(10000)),
                       dtype="<u4")
_DIGITS = np.arange(17)
#: By decade (exponent + 5): which of the 17 digits are the integer part.
_WHOLE = _DIGITS <= np.arange(-5, 16)[:, None]
_UPTO = _DIGITS <= _DIGITS[:, None]


def _json_chunk(values: np.ndarray, row_width: int) -> bytes:
    """``values`` (flat, finite float64) as ``repr`` text, each followed
    by ``,`` — or by ``],[`` after every ``row_width``-th.

    Per value: ``|x| * 10**(16 - e)`` as an exact 17-digit integer part
    and a fraction (Dekker's two-product), the rounding interval of
    ``x`` in the same units, and the nearest 15-, 16- and 17-digit
    decimals; the first inside the interval is what ``repr`` prints
    (shortest, then nearest — the 17-digit one always is inside).  All
    comparisons are on integers scaled by 2**52, hence exact.
    """
    n = len(values)
    size = np.abs(values)
    decade = _TENS.searchsorted(size, "right")      # exponent + 5
    fixed = (decade > 0) & (decade < 21)
    plain = bool(fixed.all())
    if not plain:       # zeros and exponent notation: rewritten below
        size = np.where(fixed, size, 1.0)
        decade = np.where(fixed, decade, 5)
    exponent = decade - 5
    shift = 21 - decade
    scale = _SCALE[shift]
    # size * scale == high + low exactly; high is an integer (>= 2**53)
    # and low has under 48 fractional bits.
    high = size * scale
    split = size * _SPLITTER
    size_hi = split - (split - size)
    size_lo = size - size_hi
    scale_hi, scale_lo = _SCALE_HI[shift], _SCALE_LO[shift]
    low = (((size_hi * scale_hi - high) + size_hi * scale_lo)
           + size_lo * scale_hi) + size_lo * scale_lo
    floor = np.floor(low)
    whole = high.astype(np.int64) + floor.astype(np.int64)
    fraction = ((low - floor) * _TWO52).astype(np.int64)
    # Half the gap to the next double, in units of 2**-52: a power of
    # two times 10**shift, so exact.  Two refinements of the interval
    # cannot show below 1e16 and are left out.  Its ends, x's own when
    # the mantissa is even, are odd multiples of 5**shift / 2**j with
    # j > 0 -- no 17-digit decimal -- until |x| >= 2**52, where x is an
    # integer and its own nearest decimal.  The gap below a power of two
    # is half as wide, but every power of two in this range is a decimal
    # of at most 16 digits.
    reach = (np.spacing(size) * scale * (_TWO52 / 2)).astype(np.int64)
    digits = whole + (fraction + (whole & 1) > 1 << 51)     # half-even
    for unit in (10, 100):
        quotient = whole // unit
        rest = ((whole - quotient * unit) << 52) + fraction
        up = rest + (quotient & 1) > unit << 51
        inside = np.where(up, (unit << 52) - rest, rest) < reach
        digits = np.where(inside, (quotient + up) * unit, digits)
    # 17 digits = 1 + 8 + 8, each eight as two table words, written
    # where the fraction digits go: bytes 7..23 of the field.
    head = digits // 100000000
    tail = (digits - head * 100000000).astype(np.uint32)
    first = head // 100000000
    middle = (head - first * 100000000).astype(np.uint32)
    field = np.zeros((n, _FIELD), dtype=np.uint8)
    words = field.view("<u4")
    upper = middle // 10000
    words[:, 2] = _QUADS[upper]
    words[:, 3] = _QUADS[middle - upper * 10000]
    upper = tail // 10000
    words[:, 4] = _QUADS[upper]
    words[:, 5] = _QUADS[tail - upper * 10000]
    field[:, 7] = first + 48
    text = field[:, 7:24]
    # Trailing zeros go, but not the first fraction digit; the integer
    # part moves one byte left and the point takes the gap.
    last = 16 - (text[:, ::-1] != 48).argmax(axis=1)
    kept = _UPTO.take(np.maximum(last, exponent + 1), axis=0)
    small = exponent < 0
    if small.all():
        text *= kept
    else:
        whole_part = _WHOLE.take(decade, axis=0)
        integer = text * whole_part
        text *= kept > whole_part
        field[:, 6:23] |= integer
    field[:, 0] = np.signbit(values) * np.uint8(45)
    field[:, 1] = small * np.uint8(48)
    for column in (3, 4, 5):
        field[:, column] = (exponent < 2 - column) * np.uint8(48)
    field.ravel()[np.arange(0, n * _FIELD, _FIELD)
                  + np.where(small, 2, exponent + 7)] = 46
    if not plain:
        zero = values == 0
        field[zero, 1:24] = 0
        field[zero, 6:9] = (48, 46, 48)
        for index in np.flatnonzero(~(fixed | zero)).tolist():
            literal = repr(float(values[index])).encode()
            field[index, :24] = 0
            field[index, :len(literal)] = np.frombuffer(literal, np.uint8)
    field[:, 24] = 44
    field[row_width - 1::row_width, 24:27] = (93, 44, 91)
    return field.tobytes().translate(None, b"\0")


def matrix_json(matrix: np.ndarray) -> bytes:
    """An ``(n, d)`` float64 answer as compact JSON text ``[[a,b],...]``.

    Byte for byte ``json.dumps(matrix.tolist(), separators=(",", ":"))``
    — every number is the digits ``repr`` prints, so ``json.loads``
    gives back the identical doubles — and *is* that call for small
    answers.  Larger ones are written
    :data:`_JSON_CHUNK` values at a time by array arithmetic
    (:func:`_json_chunk`) with no Python float per value; only values
    ``repr`` prints in exponent notation (``|x|`` outside ``[1e-4,
    1e16)``) are written one by one.  NaN and infinities raise the
    ``ValueError`` that ``allow_nan=False`` raises.
    """
    if matrix.size < _JSON_CROSSOVER:
        return json.dumps(matrix.tolist(), separators=(",", ":"),
                          allow_nan=False).encode("ascii")
    if not np.isfinite(matrix).all():
        raise ValueError("Out of range float values are not JSON compliant")
    width = matrix.shape[1]
    rows = max(1, _JSON_CHUNK // width)
    pieces = [b"[["]
    for start in range(0, len(matrix), rows):
        chunk = np.ascontiguousarray(matrix[start:start + rows],
                                     dtype=POINT_DTYPE)
        pieces.append(_json_chunk(chunk.ravel(), width))
    pieces[-1] = pieces[-1][:-2]        # "],[" ends the last row: "]"
    pieces.append(b"]")
    return b"".join(pieces)


class DeferredScan:
    """One query's leaf scan: blocks arrive as they are read, the
    predicate runs once when the query ends.

    :meth:`add_read` takes blocks already read — a cell tree's walk
    reads its query's tables and leaves in one run and hands over the
    leaf blocks, each with its kept flag — and :meth:`add` /
    :meth:`add_blocks` read theirs as one run first: the I/Os and their
    order are a record-at-a-time loop's.  They only queue the matrices;
    at the end they are stacked, the region's row test is evaluated once
    (the per-call numpy overhead dominates one-block scans), the rows
    queued unfiltered are forced to true and one masked matrix joins the
    answer.  Row order is visit order and the predicate is
    row-independent, so the mask is bit for bit the per-block one.  A
    non-columnar block ends the stack and is filtered record by record
    in place.  :meth:`flush` returns the answer;
    the records selected record by record become rows of it only there
    (:func:`answer_matrix`).

    The scan also carries the query's account (:meth:`account`): every
    walk that feeds it counts its steps here, so a walk nested in
    another (a shallow tree's secondary tree) adds to the same account.
    """

    __slots__ = ("_dimension", "_keep_one", "_keep_many", "_chunks",
                 "_pending", "_kept", "crossed", "steps")

    def __init__(self, dimension: int, region) -> None:
        self._dimension = dimension
        self._keep_one = region.contains
        self._keep_many = region.contains_many
        #: The answer so far, in order: matrices and record lists.
        self._chunks: List[Any] = []
        self._pending: List[np.ndarray] = []
        #: Per pending block: reported unfiltered?
        self._kept: List[bool] = []
        #: Nodes whose cell the query's boundary crossed (a plain
        #: attribute: a walk counts it once per crossed child).
        self.crossed = 0
        #: Every other step, by name: the walk's index sets the names.
        self.steps: Dict[str, int] = {}

    def add(self, array: DiskArray, filtered: bool) -> None:
        """Read ``array`` now; keep its rows that pass the predicate
        (``filtered``) or all of them."""
        block_ids = array.block_ids
        self.add_blocks(array.store, block_ids,
                        [not filtered] * len(block_ids))

    def add_blocks(self, store: BlockStore, block_ids: Sequence[int],
                   kept: Sequence[bool]) -> None:
        """Read the blocks now, as one :meth:`BlockStore.read_run`, and
        :meth:`add_read` them."""
        self.add_read(store.read_run(block_ids), kept)

    def add_read(self, blocks: Sequence[Any], kept: Sequence[bool]) -> None:
        """Blocks already read, in their stored forms: keep all rows of
        block ``i`` when ``kept[i]``, else those that pass the
        predicate."""
        if all(isinstance(block, np.ndarray) for block in blocks):
            self._pending += blocks
            self._kept += kept
            return
        for block, keep in zip(blocks, kept):
            if isinstance(block, np.ndarray):
                self._pending.append(block)
                self._kept.append(keep)
            else:
                self._evaluate()
                self._select(block, not keep)

    def _select(self, records: List[Any], filtered: bool) -> None:
        self._chunks.append([record for record in records
                             if self._keep_one(record)]
                            if filtered else records)

    def extend(self, rows: np.ndarray) -> None:
        """Append rows selected elsewhere, after what is pending."""
        self._evaluate()
        self._chunks.append(rows)

    def _evaluate(self) -> None:
        """Move everything pending, selected, to the answer."""
        pending, kept = self._pending, self._kept
        if not pending:
            return
        if all(kept):
            self._chunks += pending     # handed over as read, no copy
        else:
            matrix = pending[0] if len(pending) == 1 \
                else np.concatenate(pending)
            mask = self._keep_many(matrix)
            if any(kept):
                mask |= np.repeat(kept, list(map(len, pending)))
            # compress: the rows of matrix[mask], several times sooner.
            self._chunks.append(matrix.compress(mask, axis=0))
        pending.clear()
        kept.clear()

    def account(self) -> Dict[str, int]:
        """The query's step counts: ``nodes_crossed`` and :attr:`steps`."""
        return {"nodes_crossed": self.crossed, **self.steps}

    def flush(self) -> np.ndarray:
        """The answer: everything selected, as one read-only ``(n, d)``
        float64 matrix."""
        self._evaluate()
        return answer_matrix(self._chunks, self._dimension)


def filter_constraint(array: DiskArray, region) -> np.ndarray:
    """All records of ``array`` in ``region`` — a constraint, or a
    polytope — as an answer matrix.

    One block read per block of ``array``, in order, and the records
    the region's ``contains`` keeps (:meth:`LinearConstraint.below` for
    a constraint), in record order.
    """
    scan = DeferredScan(region.dimension, region)
    scan.add(array, filtered=True)
    return scan.flush()
