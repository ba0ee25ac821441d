"""``matrix_json`` writes what ``json.dumps`` writes, digit for digit.

The vector kernel's contract is ``json.dumps`` itself: for every finite
float64 matrix the text is ``json.dumps(matrix.tolist(), separators=(",",
":"))`` byte for byte — the shortest digits that round-trip, positional
between 1e-4 and 1e16, exponent notation outside, ``-0.0`` kept.  The
generated matrices mix the values where a shortest-digits routine goes
wrong — powers of two and of ten and their neighbours one ulp either
side, subnormals, the largest double, decimal literals, integers up to
2**53, float32-valued doubles, random bit patterns of every magnitude —
into the shapes where the function changes path: empty, one row, either
side of the crossover, a chunk plus or minus a row, several chunks.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import kernels
from repro.core.kernels import matrix_json


def reference(matrix):
    return json.dumps(matrix.tolist(), separators=(",", ":"),
                      allow_nan=False).encode()


def neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)])


def edge_values():
    """Every power of two and of ten with its neighbours, the ends of
    the positional range, halfway decimals, both zeros."""
    twos = neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    tens = neighbours([float("1e%d" % k) for k in range(-323, 309)])
    rng = np.random.default_rng(5)
    halves = (rng.integers(0, 10 ** 15, 500) * 10 + 5) \
        / 10.0 ** rng.integers(1, 17, 500)
    named = [0.0, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308,
             0.1, 0.3, 1 / 3, 2 / 3, 0.5, 1.5, 9007199254740993.0,
             9999999999999998.0, 9.999999999999999e-05, 123456789012345678.0]
    values = np.concatenate([twos, tens, halves, named])
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


def row_counts(width):
    cross = -(-kernels._JSON_CROSSOVER // width)
    chunk = kernels._JSON_CHUNK // width
    return [0, 1, cross - 1, cross, chunk - 1, chunk, chunk + 1,
            3 * chunk + 7]


special = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.integers(-2 ** 53, 2 ** 53).map(float),
    st.builds(lambda k, j: float("%de-%d" % (k, j)),
              st.integers(-10 ** 17, 10 ** 17), st.integers(0, 22)),
    st.builds(lambda k, step: math.nextafter(math.ldexp(1.0, k), step),
              st.integers(-1074, 1023), st.sampled_from([-1.0, 1.0, 4.0])),
    st.builds(lambda k, step: math.nextafter(float("1e%d" % k),
                                             step * math.inf),
              st.integers(-323, 308), st.sampled_from([-1, 1])),
    st.floats(min_value=0.5e-4, max_value=2e-4),
    st.floats(min_value=0.5e15, max_value=2e16),
)


def build_matrix(pool, seed, rows, width, layout):
    """``rows x width`` doubles: the pool, random bit patterns and
    uniform draws, as a fresh array, a strided view or a read-only one."""
    rng = np.random.default_rng(seed)
    count = rows * width
    bits = rng.integers(0, 2 ** 64, count, dtype=np.uint64).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, 1.0)
    uniform = rng.random(count) * 10.0 ** rng.integers(-6, 18, count)
    values = np.where(rng.random(count) < 0.5, uniform, bits)
    if pool:
        picks = rng.random(count) < 0.2
        values = np.where(picks, rng.choice(np.asarray(pool), count), values)
    matrix = values.reshape(rows, width)
    if layout == "strided":
        wide = np.zeros((rows, 2 * width))
        wide[:, ::2] = matrix
        matrix = wide[:, ::2]
    elif layout == "read-only":
        matrix.setflags(write=False)
    return matrix


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pool=st.lists(special, max_size=40), seed=st.integers(0, 2 ** 32),
       width=st.integers(2, 5), shape=st.integers(0, 7),
       layout=st.sampled_from(["fresh", "strided", "read-only"]))
def test_text_is_json_dumps_byte_for_byte(pool, seed, width, shape, layout):
    matrix = build_matrix(pool, seed, row_counts(width)[shape], width,
                          layout)
    want = reference(matrix)
    assert matrix_json(matrix) == want
    parsed = np.array(json.loads(want), dtype=float).reshape(matrix.shape)
    assert parsed.tobytes() == np.ascontiguousarray(matrix).tobytes()


@pytest.mark.parametrize("width", [2, 3, 5])
def test_every_power_of_two_and_ten_and_its_neighbours(width):
    values = edge_values()
    values = values[:len(values) // width * width]
    matrix = values.reshape(-1, width)
    assert matrix.size >= kernels._JSON_CHUNK     # the vector path
    assert matrix_json(matrix) == reference(matrix)


def test_empty_answers():
    assert matrix_json(np.empty((0, 0))) == b"[]"
    assert matrix_json(np.empty((0, 3))) == b"[]"


@pytest.mark.parametrize("rows", [1, 4096])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nan_and_infinities_raise_on_both_paths(rows, bad):
    matrix = np.random.default_rng(rows).random((rows, 2))
    matrix[rows // 2, 1] = bad
    with pytest.raises(ValueError):
        matrix_json(matrix)
    with pytest.raises(ValueError):
        reference(matrix)


def test_encoding_is_chunked_not_whole_matrix():
    """The kernel holds ~300 B of temporaries per value it is working
    on: a 65 536-point answer must not hold them for every value."""
    matrix = np.random.default_rng(9).random((65536, 2))
    matrix_json(matrix[:4096])          # tables and caches are warm
    tracemalloc.start()
    try:
        text = matrix_json(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == reference(matrix)
    assert peak - len(text) <= 4 * 2 ** 20, peak
