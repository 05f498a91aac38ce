"""table_body against its oracle: repr of every float64, "," between the
values of a row and "\\n" after it, over all its blocks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhosc import _format
from anhosc._format import table_body


def oracle(columns):
    row = ",".join(["%r"] * len(columns))
    return "".join(row % values + "\n" for values in zip(*(c.tolist() for c in columns))).encode()


def as_columns(values, width):
    values = np.asarray(values, dtype=np.float64)
    values = values[: len(values) // width * width]
    return list(values.reshape(-1, width).T)


@st.composite
def tables(draw):
    """Raw 64-bit patterns viewed as float64: some drawn one by one, the rest
    from a seeded generator, in 1 to 6 columns, with row counts on both
    sides of a block boundary and of a gather slice's end."""
    width = draw(st.integers(1, 6))
    block_rows = max(1, _format._BLOCK // width)
    gather = _format._GATHER
    slice_rows = [values // width + extra for extra in (0, 1)
                  for values in (gather - 1, gather, gather + 1, 2 * gather + 1)]
    rows = draw(st.one_of(
        st.sampled_from([1, block_rows - 1, block_rows, block_rows + 1, 2 * block_rows + 1]),
        st.sampled_from(slice_rows),
        st.integers(1, 3 * block_rows),
    ))
    bits = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(
        0, 2 ** 64, size=rows * width, dtype=np.uint64, endpoint=False)
    for position, pattern in draw(st.lists(
            st.tuples(st.integers(0, bits.size - 1), st.integers(0, 2 ** 64 - 1)), max_size=16)):
        bits[position] = pattern
    return as_columns(bits.view(np.float64), width)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(columns=tables())
def test_random_bit_patterns_render_as_repr(columns):
    assert b"".join(table_body(columns)) == oracle(columns)


def _corpus():
    values = [0.0, math.inf, math.nan, 1e16, 9999999999999998.0,
              1e-4, math.nextafter(1e-4, 0.0)]
    values += [2.0 ** p for p in range(-1074, 1024)]
    for k in range(-323, 309):
        v = float(f"1e{k}")
        values += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    values += [float(2 ** 53 + d) for d in range(-64, 65)]
    values = np.array(values)
    subnormals = np.arange(1, 10 ** 5 + 1, dtype=np.uint64).view(np.float64)
    values = np.concatenate([values, subnormals])
    return np.concatenate([values, -values])


def test_fixed_corpus_renders_as_repr():
    # Every power of two, 10^k and its neighbours, the first 10^5
    # subnormals, integers near 2^53, both notation boundaries, zeros,
    # infinities and nan, with either sign.
    columns = as_columns(_corpus(), 3)
    assert b"".join(table_body(columns)) == oracle(columns)


def test_strided_columns_render_as_repr():
    # The real and imaginary parts of a complex array are strided views.
    z = np.exp(1j * np.linspace(-40.0, 40.0, 4001)) * np.exp(-np.linspace(0.0, 800.0, 4001))
    columns = [z.real, z.imag, np.abs(z) ** 2]
    assert b"".join(table_body(columns)) == oracle(columns)


@pytest.mark.parametrize("width", [3, 4, 5])  # generate, coherent, construct
def test_a_last_block_that_ends_mid_slice_renders_as_repr(width):
    # Two whole blocks, then one of about 1.5 gather slices.
    rows = 2 * (_format._BLOCK // width) + 3 * _format._GATHER // 2 // width
    q = np.linspace(-40.0, 40.0, rows)
    z = np.exp(1j * q - q * q / 8)
    columns = [q, z.real, z.imag, np.abs(z) ** 2, np.angle(z)][:width]
    assert b"".join(table_body(columns)) == oracle(columns)


@pytest.mark.parametrize("width, rows", [(5, 4001), (3, 5001)])  # construct, generate
def test_peak_memory_stays_bounded(width, rows):
    # The block's buffers and temporaries, once the constant tables are
    # built: about 610 KB with 1024-value blocks, 881-886 KB with 2048-value
    # blocks gathered in 1024-value slices, and about 1 MB with the gather
    # index built whole. A block is rendered, written and dropped, so this
    # is what a table adds to the peak memory of the process.
    columns = list(np.random.default_rng(0).standard_normal((width, rows)))
    _format._tables()
    tracemalloc.start()
    try:
        for _ in table_body(columns):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 900_000
