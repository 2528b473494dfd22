"""`_floattext.rows` against `repr`, the text it must reproduce byte for
byte: every exponent, the decimal layout's edges, random bit patterns,
chunk boundaries with fallback values on them, masked values, and the
memory one call holds beyond its output."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iadt import _floattext


def reprs(block):
    """The reference: each row's values' reprs joined by commas."""
    return [",".join(map(repr, row)) for row in block.tolist()]


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def assert_rows_equal_repr(block):
    got, want = _floattext.rows(block), reprs(block)
    assert len(got) == len(want)
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert bad[:5] == []


def test_every_exponent_with_edge_and_random_mantissas_and_the_specials():
    # every biased exponent of a normal double, each with mantissas 0 (a
    # power of two, whose lower bound is nearer), 1, 2^51, 2^52 - 1 and three
    # random ones, of either sign; then subnormals, zeros, infinities and nan
    rng = np.random.default_rng(0)
    exps = np.arange(1, 2047, dtype=np.uint64)
    mantissas = np.concatenate([np.array([0, 1, 2**51, 2**52 - 1], dtype=np.uint64)[None, :]
                                .repeat(len(exps), axis=0),
                                rng.integers(0, 2**52, (len(exps), 3), dtype=np.uint64)], axis=1)
    bits = (exps[:, None] << np.uint64(52)) | mantissas
    bits = np.concatenate([bits.ravel(), bits.ravel() | np.uint64(1 << 63)])
    subnormal = rng.integers(1, 2**52, 200, dtype=np.uint64)
    values = np.concatenate([from_bits(bits), from_bits(subnormal),
                             [0.0, -0.0, np.inf, -np.inf, np.nan]])
    assert_rows_equal_repr(values[:, None])


def test_powers_of_ten_their_neighbours_and_the_layout_edges():
    # 10^k and the doubles one ulp either side, and the edges of repr's
    # fixed form: decpt -3 against -4 and 16 against 17
    values = []
    for k in range(-324, 309):
        x = float(f"1e{k}")
        values += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    values += [1e-4, 9.999999999999999e-05, 9999999999999998.0, 1e16]
    values = np.array(values)
    assert_rows_equal_repr(np.concatenate([values, -values])[:, None])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60), st.integers(1, 6))
def test_random_bit_patterns(bits, width):
    values = from_bits(bits + [0] * (-len(bits) % width))
    assert_rows_equal_repr(values.reshape(-1, width))


@pytest.mark.parametrize("width", [1, 3, 7, 90])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_chunk_boundaries_with_fallback_values_on_them(width, extra):
    # about two chunks' worth of values; `rows` formats whole rows, at most
    # one chunk of values at a time, and a width of 3, 7 or 90 does not
    # divide the chunk. The first and last value of every chunk go through
    # repr, and the rest are mostly common values.
    total = 2 * _floattext._CHUNK + extra
    n = -(-total // width)
    rng = np.random.default_rng(width)
    block = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 8, (n, width))
    per_chunk = max(1, _floattext._CHUNK // width) * width
    flat = block.reshape(-1)
    specials = [0.0, -0.0, np.inf, np.nan, 1.0, 2.0**60, 5e-324, -np.inf]
    for i, at in enumerate(sorted({*range(0, flat.size, per_chunk),
                                   *range(per_chunk - 1, flat.size, per_chunk), flat.size - 1})):
        flat[at] = specials[i % len(specials)]
    assert_rows_equal_repr(block)


@pytest.mark.parametrize("values, text", [
    # mostly values that only repr formats, so the chunk goes through repr
    ([[0.5, 1.25, 1e-300], [np.nan, -0.0, 3.0]], ["0.5,,1e-300", ",,"]),
    # mostly the kernel's values
    ([[0.1, 0.2, 1e-300], [1 / 3, 2.5, 0.3]], ["0.1,,1e-300", ",,"]),
])
def test_a_missing_value_is_an_empty_field(values, text):
    missing = np.array([[False, True, False], [True, True, True]])
    assert _floattext.rows(np.array(values), missing) == text


def test_chunks_of_integral_values_equal_repr():
    # integral values all go through repr; from half a chunk of them on, the
    # whole chunk does. The first chunk is integral, the others a third so.
    block = np.round(np.random.default_rng(2).standard_normal((400, 30)) * 1000)
    first = _floattext._CHUNK // 30
    block[first:, 1::3] += 0.1
    block[first:, 2::3] += 0.7
    assert_rows_equal_repr(block)


# What one chunk may hold at once, per value: its slot's 25 source offsets
# at 8 bytes (200), its template (25), its source row (32), its slot (25), a
# few dozen int64 temporaries of the digits (8 each) and the chunk's text
# before it is split.
CHUNK_BYTES_PER_VALUE = 600


def test_memory_beyond_the_output_is_about_two_chunks():
    # the cohort's latent block: 10k rows of 32 values, 79 chunks
    block = np.random.default_rng(1).standard_normal((10_000, 32))
    tracemalloc.start()
    try:
        out = _floattext.rows(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = sys.getsizeof(out) + sum(map(sys.getsizeof, out))
    assert text > 5_000_000
    assert peak - text <= 2 * _floattext._CHUNK * CHUNK_BYTES_PER_VALUE
