import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncfed.textfmt import BLOCK_CELLS, format_rows


def reference_rows(block):
    return [",".join("%.17g" % v for v in row) for row in np.asarray(block, dtype=float).tolist()]


def assert_cells_match(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    got = format_rows(values[None, :])[0].split(",")
    want = ["%.17g" % v for v in values.tolist()]
    mismatches = [(v.hex(), w, g) for v, w, g in zip(values.tolist(), want, got) if w != g]
    assert not mismatches, mismatches[:10]
    assert len(got) == len(want)


def edge_values():
    values = [
        0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
        5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max,
        1e-11, 1e17, -1e-11, -1e17,
        1e-4, 1e-5, 9.9999999999999991e-05, 1.0000000000000001e-05,
        1e15 + 0.25, 1e15 + 0.75, 1e15 + 0.5, 1e16 + 2, 1e16 - 1,
        0.1, 0.5, 1.5, 2.5, 123.456, 99999999999999984.0,
        -7.25e-8, -1e-300, -3e-12, -1.2345e-9, -9.87e-5, -0.000123,
    ]
    for power in range(-12, 18):
        v = 10.0**power
        values += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf), -v]
    for near in (2.0**53, 2.0**54, 2.0**52):
        values += [near - 2, near - 1, near, near + 1, near + 2, near + 4]
    return np.array(values)


class TestCellsMatchPercentG:
    def test_edge_values(self):
        assert_cells_match(edge_values())

    def test_every_fast_range_decade_and_form(self):
        rng = np.random.default_rng(2024)
        magnitude = 10.0 ** rng.uniform(-12.0, 17.5, 100_000)
        signs = np.where(rng.random(100_000) < 0.5, -1.0, 1.0)
        assert_cells_match(signs * magnitude)

    def test_short_decimals_strip_their_trailing_zeros(self):
        rng = np.random.default_rng(7)
        mantissas = rng.integers(-10**9, 10**9, 50_000)
        assert_cells_match(mantissas / 10.0 ** rng.integers(0, 16, 50_000))

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.large_base_example])
    @given(st.binary(min_size=8 * 1000, max_size=8 * 1000))
    def test_arbitrary_bit_patterns(self, raw):
        # 120 examples x 1000 patterns: at least 1e5 doubles, NaN payloads included
        assert_cells_match(np.frombuffer(raw, dtype="<u8").view(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
    def test_arbitrary_floats(self, values):
        assert_cells_match(values)


class TestRows:
    @pytest.mark.parametrize("n_cols", [1, 3, 500, BLOCK_CELLS - 1, BLOCK_CELLS + 1])
    def test_rows_across_block_boundaries(self, n_cols):
        rng = np.random.default_rng(n_cols)
        n_rows = max(3, 3 * BLOCK_CELLS // n_cols + 2)
        block = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.uniform(-6, 6, (n_rows, n_cols))
        block[0, 0] = 0.0
        block[-1, -1] = np.nan
        assert format_rows(block) == reference_rows(block)

    def test_integer_and_bool_blocks_format_as_floats(self):
        block = np.array([[0, 1, -3, 2**60 + 1]])
        assert format_rows(block) == reference_rows(block)
        assert format_rows(np.array([[True, False]])) == ["1,0"]

    def test_empty_shapes(self):
        assert format_rows(np.zeros((0, 4))) == []
        assert format_rows(np.zeros((2, 0))) == ["", ""]

    @pytest.mark.parametrize("block", [[[0.5, "not a number"]], [[0.5, None]], [1.0, 2.0]])
    def test_non_real_or_non_2d_blocks_raise_type_error(self, block):
        with pytest.raises(TypeError):
            format_rows(block)
