import dataclasses
import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from asyncfed.engine import Metrics, trajectory_header, write_trajectory_table
from asyncfed.textfmt import BLOCK_CELLS, format_rows


def reference_rows(block):
    rows = np.asarray(block, dtype=float).tolist()
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows).encode("ascii")


def assert_cells_match(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    text = format_rows(values[None, :]).decode("ascii")
    assert text.endswith("\n")
    got = text[:-1].split(",")
    want = ["%.17g" % v for v in values.tolist()]
    mismatches = [(v.hex(), w, g) for v, w, g in zip(values.tolist(), want, got) if w != g]
    assert not mismatches, mismatches[:10]
    assert len(got) == len(want)


def ulp_neighbours(centres, n_ulp):
    """Every double within ``n_ulp`` steps of each centre, both signs."""
    bits = np.asarray(centres, dtype=np.float64).view(np.int64)
    steps = np.arange(-n_ulp, n_ulp + 1)
    values = (bits[:, None] + steps).ravel().view(np.float64)
    return np.concatenate([values, -values])


def bit_uniform(rng, lo, hi, n):
    """``n`` doubles drawn uniformly from the bit patterns of [lo, hi)."""
    start, stop = np.array([lo, hi], dtype=np.float64).view(np.int64)
    return rng.integers(start, stop, n).view(np.float64)


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

    # no shrink phase: shrinking a failing 8000-byte example takes minutes,
    # and the unshrunk example already shows the mismatching cells
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.large_base_example],
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(st.binary(min_size=8 * 1000, max_size=8 * 1000))
    def test_arbitrary_bit_patterns(self, raw):
        # 120 examples x 1000 patterns: at least 1e5 doubles, NaN payloads included
        assert_cells_match(np.frombuffer(raw, dtype="<u8").view(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
    def test_arbitrary_floats(self, values):
        assert_cells_match(values)


class TestSplitPathBoundaries:
    """Cells at the edges between the double-product path and Python's own
    formatting, which takes every cell below 1e-6 and every cell whose
    guess of E the exact product shows one off."""

    def test_four_ulp_around_every_power_of_ten(self):
        powers = [float(f"1e{e}") for e in range(-11, 17)]
        values = ulp_neighbours(powers, 4)
        # the floor(log10) guess is one off on both sides of some powers:
        # the double path rejects those cells, above and below 1e-6 alike,
        # and Python formats them
        guess = np.floor(np.log10(np.abs(values)))
        true_exp = np.array([Decimal(v).adjusted() for v in values.tolist()])
        off = guess != true_exp
        assert np.any(off & (true_exp >= -6)) and np.any(off & (true_exp < -6))
        assert_cells_match(values)

    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    def test_a_log10_a_few_ulp_off_still_gives_exact_text(self, monkeypatch, direction):
        # numpy's SIMD log10 need not be correctly rounded, so the guess of
        # E may be one too low as well as one too high
        exact_log10 = np.log10

        def skewed(a):
            out = exact_log10(a)
            for _ in range(4):
                out = np.nextafter(out, direction)
            return out

        monkeypatch.setattr(np, "log10", skewed)
        assert_cells_match(ulp_neighbours([float(f"1e{e}") for e in range(-11, 17)], 4))

    def test_decades_around_the_last_exact_power_of_ten(self):
        # E = -6 is the last exponent with 10**(16 - E) a double
        rng = np.random.default_rng(22)
        values = np.concatenate([
            bit_uniform(rng, 1e-7, 1e-5, 100_000),
            10.0 ** rng.uniform(-7.0, -5.0, 50_000),
            ulp_neighbours([1e-7, 1e-6, 1e-5], 64),
        ])
        assert_cells_match(values)
        assert_cells_match(-values)

    def test_half_way_products(self):
        # x * 10**k == t * 5**k * 2**(j - 1) exactly, with t odd: for j = 0
        # a tie between two integers, for j >= 1 a tie between the two
        # doubles around it in [2**(52 + j), 2**(53 + j))
        rng = np.random.default_rng(57)
        values = []
        for k in range(1, 28):
            for j in range(5):
                lo, hi = (10**16, 10**17) if j == 0 else (max(10**16, 2 ** (52 + j)), min(10**17, 2 ** (53 + j)))
                unit = 5**k * 2**j  # 2 * x * 10**k == t * unit
                t_lo, t_hi = -(-2 * lo // unit), min(-(-2 * hi // unit), 2**53)
                if t_lo < t_hi:
                    values += [math.ldexp(t | 1, j - 1 - k) for t in rng.integers(t_lo, t_hi, 40).tolist()
                               if t | 1 < t_hi]
        assert len(values) > 2000
        assert_cells_match(values)

    def test_cells_near_a_seventeen_digit_carry(self):
        # the doubles nearest each 0.99999999999999999...e(E + 1), whose
        # 17-digit rounding is the last one before 10**17
        centres = [float("9.99999999999999999%se%d" % (tail, e))
                   for e in range(-12, 18) for tail in ("", "5", "49")]
        assert_cells_match(ulp_neighbours(centres, 4))

    def test_python_fallback_only_block(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([bit_uniform(rng, 1e-11, 1e-6, 60_000),
                                 10.0 ** rng.uniform(-11.0, -6.0, 20_000)])
        values = values[(values >= 1e-11) & (values < 1e-6)]
        assert_cells_match(np.where(rng.random(values.size) < 0.5, -values, values))

    # rows encoded whole, rows that splice their masks in: both meet missing
    # masks, NaN surrogates and cells below 1e-6 in one block
    @pytest.mark.parametrize("n_clients", [40, 70])
    def test_mixed_chunk_through_the_trajectory_writer(self, tmp_path, n_clients):
        rng = np.random.default_rng(3)
        n_rows = 12
        block = rng.standard_normal((n_rows, n_clients)) * 10.0 ** rng.uniform(-9, 9, (n_rows, n_clients))
        specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
                    1e-320, 1.5e17, -3e20, sys.float_info.max, 1e-11, 9.9999999999999995e-07]
        cells = rng.choice(block.size, len(specials) * 3, replace=False)
        block.flat[cells] = specials * 3
        rounds = np.arange(n_rows)
        masks = [None if n % 4 == 3 else n * 7 for n in range(n_rows)]
        surrogates = np.where(rounds % 5 == 4, np.nan, 1.0 / (rounds + 1))
        metrics = Metrics(rounds, rounds * 0.1, masks, rounds / 3.0, surrogates, rounds ** 2.0, block)
        path = tmp_path / "mixed.csv"
        write_trajectory_table(path, n_clients, [metrics])
        lines = [",".join(trajectory_header(n_clients))]
        for n, mask, surrogate, row in zip(rounds.tolist(), masks, surrogates.tolist(), block.tolist()):
            lines.append(",".join(["%d" % n, "%.17g" % (n * 0.1), "" if mask is None else "%d" % mask,
                                   "%.17g" % (n / 3.0), "" if math.isnan(surrogate) else "%.17g" % surrogate,
                                   "%.17g" % float(n) ** 2] + ["%.17g" % v for v in row]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")

    @pytest.mark.parametrize("n_clients", [3, 70])  # rows encoded whole, rows that splice their masks in
    def test_an_empty_block_writes_no_rows(self, tmp_path, n_clients):
        rng = np.random.default_rng(n_clients)
        rounds = np.arange(9)
        masks = [None if n == 8 else n + 1 for n in range(9)]
        metrics = Metrics(rounds, rounds * 0.5, masks, rounds / 3.0, np.where(rounds == 8, np.nan, 0.25),
                          rounds ** 2.0, rng.standard_normal((9, n_clients)))

        def rows(start, stop):
            return Metrics(*(getattr(metrics, f.name)[start:stop] for f in dataclasses.fields(metrics)))

        blocks = [rows(0, 4), rows(4, 9)]
        want = tmp_path / "want.csv"
        write_trajectory_table(want, n_clients, blocks)
        for at in range(len(blocks) + 1):
            got = tmp_path / f"empty_at_{at}.csv"
            write_trajectory_table(got, n_clients, [*blocks[:at], rows(0, 0), *blocks[at:]])
            assert got.read_bytes() == want.read_bytes(), at
        write_trajectory_table(got, n_clients, [rows(9, 9)])
        assert got.read_bytes() == (",".join(trajectory_header(n_clients)) + "\n").encode("ascii")


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
        assert format_rows(np.array([[True, False]])) == b"1,0\n"

    def test_empty_shapes(self):
        assert format_rows(np.zeros((0, 4))) == b""
        assert format_rows(np.zeros((2, 0))) == b"\n\n"

    @pytest.mark.parametrize("block", [[[0.5, "not a number"]], [[0.5, None]], [1.0, 2.0]])
    def test_non_real_or_non_2d_blocks_raise_type_error(self, block):
        with pytest.raises(TypeError):
            format_rows(block)
