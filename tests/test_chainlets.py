import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainvol import chainlets
from chainvol.chainlets import (
    ChainletMatrix, build_matrix, combine_matrices, extreme_features, feature_series,
)
from chainvol.errors import AlignmentError, ParseError, ValidationError
from chainvol.ingest import MAX_MONEY, PriceSeries

DAY = dt.date(2015, 6, 1)


def tx(n_in, n_out, amount=1000):
    """One ``n_inputs, n_outputs, amount`` row, the form ``build_matrix`` takes."""
    return (n_in, n_out, amount)


def cell_of(row, n=20):
    """The one matrix cell that a single-row day fills."""
    m = build_matrix(DAY, [row], n)
    (i,), (j,) = np.nonzero(m.occurrence)
    return int(i), int(j)


tx_strategy = st.builds(
    tx,
    n_in=st.integers(min_value=1, max_value=60),
    n_out=st.integers(min_value=1, max_value=60),
    amount=st.integers(min_value=0, max_value=10**12),
)


class TestClassify:
    """A transaction with i inputs and j outputs lands in cell [i-1, j-1], clamped at N."""

    def test_three_to_one(self):
        assert cell_of(tx(3, 1)) == (2, 0)

    def test_clamping_beyond_threshold(self):
        assert cell_of(tx(25, 2)) == (19, 1)

    def test_identity_case(self):
        assert cell_of(tx(1, 1)) == (0, 0)

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValidationError, match="coinbase must be filtered upstream"):
            build_matrix(DAY, [tx(2, 2), tx(0, 1, 10)], 20)

    def test_zero_outputs_rejected(self):
        with pytest.raises(ValidationError, match=">= 1 output"):
            build_matrix(DAY, [tx(1, 0, 10), tx(2, 2)], 20)

    @given(t=tx_strategy)
    def test_clamping_monotonicity(self, t):
        i, _ = cell_of(t)
        i2, _ = cell_of(tx(t[0] + 1, t[1], t[2]))
        assert i <= i2 <= 19


def single_cell_features(n, i, j):
    """Features of a day whose one transaction sits in cell [i-1, j-1]."""
    occ = np.zeros((n, n), dtype=np.int64)
    occ[i - 1, j - 1] = 1
    return extreme_features(ChainletMatrix(DAY, n, occ, occ), price=1.0)


class TestExtremeSets:
    """Left set: bottom row (i = N). Right set: last column without the corner."""

    def test_cardinalities_n20(self):
        ones = np.ones((20, 20), dtype=np.int64)
        row = extreme_features(ChainletMatrix(DAY, 20, ones, ones), price=1.0)
        assert (row.O_l, row.O_r) == (20, 19)

    def test_smallest_case(self):
        got = {(i, j): (single_cell_features(2, i, j).O_l, single_cell_features(2, i, j).O_r)
               for i in (1, 2) for j in (1, 2)}
        assert got == {(2, 1): (1, 0), (2, 2): (1, 0), (1, 2): (0, 1), (1, 1): (0, 0)}

    def test_corner_in_left_only(self):
        row = single_cell_features(20, 20, 20)
        assert (row.O_l, row.O_r) == (1, 0)

    @given(n=st.integers(min_value=2, max_value=40))
    def test_partition(self, n):
        ones = np.ones((n, n), dtype=np.int64)
        row = extreme_features(ChainletMatrix(DAY, n, ones, ones), price=1.0)
        assert row.O_l + row.O_r == 2 * n - 1
        # every cell falls in exactly one of {left, right, non-extreme}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = single_cell_features(n, i, j)
                if i == n:
                    assert (got.O_l, got.O_r) == (1, 0)
                elif j == n:
                    assert (got.O_l, got.O_r) == (0, 1)
                else:
                    assert (got.O_l, got.O_r) == (0, 0)


class TestBuildMatrix:
    def test_empty(self):
        m = build_matrix(DAY, [], 20)
        assert m.total_occurrences == 0
        assert m.total_amount == 0

    def test_single_transaction(self):
        m = build_matrix(DAY, [tx(3, 1, 150000)], 20)
        assert m.occurrence[2, 0] == 1
        assert m.amount[2, 0] == 150000
        assert m.occurrence.sum() == 1

    def test_random_txs_match_brute_force_tally(self):
        rng = np.random.default_rng(42)
        txs = [
            tx(int(rng.integers(1, 40)), int(rng.integers(1, 40)), int(rng.integers(0, 10**9)))
            for _ in range(100)
        ]
        m = build_matrix(DAY, np.array(txs, dtype=np.int64), 20)
        # oracle: independent per-transaction tally
        occ = np.zeros((20, 20), dtype=np.int64)
        amo = np.zeros((20, 20), dtype=np.int64)
        for n_in, n_out, amount in txs:
            i = min(n_in, 20) - 1
            j = min(n_out, 20) - 1
            occ[i, j] += 1
            amo[i, j] += amount
        assert np.array_equal(m.occurrence, occ)
        assert np.array_equal(m.amount, amo)

    @given(txs=st.lists(tx_strategy, max_size=50))
    @settings(max_examples=50)
    def test_conservation(self, txs):
        m = build_matrix(DAY, txs, 20)
        assert m.total_occurrences == len(txs)
        assert m.total_amount == sum(t[2] for t in txs)

    def test_max_money_day_sums_exactly(self):
        # the total, 2.1e18 satoshi, is far above 2**53, where float sums lose units
        rows = [tx(1, 1, MAX_MONEY)] * 999 + [tx(1, 1, MAX_MONEY - 1)]
        m = build_matrix(DAY, rows, 20)
        assert m.total_amount > 2**53
        assert int(m.amount[0, 0]) == 1000 * MAX_MONEY - 1

    def test_cell_past_int64_names_day(self):
        # 9223372036854775807 // MAX_MONEY is 4392, so one row more passes int64
        fits = build_matrix(DAY, [tx(1, 1, MAX_MONEY)] * 4392, 20)
        assert int(fits.amount[0, 0]) == 4392 * MAX_MONEY
        with pytest.raises(ValidationError, match=r"^2015-06-01: .*C_\{1->1\} exceeds int64"):
            build_matrix(DAY, [tx(2, 2)] + [tx(1, 1, MAX_MONEY)] * 4393, 20)

    def test_day_total_past_int64_stays_exact(self):
        # each cell fits in int64, the day's total does not
        rows = [tx(1, 1, MAX_MONEY)] * 4392 + [tx(20, 1, MAX_MONEY)] * 4392
        m = build_matrix(DAY, rows, 20)
        assert m.total_amount == 8784 * MAX_MONEY
        row = extreme_features(m, price=1.0)
        assert row.A_x == 0.5
        assert row.A_l == 4392 * MAX_MONEY / 10**8


class TestExtremeFeatures:
    def test_worked_ratio_example(self):
        # 2M satoshis total, 200K via extreme chainlets -> A_x = 0.1
        occ = np.zeros((20, 20), dtype=np.int64)
        amo = np.zeros((20, 20), dtype=np.int64)
        occ[0, 0] = 9
        amo[0, 0] = 1_800_000
        occ[19, 0] = 1
        amo[19, 0] = 200_000
        m = ChainletMatrix(DAY, 20, occ, amo)
        row = extreme_features(m, price=100.0)
        assert row.A_x == pytest.approx(0.1, abs=0)

    def test_no_extreme_mass(self):
        occ = np.zeros((5, 5), dtype=np.int64)
        amo = np.zeros((5, 5), dtype=np.int64)
        occ[1, 1] = 3
        amo[1, 1] = 900
        m = ChainletMatrix(DAY, 5, occ, amo)
        row = extreme_features(m, price=50.0)
        assert (row.A_x, row.O_x, row.A_l, row.A_r) == (0.0, 0.0, 0.0, 0.0)

    def test_degenerate_day_yields_zeros(self):
        m = build_matrix(DAY, [], 20)
        row = extreme_features(m, price=100.0)
        assert row.values() == (0.0, 0.0, 0.0, 0, 0, 0.0)

    def test_random_matrix_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        n = 5
        occ = rng.integers(0, 10, size=(n, n))
        amo = occ * rng.integers(1, 1000, size=(n, n))
        m = ChainletMatrix(DAY, n, occ, amo)
        price = 250.0
        row = extreme_features(m, price)
        # oracle: direct double loop over the definitional index sets
        o_l = o_r = sat_l = sat_r = 0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == n:
                    o_l += occ[i - 1, j - 1]
                    sat_l += amo[i - 1, j - 1]
                elif j == n:
                    o_r += occ[i - 1, j - 1]
                    sat_r += amo[i - 1, j - 1]
        assert row.O_l == o_l and row.O_r == o_r
        assert row.A_l == pytest.approx(sat_l * price / 1e8, rel=1e-12)
        assert row.A_r == pytest.approx(sat_r * price / 1e8, rel=1e-12)
        assert row.O_x == pytest.approx((o_l + o_r) / occ.sum(), rel=1e-12)
        assert row.A_x == pytest.approx((sat_l + sat_r) / amo.sum(), rel=1e-12)

    @given(
        txs=st.lists(tx_strategy, min_size=1, max_size=50),
        price=st.floats(min_value=0.01, max_value=1e5),
    )
    @settings(max_examples=50)
    def test_ratio_bounds(self, txs, price):
        m = build_matrix(DAY, txs, 20)
        row = extreme_features(m, price)
        assert 0.0 <= row.A_x <= 1.0
        assert 0.0 <= row.O_x <= 1.0
        assert row.A_l >= 0 and row.A_r >= 0
        assert row.O_l >= 0 and row.O_r >= 0

    def test_scale_invariance_of_ratios(self):
        txs = [tx(25, 1, 100), tx(2, 2, 300), tx(1, 30, 600)]
        k = 7
        scaled = [tx(n_in, n_out, amount * k) for n_in, n_out, amount in txs]
        r1 = extreme_features(build_matrix(DAY, txs, 20), 100.0)
        r2 = extreme_features(build_matrix(DAY, scaled, 20), 100.0)
        assert r2.A_x == pytest.approx(r1.A_x, rel=1e-12)
        assert r2.O_x == r1.O_x
        assert r2.A_l == pytest.approx(k * r1.A_l, rel=1e-12)
        assert r2.A_r == pytest.approx(k * r1.A_r, rel=1e-12)

    def test_matrix_path_equals_single_pass_oracle(self):
        rng = np.random.default_rng(3)
        n = 20
        txs = [
            tx(int(rng.integers(1, 50)), int(rng.integers(1, 50)), int(rng.integers(0, 10**8)))
            for _ in range(1000)
        ]
        price = 420.0
        row = extreme_features(build_matrix(DAY, txs, n), price)
        # oracle: one pass over raw transactions, no matrix
        o_l = o_r = sat_l = sat_r = tot_o = tot_a = 0
        for n_in, n_out, amount in txs:
            i, j = min(n_in, n), min(n_out, n)
            tot_o += 1
            tot_a += amount
            if i == n:
                o_l += 1
                sat_l += amount
            elif j == n:
                o_r += 1
                sat_r += amount
        assert (row.O_l, row.O_r) == (o_l, o_r)
        assert row.O_x == pytest.approx((o_l + o_r) / tot_o, rel=1e-12)
        assert row.A_x == pytest.approx((sat_l + sat_r) / tot_a, rel=1e-12)
        assert row.A_l == pytest.approx(sat_l * price / 1e8, rel=1e-12)


class TestFeatureSeries:
    def make_inputs(self, n_days=3):
        days = [DAY + dt.timedelta(days=i) for i in range(n_days)]
        matrices = [build_matrix(d, [tx(25, 1, 500), tx(1, 1, 500)], 20) for d in days]
        prices = PriceSeries(days, np.full(n_days, 100.0))
        return matrices, prices

    def test_dates_preserved(self):
        matrices, prices = self.make_inputs()
        rows = feature_series(matrices, prices)
        assert [r.date for r in rows] == [m.date for m in matrices]

    def test_missing_price_day_raises(self):
        matrices, prices = self.make_inputs()
        short = PriceSeries(prices.dates[:-1], prices.close[:-1])
        with pytest.raises(AlignmentError) as exc:
            feature_series(matrices, short)
        assert matrices[-1].date in exc.value.missing_dates

    def test_constant_inputs_constant_rows(self):
        matrices, prices = self.make_inputs()
        rows = feature_series(matrices, prices)
        assert len({r.values() for r in rows}) == 1


class TestHelpers:
    def test_feature_csv_round_trip(self, tmp_path):
        matrices = [build_matrix(DAY, [tx(25, 1, 500), tx(1, 2, 700)], 20)]
        prices = PriceSeries([DAY, DAY + dt.timedelta(days=1)], np.array([100.0, 101.0]))
        rows = feature_series(matrices, PriceSeries([DAY], np.array([100.0])))
        path = tmp_path / "f.csv"
        chainlets.write_feature_csv(path, rows)
        back = chainlets.read_feature_csv(path)
        assert back == rows

    def test_amount_without_occurrence_rejected(self):
        occ = np.zeros((3, 3), dtype=np.int64)
        amo = np.zeros((3, 3), dtype=np.int64)
        amo[0, 0] = 5
        with pytest.raises(ValidationError):
            ChainletMatrix(DAY, 3, occ, amo)

    @pytest.mark.parametrize("make,message", [
        (lambda occ, amo: ChainletMatrix(DAY, 2, occ, amo - 10), "negative matrix entry"),
        (lambda occ, amo: ChainletMatrix(DAY, 2, 0 * occ, amo), "amount recorded in a cell"),
        (lambda occ, amo: ChainletMatrix(DAY, 3, occ, amo), "matrix shapes (2, 2)/(2, 2)"),
    ], ids=["negative", "amount-without-occurrence", "shape"])
    def test_matrix_errors_name_day(self, make, message):
        occ = np.ones((2, 2), dtype=np.int64)
        with pytest.raises(ValidationError, match="^" + re.escape(f"{DAY}: {message}")):
            make(occ, 5 * occ)


FEATURE_LINES = [
    "date,A_l,A_r,A_x,O_l,O_r,O_x",
    "2015-06-01,1.5,2.5,0.25,3,4,0.5",
    "2015-06-02,1.5,2.5,0.25,3,4,0.5",
]


class TestReadFeatureCsv:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [1, 3, 6])
    def test_non_finite_value_names_line(self, tmp_path, value, field):
        parts = FEATURE_LINES[2].split(",")
        parts[field] = value
        path = tmp_path / "f.csv"
        path.write_text("\n".join(FEATURE_LINES[:2] + [",".join(parts)]) + "\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}:3: non-finite field")):
            chainlets.read_feature_csv(path)

    @pytest.mark.parametrize("second,message", [
        ("2015-06-01", "date 2015-06-01 not after 2015-06-01"),
        ("2015-05-31", "date 2015-05-31 not after 2015-06-01"),
    ], ids=["repeated", "reversed"])
    def test_dates_must_increase(self, tmp_path, second, message):
        path = tmp_path / "f.csv"
        path.write_text("\n".join(FEATURE_LINES[:2] + [
            FEATURE_LINES[2].replace("2015-06-02", second)]) + "\n")
        with pytest.raises(ValidationError, match="^" + re.escape(f"{path}:3: {message}")):
            chainlets.read_feature_csv(path)


def entries(*days, value=1):
    return [(dt.date(2015, 6, d), np.full((2, 2), value, dtype=np.int64)) for d in days]


class TestCombineMatrices:
    def test_pairs_by_day(self):
        matrices = combine_matrices(entries(1, 2, 4), entries(1, 2, 4, value=7), 2)
        assert [m.date.day for m in matrices] == [1, 2, 4]
        assert all(m.amount.tolist() == [[7, 7], [7, 7]] for m in matrices)

    @pytest.mark.parametrize("occ,amo,message", [
        ((1, 2, 2, 3), (1, 2, 2, 3), "2015-06-02: occurrence file day not after 2015-06-02"),
        ((1, 3, 2), (1, 3, 2), "2015-06-02: occurrence file day not after 2015-06-03"),
        ((1, 2, 3), (1, 2, 2, 3), "2015-06-02: amount file day not after 2015-06-02"),
        ((1, 2, 3), (1, 3, 2), "2015-06-02: amount file day not after 2015-06-03"),
    ], ids=["repeated", "reversed", "amount-repeated", "amount-reversed"])
    def test_days_strictly_increasing(self, occ, amo, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            combine_matrices(entries(*occ), entries(*amo), 2)

    def test_missing_amount_day(self):
        with pytest.raises(AlignmentError, match="^amount file does not cover") as exc:
            combine_matrices(entries(1, 2, 3), entries(1, 3), 2)
        assert exc.value.missing_dates == [dt.date(2015, 6, 2)]

    @pytest.mark.parametrize("amo,day", [((1, 2, 3, 4), 1), ((2, 3, 4), 4)])
    def test_extra_amount_day(self, amo, day):
        message = f"2015-06-0{day}: day in the amount file but not in the occurrence file"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            combine_matrices(entries(2, 3), entries(*amo), 2)
