import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainvol import chainlets, ingest
from chainvol.chainlets import (
    DayCube, DayCubeBuilder, combine_matrices, cube_features, feature_series,
)
from chainvol.errors import AlignmentError, ParseError, ValidationError
from chainvol.ingest import MAX_MONEY, PriceSeries

DAY = dt.date(2015, 6, 1)


def tx(n_in, n_out, amount=1000):
    """One ``n_inputs, n_outputs, amount`` row."""
    return (n_in, n_out, amount)


def cube_of(txs, n=20, n_days=1):
    """The cube that ``DayCubeBuilder`` makes of the rows ``txs`` on each of
    ``n_days`` days from DAY."""
    builder = DayCubeBuilder(n)
    first = (DAY - ingest.EPOCH).days
    for day in range(first, first + n_days):
        seconds = day * ingest.SECONDS_PER_DAY
        builder.add(np.array([(seconds, *t) for t in txs], dtype=np.int64).reshape(-1, 4))
    return builder.cube()


def total(a) -> int:
    """The sum of an int64 array in Python ints, exact past int64."""
    return sum(a.ravel().tolist())


def features(occ, amo, price):
    """The feature row of DAY with the matrices ``occ`` and ``amo``."""
    return cube_features(DayCube([DAY], occ[None], amo[None]), [price])[0]


def cell_of(row, n=20):
    """The one matrix cell that a single-row day fills."""
    (i,), (j,) = np.nonzero(cube_of([row], n).occurrence[0])
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
            cube_of([tx(2, 2), tx(0, 1, 10)])

    def test_zero_outputs_rejected(self):
        with pytest.raises(ValidationError, match=">= 1 output"):
            cube_of([tx(1, 0, 10), tx(2, 2)])

    @given(t=tx_strategy)
    def test_clamping_monotonicity(self, t):
        i, _ = cell_of(t)
        i2, _ = cell_of(tx(t[0] + 1, t[1], t[2]))
        assert i <= i2 <= 19


def single_cell_features(n, i, j):
    """Features of a day whose one transaction sits in cell [i-1, j-1]."""
    occ = np.zeros((n, n), dtype=np.int64)
    occ[i - 1, j - 1] = 1
    return features(occ, occ, price=1.0)


class TestExtremeSets:
    """Left set: bottom row (i = N). Right set: last column without the corner."""

    def test_cardinalities_n20(self):
        ones = np.ones((20, 20), dtype=np.int64)
        row = features(ones, ones, price=1.0)
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
        row = features(ones, ones, price=1.0)
        assert row.O_l + row.O_r == 2 * n - 1
        # every cell falls in exactly one of {left, right, non-extreme}: one
        # cube_features call over n² days, day (i-1)·n + (j-1) with its one
        # transaction in cell [i-1, j-1]
        cells = np.eye(n * n, dtype=np.int64).reshape(n * n, n, n)
        days = [DAY + dt.timedelta(days=d) for d in range(n * n)]
        rows = iter(cube_features(DayCube(days, cells, cells), [1.0] * (n * n)))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = next(rows)
                if i == n:
                    assert (got.O_l, got.O_r) == (1, 0)
                elif j == n:
                    assert (got.O_l, got.O_r) == (0, 1)
                else:
                    assert (got.O_l, got.O_r) == (0, 0)


class TestBuildMatrix:
    """One day's rows through ``DayCubeBuilder``, as extract adds them."""

    def test_empty(self):
        cube = cube_of([])
        assert cube.dates == []
        assert cube.occurrence.shape == cube.amount.shape == (0, 20, 20)

    def test_single_transaction(self):
        m = cube_of([tx(3, 1, 150000)])
        assert m.occurrence[0, 2, 0] == 1
        assert m.amount[0, 2, 0] == 150000
        assert m.occurrence.sum() == 1

    def test_random_txs_match_brute_force_tally(self):
        rng = np.random.default_rng(42)
        txs = [
            tx(int(rng.integers(1, 40)), int(rng.integers(1, 40)), int(rng.integers(0, 10**9)))
            for _ in range(100)
        ]
        m = cube_of(txs)
        # oracle: independent per-transaction tally
        occ = np.zeros((20, 20), dtype=np.int64)
        amo = np.zeros((20, 20), dtype=np.int64)
        for n_in, n_out, amount in txs:
            i = min(n_in, 20) - 1
            j = min(n_out, 20) - 1
            occ[i, j] += 1
            amo[i, j] += amount
        assert m.dates == [DAY]
        assert np.array_equal(m.occurrence[0], occ)
        assert np.array_equal(m.amount[0], amo)

    @given(txs=st.lists(tx_strategy, max_size=50))
    @settings(max_examples=50)
    def test_conservation(self, txs):
        m = cube_of(txs)
        assert total(m.occurrence) == len(txs)
        assert total(m.amount) == sum(t[2] for t in txs)

    def test_max_money_day_sums_exactly(self):
        # the total, 2.1e18 satoshi, is far above 2**53, where float sums lose units
        rows = [tx(1, 1, MAX_MONEY)] * 999 + [tx(1, 1, MAX_MONEY - 1)]
        m = cube_of(rows)
        assert total(m.amount) > 2**53
        assert int(m.amount[0, 0, 0]) == 1000 * MAX_MONEY - 1

    def test_cell_past_int64_names_day(self):
        # 9223372036854775807 // MAX_MONEY is 4392, so one row more passes int64
        fits = cube_of([tx(1, 1, MAX_MONEY)] * 4392)
        assert int(fits.amount[0, 0, 0]) == 4392 * MAX_MONEY
        with pytest.raises(ValidationError, match=r"^2015-06-01: .*C_\{1->1\} exceeds int64"):
            cube_of([tx(2, 2)] + [tx(1, 1, MAX_MONEY)] * 4393)

    def test_day_total_past_int64_stays_exact(self):
        # each cell fits in int64, the day's total does not
        rows = [tx(1, 1, MAX_MONEY)] * 4392 + [tx(20, 1, MAX_MONEY)] * 4392
        m = cube_of(rows)
        assert total(m.amount) == 8784 * MAX_MONEY
        row = cube_features(m, [1.0])[0]
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
        row = features(occ, amo, price=100.0)
        assert row.A_x == pytest.approx(0.1, abs=0)

    def test_no_extreme_mass(self):
        occ = np.zeros((5, 5), dtype=np.int64)
        amo = np.zeros((5, 5), dtype=np.int64)
        occ[1, 1] = 3
        amo[1, 1] = 900
        row = features(occ, amo, price=50.0)
        assert (row.A_x, row.O_x, row.A_l, row.A_r) == (0.0, 0.0, 0.0, 0.0)

    def test_degenerate_day_yields_zeros(self):
        # a day without transactions: extract writes zero matrices for it
        zeros = np.zeros((20, 20), dtype=np.int64)
        row = features(zeros, zeros, price=100.0)
        assert row.values() == (0.0, 0.0, 0.0, 0, 0, 0.0)

    def test_random_matrix_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        n = 5
        occ = rng.integers(0, 10, size=(n, n))
        amo = occ * rng.integers(1, 1000, size=(n, n))
        price = 250.0
        row = features(occ, amo, price)
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
        row = cube_features(cube_of(txs), [price])[0]
        assert 0.0 <= row.A_x <= 1.0
        assert 0.0 <= row.O_x <= 1.0
        assert row.A_l >= 0 and row.A_r >= 0
        assert row.O_l >= 0 and row.O_r >= 0

    def test_scale_invariance_of_ratios(self):
        txs = [tx(25, 1, 100), tx(2, 2, 300), tx(1, 30, 600)]
        k = 7
        scaled = [tx(n_in, n_out, amount * k) for n_in, n_out, amount in txs]
        r1 = cube_features(cube_of(txs), [100.0])[0]
        r2 = cube_features(cube_of(scaled), [100.0])[0]
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
        row = cube_features(cube_of(txs, n), [price])[0]
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
        cube = cube_of([tx(25, 1, 500), tx(1, 1, 500)], n_days=n_days)
        prices = PriceSeries(cube.dates, np.full(n_days, 100.0))
        return cube, prices

    def test_dates_preserved(self):
        cube, prices = self.make_inputs()
        rows = feature_series(cube, prices)
        assert [r.date for r in rows] == cube.dates

    def test_missing_price_day_raises(self):
        cube, prices = self.make_inputs()
        short = PriceSeries(prices.dates[:-1], prices.close[:-1])
        with pytest.raises(AlignmentError) as exc:
            feature_series(cube, short)
        assert cube.dates[-1] in exc.value.missing_dates

    def test_constant_inputs_constant_rows(self):
        cube, prices = self.make_inputs()
        rows = feature_series(cube, prices)
        assert len({r.values() for r in rows}) == 1


class TestHelpers:
    def test_feature_csv_round_trip(self, tmp_path):
        cube = cube_of([tx(25, 1, 500), tx(1, 2, 700)])
        rows = feature_series(cube, PriceSeries([DAY], np.array([100.0])))
        path = tmp_path / "f.csv"
        with open(path, "w") as fh:
            chainlets.write_feature_csv(fh, rows)
        back = chainlets.read_feature_csv(path)
        assert back == rows

    def test_amount_without_occurrence_rejected(self):
        occ = np.zeros((3, 3), dtype=np.int64)
        amo = np.zeros((3, 3), dtype=np.int64)
        amo[0, 0] = 5
        with pytest.raises(ValidationError):
            DayCube([DAY], occ[None], amo[None])

    @pytest.mark.parametrize("make,message", [
        (lambda occ, amo: DayCube([DAY], occ, amo - 10), "negative matrix entry"),
        (lambda occ, amo: DayCube([DAY], 0 * occ, amo), "amount recorded in a cell"),
    ], ids=["negative", "amount-without-occurrence"])
    def test_matrix_errors_name_day(self, make, message):
        occ = np.ones((1, 2, 2), dtype=np.int64)
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
    """The ``(dates, values)`` of a matrix file with N = 2 holding ``value`` everywhere."""
    return [dt.date(2015, 6, d) for d in days], np.full((len(days), 2, 2), value, dtype=np.int64)


class TestCombineMatrices:
    def test_pairs_by_day(self):
        cube = combine_matrices(entries(1, 2, 4), entries(1, 2, 4, value=7), "occ", "amo")
        assert [d.day for d in cube.dates] == [1, 2, 4]
        assert cube.occurrence.tolist() == [[[1, 1], [1, 1]]] * 3
        assert cube.amount.tolist() == [[[7, 7], [7, 7]]] * 3

    def test_cube_is_built_on_the_loaded_arrays(self, tmp_path):
        occ_path, amo_path, empty_path = (tmp_path / n for n in ("occ.txt", "amo.txt", "e.txt"))
        occ_path.write_text("2015-06-01 1 0 0 2\n2015-06-02 0 3 0 0\n")
        amo_path.write_text("2015-06-01 5 0 0 9\n2015-06-02 0 4 0 0\n")
        empty_path.write_text("")
        occ = ingest.load_matrix_file(occ_path)
        amo = ingest.load_matrix_file(amo_path)
        cube = combine_matrices(occ, amo, occ_path, amo_path)
        assert np.shares_memory(cube.occurrence, occ[1])
        assert np.shares_memory(cube.amount, amo[1])
        assert cube.amount.tolist() == [[[5, 0], [0, 9]], [[0, 4], [0, 0]]]
        empty = ingest.load_matrix_file(empty_path)
        cube = combine_matrices(empty, empty, empty_path, amo_path)
        # a file without data lines sets no N
        assert cube.dates == [] and cube.occurrence.shape == cube.amount.shape == (0, 0, 0)
        assert cube.occurrence.dtype == cube.amount.dtype == np.int64

    @pytest.mark.parametrize("occ,amo,name,message", [
        ((1, 2, 2, 3), (1, 2, 2, 3), "occ", "date 2015-06-02 not after 2015-06-02"),
        ((1, 3, 2), (1, 3, 2), "occ", "date 2015-06-02 not after 2015-06-03"),
        ((1, 2, 3), (1, 2, 2, 3), "amo", "date 2015-06-02 not after 2015-06-02"),
        ((1, 2, 3), (1, 3, 2), "amo", "date 2015-06-02 not after 2015-06-03"),
    ], ids=["repeated", "reversed", "amount-repeated", "amount-reversed"])
    def test_days_strictly_increasing(self, tmp_path, occ, amo, name, message):
        # the reader checks the order, so a pair is out of order before it
        # is combined, and the error names the file and the line
        paths = {}
        for file, days in (("occ", occ), ("amo", amo)):
            paths[file] = tmp_path / f"{file}.txt"
            paths[file].write_text("".join(f"2015-06-{d:02d} 1 1 1 1\n" for d in days))
        with pytest.raises(ValidationError,
                           match="^" + re.escape(f"{paths[name]}:3: {message}") + "$"):
            combine_matrices(ingest.load_matrix_file(paths["occ"]),
                             ingest.load_matrix_file(paths["amo"]),
                             paths["occ"], paths["amo"])

    def test_amount_without_occurrence_names_the_amount_file(self, tmp_path):
        occ = entries(1, 2, 3)
        occ[1][1, 0, 1] = 0
        amo_path = tmp_path / "amo.txt"
        # a comment and a blank line first: the error gives the day's file line
        amo_path.write_text("# amounts\n\n" + "".join(f"2015-06-0{d} 7 7 7 7\n" for d in (1, 2, 3)))
        message = f"{amo_path}:4: 2015-06-02: amount recorded in a cell with zero occurrences"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            combine_matrices(occ, ingest.load_matrix_file(amo_path), "occ", amo_path)

    def test_amount_matrices_of_another_n_name_the_amount_file(self, tmp_path):
        occ_path, amo_path = tmp_path / "occ.txt", tmp_path / "amo.txt"
        occ_path.write_text("2015-06-01 1 0 0 2\n")
        amo_path.write_text("2015-06-01 5 0 0 0 0 0 0 0 9\n")
        message = f"{amo_path}: 3x3 matrices, but the occurrence file has 2x2"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            combine_matrices(ingest.load_matrix_file(occ_path), ingest.load_matrix_file(amo_path),
                             occ_path, amo_path)

    def test_missing_amount_day(self):
        message = "amo: amount file does not cover all occurrence days (missing: 2015-06-02)"
        with pytest.raises(AlignmentError, match="^" + re.escape(message) + "$") as exc:
            combine_matrices(entries(1, 2, 3), entries(1, 3), "occ", "amo")
        assert exc.value.missing_dates == [dt.date(2015, 6, 2)]

    @pytest.mark.parametrize("amo,day", [((1, 2, 3, 4), 1), ((2, 3, 4), 4)])
    def test_extra_amount_day(self, amo, day):
        # day is the first of the amount days that the occurrence file lacks
        missing = [dt.date(2015, 6, d) for d in amo if d not in (2, 3)]
        assert missing[0].day == day
        message = ("occ: occurrence file does not cover all amount days "
                   f"(missing: {', '.join(map(str, missing))})")
        with pytest.raises(AlignmentError, match="^" + re.escape(message) + "$") as exc:
            combine_matrices(entries(2, 3), entries(*amo), "occ", "amo")
        assert exc.value.missing_dates == missing
