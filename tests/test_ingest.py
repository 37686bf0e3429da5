import datetime as dt
import io
import os
import re
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from chainvol import chainlets, cli, ingest
from chainvol.errors import AlignmentError, ChainvolError, ParseError, ValidationError
from chainvol.ingest import MAX_MONEY, DailyCalendar, GapPolicy, PriceSeries


CAL = DailyCalendar(dt.date(2015, 1, 1), dt.date(2015, 12, 31))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_tx(path, calendar=CAL):
    """The kept rows of a transaction file in file order, and its coinbase
    count, as ``ingest.tx_blocks`` yields them."""
    blocks = list(ingest.tx_blocks(path, calendar))
    rows = np.concatenate([np.empty((0, 4), dtype=np.int64)] + [rows for rows, _ in blocks])
    return rows, sum(coinbase for _, coinbase in blocks)


class TestLoadTransactions:
    def test_direct_field_mapping(self, tmp_path):
        # 1420070400 = 2015-01-01T00:00:00Z
        p = write(tmp_path, "tx.csv", "1420070400,3,1,150000\n")
        rows, coinbase = read_tx(p)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[1420070400, 3, 1, 150000]]
        assert coinbase == 0

    def test_coinbase_skipped_and_tallied(self, tmp_path):
        p = write(tmp_path, "tx.csv", "1420070400,0,5,5000000000\n")
        rows, coinbase = read_tx(p)
        assert rows.tolist() == []
        assert coinbase == 1

    def test_day_grouping_matches_brute_force(self, tmp_path):
        rng = np.random.default_rng(11)
        start = 1420070400  # 2015-01-01T00:00:00Z
        lines = [
            f"{start + int(rng.integers(0, 10 * 86400))},{int(rng.integers(0, 4))},"
            f"{int(rng.integers(1, 30))},{int(rng.integers(0, 10**9))}"
            for _ in range(300)
        ]
        lines += [f"{start + 86399},1,1,10", f"{start + 86400},2,2,20"]  # either side of midnight
        rng.shuffle(lines)
        p = write(tmp_path, "tx.csv", "\n".join(lines) + "\n")
        rows, _ = read_tx(p)
        builder = chainlets.DayCubeBuilder(30)  # above every count: no clamping
        builder.add(rows)
        cube = builder.cube()
        # oracle: group the same lines by epoch-day arithmetic, in file order
        kept = [r for r in (list(map(int, line.split(","))) for line in lines) if r[1] > 0]
        assert rows.tolist() == kept
        by_day = {}
        for ts, n_in, n_out, amount in kept:
            by_day.setdefault(dt.date(1970, 1, 1) + dt.timedelta(days=ts // 86400), []).append(
                [n_in, n_out, amount])
        assert [day for day, occ in zip(cube.dates, cube.occurrence) if occ.any()] == sorted(by_day)
        for day, occ, amo in zip(cube.dates, cube.occurrence, cube.amount):
            want_occ, want_amo = np.zeros((2, 30, 30), dtype=np.int64)
            for n_in, n_out, amount in by_day.get(day, []):
                want_occ[n_in - 1, n_out - 1] += 1
                want_amo[n_in - 1, n_out - 1] += amount
            assert np.array_equal(occ, want_occ) and np.array_equal(amo, want_amo), day

    @pytest.mark.parametrize("ts,inside", [
        (1420070400 - 1, False),  # 2014-12-31T23:59:59Z
        (1420070400, True),  # 2015-01-01T00:00:00Z
        (1451606400 - 1, True),  # 2015-12-31T23:59:59Z
        (1451606400, False),  # 2016-01-01T00:00:00Z
    ])
    def test_calendar_edges(self, tmp_path, ts, inside):
        p = write(tmp_path, "tx.csv", f"1420156800,1,1,10\n{ts},1,1,10\n")
        if inside:
            rows, _ = read_tx(p)
            assert len(rows) == 2
        else:
            with pytest.raises(ParseError, match="outside calendar") as exc:
                read_tx(p)
            assert exc.value.line_no == 2

    def test_malformed_line_reports_number(self, tmp_path):
        p = write(tmp_path, "tx.csv", "1420070400,1,1,10\nnot,a,line\n")
        with pytest.raises(ParseError) as exc:
            read_tx(p)
        assert exc.value.line_no == 2

    def test_out_of_range_rejected(self, tmp_path):
        p = write(tmp_path, "tx.csv", "1420070400,1,1,10\n100,1,1,10\n")  # 1970, outside calendar
        with pytest.raises(ParseError) as exc:
            read_tx(p)
        assert exc.value.line_no == 2

    def test_negative_input_count_names_line(self, tmp_path):
        p = write(tmp_path, "tx.csv", "1420070400,1,1,10\n1420070400,-1,1,10\n")
        with pytest.raises(ParseError) as exc:
            read_tx(p)
        assert str(exc.value).startswith(f"{p}:2: ")

    @pytest.mark.parametrize("amount", [str(MAX_MONEY + 1), "99999999999999999999"])
    def test_amount_above_max_money_names_line(self, tmp_path, amount):
        p = write(tmp_path, "tx.csv", f"1420070400,1,1,{MAX_MONEY}\n1420070400,1,1,{amount}\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{p}:2: amount {amount} above")):
            read_tx(p)

    def test_amounts_that_would_wrap_int64_are_rejected(self, tmp_path):
        # two of these sum past 2**63 - 1 in one cell
        p = write(tmp_path, "tx.csv", "1420070400,1,1,9223372036854775000\n" * 2)
        with pytest.raises(ParseError) as exc:
            read_tx(p)
        assert exc.value.line_no == 1

    def test_count_beyond_int64_names_line(self, tmp_path):
        p = write(tmp_path, "tx.csv", f"1420070400,1,1,10\n1420070400,{2**63},1,10\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{p}:2: count out of int64 range")):
            read_tx(p)

    def test_header_and_blank_lines_ignored(self, tmp_path):
        p = write(tmp_path, "tx.csv", "# header\n\n1420070400,1,1,10\n")
        rows, coinbase = read_tx(p)
        assert (len(rows), coinbase) == (1, 0)

    def test_line_count_accounting(self, tmp_path):
        # every data line is a kept row or a counted coinbase row
        p = write(
            tmp_path, "tx.csv",
            "1420070400,1,1,10\n1420070400,0,1,5\n1420070400,2,1,7\n",
        )
        rows, coinbase = read_tx(p)
        assert (len(rows), coinbase) == (2, 1)

    def test_undecodable_bytes_name_line(self, tmp_path):
        p = tmp_path / "tx.csv"
        p.write_bytes(b"1420070400,1,1,10\n# caf\xe9\n1420070400,1,1,10\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{p}:2: bytes that are not valid UTF-8")):
            read_tx(p)


class TestLoadPrices:
    def test_direct_mapping(self, tmp_path):
        cal = DailyCalendar(dt.date(2012, 1, 1), dt.date(2012, 1, 2))
        p = write(tmp_path, "p.csv", "2012-01-01,5.27\n2012-01-02,5.22\n")
        prices = ingest.load_prices(p, cal)
        assert len(prices) == 2
        assert prices.close[0] == 5.27

    def test_forward_fill(self, tmp_path):
        cal = DailyCalendar(dt.date(2012, 1, 1), dt.date(2012, 1, 3), GapPolicy.FORWARD_FILL)
        p = write(tmp_path, "p.csv", "2012-01-01,10.0\n2012-01-03,12.0\n")
        prices = ingest.load_prices(p, cal)
        assert list(prices.close) == [10.0, 10.0, 12.0]

    def test_gap_with_error_policy_raises(self, tmp_path):
        cal = DailyCalendar(dt.date(2012, 1, 1), dt.date(2012, 1, 3), GapPolicy.ERROR)
        p = write(tmp_path, "p.csv", "2012-01-01,10.0\n2012-01-03,12.0\n")
        with pytest.raises(AlignmentError) as exc:
            ingest.load_prices(p, cal)
        assert dt.date(2012, 1, 2) in exc.value.missing_dates

    @pytest.mark.parametrize("policy,missing", [
        (GapPolicy.ERROR, [2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]),
        (GapPolicy.FORWARD_FILL, [2, 3]),
    ])
    def test_every_missing_day_listed(self, tmp_path, policy, missing):
        # one error lists them all, the message the first ten
        cal = DailyCalendar(dt.date(2012, 1, 2), dt.date(2012, 1, 15), policy)
        p = write(tmp_path, "p.csv", "2012-01-01,10.0\n2012-01-04,12.0\n")
        with pytest.raises(AlignmentError) as exc:
            ingest.load_prices(p, cal)
        assert exc.value.missing_dates == [dt.date(2012, 1, d) for d in missing]
        shown = ", ".join(str(dt.date(2012, 1, d)) for d in missing[:10])
        assert str(exc.value) == f"{p}: price series missing calendar day (missing: {shown})"

    def test_negative_price_rejected(self, tmp_path):
        cal = DailyCalendar(dt.date(2012, 1, 1), dt.date(2012, 1, 2))
        p = write(tmp_path, "p.csv", "2012-01-01,-3.0\n2012-01-02,5.0\n")
        with pytest.raises(ValidationError, match="^" + re.escape(f"{p}:1: ")):
            ingest.load_prices(p, cal)

    def test_duplicate_date_rejected(self, tmp_path):
        cal = DailyCalendar(dt.date(2012, 1, 1), dt.date(2012, 1, 2))
        p = write(tmp_path, "p.csv", "2012-01-01,1.0\n2012-01-01,2.0\n")
        with pytest.raises(ValidationError, match="^" + re.escape(f"{p}:2: ")):
            ingest.load_prices(p, cal)

    @pytest.mark.parametrize("close", ["nan", "inf", "-inf"])
    def test_non_finite_price_rejected(self, tmp_path, close):
        cal = DailyCalendar(dt.date(2012, 1, 1), dt.date(2012, 1, 2))
        p = write(tmp_path, "p.csv", f"2012-01-01,1.0\n2012-01-02,{close}\n")
        with pytest.raises(ParseError) as exc:
            ingest.load_prices(p, cal)
        assert exc.value.line_no == 2

    def test_undecodable_bytes_name_line(self, tmp_path):
        cal = DailyCalendar(dt.date(2012, 1, 1), dt.date(2012, 1, 2))
        p = tmp_path / "p.csv"
        p.write_bytes(b"date,close\n2012-01-01,1.0\n2012-01-02,\xff2.0\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{p}:3: bytes that are not valid UTF-8")):
            ingest.load_prices(p, cal)

    def test_too_few_rows(self, tmp_path):
        cal = DailyCalendar(dt.date(2012, 1, 1), dt.date(2012, 1, 1))
        p = write(tmp_path, "p.csv", "2012-01-01,1.0\n")
        with pytest.raises(ValidationError):
            ingest.load_prices(p, cal)


class TestMatrixFiles:
    def test_20x20_line(self, tmp_path):
        values = " ".join(["0"] * 399 + ["7"])
        p = write(tmp_path, "m.txt", f"2015-01-01 {values}\n")
        dates, m = ingest.load_matrix_file(p)
        assert dates == [dt.date(2015, 1, 1)]
        assert m.shape == (1, 20, 20) and m.dtype == np.int64
        assert m[0, 19, 19] == 7  # last value is the row-major corner

    def test_wrong_value_count(self, tmp_path):
        # the first line sets N = 20, so a later line of 399 values is short
        lines = [f"2015-01-0{day} " + " ".join(["0"] * n) for day, n in ((1, 400), (2, 399))]
        p = write(tmp_path, "m.txt", "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="^" + re.escape(
                f"{p}:2: expected date + 400 values, got 399 values") + "$"):
            ingest.load_matrix_file(p)

    @pytest.mark.parametrize("head, values", [
        ("", 5), ("", 0), ("", 1), ("", 8), ("# N comes from the first data line\n\n", 3),
    ])
    def test_first_line_width_is_a_square_of_at_least_four(self, tmp_path, head, values):
        p = write(tmp_path, "m.txt", f"{head}2015-01-01{' 1' * values}\n2015-01-02 1 2 3 4\n")
        line = head.count("\n") + 1
        message = f"{p}:{line}: expected date + N*N values, N >= 2, got {values}"
        with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
            ingest.load_matrix_file(p)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_n_comes_from_the_first_line(self, tmp_path, n):
        p = write(tmp_path, "m.txt", "".join(
            f"2015-01-0{day} " + " ".join(map(str, range(n * n))) + "\n" for day in (1, 2)))
        dates, m = ingest.load_matrix_file(p)
        assert m.shape == (2, n, n) and m[1, n - 1, n - 1] == n * n - 1

    def test_all_zero_line_valid(self, tmp_path):
        values = " ".join(["0"] * 400)
        p = write(tmp_path, "m.txt", f"2015-01-01 {values}\n")
        dates, m = ingest.load_matrix_file(p)
        assert len(dates) == 1 and m.sum() == 0

    def test_negative_value_rejected(self, tmp_path):
        values = " ".join(["-1"] + ["0"] * 399)
        p = write(tmp_path, "m.txt", f"2015-01-01 {values}\n")
        with pytest.raises(ValidationError):
            ingest.load_matrix_file(p)

    def test_repeat_across_a_block_edge_names_line(self, tmp_path):
        # 19-character lines: at 19 and 38 characters the repeated third day
        # is the first line of a block, at 57 it is inside the first block
        lines = ["2015-01-01 1 2 3 4", "2015-01-02 1 2 3 4", "2015-01-02 1 2 3 4",
                 "2015-01-03 1 2 3 4"]
        p = write(tmp_path, "m.txt", "\n".join(lines) + "\n")
        message = f"{p}:3: date 2015-01-02 not after 2015-01-02"
        for block in (19, 38, 57, ingest.BLOCK_CHARS):
            with mock.patch.object(ingest, "BLOCK_CHARS", block), \
                    pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
                ingest.load_matrix_file(p)

    def test_value_past_int64_names_line(self, tmp_path):
        p = write(tmp_path, "m.txt", f"2015-01-01 1 2 3 4\n2015-01-02 1 2 3 {2**63}\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{p}:2: matrix value out of int64")):
            ingest.load_matrix_file(p)

    def test_undecodable_bytes_name_line(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_bytes(b"2015-01-01 1 2 3 4\r\n2015-01-02 1 2 3 4\r\n2015-01-03 1 2 \x80 4\r\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{p}:3: bytes that are not valid UTF-8")):
            ingest.load_matrix_file(p)

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        dates = [dt.date(2015, 1, 1 + i) for i in range(5)]
        values = rng.integers(0, 10**12, size=(5, 4, 4))
        values[2] = 0
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        with ingest.atomic_files(p1) as (fh,):
            ingest.write_matrix_file(fh, dates, values)
        # blocks of 40 and 500 characters hold one and two lines; the load joins them
        for block in (40, 500, ingest.BLOCK_CHARS):
            with mock.patch.object(ingest, "BLOCK_CHARS", block):
                loaded_dates, loaded = ingest.load_matrix_file(p1)
            assert loaded_dates == dates and np.array_equal(loaded, values), block
            assert loaded.dtype == np.int64 and loaded.flags.c_contiguous
            with ingest.atomic_files(p2) as (fh,):
                ingest.write_matrix_file(fh, loaded_dates, loaded)
            assert p1.read_bytes() == p2.read_bytes(), block

    @pytest.mark.parametrize("n", [2, 3, 20])
    def test_lines_as_the_values_joined_by_spaces(self, n):
        # the lines of the writer's first form, one str() per value joined
        # by spaces, on random int64 layers and on all 0 and all 2^63 - 1
        rng = np.random.default_rng(n)
        values = rng.integers(0, 2**63 - 1, size=(6, n, n), dtype=np.int64, endpoint=True)
        values[1] = 0
        values[2] = 2**63 - 1
        values[3] = rng.integers(0, 10, size=(n, n))
        dates = [dt.date(2015, 1, 1) + dt.timedelta(days=3 * i) for i in range(6)]
        expected = "".join(f"{day.isoformat()} {' '.join(map(str, m.ravel().tolist()))}\n"
                           for day, m in zip(dates, values))
        for k in (0, 1, 6):  # no day, one day, all of them
            fh = io.StringIO()
            ingest.write_matrix_file(fh, dates[:k], values[:k])
            assert fh.getvalue() == "".join(expected.splitlines(keepends=True)[:k])

    def test_load_holds_the_values_once(self, tmp_path):
        # four years of occurrence-like counts: the peak is the returned array
        # plus about one block's text and rows, not a second copy of the values
        days = 1460
        values = np.random.default_rng(1).poisson(0.5, size=(days, 20, 20))
        dates = [dt.date(2015, 1, 1) + dt.timedelta(days=i) for i in range(days)]
        p = tmp_path / "occ.txt"
        with ingest.atomic_files(p) as (fh,):
            ingest.write_matrix_file(fh, dates, values)
        tracemalloc.start()
        try:
            loaded_dates, loaded = ingest.load_matrix_file(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded_dates == dates and np.array_equal(loaded, values)
        assert peak < 1.25 * loaded.nbytes, peak / loaded.nbytes


def run_events_reader(path):
    """The --events reader of ``features``, on a two-day input of 2x2 matrices."""
    d = path.parent
    (d / "occ.txt").write_text("2015-01-01 1 0 0 0\n2015-01-02 1 0 0 0\n")
    (d / "amo.txt").write_text("2015-01-01 5 0 0 0\n2015-01-02 5 0 0 0\n")
    (d / "prices.csv").write_text("2015-01-01,1.0\n2015-01-02,2.0\n")
    args = cli.build_parser().parse_args([
        "features", str(d / "occ.txt"), str(d / "amo.txt"), str(d / "prices.csv"),
        "--out", str(d / "f.csv"), "--plot-data", str(d / "plot.csv"),
        "--events", str(path),
    ])
    cli.cmd_features(args, cli.resolve_config(args))


@pytest.mark.parametrize("read,text", [
    (chainlets.read_feature_csv, b"date,A_l,A_r,A_x,O_l,O_r,O_x\n# caf\xe9\n"),
    (cli.load_config_file, b"threshold=20\nseed=1 # caf\xe9\n"),
    (run_events_reader, b"date,label\n2015-01-01,caf\xe9\n"),
], ids=["feature-csv", "config", "events"])
def test_undecodable_bytes_name_line_in_other_readers(tmp_path, read, text):
    # the readers that used to open their file strictly and end in UnicodeDecodeError
    p = tmp_path / "input.txt"
    p.write_bytes(text)
    with pytest.raises(ChainvolError, match="^" + re.escape(f"{p}:2: bytes that are not valid UTF-8")):
        read(p)


def read_prices(path):
    return ingest.load_prices(path, DailyCalendar(dt.date(2015, 1, 1), dt.date(2015, 1, 2)))


@pytest.mark.parametrize("read,line", [
    (read_prices, "{day},2.0"),
    (chainlets.read_feature_csv, "{day},0.5,0.25,0.125,1,2,0.5"),
    (ingest.load_matrix_file, "{day} 7 7 7 7"),
], ids=["prices", "feature-csv", "matrix"])
@pytest.mark.parametrize("day", ["20150102", "2015-W01-1", "2015W011", "2015-1-02"])
def test_date_other_than_yyyy_mm_dd_names_line(tmp_path, read, line, day):
    # Python 3.11's date.fromisoformat takes the first three (the week dates
    # are 2014-12-29), and Python 3.10's does not; the readers take none
    p = write(tmp_path, "input.txt", f"{line.format(day='2015-01-01')}\n{line.format(day=day)}\n")
    message = f"{p}:2: bad date {day!r}: expected YYYY-MM-DD"
    with pytest.raises(ParseError, match="^" + re.escape(message)):
        read(p)


def test_data_lines_rule():
    lines = ["a\n", "\n", "  # note\n", " \tb c \r\n", "#\n", "d"]
    assert list(ingest.data_lines("f", lines, 5)) == [(5, "a"), (8, "b c"), (10, "d")]


def test_calendar_validation():
    with pytest.raises(ValidationError):
        DailyCalendar(dt.date(2015, 1, 2), dt.date(2015, 1, 1))


def test_price_series_validation():
    with pytest.raises(ValidationError):
        PriceSeries([dt.date(2015, 1, 1), dt.date(2015, 1, 1)], np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        PriceSeries([dt.date(2015, 1, 1)], np.array([0.0]))


def test_atomic_write_honours_umask(tmp_path):
    path = tmp_path / "out.txt"
    old = os.umask(0o022)
    try:
        ingest.atomic_write_text(path, "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
    assert path.read_text() == "x\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("target_dir", [".", "elsewhere"])
def test_atomic_files_write_through_a_symlink(tmp_path, target_dir):
    (tmp_path / target_dir).mkdir(exist_ok=True)
    target, link = tmp_path / target_dir / "target.txt", tmp_path / "link.txt"
    target.write_text("old\n")
    link.symlink_to(target)
    with ingest.atomic_files(link) as (fh,):
        fh.write("new\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "new\n"
    assert not list(tmp_path.rglob(".tmp-chainvol-*"))


def test_atomic_files_write_all_or_none(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("old a\n")
    with pytest.raises(KeyboardInterrupt):
        with ingest.atomic_files(a, b) as (fa, fb):
            fa.write("new a\n")
            raise KeyboardInterrupt
    assert a.read_text() == "old a\n" and not b.exists()
    assert sorted(os.listdir(tmp_path)) == ["a.txt"]
    with ingest.atomic_files(a, b) as (fa, fb):
        fa.write("new a\n")
        fb.write("new b\n")
    assert (a.read_text(), b.read_text()) == ("new a\n", "new b\n")
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]
