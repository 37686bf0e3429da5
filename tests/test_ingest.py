import datetime as dt
import os
import re
import stat

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


class TestLoadTransactions:
    def test_direct_field_mapping(self, tmp_path):
        # 1420070400 = 2015-01-01T00:00:00Z
        p = write(tmp_path, "tx.csv", "1420070400,3,1,150000\n")
        result = ingest.load_transactions(p, CAL)
        assert len(result.days) == 1
        day, rows = result.days[0]
        assert day == dt.date(2015, 1, 1)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[3, 1, 150000]]

    def test_coinbase_skipped_and_tallied(self, tmp_path):
        p = write(tmp_path, "tx.csv", "1420070400,0,5,5000000000\n")
        result = ingest.load_transactions(p, CAL)
        assert result.days == []
        assert result.skipped_coinbase == 1

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
        result = ingest.load_transactions(p, CAL)
        # oracle: group the same lines by epoch-day arithmetic, in file order
        by_day = {}
        for line in lines:
            ts, n_in, n_out, amount = map(int, line.split(","))
            if n_in > 0:
                by_day.setdefault(dt.date(1970, 1, 1) + dt.timedelta(days=ts // 86400), []).append(
                    [n_in, n_out, amount])
        assert [day for day, _ in result.days] == sorted(by_day)
        assert {day: rows.tolist() for day, rows in result.days} == by_day

    @pytest.mark.parametrize("ts,inside", [
        (1420070400 - 1, False),  # 2014-12-31T23:59:59Z
        (1420070400, True),  # 2015-01-01T00:00:00Z
        (1451606400 - 1, True),  # 2015-12-31T23:59:59Z
        (1451606400, False),  # 2016-01-01T00:00:00Z
    ])
    def test_calendar_edges(self, tmp_path, ts, inside):
        p = write(tmp_path, "tx.csv", f"1420156800,1,1,10\n{ts},1,1,10\n")
        if inside:
            days = ingest.load_transactions(p, CAL).days
            assert sum(len(rows) for _, rows in days) == 2
        else:
            with pytest.raises(ParseError, match="outside calendar") as exc:
                ingest.load_transactions(p, CAL)
            assert exc.value.line_no == 2

    def test_malformed_line_reports_number(self, tmp_path):
        p = write(tmp_path, "tx.csv", "1420070400,1,1,10\nnot,a,line\n")
        with pytest.raises(ParseError) as exc:
            ingest.load_transactions(p, CAL)
        assert exc.value.line_no == 2

    def test_out_of_range_rejected(self, tmp_path):
        p = write(tmp_path, "tx.csv", "1420070400,1,1,10\n100,1,1,10\n")  # 1970, outside calendar
        with pytest.raises(ParseError) as exc:
            ingest.load_transactions(p, CAL)
        assert exc.value.line_no == 2

    def test_negative_input_count_names_line(self, tmp_path):
        p = write(tmp_path, "tx.csv", "1420070400,1,1,10\n1420070400,-1,1,10\n")
        with pytest.raises(ParseError) as exc:
            ingest.load_transactions(p, CAL)
        assert str(exc.value).startswith(f"{p}:2: ")

    @pytest.mark.parametrize("amount", [str(MAX_MONEY + 1), "99999999999999999999"])
    def test_amount_above_max_money_names_line(self, tmp_path, amount):
        p = write(tmp_path, "tx.csv", f"1420070400,1,1,{MAX_MONEY}\n1420070400,1,1,{amount}\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{p}:2: amount {amount} above")):
            ingest.load_transactions(p, CAL)

    def test_amounts_that_would_wrap_int64_are_rejected(self, tmp_path):
        # two of these sum past 2**63 - 1 in one cell
        p = write(tmp_path, "tx.csv", "1420070400,1,1,9223372036854775000\n" * 2)
        with pytest.raises(ParseError) as exc:
            ingest.load_transactions(p, CAL)
        assert exc.value.line_no == 1

    def test_count_beyond_int64_names_line(self, tmp_path):
        p = write(tmp_path, "tx.csv", f"1420070400,1,1,10\n1420070400,{2**63},1,10\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{p}:2: count out of int64 range")):
            ingest.load_transactions(p, CAL)

    def test_header_and_blank_lines_ignored(self, tmp_path):
        p = write(tmp_path, "tx.csv", "# header\n\n1420070400,1,1,10\n")
        result = ingest.load_transactions(p, CAL)
        assert result.n_lines == 1

    def test_line_count_accounting(self, tmp_path):
        p = write(
            tmp_path, "tx.csv",
            "1420070400,1,1,10\n1420070400,0,1,5\n1420070400,2,1,7\n",
        )
        result = ingest.load_transactions(p, CAL)
        kept = sum(len(rows) for _, rows in result.days)
        assert kept == result.n_lines - result.skipped_coinbase

    def test_undecodable_bytes_name_line(self, tmp_path):
        p = tmp_path / "tx.csv"
        p.write_bytes(b"1420070400,1,1,10\n# caf\xe9\n1420070400,1,1,10\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{p}:2: bytes that are not valid UTF-8")):
            ingest.load_transactions(p, CAL)


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
        entries = ingest.load_matrix_file(p, dim=20)
        assert len(entries) == 1
        day, m = entries[0]
        assert day == dt.date(2015, 1, 1)
        assert m.shape == (20, 20)
        assert m[19, 19] == 7  # last value is the row-major corner

    def test_wrong_value_count(self, tmp_path):
        values = " ".join(["0"] * 399)
        p = write(tmp_path, "m.txt", f"2015-01-01 {values}\n")
        with pytest.raises(ParseError) as exc:
            ingest.load_matrix_file(p, dim=20)
        assert "400" in str(exc.value)

    def test_all_zero_line_valid(self, tmp_path):
        values = " ".join(["0"] * 400)
        p = write(tmp_path, "m.txt", f"2015-01-01 {values}\n")
        entries = ingest.load_matrix_file(p, dim=20)
        assert entries[0][1].sum() == 0

    def test_negative_value_rejected(self, tmp_path):
        values = " ".join(["-1"] + ["0"] * 399)
        p = write(tmp_path, "m.txt", f"2015-01-01 {values}\n")
        with pytest.raises(ValidationError):
            ingest.load_matrix_file(p, dim=20)

    def test_value_past_int64_names_line(self, tmp_path):
        p = write(tmp_path, "m.txt", f"2015-01-01 1 2 3 4\n2015-01-02 1 2 3 {2**63}\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{p}:2: matrix value out of int64")):
            ingest.load_matrix_file(p, dim=2)

    def test_undecodable_bytes_name_line(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_bytes(b"2015-01-01 1 2 3 4\r\n2015-01-02 1 2 3 4\r\n2015-01-03 1 2 \x80 4\r\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{p}:3: bytes that are not valid UTF-8")):
            ingest.load_matrix_file(p, dim=2)

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = [
            (dt.date(2015, 1, 1 + i), rng.integers(0, 100, size=(4, 4)))
            for i in range(3)
        ]
        p1 = tmp_path / "a.txt"
        ingest.write_matrix_file(p1, entries)
        loaded = ingest.load_matrix_file(p1, dim=4)
        p2 = tmp_path / "b.txt"
        ingest.write_matrix_file(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()


def run_events_reader(path):
    """The --events reader of ``features``, on a two-day input with threshold 2."""
    d = path.parent
    (d / "occ.txt").write_text("2015-01-01 1 0 0 0\n2015-01-02 1 0 0 0\n")
    (d / "amo.txt").write_text("2015-01-01 5 0 0 0\n2015-01-02 5 0 0 0\n")
    (d / "prices.csv").write_text("2015-01-01,1.0\n2015-01-02,2.0\n")
    args = cli.build_parser().parse_args([
        "features", str(d / "occ.txt"), str(d / "amo.txt"), str(d / "prices.csv"),
        "--out", str(d / "f.csv"), "--plot-data", str(d / "plot.csv"),
        "--events", str(path), "--threshold", "2",
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
