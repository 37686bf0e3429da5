import datetime as dt
import os
import stat

import numpy as np
import pytest

from chainvol import ingest
from chainvol.errors import AlignmentError, ParseError, ValidationError
from chainvol.ingest import DailyCalendar, GapPolicy, PriceSeries, TxRecord


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
        day, recs = result.days[0]
        assert day == dt.date(2015, 1, 1)
        assert recs == [TxRecord(1420070400, 3, 1, 150000)]

    def test_coinbase_skipped_and_tallied(self, tmp_path):
        p = write(tmp_path, "tx.csv", "1420070400,0,5,5000000000\n")
        result = ingest.load_transactions(p, CAL)
        assert result.days == []
        assert result.skipped_coinbase == 1

    def test_day_grouping_matches_brute_force(self, tmp_path):
        lines = [
            "1420070400,1,1,10",
            "1420070401,2,2,20",
            "1420156800,1,3,30",  # next UTC day
        ]
        p = write(tmp_path, "tx.csv", "\n".join(lines) + "\n")
        result = ingest.load_transactions(p, CAL)
        # oracle: group the same lines by epoch-day arithmetic
        by_day = {}
        for line in lines:
            ts = int(line.split(",")[0])
            by_day.setdefault(ts // 86400, []).append(line)
        assert len(result.days) == len(by_day)
        assert sum(len(recs) for _, recs in result.days) == len(lines)

    def test_malformed_line_reports_number(self, tmp_path):
        p = write(tmp_path, "tx.csv", "1420070400,1,1,10\nnot,a,line\n")
        with pytest.raises(ParseError) as exc:
            ingest.load_transactions(p, CAL)
        assert exc.value.line_no == 2

    def test_out_of_range_skip_or_error(self, tmp_path):
        p = write(tmp_path, "tx.csv", "100,1,1,10\n")  # 1970, outside calendar
        with pytest.raises(ParseError):
            ingest.load_transactions(p, CAL, out_of_range="error")
        result = ingest.load_transactions(p, CAL, out_of_range="skip")
        assert result.skipped_out_of_range == 1

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
        kept = sum(len(recs) for _, recs in result.days)
        assert kept == result.n_lines - result.skipped_coinbase


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
        with pytest.raises(ValidationError):
            ingest.load_prices(p, cal)

    def test_duplicate_date_rejected(self, tmp_path):
        cal = DailyCalendar(dt.date(2012, 1, 1), dt.date(2012, 1, 2))
        p = write(tmp_path, "p.csv", "2012-01-01,1.0\n2012-01-01,2.0\n")
        with pytest.raises(ValidationError):
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
