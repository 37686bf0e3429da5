"""File ingestion: transaction records, daily price series, chainlet matrix files.

All day boundaries are UTC midnight. Amounts stay in integer satoshis until
explicitly converted to USD downstream.
"""

from __future__ import annotations

import datetime as dt
import math
import os
from array import array
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AlignmentError, ParseError, ValidationError

EPOCH = dt.date(1970, 1, 1)
SECONDS_PER_DAY = 86400
MAX_MONEY = 21_000_000 * 10**8  # Bitcoin's supply cap in satoshi


class GapPolicy(Enum):
    ERROR = "error"
    FORWARD_FILL = "ffill"


@dataclass(frozen=True)
class DailyCalendar:
    start: dt.date
    end: dt.date
    gap_policy: GapPolicy = GapPolicy.ERROR

    def __post_init__(self):
        if self.start > self.end:
            raise ValidationError(f"calendar start {self.start} after end {self.end}")

    def days(self) -> list[dt.date]:
        n = (self.end - self.start).days + 1
        return [self.start + dt.timedelta(days=i) for i in range(n)]


@dataclass
class PriceSeries:
    """Daily USD close prices on a strictly increasing calendar."""

    dates: list[dt.date]
    close: np.ndarray

    def __post_init__(self):
        self.close = np.asarray(self.close, dtype=float)
        if len(self.dates) != len(self.close):
            raise ValidationError("dates and close have different lengths")
        if np.any(self.close <= 0):
            bad = int(np.argmax(self.close <= 0))
            raise ValidationError(f"non-positive price {self.close[bad]} on {self.dates[bad]}")
        for a, b in zip(self.dates, self.dates[1:]):
            if b <= a:
                raise ValidationError(f"dates not strictly increasing at {b}")

    def __len__(self):
        return len(self.dates)


@dataclass
class TxLoadResult:
    """Transactions grouped by UTC day, plus the coinbase tally.

    Each day holds an (n, 3) int64 array of ``n_inputs, n_outputs, amount``
    rows in file order.
    """

    days: list[tuple[dt.date, np.ndarray]]
    skipped_coinbase: int = 0
    n_lines: int = 0


def parse_date(token: str, path, line_no) -> dt.date:
    try:
        return dt.date.fromisoformat(token)
    except ValueError as exc:
        raise ParseError(f"bad date {token!r}: {exc}", path, line_no) from None


def load_transactions(path, calendar: DailyCalendar) -> TxLoadResult:
    """Read a transaction CSV and group its rows by UTC day.

    Line format: ``timestamp_unix_seconds,n_inputs,n_outputs,amount_satoshi``.
    Lines starting with ``#`` are comments. Coinbase transactions (zero
    inputs) are dropped and tallied; a timestamp outside the calendar or an
    amount above ``MAX_MONEY`` is an error.
    """
    start_s = (calendar.start - EPOCH).days * SECONDS_PER_DAY
    end_s = ((calendar.end - EPOCH).days + 1) * SECONDS_PER_DAY
    table = array("q")  # timestamp, n_inputs, n_outputs, amount per kept row
    skipped_coinbase = 0
    n_lines = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            n_lines += 1
            parts = line.split(",")
            if len(parts) != 4:
                raise ParseError(f"expected 4 fields, got {len(parts)}", path, line_no)
            try:
                ts, n_in, n_out, amount = map(int, parts)
            except ValueError:
                raise ParseError(f"non-integer field in {line!r}", path, line_no) from None
            if n_in < 0 or n_out < 1 or amount < 0:
                raise ParseError(f"invalid record {line!r}", path, line_no)
            if amount > MAX_MONEY:
                raise ParseError(f"amount {amount} above MAX_MONEY {MAX_MONEY}", path, line_no)
            if n_in == 0:
                skipped_coinbase += 1
                continue
            if not start_s <= ts < end_s:
                raise ParseError(
                    f"timestamp {ts} outside calendar {calendar.start}..{calendar.end}",
                    path, line_no,
                )
            try:
                table.extend((ts, n_in, n_out, amount))
            except OverflowError:
                raise ParseError(f"count out of int64 range in {line!r}", path, line_no) from None
    table = np.frombuffer(table, dtype=np.int64).reshape(-1, 4)
    day_index = table[:, 0] // SECONDS_PER_DAY
    order = np.argsort(day_index, kind="stable")
    day_index, starts = np.unique(day_index[order], return_index=True)
    days = [
        (EPOCH + dt.timedelta(days=int(d)), rows)
        for d, rows in zip(day_index, np.split(table[order, 1:], starts[1:]))
    ]
    return TxLoadResult(days, skipped_coinbase, n_lines)


def load_prices(path, calendar: DailyCalendar) -> PriceSeries:
    """Read a ``date,close`` CSV and align it onto the calendar.

    Missing calendar days follow the calendar's gap policy: ERROR raises,
    FORWARD_FILL carries the last seen close forward.
    """
    rows: dict[dt.date, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower().startswith("date,"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"expected 2 fields, got {len(parts)}", path, line_no)
            day = parse_date(parts[0], path, line_no)
            try:
                close = float(parts[1])
            except ValueError:
                close = math.nan
            if not math.isfinite(close):
                raise ParseError(f"bad price {parts[1]!r}", path, line_no)
            if close <= 0:
                raise ValidationError(f"{path}:{line_no}: non-positive price {close} on {day}")
            if day in rows:
                raise ValidationError(f"{path}:{line_no}: duplicate date {day}")
            rows[day] = close
    if len(rows) < 2:
        raise ValidationError(f"price file {path} has fewer than 2 rows")

    dates: list[dt.date] = []
    closes: list[float] = []
    last = None
    for day in calendar.days():
        if day in rows:
            last = rows[day]
        elif calendar.gap_policy is GapPolicy.FORWARD_FILL and last is not None:
            pass  # keep last
        else:
            raise AlignmentError(f"price series missing calendar day", [day])
        dates.append(day)
        closes.append(last)
    return PriceSeries(dates, np.array(closes))


def load_matrix_file(path, dim: int = 20) -> list[tuple[dt.date, np.ndarray]]:
    """Read a matrix file: per line a date then dim*dim row-major values.

    Row index is the input class i (1..dim), column the output class j.
    Occurrence files carry counts, amount files integer satoshis.
    """
    out: list[tuple[dt.date, np.ndarray]] = []
    n2 = dim * dim
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != n2 + 1:
                raise ParseError(
                    f"expected date + {n2} values, got {len(tokens) - 1} values", path, line_no
                )
            day = parse_date(tokens[0], path, line_no)
            try:
                values = np.array([int(t) for t in tokens[1:]], dtype=np.int64)
            except ValueError:
                raise ParseError("non-numeric matrix value", path, line_no) from None
            if np.any(values < 0):
                raise ValidationError(f"{path}:{line_no}: negative matrix value")
            out.append((day, values.reshape(dim, dim)))
    return out


def format_matrix_line(day: dt.date, matrix: np.ndarray) -> str:
    body = " ".join(map(str, matrix.ravel().tolist()))
    return f"{day.isoformat()} {body}"


def write_matrix_file(path, entries) -> None:
    """Write (date, matrix) entries in the canonical matrix-file format."""
    lines = [format_matrix_line(day, m) for day, m in entries]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename.

    The temp file is created with mode 0o666, so the umask decides the final
    mode as it does for any plainly created file.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-chainvol-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
