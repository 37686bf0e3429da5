"""File ingestion: transaction records, daily price series, chainlet matrix files.

All day boundaries are UTC midnight. Amounts stay in integer satoshis until
explicitly converted to USD downstream.
"""

from __future__ import annotations

import datetime as dt
import errno
import io
import math
import os
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AlignmentError, ParseError, ValidationError

EPOCH = dt.date(1970, 1, 1)
SECONDS_PER_DAY = 86400
MAX_MONEY = 21_000_000 * 10**8  # Bitcoin's supply cap in satoshi
BLOCK_CHARS = 1 << 18  # characters read per block: 256 KiB of ASCII


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


def _open_text(path):
    """Open a text file with universal newlines. Bytes that are not UTF-8
    become lone surrogates, which ``data_lines`` reports with their line."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def data_lines(path, lines=None, line_no=1):
    """Yield ``(line_no, line)`` for each data line of the file at ``path``, or
    of ``lines`` numbered from ``line_no``: stripped, without blank lines and
    ``#`` comments. Bytes that are not UTF-8 are a ParseError naming the line.
    """
    if lines is None:
        with _open_text(path) as fh:
            yield from data_lines(path, fh)
        return
    for line_no, raw in enumerate(lines, start=line_no):
        # UTF-8 decoding gives no surrogates, so any lone surrogate is an escaped byte
        if not raw.isascii():
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError("bytes that are not valid UTF-8", path, line_no) from None
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _line_blocks(fh):
    """Yield ``(first_line_no, text)`` blocks of whole lines.

    Each block is about ``BLOCK_CHARS`` characters and ends on a newline;
    only the last block of a file without a final newline does not. Text
    mode numbers the lines as ``for line in fh`` does.
    """
    line_no = 1
    tail: list[str] = []
    while chunk := fh.read(BLOCK_CHARS):
        cut = chunk.rfind("\n") + 1
        if not cut:
            tail.append(chunk)
            continue
        text = "".join(tail) + chunk[:cut]
        tail = [chunk[cut:]]
        yield line_no, text
        line_no += text.count("\n")
    text = "".join(tail)
    if text:
        yield line_no, text


def _loadtxt_block(text: str, **kwargs) -> np.ndarray | None:
    """Parse a block into int64 rows with ``np.loadtxt``, or return None.

    None means loadtxt failed or might read the block otherwise than the
    line parser: it reads some non-ASCII letters as digits ("1" then U+01FE
    gives 472), it strips the separators U+001C..U+001F around a number where
    ``int()`` does not, and it drops a ``#`` comment that does not start its
    line.
    """
    if (not text.isascii() or any(c in text for c in "\x1c\x1d\x1e\x1f")
            or text.count("#") != text.count("\n#") + text.startswith("#")):
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # one byte a character; a StringIO buffer would take four
            data = io.BytesIO(text.encode("ascii"))
            return np.loadtxt(data, dtype=np.int64, ndmin=2, **kwargs)
    except (ValueError, OverflowError):
        return None


def _parse_tx_lines(lines, line_no, path, calendar, table) -> tuple[int, int]:
    """The line parser: check each line, append kept rows to ``table``.

    ``lines`` start at file line ``line_no``. Returns the number of rows
    parsed and of coinbase rows skipped. Every transaction-file error comes
    from here.
    """
    start_s, end_s = _calendar_seconds(calendar)
    n_lines = skipped_coinbase = 0
    for line_no, line in data_lines(path, lines, line_no):
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
    return n_lines, skipped_coinbase


def _calendar_seconds(calendar: DailyCalendar) -> tuple[int, int]:
    """Unix seconds of the calendar's first midnight and of the one after its end."""
    return (
        (calendar.start - EPOCH).days * SECONDS_PER_DAY,
        ((calendar.end - EPOCH).days + 1) * SECONDS_PER_DAY,
    )


def load_transactions(path, calendar: DailyCalendar) -> TxLoadResult:
    """Read a transaction CSV and group its rows by UTC day.

    Line format: ``timestamp_unix_seconds,n_inputs,n_outputs,amount_satoshi``.
    Lines starting with ``#`` are comments. Coinbase transactions (zero
    inputs) are dropped and tallied; a timestamp outside the calendar or an
    amount above ``MAX_MONEY`` is an error.

    Each block of lines is parsed by one ``np.loadtxt`` call. A block that
    loadtxt fails on, or whose rows break a check, is parsed again by the
    line parser, which raises the error with its line.
    """
    start_s, end_s = _calendar_seconds(calendar)
    table = array("q")  # timestamp, n_inputs, n_outputs, amount per kept row
    skipped_coinbase = 0
    n_lines = 0
    with _open_text(path) as fh:
        for first_line, text in _line_blocks(fh):
            rows = _loadtxt_block(text, delimiter=",")
            if rows is not None and rows.shape[1] == 4:
                _, n_in, n_out, amount = rows.T
                kept = rows[n_in != 0]  # coinbase rows dropped
                if not (
                    n_in.min() < 0 or n_out.min() < 1 or amount.min() < 0
                    or amount.max() > MAX_MONEY
                    or (len(kept) and (kept[:, 0].min() < start_s or kept[:, 0].max() >= end_s))
                ):
                    table.frombytes(kept.tobytes())
                    n_lines += len(rows)
                    skipped_coinbase += len(rows) - len(kept)
                    continue
            parsed, coinbase = _parse_tx_lines(
                text.split("\n"), first_line, path, calendar, table
            )
            n_lines += parsed
            skipped_coinbase += coinbase
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
    for line_no, line in data_lines(path):
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
            raise ValidationError(f"non-positive price {close} on {day}", path, line_no)
        if day in rows:
            raise ValidationError(f"duplicate date {day}", path, line_no)
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


def _parse_matrix_lines(lines, line_no, path, dim: int) -> list[tuple[dt.date, np.ndarray]]:
    """The line parser of matrix files; ``lines`` start at file line ``line_no``."""
    out: list[tuple[dt.date, np.ndarray]] = []
    n2 = dim * dim
    for line_no, line in data_lines(path, lines, line_no):
        tokens = line.split()
        if len(tokens) != n2 + 1:
            raise ParseError(
                f"expected date + {n2} values, got {len(tokens) - 1} values", path, line_no
            )
        day = parse_date(tokens[0], path, line_no)
        try:
            values = [int(t) for t in tokens[1:]]
        except ValueError:
            raise ParseError("non-numeric matrix value", path, line_no) from None
        try:
            values = np.array(values, dtype=np.int64)
        except OverflowError:
            raise ParseError("matrix value out of int64 range", path, line_no) from None
        if np.any(values < 0):
            raise ValidationError("negative matrix value", path, line_no)
        out.append((day, values.reshape(dim, dim)))
    return out


def load_matrix_file(path, dim: int = 20) -> list[tuple[dt.date, np.ndarray]]:
    """Read a matrix file: per line a date then dim*dim row-major values.

    Row index is the input class i (1..dim), column the output class j.
    Occurrence files carry counts, amount files integer satoshis.

    Each block of lines is parsed by one ``np.loadtxt`` call, which hands
    the date column to a converter, so a row of the wrong width fails there.
    A block with a bad date, a wrong width or a negative value is parsed
    again by the line parser, which raises the error with its line.
    """
    out: list[tuple[dt.date, np.ndarray]] = []
    n2 = dim * dim
    with _open_text(path) as fh:
        for first_line, text in _line_blocks(fh):
            tokens: list[str] = []

            def date_column(token: str) -> int:
                tokens.append(token)
                return 0

            rows = _loadtxt_block(text, converters={0: date_column})
            if rows is not None and rows.shape[1] == n2 + 1:
                values = rows[:, 1:]
                try:
                    days = [dt.date.fromisoformat(t) for t in tokens]
                except ValueError:
                    days = None
                if days is not None and not (values < 0).any():
                    out.extend(zip(days, values.reshape(-1, dim, dim)))
                    continue
            out.extend(_parse_matrix_lines(text.split("\n"), first_line, path, dim))
    return out


def format_matrix_line(day: dt.date, matrix: np.ndarray) -> str:
    body = " ".join(map(str, matrix.ravel().tolist()))
    return f"{day.isoformat()} {body}"


def write_matrix_file(out, entries) -> None:
    """Write (date, matrix) entries in the canonical matrix-file format.

    ``out`` is a path, written atomically, or a text file open for writing.
    """
    lines = (format_matrix_line(day, m) + "\n" for day, m in entries)
    if isinstance(out, io.TextIOBase):
        out.writelines(lines)
    else:
        with atomic_files(out) as (fh,):
            fh.writelines(lines)


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    with atomic_files(path) as (fh,):
        fh.write(text)


@contextmanager
def atomic_files(*paths):
    """Yield a text file open for writing for each path: all or none are written.

    Each file is a temp file in its path's directory, and all of them are
    created before the block runs. When the block ends, each is renamed onto
    its path; when it fails, or a path is a directory, every temp file is
    removed and no path changes. The temp files are created with mode 0o666,
    so the umask decides the final mode as it does for any plainly created file.
    """
    tmps, handles = [], []
    try:
        for path in paths:
            directory = os.path.dirname(os.path.abspath(path)) or "."
            tmp = os.path.join(directory, f".tmp-chainvol-{os.urandom(8).hex()}")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as exc:  # name the file asked for, not the temp file
                raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
            tmps.append(tmp)
            handles.append(os.fdopen(fd, "w", encoding="utf-8"))
        yield handles
        for fh in handles:
            fh.close()
        for path in paths:  # the one rename failure to expect; checked before any rename
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for fh in handles:
            fh.close()
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
