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
import re
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
INT64_MAX = 2**63 - 1
_DIGIT_0, _PLUS, _COMMA, _MINUS, _NEWLINE, _HASH = b"0+,-\n#"


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


# from Python 3.11 on date.fromisoformat also takes 20150102 and the week
# date 2015-W01-1 (2014-12-29); input dates are YYYY-MM-DD only
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _iso_date(token: str) -> dt.date:
    if not _ISO_DATE.fullmatch(token):
        raise ValueError("expected YYYY-MM-DD")
    return dt.date.fromisoformat(token)


def parse_date(token: str, path, line_no) -> dt.date:
    try:
        return _iso_date(token)
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

    Each block is ``BLOCK_CHARS`` characters and the rest of the line they
    end in, if any, so it ends on a newline; only the last block of a file
    without a final newline does not. Text mode numbers the lines as ``for
    line in fh`` does.
    """
    line_no = 1
    while text := fh.read(BLOCK_CHARS):
        if not text.endswith("\n"):
            # readline also makes the file drop its buffers of the whole
            # chunk, so the block's text is held once while it is parsed
            text += fh.readline()
        # counted on bytes, many times faster than str.count; the escaped
        # bytes of a file that is not UTF-8 encode back as they were read
        first, line_no = line_no, line_no + int(np.count_nonzero(
            np.frombuffer(text.encode("utf-8", "surrogateescape"), dtype=np.uint8) == _NEWLINE))
        yield first, text
        del text  # hold no block while the next one is read


def _loadtxt_block(text: str, **kwargs) -> np.ndarray | None:
    """Parse a block of matrix-file lines into int64 rows with ``np.loadtxt``,
    or return None.

    None means loadtxt failed or might read the block otherwise than the
    line parser: it reads some non-ASCII letters as digits ("1" then U+01FE
    gives 472), it strips the separators U+001C..U+001F around a number where
    ``int()`` does not, and it drops a ``#`` comment that does not start its
    line.
    """
    if (not text.isascii() or any(c in text for c in "\x1c\x1d\x1e\x1f")
            or "#" in text and text.count("#") != text.count("\n#") + text.startswith("#")):
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # one byte a character; a StringIO buffer would take four
            data = io.BytesIO(text.encode("ascii"))
            return np.loadtxt(data, dtype=np.int64, ndmin=2, **kwargs)
    except (ValueError, OverflowError):
        return None


def _parse_tx_lines(lines, line_no, path, calendar, table) -> int:
    """The line parser: check each line, append kept rows to ``table``.

    ``lines`` start at file line ``line_no``. Returns the number of coinbase
    rows skipped. Every transaction-file error comes from here.
    """
    start_s, end_s = _calendar_seconds(calendar)
    skipped_coinbase = 0
    for line_no, line in data_lines(path, lines, line_no):
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
    return skipped_coinbase


def _calendar_seconds(calendar: DailyCalendar) -> tuple[int, int]:
    """Unix seconds of the calendar's first midnight and of the one after its end."""
    return (
        (calendar.start - EPOCH).days * SECONDS_PER_DAY,
        ((calendar.end - EPOCH).days + 1) * SECONDS_PER_DAY,
    )


def _tx_data(text: str) -> tuple[bytes, int] | None:
    """A block's data lines joined by commas, as ASCII bytes, and their
    count; None unless each is four integers that ``np.fromstring`` reads
    as ``int()`` does.

    Comment and empty lines are dropped. Each data line must be three commas
    between four runs of ASCII digits, each with at most a sign in front:
    fromstring reads a field of blanks or a lone sign as 0, skips blanks
    between a sign and its digits and, as it does not tell lines apart,
    reads a line of 3 fields and one of 5 as two rows of 4. The rule also
    keeps out what ``_loadtxt_block`` keeps out: non-ASCII letters,
    U+001C..U+001F and a ``#`` that does not start its line.
    """
    if not text.isascii():
        return None
    if not text.endswith("\n"):
        text += "\n"  # the last block of a file without a final newline
    a = np.frombuffer(bytearray(text, "ascii"), dtype=np.uint8)
    ends = np.flatnonzero(a == _NEWLINE)
    lengths = np.diff(ends, prepend=-1)  # of each line, its newline included
    first = a[ends - lengths + 1]  # each line's first byte, its newline when empty
    data = (first != _NEWLINE) & (first != _HASH)
    if not data.all():
        a = a[np.repeat(data, lengths)]
        ends = np.cumsum(lengths[data]) - 1
    n = len(ends)
    signs = (np.flatnonzero((a == _PLUS) | (a == _MINUS)) if "+" in text or "-" in text
             else np.empty(0, dtype=np.intp))
    # each sign comes before a digit, and the bytes that are not digits are
    # the signs, the n newlines and 3n commas, line k holding commas 3k..3k+2
    if (((a[signs + 1] - _DIGIT_0) > 9).any()
            or np.count_nonzero((a - _DIGIT_0) > 9) != 4 * n + len(signs)):
        return None
    commas = np.flatnonzero(a == _COMMA)
    if (len(commas) != 3 * n
            or (commas[2::3] > ends).any() or (commas[3::3] < ends[:-1]).any()):
        return None
    a[ends] = _COMMA
    return a.tobytes(), n


def _tx_rows(text: str) -> np.ndarray | None:
    """Parse a block's data lines into (n, 4) int64 rows with one
    ``np.fromstring`` call, or return None where the line parser might read
    them otherwise; see ``_tx_data``. fromstring reads any value out of the
    int64 range as 2^63 - 1, so a block holding that value is None too.
    """
    # apart from _tx_data, so that its arrays are freed before the parse
    if (data := _tx_data(text)) is None:
        return None
    joined, n = data
    try:
        rows = np.fromstring(joined, dtype=np.int64, sep=",")
    except ValueError:
        return None
    # a numpy that only warns at unmatched data returns the values before it
    if rows.size != 4 * n or (rows == INT64_MAX).any():
        return None
    return rows.reshape(n, 4)


def _tx_block(text: str, first_line: int, path, calendar: DailyCalendar):
    """The kept rows and the coinbase count of one block of lines; see ``tx_blocks``."""
    start_s, end_s = _calendar_seconds(calendar)
    rows = _tx_rows(text)
    if rows is not None:
        if not len(rows):  # comment and empty lines only
            return rows, 0
        _, n_in, n_out, amount = rows.T
        kept = rows[n_in != 0]  # coinbase rows dropped
        if not (
            n_in.min() < 0 or n_out.min() < 1 or amount.min() < 0
            or amount.max() > MAX_MONEY
            or (len(kept) and (kept[:, 0].min() < start_s or kept[:, 0].max() >= end_s))
        ):
            return kept, len(rows) - len(kept)
    table = array("q")  # timestamp, n_inputs, n_outputs, amount per kept row
    coinbase = _parse_tx_lines(text.split("\n"), first_line, path, calendar, table)
    return np.frombuffer(table, dtype=np.int64).reshape(-1, 4), coinbase


def tx_blocks(path, calendar: DailyCalendar):
    """Yield ``(rows, coinbase)`` for each block of lines of a transaction CSV.

    ``rows`` is an (n, 4) int64 array of the block's kept rows,
    ``timestamp, n_inputs, n_outputs, amount``, in file order; ``coinbase``
    counts the coinbase rows (zero inputs) the block dropped. Line format:
    ``timestamp_unix_seconds,n_inputs,n_outputs,amount_satoshi``; lines
    starting with ``#`` are comments. A timestamp outside the calendar or an
    amount above ``MAX_MONEY`` is an error.

    Each block of lines is parsed by one ``np.fromstring`` call on its data
    lines (``_tx_rows``). A block that call cannot vouch for, or whose rows
    break a check, is parsed again by the line parser, which raises the
    error with its line. No block is held while the next one is read.
    """
    with _open_text(path) as fh:
        for first_line, text in _line_blocks(fh):
            yield _tx_block(text, first_line, path, calendar)
            del text


# the one caller is pipebench/test_checks.py; extract goes through tx_blocks
def load_transactions(path, calendar: DailyCalendar) -> TxLoadResult:
    """Read a transaction CSV through ``tx_blocks`` and group its rows by UTC day."""
    blocks, skipped_coinbase = [np.empty((0, 4), dtype=np.int64)], 0
    for rows, coinbase in tx_blocks(path, calendar):
        blocks.append(rows)
        skipped_coinbase += coinbase
    table = np.concatenate(blocks)
    day_index = table[:, 0] // SECONDS_PER_DAY
    order = np.argsort(day_index, kind="stable")
    day_index, starts = np.unique(day_index[order], return_index=True)
    days = [
        (EPOCH + dt.timedelta(days=int(d)), rows)
        for d, rows in zip(day_index, np.split(table[order, 1:], starts[1:]))
    ]
    return TxLoadResult(days, skipped_coinbase)


def date_value_lines(path):
    """Yield ``(line_no, day, value)`` for each ``date,value`` line of a file.
    Lines that start with ``date,``, in any case, are headers; every other
    line holds exactly two fields, and no day comes twice."""
    days = set()
    for line_no, line in data_lines(path):
        if line.lower().startswith("date,"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", path, line_no)
        day = parse_date(parts[0], path, line_no)
        if day in days:
            raise ValidationError(f"duplicate date {day}", path, line_no)
        days.add(day)
        yield line_no, day, parts[1]


def load_prices(path, calendar: DailyCalendar) -> PriceSeries:
    """Read a ``date,close`` CSV and align it onto the calendar.

    Missing calendar days follow the calendar's gap policy: ERROR raises,
    FORWARD_FILL carries the last seen close forward. The AlignmentError
    lists every missing day that has no close to use: under FORWARD_FILL,
    the days before the first close.
    """
    rows: dict[dt.date, float] = {}
    for line_no, day, text in date_value_lines(path):
        try:
            close = float(text)
        except ValueError:
            close = math.nan
        if not math.isfinite(close):
            raise ParseError(f"bad price {text!r}", path, line_no)
        if close <= 0:
            raise ValidationError(f"non-positive price {close} on {day}", path, line_no)
        rows[day] = close
    if len(rows) < 2:
        raise ValidationError(f"price file {path} has fewer than 2 rows")

    dates: list[dt.date] = []
    closes: list[float] = []
    missing: list[dt.date] = []
    last = None
    for day in calendar.days():
        if day in rows:
            last = rows[day]
        elif calendar.gap_policy is not GapPolicy.FORWARD_FILL or last is None:
            missing.append(day)
        dates.append(day)
        closes.append(last)
    if missing:
        raise AlignmentError("price series missing calendar day", missing, path)
    return PriceSeries(dates, np.array(closes))


def _parse_matrix_lines(lines, line_no, path, n2: int,
                        prev: dt.date | None) -> tuple[list[dt.date], np.ndarray]:
    """The line parser of matrix files; ``lines`` start at file line ``line_no``
    and ``prev`` is the day of the line before them, if any. Returns the days
    and their (days, n2) int64 values."""
    days: list[dt.date] = []
    table = array("q")
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
            table.extend(values)
        except OverflowError:
            raise ParseError("matrix value out of int64 range", path, line_no) from None
        if min(values) < 0:
            raise ValidationError("negative matrix value", path, line_no)
        if prev is not None and day <= prev:
            raise ValidationError(f"date {day} not after {prev}", path, line_no)
        days.append(day)
        prev = day
    return days, np.frombuffer(table, dtype=np.int64).reshape(-1, n2)


def load_matrix_file(path) -> tuple[list[dt.date], np.ndarray]:
    """Read a matrix file: per line a date then N*N row-major values.

    The first data line sets N >= 2. Row index is the input class i (1..N),
    column the output class j. Occurrence files carry counts, amount files
    integer satoshis. Returns the days, which strictly increase, and one
    C-contiguous (days, N, N) int64 array, (0, 0, 0) without data lines.

    Each block of lines is parsed by one ``np.loadtxt`` call, which hands
    the date column to a converter, so a row of the wrong width or with a
    bad date fails there. Such a block, or one with a negative value or a
    day not after the day before it, is parsed again by the line parser,
    which raises the error with its line.
    Each block's values go straight into the one array, which grows by the
    block's rows, so no block is held once the next one is read.
    """
    first = next(data_lines(path), None)
    if first is None:
        return [], np.empty((0, 0, 0), dtype=np.int64)
    n2 = len(first[1].split()) - 1
    dim = math.isqrt(n2)
    if dim < 2 or dim * dim != n2:
        raise ParseError(f"expected date + N*N values, N >= 2, got {n2}", path, first[0])
    days: list[dt.date] = []
    table = np.empty(0, dtype=np.int64)
    with _open_text(path) as fh:
        for first_line, text in _line_blocks(fh):
            block_days: list[dt.date] = []

            def date_column(token: str) -> int:
                block_days.append(_iso_date(token))
                return 0

            rows = _loadtxt_block(text, converters={0: date_column})
            ordered = days[-1:] + block_days
            if (rows is not None and rows.shape[1] == n2 + 1 and not (rows[:, 1:] < 0).any()
                    and all(a < b for a, b in zip(ordered, ordered[1:]))):
                values = rows[:, 1:]
            else:
                block_days, values = _parse_matrix_lines(
                    text.split("\n"), first_line, path, n2, days[-1] if days else None)
            days += block_days
            # in place, as DayCubeBuilder._cover grows its accumulators; no
            # view of table exists before the return, so no refcheck
            size = table.size
            table.resize(size + values.size, refcheck=False)
            table[size:].reshape(values.shape)[:] = values
            del text, rows, values
    return days, table.reshape(-1, dim, dim)


def write_matrix_file(fh, dates, values) -> None:
    """Write one matrix-file line per day, its date then its row-major
    ``values`` layer, to the text file ``fh``."""
    line = "%s" + " %d" * math.prod(values.shape[1:]) + "\n"
    for day, matrix in zip(dates, values):
        fh.write(line % (day.isoformat(), *matrix.ravel().tolist()))


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    with atomic_files(path) as (fh,):
        fh.write(text)


def _check_not_directory(path, target) -> None:
    if os.path.isdir(target):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))


@contextmanager
def atomic_files(*paths):
    """Yield a text file open for writing for each path: all or none are written.

    Each file is a temp file in the directory of its path's real path, and
    all of them are created before the block runs. When the block ends, each
    is renamed onto that real path, so a symlinked path stays a link and its
    target gets the new bytes; when the block fails, or a path is a
    directory, every temp file is removed and no path changes. The temp
    files are created with mode 0o666, so the umask decides the final mode
    as it does for any plainly created file. Two paths that name one file,
    or a path that is a directory, are an error before any temp file exists;
    a directory is checked for again before the renames, in case one
    appeared while the block ran.
    """
    real = [os.path.realpath(path) for path in paths]
    for i, path in enumerate(paths):
        if real[i] in real[:i]:
            raise ValidationError("named for two outputs", path)
        _check_not_directory(path, real[i])
    tmps, handles = [], []
    try:
        for path, target in zip(paths, real):
            tmp = os.path.join(os.path.dirname(target), f".tmp-chainvol-{os.urandom(8).hex()}")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as exc:  # name the file asked for, not the temp file
                raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
            tmps.append(tmp)
            handles.append(os.fdopen(fd, "w", encoding="utf-8"))
        yield handles
        for fh in handles:
            fh.close()
        # the one rename failure to expect; checked before any rename
        for path, target in zip(paths, real):
            _check_not_directory(path, target)
        for tmp, target in zip(tmps, real):
            os.replace(tmp, target)
    except BaseException:
        for fh in handles:
            fh.close()
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
