"""Daily chainlet matrix aggregation and extreme-activity features.

A chainlet C_{i->j} is a single transaction viewed as a subgraph with i input
and j output addresses; counts above the threshold N are clamped into class N.
The bottom matrix row (i = N) forms the left extreme set, the far-right
column excluding the corner (j = N, i < N) the right extreme set.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import DEFAULT_THRESHOLD
from .errors import AlignmentError, ParseError, ValidationError
from .ingest import EPOCH, INT64_MAX, SECONDS_PER_DAY, PriceSeries, data_lines, parse_date

SATOSHI_PER_BTC = 10**8


@dataclass
class DayCube:
    """Per-day N x N occurrence counts and satoshi amount sums.

    Layer k of each array belongs to ``dates[k]``; dates strictly increase.
    """

    dates: list[dt.date]
    occurrence: np.ndarray  # int64 [day, i-1, j-1]
    amount: np.ndarray  # int64 satoshis

    def __post_init__(self):
        self.occurrence = np.asarray(self.occurrence, dtype=np.int64)
        self.amount = np.asarray(self.amount, dtype=np.int64)
        occ, amo = self.occurrence, self.amount
        negative = (occ < 0).any(axis=(1, 2)) | (amo < 0).any(axis=(1, 2))
        orphan = ((occ == 0) & (amo != 0)).any(axis=(1, 2))
        bad = np.flatnonzero(negative | orphan)
        if bad.size:
            k = bad[0]
            if negative[k]:
                raise ValidationError(f"{self.dates[k]}: negative matrix entry")
            raise ValidationError(
                f"{self.dates[k]}: amount recorded in a cell with zero occurrences"
            )

    @property
    def dim(self) -> int:
        return self.occurrence.shape[-1]


class DayCubeBuilder:
    """Adds blocks of transactions into per-day occurrence and amount sums.

    Blocks may come in any day order: the accumulators grow to cover a day
    before or after their range. Satoshi sums stay exact in int64; a cell
    whose sum passes the int64 range is an error naming the day, raised by
    ``cube`` for the earliest such day and cell. ``cube`` returns views of
    the sums, so it comes after the last ``add``; an ``add`` after it raises.
    """

    def __init__(self, threshold: int):
        self.dim = threshold
        self._first = 0  # epoch day of the accumulators' first layer
        self._occ = np.zeros(0, dtype=np.int64)  # flat: (day - first)·N² + cell
        self._amo = np.zeros(0, dtype=np.int64)
        self._overflow: tuple[int, int] | None = None  # earliest (epoch day, cell) past int64
        self._viewed = False  # set by ``cube``, whose arrays are views of the sums

    def _cover(self, lo: int, hi: int) -> None:
        """Grow the accumulators to cover epoch days ``lo..hi``."""
        n2 = self.dim * self.dim
        if not self._occ.size:
            self._first = lo
        start, end = self._first, self._first + self._occ.size // n2
        new_start, new_end = min(start, lo), max(end, hi + 1)
        if (new_start, new_end) == (start, end):
            return
        shift, size = (start - new_start) * n2, (new_end - new_start) * n2
        for name in ("_occ", "_amo"):
            # in place: realloc zero-fills the new cells and, for a large array,
            # remaps its pages; no view exists before ``cube``, so no refcheck,
            # which fails while a profiler or tracer holds a reference
            getattr(self, name).resize(size, refcheck=False)
            if shift:
                a = getattr(self, name)
                a[shift:] = a[:size - shift].copy()
                a[:shift] = 0
        self._first = new_start

    def add(self, rows) -> None:
        """Add an (n, 4) int64 block of ``timestamp, n_inputs, n_outputs, amount`` rows.

        Counts clamp at the threshold N, so C_{i->j} lands in cell (i-1)·N + (j-1).
        """
        if self._viewed:
            raise RuntimeError("DayCubeBuilder.add after cube(): the cube holds views of the sums")
        if not len(rows):
            return
        if rows[:, 1:3].min() < 1:
            raise ValidationError(
                "every transaction needs >= 1 input and >= 1 output "
                "(coinbase must be filtered upstream)"
            )
        n, n2 = self.dim, self.dim * self.dim
        day = rows[:, 0] // SECONDS_PER_DAY
        lo, hi = int(day.min()), int(day.max())
        self._cover(lo, hi)
        i, j = np.minimum(rows[:, 1], n) - 1, np.minimum(rows[:, 2], n) - 1
        idx = (day - self._first) * n2 + i * n + j
        np.add.at(self._occ, idx, 1)
        # np.add.at wraps silently, so sum exactly where a cell's sum plus its
        # count x the largest amount may pass int64; a bound over the block's
        # days rules that out for almost every block
        amount = rows[:, 3]
        top = max(int(amount.max()), 1)
        span = slice((lo - self._first) * n2, (hi + 1 - self._first) * n2)
        risky = []
        if int(self._amo[span].max()) + len(rows) * top > INT64_MAX:
            counts = np.bincount(idx - span.start, minlength=span.stop - span.start)
            limit = (INT64_MAX - self._amo[span]) // top
            risky = (span.start + np.flatnonzero(counts > limit)).tolist()
        before = self._amo[risky].tolist()
        np.add.at(self._amo, idx, amount)
        for c, acc in zip(risky, before):
            total = acc + sum(amount[idx == c].tolist())
            if total > INT64_MAX:
                total = INT64_MAX  # any later row in the cell passes int64 too
                where = (self._first + c // n2, c % n2)
                self._overflow = min(self._overflow or where, where)
            self._amo[c] = total

    def cube(self) -> DayCube:
        """The sums of every day from the first to the last day added, gap days as zeros."""
        n = self.dim
        if self._overflow is not None:
            day, c = self._overflow
            i, j = divmod(c, n)
            raise ValidationError(
                f"{EPOCH + dt.timedelta(days=day)}: satoshi sum of C_{{{i + 1}->{j + 1}}} "
                "exceeds int64"
            )
        self._viewed = True
        days = range(self._first, self._first + self._occ.size // (n * n))
        return DayCube(
            [EPOCH + dt.timedelta(days=d) for d in days],
            self._occ.reshape(-1, n, n),
            self._amo.reshape(-1, n, n),
        )


class ChainletMatrix(NamedTuple):
    """One day's N x N occurrence counts and satoshi amount sums."""

    date: dt.date
    occurrence: np.ndarray  # int64, [i-1, j-1]
    amount: np.ndarray  # int64 satoshis


@dataclass(frozen=True)
class ExtremeFeatureRow:
    """The six daily regressors: USD amounts, counts and ratios of extreme activity."""

    date: dt.date
    A_l: float
    A_r: float
    A_x: float
    O_l: int
    O_r: int
    O_x: float

    def values(self) -> tuple:
        return (self.A_l, self.A_r, self.A_x, self.O_l, self.O_r, self.O_x)


# the one caller is pipebench/test_checks.py; extract goes through DayCubeBuilder
def build_matrix(day: dt.date, rows, threshold: int) -> ChainletMatrix:
    """Aggregate one day's ``n_inputs, n_outputs, amount`` rows through ``DayCubeBuilder``."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    builder = DayCubeBuilder(threshold)
    seconds = np.full((len(rows), 1), (day - EPOCH).days * SECONDS_PER_DAY)
    builder.add(np.hstack([seconds, rows]))
    cube = builder.cube()
    return ChainletMatrix(day, cube.occurrence[0], cube.amount[0])


def _extreme_sums(a: np.ndarray, wide) -> list[list]:
    """Per day: sums over the left set (bottom row), the right set (far-right
    column without the corner) and the whole matrix, as Python ints. Days in
    ``wide`` are summed exactly, as their int64 sums may wrap."""
    n = a.shape[-1]
    sums = [a[:, n - 1, :].sum(axis=1), a[:, : n - 1, n - 1].sum(axis=1), a.sum(axis=(1, 2))]
    sums = [s.tolist() for s in sums]
    for k in wide:
        day = a[k]
        exact = (day[n - 1, :], day[: n - 1, n - 1], day.ravel())
        for s, part in zip(sums, exact):
            s[k] = sum(part.tolist())
    return sums


def cube_features(cube: DayCube, prices) -> list[ExtremeFeatureRow]:
    """The six extreme-activity features of each day of the cube.

    ``prices`` holds each day's close. Occurrence and amount sums over the
    left/right extreme sets; ratios are taken against day totals and
    degenerate (all-zero) days yield zeros. A_l/A_r convert satoshis to USD
    at the close; A_x is a pure satoshi ratio, so the price cancels. Ratios
    divide Python ints, so they stay exact past 2^53.
    """
    prices = np.asarray(prices, dtype=float)
    if np.any(prices <= 0):
        raise ValidationError(f"price must be positive, got {prices[prices <= 0][0]}")
    n = cube.dim
    occ, amo = cube.occurrence, cube.amount
    # int64 sums of a day are exact while each of its N² cells is at most INT64_MAX // N²
    cap = INT64_MAX // (n * n)
    wide = np.flatnonzero(
        (occ.max(axis=(1, 2), initial=0) > cap) | (amo.max(axis=(1, 2), initial=0) > cap)
    ).tolist()
    o_l, o_r, tot_occ = _extreme_sums(occ, wide)
    sat_l, sat_r, tot_amo = _extreme_sums(amo, wide)
    usd = (prices / SATOSHI_PER_BTC).tolist()
    rows = []
    for k, day in enumerate(cube.dates):
        o_x = (o_l[k] + o_r[k]) / tot_occ[k] if tot_occ[k] > 0 else 0.0
        a_x = (sat_l[k] + sat_r[k]) / tot_amo[k] if tot_amo[k] > 0 else 0.0
        rows.append(ExtremeFeatureRow(
            day, sat_l[k] * usd[k], sat_r[k] * usd[k], a_x, o_l[k], o_r[k], o_x,
        ))
    return rows


def feature_series(cube: DayCube, prices: PriceSeries) -> list[ExtremeFeatureRow]:
    """One feature row per day of the cube, prices aligned by date."""
    price_by_day = dict(zip(prices.dates, prices.close.tolist()))
    missing = [d for d in cube.dates if d not in price_by_day]
    if missing:
        raise AlignmentError("price series does not cover all matrix days", missing)
    return cube_features(cube, [price_by_day[d] for d in cube.dates])


def combine_matrices(occ, amo, occ_path, amo_path) -> DayCube:
    """Pair the ``(dates, values)`` of an occurrence file and of an amount file
    into a cube on the same arrays.

    Both files must hold the same days, which load_matrix_file has checked
    to strictly increase; a day that one file lacks is an AlignmentError
    naming that file's path. Amount matrices of another N, or an amount in
    a cell with zero occurrences, are a ValidationError naming the amount
    file, the latter with the line of the first day that has one.
    """
    (dates, occ_values), (amo_dates, amo_values) = occ, amo
    if dates != amo_dates:
        amo_days, occ_days = set(amo_dates), set(dates)
        missing = [d for d in dates if d not in amo_days]
        if missing:
            raise AlignmentError("amount file does not cover all occurrence days", missing,
                                 amo_path)
        missing = [d for d in amo_dates if d not in occ_days]
        raise AlignmentError("occurrence file does not cover all amount days", missing, occ_path)
    if amo_values.shape != occ_values.shape:
        n, m = occ_values.shape[-1], amo_values.shape[-1]
        raise ValidationError(f"{m}x{m} matrices, but the occurrence file has {n}x{n}", amo_path)
    try:
        return DayCube(dates, occ_values, amo_values)
    except ValidationError as exc:
        # the reader lets no negative value through, so this is the amount
        # in a cell without occurrences, on the first day k that has one;
        # the file holds one data line a day, so its line is data line k
        k = int(np.argmax(((occ_values == 0) & (amo_values != 0)).any(axis=(1, 2))))
        line_no, _ = next(itertools.islice(data_lines(amo_path), k, None))
        raise ValidationError(str(exc), amo_path, line_no) from None


FEATURE_HEADER = "date,A_l,A_r,A_x,O_l,O_r,O_x"


def write_feature_csv(fh, rows) -> None:
    """Write the feature CSV of rows to the text file ``fh``."""
    lines = [FEATURE_HEADER]
    for r in rows:
        lines.append(
            f"{r.date.isoformat()},{r.A_l!r},{r.A_r!r},{r.A_x!r},{r.O_l},{r.O_r},{r.O_x!r}"
        )
    fh.write("\n".join(lines) + "\n")


def read_feature_csv(path) -> list[ExtremeFeatureRow]:
    """Read a feature CSV: finite values, dates strictly increasing."""
    rows = []
    for line_no, line in data_lines(path):
        if line.startswith("date,"):
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ParseError(f"expected 7 fields, got {len(parts)}", path, line_no)
        d, a_l, a_r, a_x, o_l, o_r, o_x = parts
        day = parse_date(d, path, line_no)
        try:
            row = ExtremeFeatureRow(
                day, float(a_l), float(a_r), float(a_x), int(o_l), int(o_r), float(o_x),
            )
        except ValueError:
            raise ParseError(f"non-numeric field in {line!r}", path, line_no) from None
        if not all(-INT64_MAX - 1 <= count <= INT64_MAX for count in (row.O_l, row.O_r)):
            raise ParseError(f"count out of int64 range in {line!r}", path, line_no)
        if not all(map(math.isfinite, (row.A_l, row.A_r, row.A_x, row.O_x))):
            raise ParseError(f"non-finite field in {line!r}", path, line_no)
        if rows and day <= rows[-1].date:
            raise ValidationError(f"date {day} not after {rows[-1].date}", path, line_no)
        rows.append(row)
    return rows
