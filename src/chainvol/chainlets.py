"""Daily chainlet matrix aggregation and extreme-activity features.

A chainlet C_{i->j} is a single transaction viewed as a subgraph with i input
and j output addresses; counts above the threshold N are clamped into class N.
The bottom matrix row (i = N) forms the left extreme set, the far-right
column excluding the corner (j = N, i < N) the right extreme set.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ParseError, ValidationError
from .ingest import PriceSeries, atomic_write_text, data_lines, parse_date

SATOSHI_PER_BTC = 10**8
DEFAULT_THRESHOLD = 20
INT64_MAX = np.iinfo(np.int64).max


@dataclass
class ChainletMatrix:
    """Per-day N x N occurrence counts and satoshi amount sums."""

    date: dt.date
    dim: int
    occurrence: np.ndarray  # int64, [i-1, j-1]
    amount: np.ndarray  # int64 satoshis

    def __post_init__(self):
        self.occurrence = np.asarray(self.occurrence, dtype=np.int64)
        self.amount = np.asarray(self.amount, dtype=np.int64)
        expected = (self.dim, self.dim)
        if self.occurrence.shape != expected or self.amount.shape != expected:
            raise ValidationError(
                f"{self.date}: matrix shapes {self.occurrence.shape}/{self.amount.shape} "
                f"!= {expected}"
            )
        if np.any(self.occurrence < 0) or np.any(self.amount < 0):
            raise ValidationError(f"{self.date}: negative matrix entry")
        if np.any((self.occurrence == 0) & (self.amount != 0)):
            raise ValidationError(f"{self.date}: amount recorded in a cell with zero occurrences")

    @property
    def total_occurrences(self) -> int:
        return int(self.occurrence.sum())

    @property
    def total_amount(self) -> int:
        # Python ints: a day's total may pass int64 even when every cell fits
        return sum(self.amount.ravel().tolist())


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

    FIELDS = ("A_l", "A_r", "A_x", "O_l", "O_r", "O_x")

    def values(self) -> tuple:
        return (self.A_l, self.A_r, self.A_x, self.O_l, self.O_r, self.O_x)


def build_matrix(day: dt.date, rows, threshold: int = DEFAULT_THRESHOLD) -> ChainletMatrix:
    """Aggregate one day's transactions into occurrence and amount matrices.

    ``rows`` holds one ``n_inputs, n_outputs, amount`` row per transaction.
    Counts clamp at the threshold N, so C_{i->j} lands in cell (i-1)·N + (j-1)
    of the flattened matrix. Satoshi sums stay in int64; a cell whose exact sum
    would pass the int64 range is an error naming the day.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    if np.any(rows[:, :2] < 1):
        raise ValidationError(
            "every transaction needs >= 1 input and >= 1 output "
            "(coinbase must be filtered upstream)"
        )
    n = threshold
    i, j = (np.minimum(rows[:, :2], n) - 1).T
    cell = i * n + j
    occ = np.bincount(cell, minlength=n * n)
    amo = np.zeros(n * n, dtype=np.int64)
    np.add.at(amo, cell, rows[:, 2])
    # np.add.at wraps silently, so sum exactly where count x largest amount may pass int64
    top = max(int(rows[:, 2].max(initial=0)), 1)
    for c in np.flatnonzero(occ > INT64_MAX // top).tolist():
        if sum(rows[cell == c, 2].tolist()) > INT64_MAX:
            i, j = divmod(c, n)
            raise ValidationError(f"{day}: satoshi sum of C_{{{i + 1}->{j + 1}}} exceeds int64")
    return ChainletMatrix(day, n, occ.reshape(n, n), amo.reshape(n, n))


def extreme_features(m: ChainletMatrix, price: float) -> ExtremeFeatureRow:
    """Compute the six extreme-activity features of one day's matrix.

    Occurrence and amount sums over the left/right extreme sets; ratios are
    taken against day totals and degenerate (all-zero) days yield zeros.
    A_l/A_r convert satoshis to USD at the given close price; A_x is a pure
    satoshi ratio so the price cancels.
    """
    if price <= 0:
        raise ValidationError(f"price must be positive, got {price}")
    n = m.dim
    occ, amo = m.occurrence, m.amount
    # left: bottom row; right: far-right column without the corner
    o_l = int(occ[n - 1, :].sum())
    o_r = int(occ[: n - 1, n - 1].sum())
    sat_l = sum(amo[n - 1, :].tolist())
    sat_r = sum(amo[: n - 1, n - 1].tolist())
    tot_occ = m.total_occurrences
    tot_amo = m.total_amount
    o_x = (o_l + o_r) / tot_occ if tot_occ > 0 else 0.0
    a_x = (sat_l + sat_r) / tot_amo if tot_amo > 0 else 0.0
    usd = float(price) / SATOSHI_PER_BTC
    return ExtremeFeatureRow(m.date, sat_l * usd, sat_r * usd, float(a_x), o_l, o_r, float(o_x))


def feature_series(matrices, prices: PriceSeries) -> list[ExtremeFeatureRow]:
    """One feature row per day, matrices and prices aligned by date."""
    price_by_day = dict(zip(prices.dates, prices.close))
    missing = [m.date for m in matrices if m.date not in price_by_day]
    if missing:
        raise AlignmentError("price series does not cover all matrix days", missing)
    rows = [extreme_features(m, price_by_day[m.date]) for m in matrices]
    rows.sort(key=lambda r: r.date)
    return rows


def combine_matrices(occ_entries, amo_entries, dim: int = DEFAULT_THRESHOLD) -> list[ChainletMatrix]:
    """Pair (date, occurrence) and (date, amount) file entries into matrices.

    Both files must hold the same days, in strictly increasing order.
    """
    for name, entries in (("occurrence", occ_entries), ("amount", amo_entries)):
        for (a, _), (b, _) in zip(entries, entries[1:]):
            if b <= a:
                raise ValidationError(f"{b}: {name} file day not after {a}")
    amo_by_day = dict(amo_entries)
    missing = [d for d, _ in occ_entries if d not in amo_by_day]
    if missing:
        raise AlignmentError("amount file does not cover all occurrence days", missing)
    if len(amo_entries) > len(occ_entries):
        occ_days = {d for d, _ in occ_entries}
        extra = next(d for d, _ in amo_entries if d not in occ_days)
        raise ValidationError(f"{extra}: day in the amount file but not in the occurrence file")
    return [
        ChainletMatrix(d, dim, occ, amo_by_day[d].astype(np.int64)) for d, occ in occ_entries
    ]


FEATURE_HEADER = "date,A_l,A_r,A_x,O_l,O_r,O_x"


def write_feature_csv(path, rows) -> None:
    lines = [FEATURE_HEADER]
    for r in rows:
        lines.append(
            f"{r.date.isoformat()},{r.A_l!r},{r.A_r!r},{r.A_x!r},{r.O_l},{r.O_r},{r.O_x!r}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


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
        if not all(map(math.isfinite, (row.A_l, row.A_r, row.A_x, row.O_x))):
            raise ParseError(f"non-finite field in {line!r}", path, line_no)
        if rows and day <= rows[-1].date:
            raise ValidationError(f"date {day} not after {rows[-1].date}", path, line_no)
        rows.append(row)
    return rows
