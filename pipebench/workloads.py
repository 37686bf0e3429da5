"""The benchmark's workloads and the seeded inputs they run on.

Inputs are made here, with numpy only, so that they do not change when the
program's own synthetic-data code changes. The same seed gives the same
files byte for byte.
"""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass

import numpy as np

SECONDS_PER_DAY = 86400
THRESHOLD = 20
START = dt.date(2015, 1, 1)
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@dataclass(frozen=True)
class Workload:
    name: str
    days: int
    txs_per_day: float
    extreme_prob: float
    coinbase_rows: int
    comment_rows: int
    # Seed of the day, shape and amount of every transaction when these are
    # the same for every run; None draws them from the run's seed.
    fixed_draw_seed: int | None
    # None: a GARCH(1,1) path of PRICE_SEED; otherwise a file under data/
    price_file: str | None
    backtest_args: tuple[str, ...]
    # Calls of extract, features, analyze and backtest per untraced round,
    # at most run.PROBES; the median is reported.
    stage_calls: tuple[int, int, int, int]


# What the backtest sees is the same in every run of a workload, because
# the optimizer's work depends on it: with paper-var features drawn from
# five seeds, the same backtest took 12 s to 37 s, far more than the bounds
# allow. So prices never come from the seed, and paper-var's features do
# not either (fixed_draw_seed).
PRICE_SEED = 2015


WORKLOADS = {
    # About a million transactions over four years, all drawn from the seed.
    # The backtest is a plain normal GARCH(1,1) on a long window over prices
    # only, so ingest, the matrix files and the variance recursion over long
    # series carry the time, and the skew-t density is never called.
    "chain-large": Workload(
        name="chain-large",
        days=1460,
        txs_per_day=685.0,
        extreme_prob=0.2,
        coinbase_rows=30,
        comment_rows=10,
        fixed_draw_seed=None,
        price_file=None,
        backtest_args=(
            "--model", "garch", "--distribution", "normal",
            "--arma-p", "0", "--arma-q", "0",
            "--window", "1000", "--refit-every", "200",
        ),
        stage_calls=(1, 3, 3, 2),
    ),
    # The README's synthetic settings with a 250-day window and 80 forecast
    # days, the paper's ARMA(2,2) skew-t GARCH and GARCHX models and the
    # Diebold-Mariano test. The price path is the README dataset's (synth
    # seed 7). Each day's transactions are the same for every run and the
    # seed draws their times within the day and the places of the coinbase
    # and comment rows, so the features, and with them the fitted models and
    # the forecast days that fail on the known ARMA fault, do not depend on
    # the seed.
    "paper-var": Workload(
        name="paper-var",
        days=330,
        txs_per_day=80.0,
        extreme_prob=0.2,
        coinbase_rows=3,
        comment_rows=3,
        fixed_draw_seed=7,
        price_file="paper_var_prices.csv",
        backtest_args=(
            "--compare", "--distribution", "skewt",
            "--arma-p", "2", "--arma-q", "2",
            "--window", "250", "--refit-every", "40", "--restarts", "1",
        ),
        stage_calls=(4, 4, 4, 2),
    ),
}


def _day_start(day_idx) -> np.ndarray:
    base = int(dt.datetime.combine(START, dt.time(), dt.timezone.utc).timestamp())
    return base + np.asarray(day_idx, dtype=np.int64) * SECONDS_PER_DAY


def make_transactions(w: Workload, rng: np.random.Generator,
                      time_rng: np.random.Generator) -> np.ndarray:
    """(n, 4) int64 rows ``timestamp, n_inputs, n_outputs, amount`` in time order.

    ``rng`` draws each transaction's day, shape and amount; ``time_rng`` its
    second of the day and the coinbase rows. Ordinary transactions have 1..5
    inputs and outputs. An extreme one has its input count (left) or its
    output count (right) at or above the threshold. Coinbase rows have zero
    inputs.
    """
    n = THRESHOLD
    counts = np.maximum(1, rng.poisson(w.txs_per_day, size=w.days))
    day_idx = np.repeat(np.arange(w.days), counts)
    total = int(counts.sum())
    amount = rng.lognormal(mean=13.0, sigma=1.5, size=total).astype(np.int64) + 1
    n_in = rng.integers(1, 6, size=total)
    n_out = rng.integers(1, 6, size=total)
    extreme = rng.uniform(size=total) < w.extreme_prob
    left = extreme & (rng.uniform(size=total) < 0.5)
    right = extreme & ~left
    n_in[left] = n + rng.integers(0, 30, size=int(left.sum()))
    n_out[left] = rng.integers(1, n, size=int(left.sum()))
    n_in[right] = rng.integers(1, n, size=int(right.sum()))
    n_out[right] = n + rng.integers(0, 30, size=int(right.sum()))
    ts = _day_start(day_idx) + time_rng.integers(0, SECONDS_PER_DAY, size=total)

    cb_day = time_rng.integers(0, w.days, size=w.coinbase_rows)
    cb_ts = _day_start(cb_day) + time_rng.integers(0, SECONDS_PER_DAY, size=w.coinbase_rows)
    coinbase = np.column_stack([
        cb_ts, np.zeros(w.coinbase_rows, dtype=np.int64),
        time_rng.integers(1, 4, size=w.coinbase_rows),
        np.full(w.coinbase_rows, 625_000_000, dtype=np.int64),
    ])
    rows = np.vstack([np.column_stack([ts, n_in, n_out, amount]), coinbase])
    return rows[np.argsort(rows[:, 0], kind="stable")].astype(np.int64)


def make_prices(w: Workload) -> tuple[list[str], np.ndarray]:
    """Dates and closes of ``days + 1`` daily prices, so returns span every day."""
    if w.price_file is not None:
        return read_price_file(os.path.join(DATA_DIR, w.price_file))
    omega, alpha, beta = 2e-5, 0.08, 0.90
    z = np.random.default_rng(PRICE_SEED).standard_normal(w.days)
    r = np.empty(w.days)
    s2 = omega / (1.0 - alpha - beta)
    for t in range(w.days):
        r[t] = np.sqrt(s2) * z[t]
        s2 = omega + alpha * r[t] ** 2 + beta * s2
    closes = 250.0 * np.exp(np.concatenate([[0.0], np.cumsum(r)]))
    dates = [(START + dt.timedelta(days=i)).isoformat() for i in range(w.days + 1)]
    return dates, closes


def read_price_file(path) -> tuple[list[str], np.ndarray]:
    dates, closes = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("date,"):
                continue
            d, c = line.split(",")
            dates.append(d)
            closes.append(float(c))
    return dates, np.array(closes)


@dataclass
class Inputs:
    transactions: str
    prices: str
    dates: list[str]
    closes: np.ndarray


def write_inputs(w: Workload, seed: int, out_dir: str) -> Inputs:
    """Write ``transactions.csv`` and ``prices.csv`` for one seed."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    draw_rng = rng if w.fixed_draw_seed is None else np.random.default_rng(w.fixed_draw_seed)
    rows = make_transactions(w, draw_rng, rng)
    dates, closes = make_prices(w)

    lines = [f"{a},{b},{c},{d}" for a, b, c, d in rows.tolist()]
    comment_at = np.sort(rng.choice(len(lines), size=w.comment_rows, replace=False))
    for k, pos in enumerate(comment_at[::-1]):
        lines.insert(int(pos), f"# checkpoint {w.comment_rows - k}")
    tx_path = os.path.join(out_dir, "transactions.csv")
    with open(tx_path, "w", encoding="utf-8") as fh:
        fh.write("# timestamp,n_inputs,n_outputs,amount_satoshi\n")
        fh.write("\n".join(lines) + "\n")

    price_path = os.path.join(out_dir, "prices.csv")
    with open(price_path, "w", encoding="utf-8") as fh:
        fh.write("date,close\n")
        fh.write("".join(f"{d},{float(c)!r}\n" for d, c in zip(dates, closes)))
    return Inputs(tx_path, price_path, dates, closes)
