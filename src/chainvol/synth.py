"""Synthetic data generation: transaction files and GARCH-driven price paths.

Used by tests and the `synth` CLI command to exercise the full pipeline
without real blockchain data.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .chainlets import DEFAULT_THRESHOLD
from .errors import ValidationError
from .garchx import ArmaGarchXParams, ModelSpec, simulate
from .ingest import SECONDS_PER_DAY, atomic_write_text

START = dt.date(2015, 1, 1)  # first day of every synthetic dataset
START_PRICE = 250.0
GARCH_PARAMS = ArmaGarchXParams(alpha0=1e-4, alpha1=0.08, beta=0.88, nu=6.0, xi=1.1)
DISTRIBUTION = "skewt"


@dataclass
class SynthConfig:
    days: int = 60
    txs_per_day: float = 50.0
    extreme_prob: float = 0.05
    threshold: int = DEFAULT_THRESHOLD
    seed: int = 0

    def __post_init__(self):
        for key, ok, bound in (
            ("days", self.days >= 1, ">= 1"),
            ("txs_per_day", 0.0 <= self.txs_per_day < math.inf, "finite and >= 0"),
            ("extreme_prob", 0.0 <= self.extreme_prob <= 1.0, "in [0, 1]"),
        ):
            if not ok:
                raise ValidationError(f"{key} must be {bound}, got {getattr(self, key)}")

    def to_dict(self) -> dict:
        return {
            "days": self.days,
            "txs_per_day": self.txs_per_day,
            "extreme_prob": self.extreme_prob,
            "threshold": self.threshold,
            "start": START.isoformat(),
            "start_price": START_PRICE,
            "garch_params": GARCH_PARAMS.to_dict(),
            "distribution": DISTRIBUTION,
            "seed": self.seed,
        }


def synth_transactions(config: SynthConfig, rng: np.random.Generator) -> list[str]:
    """CSV lines for a synthetic transaction file, grouped by day.

    Extreme transactions get an input or output count at or above the
    threshold; ordinary ones stay strictly below it.
    """
    lines = ["# timestamp,n_inputs,n_outputs,amount_satoshi"]
    n = config.threshold
    for day_idx in range(config.days):
        day_start = int(
            dt.datetime.combine(
                START + dt.timedelta(days=day_idx), dt.time(), dt.timezone.utc
            ).timestamp()
        )
        count = max(1, rng.poisson(config.txs_per_day))
        for _ in range(count):
            ts = day_start + int(rng.integers(0, SECONDS_PER_DAY))
            amount = int(rng.lognormal(mean=13.0, sigma=1.5)) + 1
            if rng.uniform() < config.extreme_prob:
                if rng.uniform() < 0.5:
                    n_in = n + int(rng.integers(0, 30))
                    n_out = int(rng.integers(1, n))
                else:
                    n_in = int(rng.integers(1, n))
                    n_out = n + int(rng.integers(0, 30))
            else:
                n_in = int(rng.integers(1, min(n, 6)))
                n_out = int(rng.integers(1, min(n, 6)))
            lines.append(f"{ts},{n_in},{n_out},{amount}")
    return lines


def synth_prices(config: SynthConfig) -> list[str]:
    """CSV lines for a GARCH-driven daily close series (days + 1 rows, so the
    return series spans all matrix days)."""
    spec = ModelSpec(p=0, q=0, k=0, distribution=DISTRIBUTION)
    y, _, _ = simulate(GARCH_PARAMS, spec, None, config.days, config.seed + 1)
    prices = START_PRICE * np.exp(np.concatenate([[0.0], np.cumsum(y)]))
    lines = ["date,close"]
    for i, p in enumerate(prices):
        day = START + dt.timedelta(days=i)
        lines.append(f"{day.isoformat()},{float(p)!r}")
    return lines


def write_synth_dataset(config: SynthConfig, out_dir) -> dict:
    """Write transactions.csv, prices.csv and manifest.json; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    tx_path = os.path.join(out_dir, "transactions.csv")
    price_path = os.path.join(out_dir, "prices.csv")
    manifest_path = os.path.join(out_dir, "manifest.json")
    atomic_write_text(tx_path, "\n".join(synth_transactions(config, rng)) + "\n")
    atomic_write_text(price_path, "\n".join(synth_prices(config)) + "\n")
    atomic_write_text(manifest_path, json.dumps(config.to_dict(), indent=2) + "\n")
    return {"transactions": tx_path, "prices": price_path, "manifest": manifest_path}
