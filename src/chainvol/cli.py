"""Command-line pipeline: extract, features, analyze, backtest, synth.

Configuration precedence: command-line flags > config file (flat key=value
lines) > built-in defaults. Every JSON report embeds the resolved config.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import backtest as bt
from . import chainlets, garchx, ingest, stats, synth
from .errors import ChainvolError

SCHEMA_VERSION = 1


@dataclass
class PipelineConfig:
    threshold: int = 20
    alpha_tail: float = 0.05
    var_level: float = 0.01
    window: int = 250
    refit_every: int = 7
    arma_p: int = 2
    arma_q: int = 2
    distribution: str = "skewt"
    restarts: int = 3
    lag: int = 0
    gap_policy: str = "error"
    seed: int = 0

    def __post_init__(self):
        for key, ok, bound in (
            ("threshold", self.threshold >= 2, ">= 2"),
            ("alpha_tail", 0 < self.alpha_tail < 0.5, "in (0, 0.5)"),
            ("var_level", 0 < self.var_level < 0.5, "in (0, 0.5)"),
            ("window", self.window >= garchx.MIN_OBS, f">= {garchx.MIN_OBS}"),
            ("refit_every", self.refit_every >= 1, ">= 1"),
            ("restarts", self.restarts >= 1, ">= 1"),
        ):
            if not ok:
                raise ChainvolError(f"{key} must be {bound}, got {getattr(self, key)}")

    def to_dict(self) -> dict:
        return asdict(self)


def load_config_file(path) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    out = {}
    valid = {f.name: f.type for f in fields(PipelineConfig)}
    casts = {"int": int, "float": float, "str": str}
    for line_no, line in ingest.data_lines(path):
        if "=" not in line:
            raise ChainvolError(f"expected key=value, got {line!r}", path, line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in valid:
            raise ChainvolError(f"unknown config key {key!r}", path, line_no)
        value = value.strip()
        try:
            out[key] = casts[valid[key]](value)
            if key == "gap_policy":
                ingest.GapPolicy(value)
        except ValueError:
            raise ChainvolError(f"bad value for {key}: {value!r}", path, line_no) from None
    return out


def resolve_config(args) -> PipelineConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for f in fields(PipelineConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return PipelineConfig(**values)


def _write_json(path, payload: dict, config: PipelineConfig) -> None:
    payload = {"schema_version": SCHEMA_VERSION, "config": config.to_dict(), **payload}
    ingest.atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _wide_calendar() -> ingest.DailyCalendar:
    return ingest.DailyCalendar(dt.date(2009, 1, 3), dt.date(2100, 1, 1))


# --- subcommands -----------------------------------------------------------

def _write_matrix_pair(args, matrices) -> None:
    """Write both matrix files or neither: a failed write leaves the old pair as it was."""
    with ingest.atomic_files(args.out_occurrence, args.out_amount) as (occ, amo):
        ingest.write_matrix_file(occ, [(m.date, m.occurrence) for m in matrices])
        ingest.write_matrix_file(amo, [(m.date, m.amount) for m in matrices])


def cmd_extract(args, config: PipelineConfig) -> int:
    calendar = _wide_calendar()
    result = ingest.load_transactions(args.transactions, calendar)
    if not result.days:
        print("warning: no usable transactions in input", file=sys.stderr)
        _write_matrix_pair(args, [])
        return 0
    by_day = dict(result.days)
    first, last = result.days[0][0], result.days[-1][0]
    matrices = [
        chainlets.build_matrix(day, by_day.get(day, []), config.threshold)
        for day in ingest.DailyCalendar(first, last).days()
    ]
    _write_matrix_pair(args, matrices)
    n_txs = sum(len(rows) for _, rows in result.days)
    print(
        f"{len(matrices)} days ({first}..{last}), {n_txs} transactions, "
        f"{result.skipped_coinbase} coinbase skipped"
    )
    # (day before, day after) of each run of days without transactions
    gaps = [(a, b) for (a, _), (b, _) in zip(result.days, result.days[1:]) if (b - a).days > 1]
    if gaps:
        before, after = max(gaps, key=lambda g: g[1] - g[0])
        one_day = dt.timedelta(days=1)
        print(
            f"warning: {len(matrices) - len(result.days)} of {len(matrices)} days have no "
            f"transactions and get zero matrices; the longest gap is "
            f"{before + one_day}..{after - one_day} ({(after - before).days - 1} days)",
            file=sys.stderr,
        )
    return 0


def _load_matrices(occ_path, amo_path, dim: int):
    occ = ingest.load_matrix_file(occ_path, dim=dim)
    amo = ingest.load_matrix_file(amo_path, dim=dim)
    return chainlets.combine_matrices(occ, amo, dim)


def cmd_features(args, config: PipelineConfig) -> int:
    matrices = _load_matrices(args.occurrence, args.amount, config.threshold)
    if not matrices:
        print("warning: empty matrix input", file=sys.stderr)
        chainlets.write_feature_csv(args.out, [])
        return 0
    calendar = ingest.DailyCalendar(
        matrices[0].date, matrices[-1].date, ingest.GapPolicy(config.gap_policy)
    )
    prices = ingest.load_prices(args.prices, calendar)
    rows = chainlets.feature_series(matrices, prices)
    events = {}
    if args.plot_data and args.events:
        for line_no, line in ingest.data_lines(args.events):
            if line.startswith("date,"):
                continue
            d, _, label = line.partition(",")
            events[ingest.parse_date(d, args.events, line_no)] = label
    chainlets.write_feature_csv(args.out, rows)
    if args.plot_data:
        lines = ["day_index,O_x,label"]
        for i, r in enumerate(rows):
            lines.append(f"{i},{r.O_x!r},{events.get(r.date, '')}")
        ingest.atomic_write_text(args.plot_data, "\n".join(lines) + "\n")
    print(f"{len(rows)} feature rows written to {args.out}")
    return 0


def _aligned_features_returns(features_path, prices_path, config: PipelineConfig):
    """Feature matrix and return series joined on common dates.

    With lag L = config.lag the return on day t is paired with the features
    of day t-L. Returns (dates, X (T,6), returns, r_sq).
    """
    rows = chainlets.read_feature_csv(features_path)
    if not rows:
        raise ChainvolError(f"no feature rows in {features_path}")
    calendar = ingest.DailyCalendar(
        rows[0].date, rows[-1].date + dt.timedelta(days=1), ingest.GapPolicy(config.gap_policy)
    )
    prices = ingest.load_prices(prices_path, calendar)
    returns = stats.log_returns(prices)
    feat_by_date = {r.date: r for r in rows}
    dates, X, r, r_sq = [], [], [], []
    for i, day in enumerate(returns.dates):
        feat_day = day - dt.timedelta(days=config.lag)
        if feat_day in feat_by_date:
            dates.append(day)
            X.append(feat_by_date[feat_day].values())
            r.append(returns.r[i])
            r_sq.append(returns.r_sq[i])
    if not dates:
        raise ChainvolError("no overlapping dates between features and returns")
    return dates, np.array(X, dtype=float), np.array(r), np.array(r_sq)


def cmd_analyze(args, config: PipelineConfig) -> int:
    dates, X, r, r_sq = _aligned_features_returns(args.features, args.prices, config)
    if len(dates) < 30:
        raise ChainvolError(f"need >= 30 aligned days for analysis, got {len(dates)}")
    os.makedirs(args.out, exist_ok=True)

    # standardized OLS of squared returns on the six features
    y_std, _, _ = stats.standardize(r_sq)
    X_std = np.column_stack([stats.standardize(X[:, j])[0] for j in range(X.shape[1])])
    names = ["A_l", "A_r", "A_x", "O_l", "O_r", "O_x"]
    report = stats.ols_fit(y_std, X_std, names=names)
    _write_json(os.path.join(args.out, "ols_report.json"), report.to_dict(), config)

    # conditional loss-density moments, losses standardized over the full sample
    loss_std, _, _ = stats.standardize(-r)
    a_x = X[:, names.index("A_x")]
    o_x = X[:, names.index("O_x")]
    moments_payload = {"unconditional": stats.moments(loss_std).to_dict()}
    panels = {"A_x": a_x, "O_x": o_x}
    for label, c in panels.items():
        for tail in (stats.Tail.LOWER, stats.Tail.UPPER):
            key = f"{label}_{tail.value}"
            moments_payload[key] = stats.conditional_moments(
                loss_std, c, config.alpha_tail, tail
            ).to_dict()
    _write_json(os.path.join(args.out, "conditional_moments.json"), moments_payload, config)

    # density plot data: three curves per panel
    for label, c in panels.items():
        curves = {
            "unconditional": loss_std,
            "lower": loss_std[c < stats.empirical_quantile(c, config.alpha_tail)],
            "upper": loss_std[c > stats.empirical_quantile(c, 1 - config.alpha_tail)],
        }
        lines = ["curve,grid_point,density"]
        for curve, sample in curves.items():
            grid, dens = stats.gaussian_kde_grid(sample)
            for g, d in zip(grid, dens):
                lines.append(f"{curve},{float(g)!r},{float(d)!r}")
        ingest.atomic_write_text(
            os.path.join(args.out, f"density_{label}.csv"), "\n".join(lines) + "\n"
        )
    print(f"analysis reports written to {args.out}")
    return 0


def _run_backtest(model: str, X, r, config: PipelineConfig):
    k = X.shape[1] if model == "garchx" else 0
    spec = garchx.ModelSpec(
        p=config.arma_p, q=config.arma_q, k=k, distribution=config.distribution
    )
    fit_config = garchx.FitConfig(restarts=config.restarts, seed=config.seed)
    return bt.rolling_backtest(
        r, X.T if k > 0 else None, spec,
        window=config.window, refit_every=config.refit_every,
        level=config.var_level, fit_config=fit_config,
    )


def _var_series_csv(path, dates, series) -> None:
    lines = ["date,var,return,breach"]
    for idx, var, ret, breach in zip(
        series.indices, series.var_value, series.realized_return, series.breach
    ):
        lines.append(f"{dates[idx].isoformat()},{float(var)!r},{float(ret)!r},{int(breach)}")
    ingest.atomic_write_text(path, "\n".join(lines) + "\n")


def cmd_backtest(args, config: PipelineConfig) -> int:
    dates, X, r, _ = _aligned_features_returns(args.features, args.prices, config)
    if len(dates) <= config.window + 10:
        raise ChainvolError(
            f"need > {config.window + 10} aligned days for window {config.window}, got {len(dates)}"
        )
    n_forecast = len(dates) - config.window
    if args.compare and not bt.DM_MIN_OBS <= args.horizon <= n_forecast:
        raise ChainvolError(
            f"horizon must be in [{bt.DM_MIN_OBS}, {n_forecast}] forecast days, got {args.horizon}"
        )
    os.makedirs(args.out, exist_ok=True)
    models = ["garch", "garchx"] if args.compare else [args.model]
    payload = {"models": {}}
    series_by_model = {}
    for model in models:
        series = _run_backtest(model, X, r, config)
        series_by_model[model] = series
        report = bt.backtest_report(series.n, series.n_breaches, config.var_level, series.breach)
        payload["models"][model] = {
            **report.to_dict(),
            "refit_failures": len(series.refit_failures),
        }
        _var_series_csv(os.path.join(args.out, f"var_series_{model}.csv"), dates, series)
    if args.compare:
        h = args.horizon
        e = {}
        for model, series in series_by_model.items():
            # squared-return proxy error of the variance forecast over the
            # final out-of-sample span
            r2 = series.realized_return[-h:] ** 2
            e[model] = r2 - series.sigma_forecast[-h:] ** 2
        dm = bt.diebold_mariano(e["garch"], e["garchx"])
        payload["diebold_mariano"] = dm.to_dict()
    _write_json(os.path.join(args.out, "backtest_report.json"), payload, config)
    print(f"backtest reports written to {args.out}")
    return 0


def cmd_synth(args, config: PipelineConfig) -> int:
    sc = synth.SynthConfig(
        days=args.days,
        txs_per_day=args.txs_per_day,
        extreme_prob=args.extreme_prob,
        threshold=config.threshold,
        seed=config.seed,
    )
    paths = synth.write_synth_dataset(sc, args.out)
    print(f"synthetic dataset written: {paths['transactions']}, {paths['prices']}")
    return 0


# --- argument parsing ------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainvol",
        description="Chainlet-based Bitcoin risk analytics pipeline",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--threshold", type=int, default=None, help="chainlet clamp threshold N")
        p.add_argument("--gap-policy", dest="gap_policy", choices=["error", "ffill"], default=None)
        # SUPPRESS: without the flag here, the top-level value stays in place
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="RNG seed")
        p.add_argument("--config", default=argparse.SUPPRESS, help="flat key=value config file")

    p = sub.add_parser("extract", help="transactions -> daily chainlet matrix files")
    p.add_argument("transactions")
    p.add_argument("--out-occurrence", required=True)
    p.add_argument("--out-amount", required=True)
    add_common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("features", help="matrix files + prices -> feature CSV")
    p.add_argument("occurrence")
    p.add_argument("amount")
    p.add_argument("prices")
    p.add_argument("--out", required=True)
    p.add_argument("--plot-data", help="write day-index/O_x CSV for plotting")
    p.add_argument("--events", help="optional date,label events file merged into plot data")
    add_common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("analyze", help="OLS, conditional moments and density data")
    p.add_argument("features")
    p.add_argument("prices")
    p.add_argument("--out", required=True)
    p.add_argument("--alpha-tail", dest="alpha_tail", type=float, default=None)
    p.add_argument("--lag", type=int, default=None, help="lag features by this many days")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("backtest", help="rolling VaR backtest with coverage tests")
    p.add_argument("features")
    p.add_argument("prices")
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=["garch", "garchx"], default="garchx")
    p.add_argument("--compare", action="store_true", help="run both models plus a DM test")
    p.add_argument("--horizon", type=int, default=30, help="DM comparison span (days)")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--refit-every", dest="refit_every", type=int, default=None)
    p.add_argument("--var-level", dest="var_level", type=float, default=None)
    p.add_argument("--arma-p", dest="arma_p", type=int, default=None)
    p.add_argument("--arma-q", dest="arma_q", type=int, default=None)
    p.add_argument("--distribution", choices=list(garchx.DISTRIBUTIONS), default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--lag", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--days", type=int, default=60)
    p.add_argument("--txs-per-day", dest="txs_per_day", type=float, default=50.0)
    p.add_argument("--extreme-prob", dest="extreme_prob", type=float, default=0.05)
    add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        return args.func(args, config)
    except ChainvolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
