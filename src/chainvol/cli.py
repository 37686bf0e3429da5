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
from .errors import ChainvolError, NonFiniteStateError, RegressorOverflowError, ValidationError

SCHEMA_VERSION = 1

# the values of the PipelineConfig keys that take one of a few
CHOICES = {"distribution": garchx.DISTRIBUTIONS,
           "gap_policy": tuple(policy.value for policy in ingest.GapPolicy)}
# the columns of the feature matrix that analyze and backtest read
FEATURES = ["A_l", "A_r", "A_x", "O_l", "O_r", "O_x"]
# the PipelineConfig keys each subcommand reads, each of them its flag
CONFIG_KEYS = {
    "extract": ("threshold",),
    "features": ("gap_policy",),
    "analyze": ("alpha_tail", "lag", "gap_policy"),
    "backtest": ("window", "refit_every", "var_level", "arma_p", "arma_q", "distribution",
                 "restarts", "lag", "gap_policy", "seed"),
    "synth": ("threshold", "seed"),
}


class ConfigValueError(ChainvolError):
    """A config value out of its range; key names the value."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(message)


@dataclass
class PipelineConfig:
    threshold: int = chainlets.DEFAULT_THRESHOLD
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
        # a fit takes MIN_OBS days, and filter_model max(p, q) + 2
        min_window = max(garchx.MIN_OBS, self.arma_p + 2, self.arma_q + 2)
        for key, ok, bound in (
            ("threshold", self.threshold >= 2, ">= 2"),
            ("alpha_tail", 0 < self.alpha_tail < 0.5, "in (0, 0.5)"),
            ("var_level", 0 < self.var_level < 0.5, "in (0, 0.5)"),
            ("window", self.window >= min_window, f">= {min_window}"),
            ("refit_every", self.refit_every >= 1, ">= 1"),
            ("arma_p", self.arma_p >= 0, ">= 0"),
            ("arma_q", self.arma_q >= 0, ">= 0"),
            ("restarts", self.restarts >= 1, ">= 1"),
            # a negative lag pairs a return with features published after it
            ("lag", self.lag >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
            *((key, getattr(self, key) in choices, f"one of {', '.join(choices)}")
              for key, choices in CHOICES.items()),
        ):
            if not ok:
                raise ConfigValueError(key, f"{key} must be {bound}, got {getattr(self, key)!r}")

    def to_dict(self) -> dict:
        return asdict(self)


# the type of each PipelineConfig key, as a flag and in a config file
TYPES = {f.name: {"int": int, "float": float, "str": str}[f.type] for f in fields(PipelineConfig)}


def load_config_file(path) -> dict:
    """Flat key=value file; blank lines and # comments ignored. Maps each
    key to its value and its line number."""
    out = {}
    for line_no, line in ingest.data_lines(path):
        if "=" not in line:
            raise ChainvolError(f"expected key=value, got {line!r}", path, line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in TYPES:
            raise ChainvolError(f"unknown config key {key!r}", path, line_no)
        value = value.strip()
        if key in out:
            raise ChainvolError(f"duplicate config key {key!r}", path, line_no)
        try:
            out[key] = TYPES[key](value), line_no
        except ValueError:
            raise ChainvolError(f"bad value for {key}: {value!r}", path, line_no) from None
    return out


def resolve_config(args) -> PipelineConfig:
    from_file = load_config_file(args.config) if args.config else {}
    flags = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    values = {key: value for key, (value, _) in from_file.items()}
    values.update((key, flag) for key, flag in flags.items() if flag is not None)
    try:
        return PipelineConfig(**values)
    except ConfigValueError as exc:
        if exc.key not in from_file or flags[exc.key] is not None:
            raise
        # the value came from the config file: name its line
        raise ChainvolError(str(exc), args.config, from_file[exc.key][1]) from None


def _json_text(payload: dict, config: PipelineConfig) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "config": config.to_dict(), **payload}
    return json.dumps(payload, indent=2) + "\n"


def _write_reports(directory, texts: dict) -> None:
    """Write each text to the file of its name in directory: all or none, so
    a failed run leaves the reports of an earlier run as they were."""
    paths = [os.path.join(directory, name) for name in texts]
    with ingest.atomic_files(*paths) as files:
        for fh, text in zip(files, texts.values()):
            fh.write(text)


def _wide_calendar() -> ingest.DailyCalendar:
    return ingest.DailyCalendar(dt.date(2009, 1, 3), dt.date(2100, 1, 1))


# --- subcommands -----------------------------------------------------------

def cmd_extract(args, config: PipelineConfig) -> int:
    builder = chainlets.DayCubeBuilder(config.threshold)
    skipped_coinbase = 0
    # both files or neither: a failed write leaves the old pair as it was.
    # The temp files are made before the parse, so an unwritable output
    # fails before any work
    with ingest.atomic_files(args.out_occurrence, args.out_amount) as (occ, amo):
        for rows, coinbase in ingest.tx_blocks(args.transactions, _wide_calendar()):
            builder.add(rows)
            skipped_coinbase += coinbase
        cube = builder.cube()
        ingest.write_matrix_file(occ, cube.dates, cube.occurrence)
        ingest.write_matrix_file(amo, cube.dates, cube.amount)
    if not cube.dates:
        print("warning: no usable transactions in input", file=sys.stderr)
        return 0
    n_days = len(cube.dates)
    per_day = cube.occurrence.sum(axis=(1, 2))
    active = np.flatnonzero(per_day)  # days with transactions
    first, last = cube.dates[0], cube.dates[-1]
    print(
        f"{n_days} days ({first}..{last}), {int(per_day.sum())} transactions, "
        f"{skipped_coinbase} coinbase skipped"
    )
    if len(active) < n_days:
        k = int(np.argmax(np.diff(active)))  # the first of the longest runs of empty days
        before, after = cube.dates[active[k]], cube.dates[active[k + 1]]
        one_day = dt.timedelta(days=1)
        print(
            f"warning: {n_days - len(active)} of {n_days} days have no "
            f"transactions and get zero matrices; the longest gap is "
            f"{before + one_day}..{after - one_day} ({(after - before).days - 1} days)",
            file=sys.stderr,
        )
    return 0


def cmd_features(args, config: PipelineConfig) -> int:
    if args.events and not args.plot_data:
        raise ChainvolError("--events needs --plot-data: the events are labels in the plot data")
    if os.path.realpath(args.occurrence) == os.path.realpath(args.amount):
        raise ChainvolError("named for both the occurrence and the amount input", args.amount)
    events = {}
    if args.events:
        events = {day: label for _, day, label in ingest.date_value_lines(args.events)}
    # both outputs or neither, their temp files made before the matrices are read
    outputs = [args.out] + ([args.plot_data] if args.plot_data else [])
    with ingest.atomic_files(*outputs) as files:
        cube = chainlets.combine_matrices(
            ingest.load_matrix_file(args.occurrence),
            ingest.load_matrix_file(args.amount),
            args.occurrence, args.amount,
        )
        rows = []
        if cube.dates:
            calendar = ingest.DailyCalendar(
                cube.dates[0], cube.dates[-1], ingest.GapPolicy(config.gap_policy)
            )
            rows = chainlets.feature_series(cube, ingest.load_prices(args.prices, calendar))
        chainlets.write_feature_csv(files[0], rows)
        if args.plot_data:
            lines = ["day_index,O_x,label"]
            for i, r in enumerate(rows):
                lines.append(f"{i},{r.O_x!r},{events.get(r.date, '')}")
            files[1].write("\n".join(lines) + "\n")
    if not cube.dates:
        print("warning: empty matrix input", file=sys.stderr)
        return 0
    print(f"{len(rows)} feature rows written to {args.out}")
    return 0


def _aligned_features_returns(features_path, prices_path, config: PipelineConfig):
    """Feature matrix and return series joined on common dates.

    With lag L = config.lag the return on day t is paired with the features
    of day t-L. Returns (dates, X (T,6), returns).
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
    dates, X, r = [], [], []
    # returns[i] is labelled by the day of its first price
    for day, r_day in zip(prices.dates, returns):
        feat_day = day - dt.timedelta(days=config.lag)
        if feat_day in feat_by_date:
            dates.append(day)
            X.append(feat_by_date[feat_day].values())
            r.append(r_day)
    if not dates:
        raise ChainvolError("no overlapping dates between features and returns")
    return dates, np.array(X, dtype=float), np.array(r)


def cmd_analyze(args, config: PipelineConfig) -> int:
    dates, X, r = _aligned_features_returns(args.features, args.prices, config)
    if len(dates) < 30:
        raise ChainvolError(f"need >= 30 aligned days for analysis, got {len(dates)}")
    os.makedirs(args.out, exist_ok=True)

    # standardized OLS of squared returns on the six features
    y_std = stats.standardize(r**2)
    X_std = np.column_stack([stats.standardize(X[:, j]) for j in range(X.shape[1])])
    report = stats.ols_fit(y_std, X_std, names=FEATURES)
    texts = {"ols_report.json": _json_text(report.to_dict(), config)}

    # conditional loss-density moments, losses standardized over the full sample
    loss_std = stats.standardize(-r)
    moments_payload = {"unconditional": stats.moments(loss_std).to_dict()}
    panels = {label: X[:, FEATURES.index(label)] for label in ("A_x", "O_x")}
    for label, c in panels.items():
        for tail in (stats.Tail.LOWER, stats.Tail.UPPER):
            key = f"{label}_{tail.value}"
            moments_payload[key] = stats.conditional_moments(
                loss_std, c, config.alpha_tail, tail
            ).to_dict()
    texts["conditional_moments.json"] = _json_text(moments_payload, config)

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
        texts[f"density_{label}.csv"] = "\n".join(lines) + "\n"
    _write_reports(args.out, texts)
    print(f"analysis reports written to {args.out}")
    return 0


def _run_backtest(model: str, X, r, config: PipelineConfig):
    k = X.shape[1] if model == "garchx" else 0
    spec = garchx.ModelSpec(
        p=config.arma_p, q=config.arma_q, k=k, distribution=config.distribution
    )
    return bt.rolling_backtest(
        r, X.T if k > 0 else None, spec,
        window=config.window, refit_every=config.refit_every,
        level=config.var_level, restarts=config.restarts, seed=config.seed,
    )


def _var_series_csv(dates, series) -> str:
    lines = ["date,var,return,breach"]
    for idx, var, ret, breach in zip(
        series.indices, series.var_value, series.realized_return, series.breach
    ):
        lines.append(f"{dates[idx].isoformat()},{float(var)!r},{float(ret)!r},{int(breach)}")
    return "\n".join(lines) + "\n"


def cmd_backtest(args, config: PipelineConfig) -> int:
    if args.horizon is not None and not args.compare:
        raise ChainvolError("--horizon needs --compare: it is the span of the DM test")
    if args.model is not None and args.compare:
        raise ChainvolError("--model and --compare exclude each other: --compare runs both models")
    horizon = 30 if args.horizon is None else args.horizon
    dates, X, r = _aligned_features_returns(args.features, args.prices, config)
    if len(dates) <= config.window + 10:
        raise ChainvolError(
            f"need > {config.window + 10} aligned days for window {config.window}, got {len(dates)}"
        )
    n_forecast = len(dates) - config.window
    if args.compare and not bt.DM_MIN_OBS <= horizon <= n_forecast:
        raise ChainvolError(
            f"horizon must be in [{bt.DM_MIN_OBS}, {n_forecast}] forecast days, got {horizon}"
        )
    os.makedirs(args.out, exist_ok=True)
    models = ["garch", "garchx"] if args.compare else [args.model or "garchx"]
    payload = {"models": {}}
    texts = {}
    series_by_model = {}
    for model in models:
        try:
            series = _run_backtest(model, X, r, config)
        except NonFiniteStateError as exc:
            raise ValidationError(f"non-finite filter state in the forecast of "
                                  f"{dates[exc.day]}", args.features) from None
        except RegressorOverflowError as exc:
            raise ValidationError(f"{FEATURES[exc.column]} overflows in the standardization of "
                                  f"the fit window {dates[exc.first]}..{dates[exc.last]}",
                                  args.features) from None
        series_by_model[model] = series
        report = bt.backtest_report(series.n, series.n_breaches, config.var_level, series.breach)
        payload["models"][model] = {
            **report.to_dict(),
            "refit_failures": len(series.refit_failures),
        }
        texts[f"var_series_{model}.csv"] = _var_series_csv(dates, series)
    if args.compare:
        e = {}
        for model, series in series_by_model.items():
            # squared-return proxy error of the variance forecast over the
            # final out-of-sample span
            r2 = series.realized_return[-horizon:] ** 2
            e[model] = r2 - series.sigma_forecast[-horizon:] ** 2
        dm = bt.diebold_mariano(e["garch"], e["garchx"])
        payload["diebold_mariano"] = dm.to_dict()
    texts["backtest_report.json"] = _json_text(payload, config)
    _write_reports(args.out, texts)
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="transactions -> daily chainlet matrix files")
    p.add_argument("transactions")
    p.add_argument("--out-occurrence", required=True)
    p.add_argument("--out-amount", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("features", help="matrix files + prices -> feature CSV")
    p.add_argument("occurrence")
    p.add_argument("amount")
    p.add_argument("prices")
    p.add_argument("--out", required=True)
    p.add_argument("--plot-data", help="write day-index/O_x CSV for plotting")
    p.add_argument("--events", help="optional date,label events file merged into plot data")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("analyze", help="OLS, conditional moments and density data")
    p.add_argument("features")
    p.add_argument("prices")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("backtest", help="rolling VaR backtest with coverage tests")
    p.add_argument("features")
    p.add_argument("prices")
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=["garch", "garchx"], default=None,
                   help="the one model to run (default garchx); not with --compare")
    p.add_argument("--compare", action="store_true", help="run both models plus a DM test")
    p.add_argument("--horizon", type=int, default=None,
                   help="DM comparison span in days (default 30); needs --compare")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--days", type=int, default=60)
    p.add_argument("--txs-per-day", dest="txs_per_day", type=float, default=50.0)
    p.add_argument("--extreme-prob", dest="extreme_prob", type=float, default=0.05)
    p.set_defaults(func=cmd_synth)

    for name, p in sub.choices.items():
        for key in CONFIG_KEYS[name]:
            p.add_argument(f"--{key.replace('_', '-')}", type=TYPES[key], choices=CHOICES.get(key))
        p.add_argument("--config", help="flat key=value config file")
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
