import json
import os
import subprocess
import sys

import numpy as np
import pytest

from chainvol import backtest, cli, garchx
from chainvol.chainlets import read_feature_csv


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Synthetic dataset plus extracted matrices and features, shared by tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert cli.main([
        "synth", "--out", str(data), "--days", "320", "--txs-per-day", "80",
        "--extreme-prob", "0.2", "--seed", "7",
    ]) == 0
    occ = root / "occ.txt"
    amo = root / "amo.txt"
    assert cli.main([
        "extract", str(data / "transactions.csv"),
        "--out-occurrence", str(occ), "--out-amount", str(amo),
    ]) == 0
    features = root / "features.csv"
    assert cli.main([
        "features", str(occ), str(amo), str(data / "prices.csv"),
        "--out", str(features),
    ]) == 0
    return {"root": root, "data": data, "occ": occ, "amo": amo, "features": features}


class TestSynth:
    def test_same_seed_identical_files(self, tmp_path):
        for name in ("a", "b"):
            assert cli.main([
                "synth", "--out", str(tmp_path / name), "--days", "10", "--seed", "5",
            ]) == 0
        for fname in ("transactions.csv", "prices.csv", "manifest.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_zero_extreme_prob_gives_zero_ratios(self, tmp_path):
        assert cli.main([
            "synth", "--out", str(tmp_path / "d"), "--days", "15",
            "--extreme-prob", "0.0", "--seed", "1",
        ]) == 0
        assert cli.main([
            "extract", str(tmp_path / "d" / "transactions.csv"),
            "--out-occurrence", str(tmp_path / "occ.txt"),
            "--out-amount", str(tmp_path / "amo.txt"),
        ]) == 0
        assert cli.main([
            "features", str(tmp_path / "occ.txt"), str(tmp_path / "amo.txt"),
            str(tmp_path / "d" / "prices.csv"), "--out", str(tmp_path / "f.csv"),
        ]) == 0
        rows = read_feature_csv(tmp_path / "f.csv")
        assert rows and all(r.A_x == 0.0 and r.O_x == 0.0 for r in rows)


class TestExtract:
    def test_summary_and_conservation(self, dataset, capsys):
        # matrices re-extracted here to capture the summary line
        assert cli.main([
            "extract", str(dataset["data"] / "transactions.csv"),
            "--out-occurrence", str(dataset["root"] / "occ2.txt"),
            "--out-amount", str(dataset["root"] / "amo2.txt"),
        ]) == 0
        out = capsys.readouterr().out
        assert "coinbase skipped" in out
        assert (dataset["root"] / "occ2.txt").read_bytes() == dataset["occ"].read_bytes()

    def test_empty_input_warns_and_exits_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing\n")
        assert cli.main([
            "extract", str(empty),
            "--out-occurrence", str(tmp_path / "o.txt"),
            "--out-amount", str(tmp_path / "a.txt"),
        ]) == 0
        assert "warning" in capsys.readouterr().err

    def test_clamped_row_present(self, tmp_path):
        tx = tmp_path / "tx.csv"
        tx.write_text("1420070400,25,1,100\n")
        assert cli.main([
            "extract", str(tx),
            "--out-occurrence", str(tmp_path / "o.txt"),
            "--out-amount", str(tmp_path / "a.txt"),
        ]) == 0
        tokens = (tmp_path / "o.txt").read_text().split()
        matrix = np.array(tokens[1:], dtype=int).reshape(20, 20)
        assert matrix[19, 0] == 1

    def test_cell_past_int64_names_day(self, tmp_path, capsys):
        tx = tmp_path / "tx.csv"
        tx.write_text("1420070400,1,1,2100000000000000\n" * 4393)
        assert cli.main([
            "extract", str(tx),
            "--out-occurrence", str(tmp_path / "o.txt"),
            "--out-amount", str(tmp_path / "a.txt"),
        ]) == 1
        assert "2015-01-01: satoshi sum of C_{1->1} exceeds int64" in capsys.readouterr().err
        assert not (tmp_path / "o.txt").exists()

    def test_parse_error_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage line\n")
        assert cli.main([
            "extract", str(bad),
            "--out-occurrence", str(tmp_path / "o.txt"),
            "--out-amount", str(tmp_path / "a.txt"),
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_gap_days_warn_with_longest_gap(self, tmp_path, capsys):
        # a few rows in 2015, plus one at each edge of the calendar
        tx = tmp_path / "tx.csv"
        rows = [f"{1425168000 + k * 86400},2,3,100" for k in (0, 1, 3, 4, 5)]  # from 2015-03-01
        rows += ["1230940800,1,1,5", "4102531199,1,1,7"]  # 2009-01-03, 2100-01-01 23:59:59
        tx.write_text("\n".join(rows) + "\n")
        assert cli.main([
            "extract", str(tx), "--threshold", "2",
            "--out-occurrence", str(tmp_path / "o.txt"),
            "--out-amount", str(tmp_path / "a.txt"),
        ]) == 0
        out, err = capsys.readouterr()
        assert "33236 days (2009-01-03..2100-01-01), 7 transactions" in out
        assert err.count("warning") == 1
        assert ("warning: 33229 of 33236 days have no transactions and get zero matrices; "
                "the longest gap is 2015-03-07..2099-12-31 (30981 days)") in err
        assert len((tmp_path / "o.txt").read_text().splitlines()) == 33236

    def test_no_gap_warning_without_empty_days(self, dataset, tmp_path, capsys):
        assert cli.main([
            "extract", str(dataset["data"] / "transactions.csv"),
            "--out-occurrence", str(tmp_path / "o.txt"),
            "--out-amount", str(tmp_path / "a.txt"),
        ]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_input_names_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main([
            "extract", "nonexist.csv", "--out-occurrence", "o.txt", "--out-amount", "a.txt",
        ]) == 1
        assert capsys.readouterr().err == "error: nonexist.csv: No such file or directory\n"
        assert os.listdir(tmp_path) == []

    def test_unwritable_output_names_path(self, tmp_path, capsys):
        tx = tmp_path / "tx.csv"
        tx.write_text("1420070400,1,1,10\n")
        out = tmp_path / "missing" / "o.txt"
        assert cli.main([
            "extract", str(tx), "--out-occurrence", str(out),
            "--out-amount", str(tmp_path / "a.txt"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"
        assert os.listdir(tmp_path) == ["tx.csv"]

    @pytest.mark.parametrize("bad", ["missing-dir", "directory"])
    def test_failed_amount_write_keeps_old_pair(self, tmp_path, capsys, bad):
        tx = tmp_path / "tx.csv"
        tx.write_text("1420070400,1,1,10\n")
        occ, amo = tmp_path / "occ.txt", tmp_path / "amo.txt"
        occ.write_text("old occurrence\n")
        amo.write_text("old amount\n")
        out_amo = tmp_path / "nodir" / "a.txt"
        if bad == "directory":
            out_amo = tmp_path / "adir"
            out_amo.mkdir()
        reason = "No such file or directory" if bad == "missing-dir" else "Is a directory"
        assert cli.main([
            "extract", str(tx), "--out-occurrence", str(occ), "--out-amount", str(out_amo),
        ]) == 1
        assert capsys.readouterr().err == f"error: {out_amo}: {reason}\n"
        assert occ.read_text() == "old occurrence\n"
        assert amo.read_text() == "old amount\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["tx.csv", "occ.txt", "amo.txt"] + (["adir"] if bad == "directory" else []))


class TestFeatures:
    def test_plot_data_one_point_per_day(self, dataset, tmp_path):
        plot = tmp_path / "plot.csv"
        assert cli.main([
            "features", str(dataset["occ"]), str(dataset["amo"]),
            str(dataset["data"] / "prices.csv"),
            "--out", str(tmp_path / "f.csv"), "--plot-data", str(plot),
        ]) == 0
        rows = read_feature_csv(tmp_path / "f.csv")
        plot_lines = [l for l in plot.read_text().splitlines() if l and not l.startswith("day_")]
        assert len(plot_lines) == len(rows)

    def test_missing_price_day_fails_with_date(self, dataset, tmp_path, capsys):
        prices = (dataset["data"] / "prices.csv").read_text().splitlines()
        clipped = tmp_path / "prices.csv"
        clipped.write_text("\n".join(prices[:5]) + "\n")  # drops later days
        assert cli.main([
            "features", str(dataset["occ"]), str(dataset["amo"]), str(clipped),
            "--out", str(tmp_path / "f.csv"),
        ]) == 1
        assert "missing" in capsys.readouterr().err


class TestAnalyze:
    def test_reports_written(self, dataset, tmp_path):
        out = tmp_path / "analysis"
        assert cli.main([
            "analyze", str(dataset["features"]), str(dataset["data"] / "prices.csv"),
            "--out", str(out),
        ]) == 0
        ols = json.loads((out / "ols_report.json").read_text())
        assert [c["name"] for c in ols["coefficients"]] == [
            "(Intercept)", "A_l", "A_r", "A_x", "O_l", "O_r", "O_x"
        ]
        assert "config" in ols
        cm = json.loads((out / "conditional_moments.json").read_text())
        # unconditional moments of a standardized series
        assert cm["unconditional"]["mean"] == pytest.approx(0.0, abs=1e-10)
        assert cm["unconditional"]["std_dev"] == pytest.approx(1.0, abs=0.01)
        for key in ("A_x_lower", "A_x_upper", "O_x_lower", "O_x_upper"):
            assert key in cm
        assert (out / "density_A_x.csv").exists()
        assert (out / "density_O_x.csv").exists()

    def test_deterministic_outputs(self, dataset, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli.main([
                "analyze", str(dataset["features"]), str(dataset["data"] / "prices.csv"),
                "--out", str(out), "--seed", "3",
            ]) == 0
            outs.append((out / "ols_report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_null_features_not_systematically_significant(self, tmp_path):
        # features independent of losses: OLS should rarely reject
        import datetime as dt

        from chainvol.chainlets import ExtremeFeatureRow, write_feature_csv

        rng = np.random.default_rng(0)
        rejections = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            days = [dt.date(2015, 1, 1) + dt.timedelta(days=i) for i in range(120)]
            rows = [
                ExtremeFeatureRow(
                    d,
                    float(rng.uniform(1, 2)), float(rng.uniform(1, 2)), float(rng.uniform(0, 1)),
                    int(rng.integers(1, 50)), int(rng.integers(1, 50)), float(rng.uniform(0, 1)),
                )
                for d in days
            ]
            fpath = tmp_path / f"f{seed}.csv"
            write_feature_csv(fpath, rows)
            levels = 100 * np.exp(np.concatenate([[0.0], np.cumsum(rng.normal(0, 0.03, size=120))]))
            prices = [
                f"{(days[0] + dt.timedelta(days=i)).isoformat()},{float(levels[i]):.6f}"
                for i in range(121)
            ]
            ppath = tmp_path / f"p{seed}.csv"
            ppath.write_text("date,close\n" + "\n".join(prices) + "\n")
            out = tmp_path / f"out{seed}"
            assert cli.main([
                "analyze", str(fpath), str(ppath), "--out", str(out),
            ]) == 0
            ols = json.loads((out / "ols_report.json").read_text())
            pvals = [c["p_value"] for c in ols["coefficients"][1:]]
            rejections.append(sum(p < 0.05 for p in pvals))
        # 30 null tests at the 5% level: expect ~1.5 rejections, not a landslide
        assert sum(rejections) <= 8


class TestBacktest:
    def test_compare_report(self, dataset, tmp_path):
        out = tmp_path / "bt"
        assert cli.main([
            "backtest", str(dataset["features"]), str(dataset["data"] / "prices.csv"),
            "--out", str(out), "--compare", "--window", "250",
            "--arma-p", "1", "--arma-q", "1", "--restarts", "1",
            "--distribution", "normal", "--horizon", "30",
        ]) == 0
        doc = json.loads((out / "backtest_report.json").read_text())
        assert set(doc["models"]) == {"garch", "garchx"}
        for model in ("garch", "garchx"):
            m = doc["models"][model]
            assert m["lr_cc"]["statistic"] - m["lr_cc"]["lr_ind"] == pytest.approx(
                m["lr_uc"]["statistic"], abs=1e-9
            )
            csv = (out / f"var_series_{model}.csv").read_text().splitlines()
            assert csv[0] == "date,var,return,breach"
            assert len(csv) - 1 == m["n_days"]
        assert "diebold_mariano" in doc
        assert 0.0 <= doc["diebold_mariano"]["p_value"] <= 1.0

    @pytest.mark.parametrize("horizon", ["0", "5", "1000"])
    def test_bad_horizon_fails_before_any_fit(self, dataset, tmp_path, capsys, monkeypatch, horizon):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")

        monkeypatch.setattr(garchx, "fit", no_fit)
        monkeypatch.setattr(backtest, "fit", no_fit)
        assert cli.main([
            "backtest", str(dataset["features"]), str(dataset["data"] / "prices.csv"),
            "--out", str(tmp_path / "bt"), "--compare", "--horizon", horizon,
        ]) == 1
        assert "horizon must be in [10, " in capsys.readouterr().err
        assert not (tmp_path / "bt").exists()

    def test_window_too_large_fails(self, dataset, tmp_path, capsys):
        assert cli.main([
            "backtest", str(dataset["features"]), str(dataset["data"] / "prices.csv"),
            "--out", str(tmp_path / "bt"), "--window", "5000",
        ]) == 1
        assert "error" in capsys.readouterr().err


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("threshold=10\nalpha_tail=0.1\n")

        class Args:
            config = str(cfg)
            threshold = 12
            alpha_tail = None

        resolved = cli.resolve_config(Args())
        assert resolved.threshold == 12  # flag wins
        assert resolved.alpha_tail == 0.1  # file wins over default
        assert resolved.var_level == 0.01  # default

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("nonsense=1\n")

        class Args:
            config = str(cfg)

        with pytest.raises(Exception, match="unknown config key"):
            cli.resolve_config(Args())


class TestBadInput:
    """Bad lines end the run with exit code 1 and name file and line."""

    def test_short_feature_line(self, dataset, tmp_path, capsys):
        features = tmp_path / "f.csv"
        lines = dataset["features"].read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:3])
        features.write_text("\n".join(lines) + "\n")
        assert cli.main(["analyze", str(features), str(dataset["data"] / "prices.csv"),
                         "--out", str(tmp_path / "a")]) == 1
        assert f"{features}:4: expected 7 fields, got 3" in capsys.readouterr().err

    def test_bad_event_date(self, dataset, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text("date,label\n2015-01-05,ok\n2015-13-01,bad\n")
        assert cli.main(["features", str(dataset["occ"]), str(dataset["amo"]),
                         str(dataset["data"] / "prices.csv"), "--out", str(tmp_path / "f.csv"),
                         "--plot-data", str(tmp_path / "plot.csv"),
                         "--events", str(events)]) == 1
        assert f"{events}:3: bad date '2015-13-01'" in capsys.readouterr().err

    def test_non_finite_feature_value(self, dataset, tmp_path, capsys):
        features = tmp_path / "f.csv"
        lines = dataset["features"].read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:3] + ["nan"] + lines[5].split(",")[4:])
        features.write_text("\n".join(lines) + "\n")
        assert cli.main(["analyze", str(features), str(dataset["data"] / "prices.csv"),
                         "--out", str(tmp_path / "a")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {features}:6: non-finite field")
        assert sorted(os.listdir(tmp_path)) == ["f.csv"]

    def test_repeated_feature_day(self, dataset, tmp_path, capsys):
        features = tmp_path / "f.csv"
        lines = dataset["features"].read_text().splitlines()
        features.write_text("\n".join(lines[:4] + lines[3:]) + "\n")
        assert cli.main(["analyze", str(features), str(dataset["data"] / "prices.csv"),
                         "--out", str(tmp_path / "a")]) == 1
        day = lines[3].split(",")[0]
        assert capsys.readouterr().err == (
            f"error: {features}:5: date {day} not after {day}\n")

    def test_repeated_matrix_day(self, dataset, tmp_path, capsys):
        # the same day twice in both files: the error names the day, not later "missing" days
        paths = []
        for name in ("occ", "amo"):
            lines = dataset[name].read_text().splitlines()
            paths.append(tmp_path / f"{name}.txt")
            paths[-1].write_text("\n".join(lines[:3] + lines[2:]) + "\n")
        assert cli.main(["features", *map(str, paths), str(dataset["data"] / "prices.csv"),
                         "--out", str(tmp_path / "f.csv")]) == 1
        day = dataset["occ"].read_text().splitlines()[2].split()[0]
        assert capsys.readouterr().err == (
            f"error: {day}: occurrence file day not after {day}\n")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("line", ["window=abc", "gap_policy=sometimes"])
    def test_bad_config_value(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"# comment\n{line}\n")
        assert cli.main(["--config", str(cfg), "synth", "--out", str(tmp_path / "d"),
                         "--days", "3"]) == 1
        assert f"{cfg}:2: bad value for {line.split('=')[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("name", [
    "transactions", "prices", "occurrence", "amount", "features", "config", "events",
])
def test_undecodable_byte_in_any_input(dataset, tmp_path, capsys, name):
    """A byte that is not UTF-8 in any input: exit 1 naming file and line, nothing written."""
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    files = {
        "transactions": dataset["data"] / "transactions.csv",
        "prices": dataset["data"] / "prices.csv",
        "occurrence": dataset["occ"],
        "amount": dataset["amo"],
        "features": dataset["features"],
    }
    paths = {key: inputs / path.name for key, path in files.items()}
    for key, path in files.items():
        paths[key].write_bytes(path.read_bytes())
    paths["config"] = inputs / "cfg.txt"
    paths["config"].write_text("# settings\nthreshold=20\nseed=7\n")
    paths["events"] = inputs / "events.csv"
    paths["events"].write_text("date,label\n2015-01-05,start\n2015-01-09,halving\n")
    lines = paths[name].read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"0", b"\xff", 1) if b"0" in lines[2] else b"\xe9" + lines[2]
    paths[name].write_bytes(b"".join(lines))
    p = {key: str(path) for key, path in paths.items()}
    features_argv = ["features", p["occurrence"], p["amount"], p["prices"],
                     "--out", str(out / "f.csv"), "--plot-data", str(out / "plot.csv"),
                     "--events", p["events"]]
    argv = {
        "transactions": ["extract", p["transactions"],
                         "--out-occurrence", str(out / "o.txt"), "--out-amount", str(out / "a.txt")],
        "features": ["analyze", p["features"], p["prices"], "--out", str(out / "a")],
        "config": ["--config", p["config"], *features_argv],
    }.get(name, features_argv)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {paths[name]}:3: bytes that are not valid UTF-8\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [
    ["extract", "tx.csv", "--out-occurrence", "o", "--out-amount", "a", "--threshold", "1"],
    ["analyze", "f.csv", "p.csv", "--out", "a", "--alpha-tail", "0.7"],
    ["analyze", "f.csv", "p.csv", "--out", "a", "--alpha-tail", "0"],
    ["backtest", "f.csv", "p.csv", "--out", "b", "--refit-every", "0"],
    ["backtest", "f.csv", "p.csv", "--out", "b", "--refit-every", "-3"],
    ["backtest", "f.csv", "p.csv", "--out", "b", "--var-level", "0.7"],
    ["backtest", "f.csv", "p.csv", "--out", "b", "--var-level", "0"],
    ["backtest", "f.csv", "p.csv", "--out", "b", "--window", "49"],
    ["backtest", "f.csv", "p.csv", "--out", "b", "--restarts", "0"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_config_value_out_of_range(tmp_path, capsys, monkeypatch, argv):
    # the input files do not exist: the config is checked before any of them is read
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    key = argv[-2].lstrip("-").replace("-", "_")
    assert f"error: {key} must be " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


class TestTopLevelFlags:
    def test_top_level_seed_reaches_subcommand(self, tmp_path):
        out = tmp_path / "d"
        assert cli.main(["--seed", "5", "synth", "--out", str(out), "--days", "3"]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 5

    def test_subcommand_seed_wins(self, tmp_path):
        out = tmp_path / "d"
        assert cli.main(["--seed", "5", "synth", "--out", str(out), "--days", "3", "--seed", "9"]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 9

    def test_top_level_config_reaches_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=4\n")
        out = tmp_path / "d"
        assert cli.main(["--config", str(cfg), "synth", "--out", str(out), "--days", "3"]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 4


def test_import_does_not_load_scipy_signal():
    # the filter imports scipy.signal and the fit scipy.optimize where they
    # run, and scipy.stats is not used at all; every CLI stage pays for what
    # chainvol.cli imports
    code = ("import sys, chainvol.cli; "
            "print([m for m in ('scipy.signal', 'scipy.stats', 'scipy.optimize') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
