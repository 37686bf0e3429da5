import datetime as dt
import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from chainvol import backtest, cli, garchx, ingest
from chainvol.chainlets import read_feature_csv
from chainvol.errors import AlignmentError


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

    def test_missing_output_directory_fails_before_the_parse(self, tmp_path, capsys,
                                                              monkeypatch):
        def no_parse(*args, **kwargs):
            raise AssertionError("tx_blocks called")

        monkeypatch.setattr(cli.ingest, "tx_blocks", no_parse)
        tx = tmp_path / "tx.csv"
        tx.write_text("1420070400,1,1,10\n")
        out = tmp_path / "missing" / "o.txt"
        assert cli.main([
            "extract", str(tx), "--out-occurrence", str(out),
            "--out-amount", str(tmp_path / "a.txt"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"
        assert os.listdir(tmp_path) == ["tx.csv"]

    def test_directory_output_fails_before_the_parse(self, tmp_path, capsys, monkeypatch):
        def no_parse(*args, **kwargs):
            raise AssertionError("tx_blocks called")

        monkeypatch.setattr(cli.ingest, "tx_blocks", no_parse)
        tx = tmp_path / "tx.csv"
        tx.write_text("1420070400,1,1,10\n")
        out_amo = tmp_path / "adir"
        out_amo.mkdir()
        assert cli.main([
            "extract", str(tx), "--out-occurrence", str(tmp_path / "o.txt"),
            "--out-amount", str(out_amo),
        ]) == 1
        assert capsys.readouterr().err == f"error: {out_amo}: Is a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["adir", "tx.csv"]
        assert os.listdir(out_amo) == []

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


    @pytest.mark.parametrize("second", ["m.txt", "./m.txt", "sub/../m.txt"])
    def test_one_file_for_both_outputs_fails_before_any_write(self, tmp_path, capsys,
                                                              monkeypatch, second):
        # the amount file would replace the occurrence file, exit 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "tx.csv").write_text("1420070400,1,1,10\n")
        (tmp_path / "m.txt").write_text("old\n")
        assert cli.main([
            "extract", "tx.csv", "--out-occurrence", "m.txt", "--out-amount", second,
        ]) == 1
        assert capsys.readouterr().err == f"error: {second}: named for two outputs\n"
        assert (tmp_path / "m.txt").read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["m.txt", "sub", "tx.csv"]

    @pytest.mark.parametrize("name", ["tx.csv", "./tx.csv", "link.csv", "c.cfg"])
    @pytest.mark.parametrize("output", ["--out-occurrence", "--out-amount"])
    def test_output_named_for_an_input_fails_before_any_write(self, tmp_path, capsys,
                                                              monkeypatch, output, name):
        # the matrix file would replace the transactions or the config,
        # exit 0; link.csv is a symlink to the transactions
        monkeypatch.chdir(tmp_path)
        inputs = {"tx.csv": b"1420070400,1,1,10\n1420070400,2,1,10\n", "c.cfg": b"threshold=2\n"}
        for file, data in inputs.items():
            (tmp_path / file).write_bytes(data)
        (tmp_path / "link.csv").symlink_to("tx.csv")
        outputs = {"--out-occurrence": "occ.txt", "--out-amount": "amo.txt", output: name}
        assert cli.main(["extract", "tx.csv", *(a for kv in outputs.items() for a in kv),
                         "--config", "c.cfg"]) == 1
        assert capsys.readouterr().err == f"error: {name}: named for an input and an output\n"
        assert {file: (tmp_path / file).read_bytes() for file in inputs} == inputs
        assert sorted(os.listdir(tmp_path)) == sorted([*inputs, "link.csv"])


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

    def test_events_without_plot_data_fail_before_any_work(self, dataset, tmp_path, capsys):
        # the events only label plot-data rows; without --plot-data they would be ignored
        events = tmp_path / "events.csv"
        events.write_text("date,label\n2015-01-05,ok\n")
        assert cli.main(["features", str(dataset["occ"]), str(dataset["amo"]),
                         str(dataset["data"] / "prices.csv"), "--out", str(tmp_path / "f.csv"),
                         "--events", str(events)]) == 1
        assert "--events needs --plot-data" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["events.csv"]

    @pytest.mark.parametrize("second", ["same.csv", "./same.csv", "sub/../same.csv"])
    def test_one_file_for_both_outputs_fails_before_any_write(self, dataset, tmp_path, capsys,
                                                              monkeypatch, second):
        # the plot data would replace the feature CSV, exit 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "same.csv").write_text("old\n")
        assert cli.main(["features", str(dataset["occ"]), str(dataset["amo"]),
                         str(dataset["data"] / "prices.csv"), "--out", "same.csv",
                         "--plot-data", second]) == 1
        assert capsys.readouterr().err == f"error: {second}: named for two outputs\n"
        assert (tmp_path / "same.csv").read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["same.csv", "sub"]

    @pytest.mark.parametrize("name", ["occ.txt", "amo.txt", "prices.csv", "events.csv", "c.cfg",
                                      "./prices.csv", "link.csv"])
    @pytest.mark.parametrize("output", ["--out", "--plot-data"])
    def test_output_named_for_an_input_fails_before_any_write(self, dataset, tmp_path, capsys,
                                                              monkeypatch, output, name):
        # the feature CSV or the plot data would replace the input or the
        # config, exit 0; link.csv is a symlink to the prices
        monkeypatch.chdir(tmp_path)
        inputs = {"occ.txt": dataset["occ"].read_bytes(), "amo.txt": dataset["amo"].read_bytes(),
                  "prices.csv": (dataset["data"] / "prices.csv").read_bytes(),
                  "events.csv": b"date,label\n2015-01-05,halving\n", "c.cfg": b"gap_policy=error\n"}
        for file, data in inputs.items():
            (tmp_path / file).write_bytes(data)
        (tmp_path / "link.csv").symlink_to("prices.csv")
        outputs = {"--out": "f.csv", "--plot-data": "plot.csv", output: name}
        assert cli.main(["features", "occ.txt", "amo.txt", "prices.csv", "--events", "events.csv",
                         "--config", "c.cfg", *(a for kv in outputs.items() for a in kv)]) == 1
        assert capsys.readouterr().err == f"error: {name}: named for an input and an output\n"
        assert {file: (tmp_path / file).read_bytes() for file in inputs} == inputs
        assert sorted(os.listdir(tmp_path)) == sorted([*inputs, "link.csv"])

    def test_empty_matrices_write_both_headers(self, tmp_path, capsys, monkeypatch):
        # the two outputs are a pair, also when there is no day; the prices
        # are never read
        monkeypatch.chdir(tmp_path)
        for name in ("occ.txt", "amo.txt"):
            (tmp_path / name).write_text("# no days\n")
        assert cli.main(["features", "occ.txt", "amo.txt", "prices.csv", "--out", "f.csv",
                         "--plot-data", "plot.csv"]) == 0
        assert capsys.readouterr().err == "warning: empty matrix input\n"
        assert (tmp_path / "f.csv").read_text() == "date,A_l,A_r,A_x,O_l,O_r,O_x\n"
        assert (tmp_path / "plot.csv").read_text() == "day_index,O_x,label\n"

    def test_events_label_plot_rows(self, dataset, tmp_path):
        # the header may be in any case
        events = tmp_path / "events.csv"
        events.write_text("DATE,Label\n2015-01-05,halving\n")
        plot = tmp_path / "plot.csv"
        assert cli.main(["features", str(dataset["occ"]), str(dataset["amo"]),
                         str(dataset["data"] / "prices.csv"), "--out", str(tmp_path / "f.csv"),
                         "--plot-data", str(plot), "--events", str(events)]) == 0
        days = [row.date.isoformat() for row in read_feature_csv(tmp_path / "f.csv")]
        labels = [line.split(",")[2] for line in plot.read_text().splitlines()[1:]]
        assert labels == ["halving" if day == "2015-01-05" else "" for day in days]

    @pytest.mark.parametrize("text, message", [
        # the label would be two fields of the three-column plot data
        ("date,label\n2015-01-05,halving, part 2\n", "2: expected 2 fields, got 3"),
        # one of the two labels would be dropped
        ("date,label\n2015-01-07,fork\n2015-01-07,fork again\n",
         "3: duplicate date 2015-01-07"),
    ], ids=["comma", "duplicate"])
    def test_bad_events_line_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                   text, message):
        # the matrix and price files do not exist: the events are read first
        monkeypatch.chdir(tmp_path)
        (tmp_path / "events.csv").write_text(text)
        assert cli.main(["features", "occ.txt", "amo.txt", "prices.csv", "--out", "f.csv",
                         "--plot-data", "plot.csv", "--events", "events.csv"]) == 1
        assert capsys.readouterr().err == f"error: events.csv:{message}\n"
        assert os.listdir(tmp_path) == ["events.csv"]

    def test_one_file_for_occurrence_and_amount_fails(self, dataset, tmp_path, capsys):
        # the amounts read as counts would give silently wrong features
        occ = str(dataset["occ"])
        assert cli.main(["features", occ, occ, str(dataset["data"] / "prices.csv"),
                         "--out", str(tmp_path / "f.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {occ}: named for both the occurrence and the amount input\n")
        assert os.listdir(tmp_path) == []

    def test_missing_price_day_fails_with_date(self, dataset, tmp_path, capsys):
        prices = (dataset["data"] / "prices.csv").read_text().splitlines()
        clipped = tmp_path / "prices.csv"
        clipped.write_text("\n".join(prices[:5]) + "\n")  # drops later days
        assert cli.main([
            "features", str(dataset["occ"]), str(dataset["amo"]), str(clipped),
            "--out", str(tmp_path / "f.csv"),
        ]) == 1
        # every calendar day from the fifth on is missing; the message shows ten
        days = [line.split()[0] for line in dataset["occ"].read_text().splitlines()]
        assert prices[5].startswith(days[4] + ",")
        assert capsys.readouterr().err == (
            f"error: {clipped}: price series missing calendar day "
            f"(missing: {', '.join(days[4:14])})\n")
        # the calendar of the features stage: the matrix days
        calendar = ingest.DailyCalendar(dt.date.fromisoformat(days[0]),
                                        dt.date.fromisoformat(days[-1]))
        assert [str(d) for d in calendar.days()] == days
        with pytest.raises(AlignmentError) as exc:
            ingest.load_prices(clipped, calendar)
        assert [str(d) for d in exc.value.missing_dates] == days[4:]


@pytest.mark.parametrize("stage", ["features", "analyze", "backtest"])
def test_price_gap_names_the_price_file(dataset, tmp_path, capsys, stage):
    lines = (dataset["data"] / "prices.csv").read_text().splitlines()
    assert lines[4].startswith("2015-01-04,")
    prices = tmp_path / "p_gap.csv"
    prices.write_text("\n".join(lines[:4] + lines[5:]) + "\n")
    out = tmp_path / "out"
    inputs = {"features": [str(dataset["occ"]), str(dataset["amo"])]}.get(
        stage, [str(dataset["features"])])
    assert cli.main([stage, *inputs, str(prices), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {prices}: price series missing calendar day (missing: 2015-01-04)\n")
    assert sorted(os.listdir(tmp_path)) == ["p_gap.csv"]


@pytest.mark.parametrize("short", ["amount", "occurrence"])
def test_short_matrix_file_is_named(dataset, tmp_path, capsys, short):
    paths = {}
    for name, key in (("occurrence", "occ"), ("amount", "amo")):
        lines = dataset[key].read_text().splitlines()
        paths[name] = tmp_path / f"{key}.txt"
        # the short file lacks its fifth day
        paths[name].write_text("\n".join(lines[:4] + lines[5:] if name == short else lines) + "\n")
    day = dataset["occ"].read_text().splitlines()[4].split()[0]
    other = "occurrence" if short == "amount" else "amount"
    assert cli.main(["features", str(paths["occurrence"]), str(paths["amount"]),
                     str(dataset["data"] / "prices.csv"), "--out", str(tmp_path / "f.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {paths[short]}: {short} file does not cover all {other} days "
        f"(missing: {day})\n")
    assert not (tmp_path / "f.csv").exists()


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
                "--out", str(out),
            ]) == 0
            outs.append((out / "ols_report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_failed_run_keeps_old_reports(self, dataset, tmp_path, capsys):
        # 40 days leave 2 observations in a 5 % tail: the moments fail after
        # the OLS report is made, and no report of an earlier run changes
        features = tmp_path / "f.csv"
        lines = dataset["features"].read_text().splitlines(keepends=True)
        features.write_text("".join(lines[:41]))
        out = tmp_path / "analysis"
        out.mkdir()
        old = {name: f"old {name}\n" for name in (
            "ols_report.json", "conditional_moments.json", "density_A_x.csv", "density_O_x.csv")}
        for name, text in old.items():
            (out / name).write_text(text)
        assert cli.main([
            "analyze", str(features), str(dataset["data"] / "prices.csv"), "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: {features}: the lower tail of A_x at alpha_tail 0.05: "
            "only 2 observations in the lower tail subsample\n")
        assert {p.name: p.read_text() for p in out.iterdir()} == old

    @pytest.mark.parametrize("extreme_prob, message", [
        # no extreme transactions: every A and O feature is 0 on every day
        ("0", "A_l is constant over the 120 aligned days"),
        # A_x is 0 on 98 of the 120 days, so no day lies below its 5 % quantile
        ("0.005", "the lower tail of A_x at alpha_tail 0.05: "
                  "only 0 observations in the lower tail subsample"),
    ])
    def test_sparse_extreme_activity_names_feature_and_file(self, tmp_path, capsys,
                                                            extreme_prob, message):
        data = tmp_path / "data"
        occ, amo, features = tmp_path / "occ.txt", tmp_path / "amo.txt", tmp_path / "f.csv"
        for argv in (
            ["synth", "--out", str(data), "--days", "120", "--txs-per-day", "30",
             "--extreme-prob", extreme_prob, "--seed", "3"],
            ["extract", str(data / "transactions.csv"),
             "--out-occurrence", str(occ), "--out-amount", str(amo)],
            ["features", str(occ), str(amo), str(data / "prices.csv"), "--out", str(features)],
        ):
            assert cli.main(argv) == 0
        capsys.readouterr()
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(features), str(data / "prices.csv"),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {features}: {message}\n"
        assert list(out.iterdir()) == []

    def test_constant_squared_return_names_the_price_file(self, dataset, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        dates = [line.split(",")[0] for line in dataset["features"].read_text().splitlines()[1:]]
        last = dt.date.fromisoformat(dates[-1]) + dt.timedelta(days=1)
        prices.write_text("date,close\n" + "".join(
            f"{d},250.0\n" for d in dates + [last.isoformat()]))
        out = tmp_path / "analysis"
        assert cli.main(["analyze", str(dataset["features"]), str(prices),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {prices}: the squared return is constant over the {len(dates)} aligned days\n")
        assert list(out.iterdir()) == []

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
            with open(fpath, "w") as fh:
                write_feature_csv(fh, rows)
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

    @pytest.mark.parametrize("flags,message", [
        (["--horizon", "30"], "--horizon needs --compare"),
        (["--compare", "--model", "garch"], "--model and --compare exclude each other"),
        (["--compare", "--model", "garchx"], "--model and --compare exclude each other"),
    ], ids=["horizon-without-compare", "model-garch-with-compare", "model-garchx-with-compare"])
    def test_ignored_flag_fails_before_any_fit(self, dataset, tmp_path, capsys, monkeypatch,
                                               flags, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")

        monkeypatch.setattr(garchx, "fit", no_fit)
        monkeypatch.setattr(backtest, "fit", no_fit)
        assert cli.main([
            "backtest", str(dataset["features"]), str(dataset["data"] / "prices.csv"),
            "--out", str(tmp_path / "bt"), *flags,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "bt").exists()

    def test_failed_run_keeps_old_reports(self, dataset, tmp_path, capsys):
        # the report path is a directory, found after both series are made:
        # no file of an earlier run changes
        out = tmp_path / "bt"
        (out / "backtest_report.json").mkdir(parents=True)
        old = {f"var_series_{model}.csv": f"old {model}\n" for model in ("garch", "garchx")}
        for name, text in old.items():
            (out / name).write_text(text)
        assert cli.main([
            "backtest", str(dataset["features"]), str(dataset["data"] / "prices.csv"),
            "--out", str(out), "--compare", "--window", "60", "--refit-every", "20",
            "--restarts", "1", "--arma-p", "0", "--arma-q", "0", "--distribution", "normal",
            "--horizon", "10",
        ]) == 1
        assert capsys.readouterr().err == f"error: {out / 'backtest_report.json'}: Is a directory\n"
        assert {p.name: p.read_text() for p in out.iterdir() if p.is_file()} == old
        assert sorted(os.listdir(out)) == ["backtest_report.json", *sorted(old)]
        assert os.listdir(out / "backtest_report.json") == []

    def test_overflowing_regressor_names_file_and_day(self, dataset, tmp_path, capsys):
        # A_x = 1e308 on the last of 80 days overflows in the refit's
        # standardization, so the filter state of that day's forecast is not
        # finite: one error line that names the feature file and the day, no
        # numpy warning and no report
        lines = dataset["features"].read_text().splitlines()[:81]
        day, *values = lines[-1].split(",")
        assert day == "2015-03-21" and lines[0].split(",")[3] == "A_x"
        values[2] = "1e308"
        features = tmp_path / "features.csv"
        features.write_text("\n".join(lines[:-1] + [",".join([day, *values])]) + "\n")
        out = tmp_path / "bt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["backtest", str(features), str(dataset["data"] / "prices.csv"),
                             "--out", str(out), "--window", "60"]) == 1
        assert capsys.readouterr().err == (
            f"error: {features}: non-finite filter state in the forecast of 2015-03-21\n")
        assert os.listdir(out) == []

    def test_regressor_overflowing_in_a_refit_names_feature_and_window(self, dataset, tmp_path,
                                                                       capsys):
        # A_x = 1e308 on 2015-03-01, inside the first refit window of 60 days
        # (2015-01-01..2015-03-01): its square overflows in the refit's
        # standardization, which used to warn, take A_x for constant and exit 0
        lines = dataset["features"].read_text().splitlines()[:81]
        k = next(i for i, line in enumerate(lines) if line.startswith("2015-03-01,"))
        values = lines[k].split(",")
        values[3] = "1e308"
        lines[k] = ",".join(values)
        features = tmp_path / "features.csv"
        features.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["backtest", str(features), str(dataset["data"] / "prices.csv"),
                             "--out", str(out), "--window", "60"]) == 1
        assert capsys.readouterr().err == (
            f"error: {features}: A_x overflows in the standardization of the fit window "
            "2015-01-01..2015-03-01\n")
        assert os.listdir(out) == []

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

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        # the second value would silently win
        cfg = tmp_path / "cfg"
        cfg.write_text("window=300\nwindow=100\n")
        assert cli.main(["synth", "--out", str(tmp_path / "d"), "--days", "3",
                         "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: duplicate config key 'window'\n"
        assert os.listdir(tmp_path) == ["cfg"]

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

    def test_count_outside_int64_names_line(self, dataset, tmp_path, capsys):
        features = tmp_path / "f.csv"
        lines = dataset["features"].read_text().splitlines()
        parts = lines[5].split(",")
        parts[4] = str(10**400)  # O_l
        lines[5] = ",".join(parts)
        features.write_text("\n".join(lines) + "\n")
        assert cli.main(["analyze", str(features), str(dataset["data"] / "prices.csv"),
                         "--out", str(tmp_path / "a")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {features}:6: count out of int64 range")
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
            f"error: {paths[0]}:4: date {day} not after {day}\n")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("head", ["", "# amounts\n\n  \n# of 2015\n"],
                             ids=["plain", "comments"])
    def test_amount_in_empty_cell_names_line(self, dataset, tmp_path, capsys, head):
        # an amount in a cell without occurrences on the fifth day; comment
        # and blank lines before the days move the day's line
        occ_lines = dataset["occ"].read_text().splitlines()
        amo_lines = dataset["amo"].read_text().splitlines()
        day, *counts = occ_lines[4].split()
        cell = counts.index("0")
        amounts = amo_lines[4].split()
        amounts[1 + cell] = "5"
        amo_lines[4] = " ".join(amounts)
        amo = tmp_path / "amo.txt"
        amo.write_text(head + "\n".join(amo_lines) + "\n")
        out = tmp_path / "f.csv"
        assert cli.main(["features", str(dataset["occ"]), str(amo),
                         str(dataset["data"] / "prices.csv"), "--out", str(out)]) == 1
        line = head.count("\n") + 5
        assert capsys.readouterr().err == (
            f"error: {amo}:{line}: {day}: amount recorded in a cell with zero occurrences\n")
        assert not out.exists()

    @pytest.mark.parametrize("line", ["window=abc", "gap_policy=sometimes"])
    def test_bad_config_value(self, tmp_path, capsys, line):
        # a value that is not of its key's type, and one outside its key's choices
        message = {
            "window=abc": "bad value for window: 'abc'",
            "gap_policy=sometimes": "gap_policy must be one of error, ffill, got 'sometimes'",
        }[line]
        cfg = tmp_path / "cfg"
        cfg.write_text(f"# comment\n{line}\n")
        assert cli.main(["synth", "--out", str(tmp_path / "d"), "--days", "3",
                         "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"


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
        "config": [*features_argv, "--config", p["config"]],
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


@pytest.mark.parametrize("key, argv", [
    ("seed", ["--seed", "-1", "synth", "--out", "s"]),
    ("seed", ["synth", "--out", "s", "--seed", "-1"]),
    ("seed", ["--seed", "-1", "backtest", "f.csv", "p.csv", "--out", "b"]),
    ("seed", ["--config", "../seed.cfg", "backtest", "f.csv", "p.csv", "--out", "b"]),
    ("days", ["synth", "--out", "s", "--days", "0"]),
    ("extreme_prob", ["synth", "--out", "s", "--extreme-prob", "2"]),
    ("extreme_prob", ["synth", "--out", "s", "--extreme-prob", "nan"]),
    ("txs_per_day", ["synth", "--out", "s", "--txs-per-day", "-1"]),
    ("txs_per_day", ["synth", "--out", "s", "--txs-per-day", "inf"]),
    ("txs_per_day", ["synth", "--out", "s", "--txs-per-day", "nan"]),
    ("arma_p", ["backtest", "f.csv", "p.csv", "--out", "b", "--arma-p", "-1"]),
    ("arma_p", ["--config", "../arma_p.cfg", "backtest", "f.csv", "p.csv", "--out", "b"]),
    ("arma_q", ["backtest", "f.csv", "p.csv", "--out", "b", "--arma-q", "-1"]),
    ("arma_q", ["--config", "../arma_q.cfg", "backtest", "f.csv", "p.csv", "--out", "b"]),
    # the --distribution flag has argparse choices; only a config line gets here
    ("distribution", ["--config", "../distribution.cfg", "backtest", "f.csv", "p.csv",
                      "--out", "b"]),
    ("lag", ["backtest", "f.csv", "p.csv", "--out", "b", "--lag", "-2"]),
    ("lag", ["analyze", "f.csv", "p.csv", "--out", "a", "--lag", "-1"]),
    ("lag", ["--config", "../lag.cfg", "analyze", "f.csv", "p.csv", "--out", "a"]),
    # the window must hold max(arma_p, arma_q) + 2 days for filter_model
    ("window", ["backtest", "f.csv", "p.csv", "--out", "b", "--arma-p", "300",
                "--window", "250"]),
    ("window", ["--config", "../arma_order.cfg", "backtest", "f.csv", "p.csv", "--out", "b"]),
], ids=lambda v: v if isinstance(v, str) else "_".join(v))
def test_bad_seed_or_synth_value(tmp_path, capsys, monkeypatch, key, argv):
    # one error line and nothing written, neither --out nor anything in it.
    # A case that starts with --config or --seed runs with that option after
    # the subcommand, which is where a subcommand takes it
    where = ""
    if argv[0].startswith("--"):
        # a value from a config file is named by its file and line
        where = f"{argv[1]}:1: " if argv[0] == "--config" else ""
        argv = argv[2:] + argv[:2]
    for name, value in (("seed", "-2"), ("arma_p", "-1"), ("arma_q", "-3"),
                        ("distribution", "cauchy"), ("lag", "-2")):
        (tmp_path / f"{name}.cfg").write_text(f"{name} = {value}\n")
    (tmp_path / "arma_order.cfg").write_text("window = 100\narma_q = 99\n")
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}{key} must be ") and err.count("\n") == 1
    assert os.listdir(run) == []


OUT_OF_RANGE_LINES = [
    ("threshold=1", "threshold must be >= 2, got 1"),
    ("alpha_tail=0.5", "alpha_tail must be in (0, 0.5), got 0.5"),
    ("var_level=0", "var_level must be in (0, 0.5), got 0.0"),
    ("window=10", "window must be >= 50, got 10"),
    ("refit_every=0", "refit_every must be >= 1, got 0"),
    ("arma_p=-1", "arma_p must be >= 0, got -1"),
    ("arma_q=-1", "arma_q must be >= 0, got -1"),
    ("distribution=skew", "distribution must be one of normal, t, skewt, got 'skew'"),
    ("restarts=0", "restarts must be >= 1, got 0"),
    ("lag=-1", "lag must be >= 0, got -1"),
    ("seed=-1", "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("line, message", OUT_OF_RANGE_LINES,
                         ids=[line.split("=")[0] for line, _ in OUT_OF_RANGE_LINES])
def test_config_file_value_out_of_range_names_file_and_line(tmp_path, capsys, monkeypatch,
                                                            line, message):
    # the input files do not exist: the config is checked before any of them is read
    monkeypatch.chdir(tmp_path)
    # a valid line of another key first: a key given twice is an error of its own
    other = "seed=7" if line.startswith("threshold=") else "threshold=20"
    (tmp_path / "bad.cfg").write_text(f"# settings\n{other}\n{line}\n")
    assert cli.main(["backtest", "f.csv", "p.csv", "--out", "b", "--config", "bad.cfg"]) == 1
    assert capsys.readouterr().err == f"error: bad.cfg:3: {message}\n"
    assert os.listdir(tmp_path) == ["bad.cfg"]


def test_flag_over_a_config_value_is_not_named_by_the_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("window=10\n")
    assert cli.main(["backtest", "f.csv", "p.csv", "--out", "b", "--config", "bad.cfg",
                     "--window", "20"]) == 1
    assert capsys.readouterr().err == "error: window must be >= 50, got 20\n"


@pytest.mark.parametrize("form", ["flag", "config"])
def test_lag_pairs_returns_with_earlier_features(dataset, tmp_path, form):
    features, prices = dataset["features"], dataset["data"] / "prices.csv"
    cfg = tmp_path / "lag.cfg"
    cfg.write_text("lag = 1\n")
    analyze = ["analyze", str(features), str(prices), "--out", str(tmp_path / "a")]
    argv = [*analyze, "--lag", "1"] if form == "flag" else [*analyze, "--config", str(cfg)]
    config = cli.resolve_config(cli.build_parser().parse_args(argv))
    assert config.lag == 1
    dates0, _, r0 = cli._aligned_features_returns(features, prices, cli.PipelineConfig())
    dates1, X1, r1 = cli._aligned_features_returns(features, prices, config)
    # the first return has no features of the day before
    assert len(dates1) == len(dates0) - 1
    assert dates1 == dates0[1:]
    values = {row.date: row.values() for row in read_feature_csv(features)}
    for day, x, r in zip(dates1, X1, r1):
        assert tuple(x) == values[day - dt.timedelta(days=1)]
    np.testing.assert_array_equal(r1, r0[1:])


def test_import_does_not_load_scipy_signal(dataset, tmp_path):
    # chainvol loads each scipy kernel it calls from its extension file
    # (chainvol.kernels) and does not use scipy.stats; so importing
    # chainvol.cli, extract and features load no scipy, and analyze and
    # backtest load scipy.special._ufuncs but not the scipy.special package,
    # whose __init__ loads scipy._lib.array_api_compat and numpy.f2py, and
    # backtest loads neither the scipy.signal nor the scipy.optimize package,
    # no module of scipy.optimize but the L-BFGS-B kernel, and no scipy.stats
    code = textwrap.dedent("""
        import sys, chainvol.cli
        def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
        def packages():
            assert 'scipy.special._ufuncs' in sys.modules
            return [m for m in sys.modules if m in ('scipy.special', 'scipy.signal', 'scipy.stats')
                    or m.startswith(('scipy._lib.array_api_compat', 'numpy.f2py'))
                    or m.split('.')[:2] == ['scipy', 'optimize'] and m != 'scipy.optimize._lbfgsb']
        print(scipy())
        tx, occ, amo, prices, out, an, bt = sys.argv[1:]
        main = chainvol.cli.main
        assert main(['extract', tx, '--out-occurrence', occ, '--out-amount', amo]) == 0
        assert main(['features', occ, amo, prices, '--out', out]) == 0
        print(scipy())
        assert main(['analyze', out, prices, '--out', an]) == 0
        print(packages())
        assert main(['backtest', out, prices, '--out', bt, '--window', '60',
                     '--refit-every', '20', '--restarts', '1']) == 0
        print(packages())
        assert 'scipy.optimize._lbfgsb' in sys.modules
    """)
    data = dataset["data"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code, str(data / "transactions.csv"), str(tmp_path / "occ.txt"),
         str(tmp_path / "amo.txt"), str(data / "prices.csv"), str(tmp_path / "f.csv"),
         str(tmp_path / "an"), str(tmp_path / "bt")],
        capture_output=True, text=True, env=env, check=True)
    # the four module lists, between the stages' own messages
    assert [line for line in out.stdout.splitlines() if line.startswith("[")] == ["[]"] * 4
    assert (tmp_path / "f.csv").read_bytes() == dataset["features"].read_bytes()
    assert (tmp_path / "an" / "ols_report.json").exists()
    assert (tmp_path / "bt" / "backtest_report.json").exists()


def test_later_scipy_special_import_matches_a_fresh_process(dataset, tmp_path):
    # after a backtest has loaded the ufunc kernel, `from scipy import
    # special` exports the same ufuncs, and its errstate warns and raises as
    # in a process that never ran chainvol
    code = textwrap.dedent("""
        import sys, warnings
        if len(sys.argv) > 1:
            import chainvol.cli
            from chainvol import kernels
            features, prices, bt = sys.argv[1:]
            assert chainvol.cli.main(['backtest', features, prices, '--out', bt, '--window', '60',
                                      '--refit-every', '20', '--restarts', '1']) == 0
            assert 'scipy.special' not in sys.modules
        from scipy import special
        if len(sys.argv) > 1:
            names = ['chdtrc', 'ndtr', 'ndtri', 'expit', 'poch', 'beta', 'stdtr', 'stdtrit']
            assert all(getattr(special, n) is getattr(kernels.special(), n) for n in names)
        with special.errstate(all='warn'), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter('always')
            special.gammaln(0.0)
            special.ndtri(2.0)
        print([(w.category.__name__, str(w.message)) for w in caught])
        with special.errstate(all='raise'):
            for f, args in ((special.stdtrit, (5.0, 2.0)), (special.beta, (0.0, 0.5))):
                try:
                    f(*args)
                    print('no error')
                except special.SpecialFunctionError as exc:
                    print(repr(exc))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def run(*argv):
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=env, check=True).stdout.splitlines()

    after = run(str(dataset["features"]), str(dataset["data"] / "prices.csv"), str(tmp_path / "bt"))
    fresh = run()
    assert after[-3:] == fresh
    assert fresh[0].count("SpecialFunctionWarning") == 2
    assert all(line.startswith("SpecialFunctionError(") for line in fresh[1:])


def test_extract_runs_under_cprofile(dataset, tmp_path):
    # the way to profile a stage: the same matrix files as the plain run
    occ, amo = tmp_path / "occ.txt", tmp_path / "amo.txt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "extract.prof"),
         "-m", "chainvol.cli", "extract", str(dataset["data"] / "transactions.csv"),
         "--out-occurrence", str(occ), "--out-amount", str(amo)],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert occ.read_bytes() == dataset["occ"].read_bytes()
    assert amo.read_bytes() == dataset["amo"].read_bytes()
    assert (tmp_path / "extract.prof").stat().st_size > 0
