"""The flags of each subcommand: the PipelineConfig keys it reads and its own
arguments, nothing more, and every key it takes changes what it writes."""

import argparse
import json
import os
from dataclasses import fields

import pytest

from chainvol import cli
from chainvol.chainlets import read_feature_csv

# the PipelineConfig keys each subcommand reads
READS = {
    "extract": {"threshold"},
    "features": {"gap_policy"},
    "analyze": {"alpha_tail", "lag", "gap_policy"},
    "backtest": {"window", "refit_every", "var_level", "arma_p", "arma_q", "distribution",
                 "restarts", "lag", "gap_policy", "seed"},
    "synth": {"threshold", "seed"},
}
OWN_FLAGS = {
    "extract": {"--out-occurrence", "--out-amount"},
    "features": {"--out", "--plot-data", "--events"},
    "analyze": {"--out"},
    "backtest": {"--out", "--model", "--compare", "--horizon"},
    "synth": {"--out", "--days", "--txs-per-day", "--extreme-prob"},
}
CONFIG_FIELDS = {f.name for f in fields(cli.PipelineConfig)}


def subcommands() -> dict:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def optional_flags(parser) -> set:
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


@pytest.mark.parametrize("command", sorted(READS))
def test_subcommand_takes_the_keys_it_reads(command):
    keys = {"--" + key.replace("_", "-") for key in READS[command]}
    assert optional_flags(subcommands()[command]) == keys | OWN_FLAGS[command] | {"--config"}


def test_top_level_takes_no_options():
    assert optional_flags(cli.build_parser()) == set()


@pytest.mark.parametrize("argv", [
    ["analyze", "f.csv", "p.csv", "--out", "a", "--seed", "1"],
    ["extract", "tx.csv", "--out-occurrence", "o", "--out-amount", "a", "--gap-policy", "ffill"],
    ["--seed", "5", "synth", "--out", "s"],
], ids=["analyze-seed", "extract-gap-policy", "top-level-seed"])
def test_removed_forms_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_features_reads_n_from_the_matrix_files(tmp_path):
    # 2x2 matrices, with no flag that names N
    (tmp_path / "occ.txt").write_text("2015-01-01 1 2 0 3\n2015-01-02 0 0 1 1\n")
    (tmp_path / "amo.txt").write_text("2015-01-01 5 6 0 7\n2015-01-02 0 0 8 9\n")
    (tmp_path / "prices.csv").write_text("2015-01-01,100.0\n2015-01-02,200.0\n")
    inputs = [str(tmp_path / name) for name in ("occ.txt", "amo.txt", "prices.csv")]
    assert cli.main(["features", *inputs, "--out", str(tmp_path / "f.csv")]) == 0
    first, second = read_feature_csv(tmp_path / "f.csv")
    # the left set is the bottom row, the right set the right column without the corner
    assert (first.O_l, first.O_r, first.O_x, first.A_x) == (3, 2, 5 / 6, 13 / 18)
    assert first.A_l == 7 * 100.0 / 10**8 and first.A_r == 6 * 100.0 / 10**8
    assert (second.O_l, second.O_r, second.O_x, second.A_x) == (2, 0, 1.0, 1.0)


# --- every key a subcommand takes acts -------------------------------------

# a value off the base run's value of each key
MOVED = {"threshold": "3", "alpha_tail": "0.1", "var_level": "0.05", "window": "61",
         "refit_every": "8", "arma_p": "1", "arma_q": "1", "distribution": "t",
         "restarts": "3", "lag": "1", "gap_policy": "ffill", "seed": "1"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """90 synthetic days, their matrices and features, and their prices
    without the close of one day in the middle."""
    d = tmp_path_factory.mktemp("keys")
    assert cli.main(["synth", "--out", str(d), "--days", "90", "--txs-per-day", "40",
                     "--extreme-prob", "0.2", "--seed", "7"]) == 0
    assert cli.main(["extract", str(d / "transactions.csv"), "--out-occurrence",
                     str(d / "occ.txt"), "--out-amount", str(d / "amo.txt")]) == 0
    assert cli.main(["features", str(d / "occ.txt"), str(d / "amo.txt"), str(d / "prices.csv"),
                     "--out", str(d / "features.csv")]) == 0
    lines = (d / "prices.csv").read_text().splitlines(keepends=True)
    (d / "gap.csv").write_text("".join(lines[:45] + lines[46:]))
    return d


def base_argv(command, d, prices) -> list:
    """The base run of command, its outputs under the working directory."""
    return {
        "synth": ["synth", "--out", "out", "--days", "90", "--txs-per-day", "40",
                  "--extreme-prob", "0.2"],
        "extract": ["extract", str(d / "transactions.csv"),
                    "--out-occurrence", "occ.txt", "--out-amount", "amo.txt"],
        "features": ["features", str(d / "occ.txt"), str(d / "amo.txt"), prices,
                     "--out", "features.csv"],
        "analyze": ["analyze", str(d / "features.csv"), prices, "--out", "out"],
        "backtest": ["backtest", str(d / "features.csv"), prices, "--out", "out",
                     "--model", "garch", "--window", "60", "--distribution", "normal",
                     "--arma-p", "0", "--arma-q", "0", "--restarts", "2"],
    }[command]


def outputs(run_dir, argv, monkeypatch) -> tuple:
    """The exit code of a run in run_dir and the bytes of each file it
    writes, each JSON report without its config block."""
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    code = cli.main(argv)
    files = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            report = json.loads(data)
            report.pop("config", None)
            data = json.dumps(report).encode()
        files[str(path.relative_to(run_dir))] = data
    return code, files


@pytest.mark.parametrize("command, key", [
    (command, action.dest) for command, parser in subcommands().items()
    for action in parser._actions if action.dest in CONFIG_FIELDS
])
def test_every_key_changes_an_output(inputs, tmp_path, monkeypatch, command, key):
    # the prices miss a day only for gap_policy, on which every run but
    # the one under ffill fails
    prices = str(inputs / ("gap.csv" if key == "gap_policy" else "prices.csv"))
    argv = base_argv(command, inputs, prices)
    moved = [*argv, "--" + key.replace("_", "-"), MOVED[key]]
    base = outputs(tmp_path / "base", argv, monkeypatch)
    assert base[0] == (1 if key == "gap_policy" else 0)
    code, files = outputs(tmp_path / "moved", moved, monkeypatch)
    assert code == 0 and files != base[1]
