"""The README dataset's backtest reports at recorded fitted parameters.

``data/readme_backtest_loop_filter.json`` was recorded with the filter as a
per-day loop and the skew-t density through ``scipy.stats.t``, before both
were replaced by linear filters and a closed form. It holds every fitted
parameter set of ``backtest --compare --window 250 --refit-every 40
--distribution skewt --arma-p 2 --arma-q 2 --restarts 1`` on the README
dataset (``synth --days 330 --txs-per-day 80 --extreme-prob 0.2 --seed 7``),
in call order, and the reports that backtest wrote.

The test replays those parameter sets in place of the optimizer, so it pins
everything from the filter to the coverage tests. The fitted parameters
themselves are not pinned: L-BFGS-B on finite-difference gradients ends at
points that move with last-bit changes of the likelihood.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from chainvol import backtest, cli
from chainvol.garchx import ArmaGarchXParams, FitResult

RECORDED = Path(__file__).parent / "data" / "readme_backtest_loop_filter.json"

# stated tolerances at the recorded parameters
VAR_RTOL = 1e-12
DM_RTOL = 1e-12


@pytest.fixture(scope="module")
def readme_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("readme")
    data = root / "data"
    assert cli.main(["synth", "--out", str(data), "--days", "330", "--txs-per-day", "80",
                     "--extreme-prob", "0.2", "--seed", "7"]) == 0
    assert cli.main(["extract", str(data / "transactions.csv"),
                     "--out-occurrence", str(root / "occ.txt"),
                     "--out-amount", str(root / "amo.txt")]) == 0
    assert cli.main(["features", str(root / "occ.txt"), str(root / "amo.txt"),
                     str(data / "prices.csv"), "--out", str(root / "features.csv")]) == 0
    return root


def test_reports_at_recorded_parameters(readme_dataset, monkeypatch):
    recorded = json.loads(RECORDED.read_text())
    fits = iter(recorded["fits"])

    def replay_fit(y, x, spec, config):
        rec = next(fits)
        assert rec["spec"] == {"p": spec.p, "q": spec.q, "k": spec.k,
                               "distribution": spec.distribution}
        return FitResult(
            spec=spec, params=ArmaGarchXParams.from_dict(rec["params"]),
            loglik=rec["loglik"], converged=True, iterations=0,
            x_mean=np.array(rec["x_mean"]), x_std=np.array(rec["x_std"]),
        )

    monkeypatch.setattr(backtest, "fit", replay_fit)
    out = readme_dataset / "bt"
    assert cli.main(["backtest", str(readme_dataset / "features.csv"),
                     str(readme_dataset / "data" / "prices.csv"), "--out", str(out),
                     *recorded["backtest_args"]]) == 0
    assert next(fits, None) is None

    report = json.loads((out / "backtest_report.json").read_text())
    for model, want in recorded["var_series"].items():
        with open(out / f"var_series_{model}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["date"] for r in rows] == want["date"]
        assert [int(r["breach"]) for r in rows] == want["breach"]
        np.testing.assert_allclose([float(r["var"]) for r in rows], want["var"], rtol=VAR_RTOL)
        # Kupiec and Christoffersen statistics depend on the breach flags only
        assert report["models"][model] == recorded["models"][model]
    got_dm, want_dm = report["diebold_mariano"], recorded["diebold_mariano"]
    assert got_dm["n"] == want_dm["n"]
    assert got_dm["statistic"] == pytest.approx(want_dm["statistic"], rel=DM_RTOL)
    assert got_dm["p_value"] == pytest.approx(want_dm["p_value"], rel=DM_RTOL)
