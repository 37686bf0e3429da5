"""The benchmark's references agree with chainvol on a tiny input, and each
check rejects a deliberately corrupted output.

    PYTHONPATH=src python3 -m pytest pipebench -q
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os
import sys

import numpy as np
import pytest

import reference as ref
import run
import spans
import workloads as wl

sys.path.insert(0, run.SRC)

from chainvol import backtest, chainlets, cli, garchx, ingest  # noqa: E402

TINY = wl.Workload(
    name="tiny", days=90, txs_per_day=30.0, extreme_prob=0.2, coinbase_rows=2, comment_rows=2,
    fixed_draw_seed=None, price_file=None,
    backtest_args=("--compare", "--distribution", "skewt", "--arma-p", "1", "--arma-q", "1",
                   "--window", "60", "--refit-every", "15", "--restarts", "1"),
    stage_calls=(1, 1, 1, 1),
)


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """The tiny workload run through every stage in this process, traced."""
    c = run.Case(TINY, seed=3, directory=str(tmp_path_factory.mktemp("tiny")))
    c.setup()
    c.prepare_references()
    tracer = spans.Tracer()
    tracer.install()
    c.stdout = {}
    try:
        for stage in run.STAGES:
            rc, c.stdout[stage] = tracer.run_span(spans.STAGE_PREFIX + stage, run.run_inprocess,
                                                  cli, c.argv(stage), [])
            assert rc == 0, stage
    finally:
        tracer.uninstall()
    c.tracer = tracer
    return c


def test_every_stage_passes_its_checks(case):
    tally = run.Tally()
    for stage in run.STAGES:
        ok, failed = case.check_call(tally, stage, 0, case.stdout[stage])
        assert ok, stage
    assert tally.correct
    assert failed is not None


def test_fits_and_var_match_the_reference(case):
    tally = run.Tally()
    run.check_fits_and_var(case.tracer, tally)
    assert tally.correct
    assert len(case.tracer.bound_calls("garchx.fit")) == 2 * 2


def test_tracer_restores_the_program_functions(case):
    assert garchx.neg_log_likelihood.__module__ == "chainvol.garchx"
    assert backtest.fit is garchx.fit
    assert cli.bt.rolling_backtest is backtest.rolling_backtest
    stages = spans.SpanSummary(case.tracer.spans).stages()
    assert set(stages) == set(run.STAGES)
    for st in stages.values():
        assert st["unattributed_s"] >= 0
        assert sum(st["layers_self_s"].values()) + st["unattributed_s"] == pytest.approx(
            st["duration_s"])


# --- each reference agrees with the program ----------------------------------

def test_matrices_match_build_matrix(case):
    calendar = ingest.DailyCalendar(dt.date(2009, 1, 3), dt.date(2100, 1, 1))
    loaded = ingest.load_transactions(case.inputs.transactions, calendar)
    m = ref.Matrices(ref.read_transactions(case.inputs.transactions), wl.THRESHOLD)
    assert [d.isoformat() for d, _ in loaded.days] == m.dates
    assert (sum(len(txs) for _, txs in loaded.days), loaded.skipped_coinbase) == (m.n_tx, m.n_coinbase)
    for k, (day, txs) in enumerate(loaded.days):
        got = chainlets.build_matrix(day, txs, wl.THRESHOLD)
        assert np.array_equal(got.occurrence, m.occurrence[k])
        assert np.array_equal(got.amount, m.amount[k])


@pytest.mark.parametrize("nu,xi", [(3.5, 1.0), (6.0, 1.3), (12.0, 0.7)])
def test_innovation_law_matches_skewt(nu, xi):
    z = np.linspace(-6, 6, 41)
    params = garchx.ArmaGarchXParams(nu=nu, xi=xi)
    for dist in garchx.DISTRIBUTIONS:
        spec = garchx.ModelSpec(distribution=dist)
        np.testing.assert_allclose(ref.innovation_logpdf(z, dist, nu, xi),
                                   garchx.innovation_logpdf(z, params, spec), rtol=1e-12)
        for level in (0.01, 0.05, 0.4, 0.6):
            assert ref.innovation_quantile(level, dist, nu, xi) == pytest.approx(
                backtest.innovation_quantile(params, spec, level), rel=1e-12)


@pytest.mark.parametrize("dist", garchx.DISTRIBUTIONS)
def test_loglik_matches_neg_log_likelihood(dist):
    rng = np.random.default_rng(5)
    y = rng.normal(scale=0.03, size=120)
    x = rng.normal(size=(2, 120))
    spec = garchx.ModelSpec(p=2, q=2, k=2, distribution=dist)
    params = garchx.ArmaGarchXParams(
        mu=1e-3, phi=[0.3, -0.1], theta=[0.4, 0.2], alpha0=2e-5, alpha1=0.1, beta=0.85,
        beta_x=[1e-5, -2e-5], nu=6.0, xi=1.2)
    want = -garchx.neg_log_likelihood(y, x, params, spec)
    assert ref.loglik(y, x, params.to_dict(), dist) == pytest.approx(want, rel=1e-12)


def test_coverage_statistics_match_backtest_report():
    rng = np.random.default_rng(1)
    b = (rng.uniform(size=250) < 0.03).astype(int)
    b[10:12] = 1
    got = backtest.backtest_report(b.size, int(b.sum()), 0.01, b)
    want = ref.coverage_statistics(b, 0.01)
    for key, value in (("lr_uc", got.lr_uc), ("lr_uc_p", got.lr_uc_p), ("lr_ind", got.lr_ind),
                       ("lr_cc", got.lr_cc), ("lr_cc_p", got.lr_cc_p)):
        assert value == pytest.approx(want[key], rel=1e-9)


def test_dm_p_value_matches_diebold_mariano():
    rng = np.random.default_rng(2)
    dm = backtest.diebold_mariano(rng.normal(size=30), 1.2 * rng.normal(size=30))
    ref.check_dm(dm.to_dict(), 30)
    assert ref.chi2_sf_1(3.841) == pytest.approx(0.05, abs=1e-4)
    assert ref.chi2_sf_2(5.991) == pytest.approx(0.05, abs=1e-4)


def test_ma_inverse_root_modulus():
    assert ref.ma_inverse_root_modulus([]) == 0.0
    assert ref.ma_inverse_root_modulus([0.5]) == pytest.approx(0.5)
    assert ref.ma_inverse_root_modulus([0.0, -1.0 / 1.027 ** 2]) == pytest.approx(1 / 1.027)
    assert ref.ma_inverse_root_modulus([2.0, 1.5]) > 1.0


# --- each check rejects a corrupted output -----------------------------------

def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))
    return text


def _restore(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def test_one_changed_matrix_cell_is_rejected(case):
    path = case.path("amo.txt")

    def bump_one_cell(text):
        lines = text.splitlines()
        tokens = lines[5].split()
        tokens[7] = str(int(tokens[7]) + 1)
        lines[5] = " ".join(tokens)
        return "\n".join(lines) + "\n"

    original = _rewrite(path, bump_one_cell)
    try:
        with pytest.raises(ref.CheckFailed, match="cell"):
            ref.check_extract(case.matrices, case.path("occ.txt"), path, case.stdout["extract"])
    finally:
        _restore(path, original)


def test_wrong_transaction_count_is_rejected(case):
    stdout = case.stdout["extract"].replace(" transactions", "1 transactions")
    with pytest.raises(ref.CheckFailed, match="summary"):
        ref.check_extract(case.matrices, case.path("occ.txt"), case.path("amo.txt"), stdout)


def test_one_changed_feature_is_rejected(case):
    path = case.path("features.csv")

    def nudge(text):
        lines = text.splitlines()
        cols = lines[3].split(",")
        cols[3] = repr(float(cols[3]) * (1 + 1e-9))
        lines[3] = ",".join(cols)
        return "\n".join(lines) + "\n"

    original = _rewrite(path, nudge)
    try:
        with pytest.raises(ref.CheckFailed):
            ref.check_features(path, case.matrices, case.closes)
    finally:
        _restore(path, original)


def test_changed_analysis_is_rejected(case):
    ols = run.load_json(case.path("analysis", "ols_report.json"))
    ols["coefficients"][2]["estimate"] *= 1.001
    with pytest.raises(ref.CheckFailed, match="OLS"):
        ref.check_ols(ols, case.X, case.r)
    moments = run.load_json(case.path("analysis", "conditional_moments.json"))
    moments["O_x_upper"]["skewness"] += 1e-6
    with pytest.raises(ref.CheckFailed, match="moments"):
        ref.check_moments(moments, case.X, case.r, run.ALPHA_TAIL)


def test_one_flipped_breach_flag_is_rejected(case):
    path = case.path("backtest", "var_series_garch.csv")

    def flip(text):
        lines = text.splitlines()
        cols = lines[4].split(",")
        cols[3] = "0" if cols[3] == "1" else "1"
        lines[4] = ",".join(cols)
        return "\n".join(lines) + "\n"

    original = _rewrite(path, flip)
    try:
        with pytest.raises(ref.CheckFailed, match="breach"):
            ref.check_backtest(case.path("backtest"), case.models, case.returns_by_date,
                               run.VAR_LEVEL, run.DM_HORIZON)
    finally:
        _restore(path, original)


def test_changed_coverage_statistic_and_dm_p_value_are_rejected(case):
    report = run.load_json(case.path("backtest", "backtest_report.json"))
    model = report["models"]["garchx"]
    model["lr_cc"]["statistic"] += 1e-3
    with pytest.raises(ref.CheckFailed, match="LR_cc"):
        ref.check_var_series(case.path("backtest", "var_series_garchx.csv"), model,
                             case.returns_by_date, run.VAR_LEVEL)
    dm = dict(report["diebold_mariano"], p_value=report["diebold_mariano"]["p_value"] * 1.01)
    with pytest.raises(ref.CheckFailed, match="DM"):
        ref.check_dm(dm, run.DM_HORIZON)


@pytest.mark.parametrize("delta", [1e-3, -1e-3])
def test_perturbed_loglik_is_rejected(case, delta):
    _, args, result, _ = case.tracer.bound_calls("garchx.fit")[0]
    p = result.params.to_dict()
    ref.check_fit(args["y"], args["x"], p, result.spec.distribution, result.loglik,
                  result.x_mean, result.x_std)
    raised = ref.UnattainedLoglik if delta > 0 else ref.CheckFailed
    with pytest.raises(raised):
        ref.check_fit(args["y"], args["x"], p, result.spec.distribution,
                      result.loglik + delta, result.x_mean, result.x_std)


def test_changed_var_is_rejected(case):
    sid, args, series, _ = case.tracer.bound_calls("backtest.rolling_backtest")[0]
    fits = [(r.params.to_dict(), r.x_mean, r.x_std, r.spec.distribution)
            for _, _, r, _ in case.tracer.bound_calls("garchx.fit")[:2]]
    var = series.var_value.copy()
    ref.check_var_days(args["y"], args["x"], args["window"], args["refit_every"],
                       args["level"], var, fits)
    var[7] *= 1 + 1e-6
    with pytest.raises(ref.CheckFailed, match="VaR"):
        ref.check_var_days(args["y"], args["x"], args["window"], args["refit_every"],
                           args["level"], var, fits)


def test_result_line_has_the_contract_keys(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path))
    monkeypatch.setitem(wl.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "PROBES", 1)
    assert run.main(["--workload", "tiny", "--seed", "4", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 1 + len(run.STAGES) + 2 * (TINY.days - 60)
    spec = run.load_metric_spec()[0]
    assert set(result["metrics"]) == set(spec)
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())
    assert not os.path.exists(os.path.join(str(tmp_path), "tiny-4"))


def test_exits_nonzero_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "paper-var", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
