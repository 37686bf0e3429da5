import math

import numpy as np
import pytest
from scipy import integrate, stats as sps

from chainvol import backtest as bt
from chainvol.errors import ValidationError
from chainvol.garchx import ArmaGarchXParams, ModelSpec, simulate


class TestKupiec:
    def test_published_rejecting_case(self):
        lr, p = bt.kupiec_test(1857, 33, 0.01)
        assert lr == pytest.approx(9.201, abs=0.005)
        assert p == pytest.approx(0.002, abs=0.001)
        assert lr > bt.CHI2_CRIT_1DF_95

    def test_published_passing_case(self):
        lr, p = bt.kupiec_test(1857, 15, 0.01)
        assert lr == pytest.approx(0.742, abs=0.005)
        assert p == pytest.approx(0.389, abs=0.005)
        assert lr < bt.CHI2_CRIT_1DF_95

    def test_zero_at_expected_count(self):
        lr, p = bt.kupiec_test(1000, 10, 0.01)
        assert lr == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_zero_and_full_breach_edge_cases(self):
        lr0, _ = bt.kupiec_test(100, 0, 0.01)
        assert math.isfinite(lr0) and lr0 >= 0
        lrn, _ = bt.kupiec_test(100, 100, 0.01)
        assert math.isfinite(lrn) and lrn > 0

    def test_monotone_away_from_expected(self):
        values = [bt.kupiec_test(1000, x, 0.01)[0] for x in range(0, 40)]
        # decreasing to the MLE at x=10, increasing after
        assert all(a > b for a, b in zip(values[:10], values[1:11]))
        assert all(a < b for a, b in zip(values[10:], values[11:]))

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            bt.kupiec_test(0, 0, 0.01)
        with pytest.raises(ValidationError):
            bt.kupiec_test(10, 11, 0.01)


class TestChristoffersen:
    def test_no_breaches_degenerates_to_uc(self):
        seq = np.zeros(100, dtype=int)
        lr_cc, _, lr_ind = bt.christoffersen_test(seq, 0.01)
        lr_uc, _ = bt.kupiec_test(100, 0, 0.01)
        assert lr_ind == 0.0
        assert lr_cc == pytest.approx(lr_uc, abs=1e-12)

    def test_alternating_sequence_matches_transition_oracle(self):
        seq = np.array([0, 1] * 50)
        lr_cc, _, lr_ind = bt.christoffersen_test(seq, 0.5)
        # oracle: brute-force transition counts and the LR formula
        n00 = n01 = n10 = n11 = 0
        for a, b in zip(seq[:-1], seq[1:]):
            n00 += (a, b) == (0, 0)
            n01 += (a, b) == (0, 1)
            n10 += (a, b) == (1, 0)
            n11 += (a, b) == (1, 1)
        n = n00 + n01 + n10 + n11
        pi = (n01 + n11) / n
        pi01 = n01 / (n00 + n01)
        pi11 = n11 / (n10 + n11) if (n10 + n11) else 0.0

        def xlogy(a, b):
            return 0.0 if a == 0 else a * math.log(b)

        ll_iid = xlogy(n00 + n10, 1 - pi) + xlogy(n01 + n11, pi)
        ll_markov = (
            xlogy(n00, 1 - pi01) + xlogy(n01, pi01) + xlogy(n10, 1 - pi11) + xlogy(n11, pi11)
        )
        expected_ind = -2 * (ll_iid - ll_markov)
        assert lr_ind == pytest.approx(expected_ind, rel=1e-12)
        assert lr_ind > 20  # perfect dependence is strongly rejected

    def test_cc_equals_uc_plus_ind(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            seq = (rng.uniform(size=200) < 0.05).astype(int)
            lr_cc, _, lr_ind = bt.christoffersen_test(seq, 0.05)
            lr_uc, _ = bt.kupiec_test(200, int(seq.sum()), 0.05)
            assert lr_cc == pytest.approx(lr_uc + lr_ind, abs=1e-12)

    def test_iid_bernoulli_rarely_rejected(self):
        rng = np.random.default_rng(1)
        passes = 0
        for _ in range(20):
            seq = (rng.uniform(size=10_000) < 0.01).astype(int)
            lr_cc, _, _ = bt.christoffersen_test(seq, 0.01)
            passes += lr_cc < bt.CHI2_CRIT_2DF_95
        assert passes >= 18  # >= 90% of 20 seeds


class TestChiSquarePvalues:
    def test_critical_values(self):
        assert sps.chi2.ppf(0.95, 1) == pytest.approx(3.841, abs=0.001)
        assert sps.chi2.ppf(0.95, 2) == pytest.approx(5.991, abs=0.001)

    @pytest.mark.parametrize("stat,df", [(9.201, 1), (0.742, 1), (9.451, 2), (0.986, 2)])
    def test_p_value_matches_density_quadrature(self, stat, df):
        _, p = bt.kupiec_test(1857, 33, 0.01)  # any call; test the distribution directly
        tail, _ = integrate.quad(lambda v: sps.chi2.pdf(v, df), stat, np.inf)
        assert sps.chi2.sf(stat, df) == pytest.approx(tail, abs=1e-6)


class TestVarFromForecast:
    def test_gaussian_level(self):
        params = ArmaGarchXParams()
        spec = ModelSpec(0, 0, 0, "normal")
        var = bt.var_from_forecast(0.0, 1.0, params, spec, 0.01)
        assert var == pytest.approx(2.326, abs=1e-3)

    def test_affine_in_sigma(self):
        params = ArmaGarchXParams(nu=5.0, xi=1.2)
        spec = ModelSpec(0, 0, 0, "skewt")
        q = bt.innovation_quantile(params, spec, 0.01)
        v1 = bt.var_from_forecast(0.05, 1.0, params, spec, 0.01)
        v2 = bt.var_from_forecast(0.05, 2.0, params, spec, 0.01)
        assert v2 - v1 == pytest.approx(-q, rel=1e-12)

    def test_symmetric_median_case(self):
        params = ArmaGarchXParams(nu=5.0, xi=1.0)
        spec = ModelSpec(0, 0, 0, "skewt")
        var = bt.var_from_forecast(0.03, 1.0, params, spec, 0.499999)
        assert var == pytest.approx(-0.03, abs=1e-4)

    def test_level_bounds(self):
        with pytest.raises(ValidationError):
            bt.var_from_forecast(0.0, 1.0, ArmaGarchXParams(), ModelSpec(0, 0, 0, "normal"), 0.6)


class TestRollingBacktest:
    def test_true_model_coverage(self, monkeypatch, fixed_fit):
        spec = ModelSpec(0, 0, 0, "normal")
        true = ArmaGarchXParams(alpha0=0.05, alpha1=0.1, beta=0.85)
        y, _, _ = simulate(true, spec, None, 5000, seed=0)
        monkeypatch.setattr(bt, "fit", fixed_fit(true))
        series = bt.rolling_backtest(y, None, spec, window=250, refit_every=7, level=0.01,
                                     restarts=5, seed=0)
        freq = series.n_breaches / series.n
        se = math.sqrt(0.01 * 0.99 / series.n)
        assert abs(freq - 0.01) <= 2 * se

    def test_breach_definition_double_entry(self, monkeypatch, fixed_fit):
        spec = ModelSpec(0, 0, 0, "normal")
        true = ArmaGarchXParams(alpha0=0.05, alpha1=0.1, beta=0.85)
        y, _, _ = simulate(true, spec, None, 1000, seed=1)
        monkeypatch.setattr(bt, "fit", fixed_fit(true))
        series = bt.rolling_backtest(y, None, spec, window=250, refit_every=7, level=0.05,
                                     restarts=5, seed=0)
        # loss space: loss > VaR threshold iff return < -VaR
        losses = -series.realized_return
        assert np.array_equal(series.breach, losses > series.var_value)

    def test_refit_modes_equal_with_fixed_params(self, monkeypatch, fixed_fit):
        spec = ModelSpec(0, 0, 0, "normal")
        true = ArmaGarchXParams(alpha0=0.05, alpha1=0.1, beta=0.85)
        y, _, _ = simulate(true, spec, None, 600, seed=2)
        monkeypatch.setattr(bt, "fit", fixed_fit(true))
        s1 = bt.rolling_backtest(y, None, spec, window=250, refit_every=1, level=0.01,
                                 restarts=5, seed=0)
        s7 = bt.rolling_backtest(y, None, spec, window=250, refit_every=7, level=0.01,
                                 restarts=5, seed=0)
        assert np.array_equal(s1.var_value, s7.var_value)

    def test_deterministic_given_seeds(self):
        spec = ModelSpec(0, 0, 0, "normal")
        true = ArmaGarchXParams(alpha0=0.05, alpha1=0.1, beta=0.85)
        y, _, _ = simulate(true, spec, None, 400, seed=3)
        a = bt.rolling_backtest(y, None, spec, window=300, refit_every=50, level=0.01,
                                restarts=1, seed=42)
        b = bt.rolling_backtest(y, None, spec, window=300, refit_every=50, level=0.01,
                                restarts=1, seed=42)
        assert np.array_equal(a.var_value, b.var_value)

    def test_too_short_series(self):
        with pytest.raises(ValidationError):
            bt.rolling_backtest(np.zeros(100), None, ModelSpec(0, 0, 0, "normal"), window=250,
                                refit_every=7, level=0.01, restarts=5, seed=0)


class TestBacktestReport:
    def test_published_numbers_flow_through(self):
        breaches = np.zeros(1857, dtype=int)
        breaches[: 33 * 56: 56] = 1  # 33 breaches, 56 days apart
        report = bt.backtest_report(1857, 33, 0.01, breaches)
        assert report.lr_uc == pytest.approx(9.201, abs=0.005)
        assert report.reject_uc is True
        assert report.expected == pytest.approx(18.57, abs=0.005)
        assert report.to_dict()["expected_breaches_display"] == 18.6

    def test_identity_cc_minus_ind(self):
        rng = np.random.default_rng(4)
        seq = (rng.uniform(size=500) < 0.02).astype(int)
        report = bt.backtest_report(500, int(seq.sum()), 0.02, seq)
        assert report.lr_cc - report.lr_ind == pytest.approx(report.lr_uc, abs=1e-12)


class TestDieboldMariano:
    def test_identical_forecasts(self):
        e = np.random.default_rng(5).normal(size=50)
        report = bt.diebold_mariano(e, e.copy())
        assert report.p_value == 1.0
        assert report.statistic == 0.0
        assert report.identical

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        e1 = rng.normal(size=200)
        e2 = np.zeros(200)  # model 2 is perfect
        report = bt.diebold_mariano(e1, e2)
        assert report.statistic > 0

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(7)
        e1 = rng.normal(size=100)
        e2 = rng.normal(size=100)
        report = bt.diebold_mariano(e1, e2)
        d = e1**2 - e2**2
        dbar = d.mean()
        lrv = ((d - dbar) ** 2).mean()
        expected = dbar / math.sqrt(lrv / 100)
        assert report.statistic == pytest.approx(expected, abs=1e-10)
        assert report.p_value == pytest.approx(2 * sps.norm.sf(abs(expected)), abs=1e-12)

    def test_length_checks(self):
        with pytest.raises(ValidationError):
            bt.diebold_mariano(np.zeros(5), np.zeros(5))
        with pytest.raises(ValidationError):
            bt.diebold_mariano(np.zeros(20), np.zeros(21))
