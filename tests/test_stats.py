import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainvol import stats
from chainvol.errors import DegenerateSeriesError, ValidationError
from chainvol.ingest import PriceSeries
from chainvol.stats import Tail


def make_prices(closes):
    start = dt.date(2015, 1, 1)
    dates = [start + dt.timedelta(days=i) for i in range(len(closes))]
    return PriceSeries(dates, np.array(closes, dtype=float))


class TestLogReturns:
    def test_flat_prices(self):
        r = stats.log_returns(make_prices([100, 100]))
        assert r[0] == 0.0
        assert -r[0] == 0.0

    def test_gain(self):
        r = stats.log_returns(make_prices([100, 110]))
        assert r[0] == pytest.approx(0.0953101798, abs=1e-9)
        assert -r[0] == pytest.approx(-0.0953101798, abs=1e-9)

    def test_halving_is_a_loss(self):
        r = stats.log_returns(make_prices([100, 50]))
        assert -r[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_too_short(self):
        with pytest.raises(DegenerateSeriesError):
            stats.log_returns(make_prices([100]))

    @given(
        closes=st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=30)
    )
    @settings(max_examples=50)
    def test_sign_convention(self, closes):
        closes = [float(c) for c in closes]
        r = stats.log_returns(make_prices(closes))
        assert r.shape == (len(closes) - 1,)
        for t in range(len(closes) - 1):
            assert (-r[t] > 0) == (closes[t + 1] < closes[t])


class TestStandardize:
    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            stats.standardize([3.0, 3.0, 3.0])

    def test_simple_case(self):
        # mean 2 and sample sd 1, so the z-scores are exact
        z = stats.standardize([1.0, 2.0, 3.0])
        assert z.tolist() == [-1.0, 0.0, 1.0]

    def test_idempotence(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5, 3, size=200)
        z = stats.standardize(x)
        z2 = stats.standardize(z)
        assert np.allclose(z, z2, atol=1e-10)
        assert abs(np.mean(z)) < 1e-10
        assert abs(np.std(z, ddof=1) - 1) < 1e-10


def residuals(report, y, X):
    """y - [1, X] @ coef: the residuals of the fit with its intercept."""
    return y - np.column_stack([np.ones(len(y)), X]) @ report.coef


class TestOls:
    def test_identity_fit(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        report = stats.ols_fit(x, x[:, None], names=["x1"])
        assert report.coef[0] == pytest.approx(0.0, abs=1e-12)
        assert report.coef[1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(residuals(report, x, x[:, None]))) < 1e-12

    def test_exact_linear_data(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=80)
        y = 2 * x + 3
        report = stats.ols_fit(y, x[:, None], names=["x1"])
        assert report.coef[0] == pytest.approx(3.0, abs=1e-8)
        assert report.coef[1] == pytest.approx(2.0, abs=1e-8)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        report = stats.ols_fit(y, X, names=["x1", "x2", "x3"])
        # oracle: explicit 4x4 inversion of the normal equations
        Xd = np.column_stack([np.ones(50), X])
        XtX = Xd.T @ Xd
        inv = np.linalg.inv(XtX)
        coef = inv @ (Xd.T @ y)
        resid = y - Xd @ coef
        s2 = resid @ resid / (50 - 3 - 1)
        se = np.sqrt(np.diag(s2 * inv))
        assert np.allclose(report.coef, coef, atol=1e-8)
        assert np.allclose(report.se, se, atol=1e-8)
        assert np.allclose(report.t_value, coef / se, atol=1e-8)

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        report = stats.ols_fit(y, X, names=["x1", "x2", "x3", "x4"])
        for j in range(4):
            assert abs(residuals(report, y, X) @ X[:, j]) < 1e-8

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=40)
        X = np.column_stack([x1, 2 * x1])
        with pytest.raises(ValidationError, match="redundant"):
            stats.ols_fit(rng.normal(size=40), X, names=["a", "b"])

    def test_standardized_problem_invariant_to_affine_rescaling(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=100)

        def standardized_fit(y_raw, X_raw):
            ys = stats.standardize(y_raw)
            Xs = np.column_stack([stats.standardize(X_raw[:, j]) for j in range(X_raw.shape[1])])
            return stats.ols_fit(ys, Xs, names=["x1", "x2", "x3"])

        base = standardized_fit(y, X)
        rescaled = standardized_fit(3.5 * y + 7.0, X * np.array([2.0, 0.5, 10.0]) + 1.0)
        assert np.allclose(base.coef, rescaled.coef, atol=1e-10)

    def test_stars_thresholds(self):
        report = stats.ols_fit(
            np.arange(10.0) + np.random.default_rng(0).normal(size=10) * 0.01,
            np.arange(10.0)[:, None], names=["x1"],
        )
        assert report.stars(1) == "***"


class TestEmpiricalQuantile:
    def test_extremes(self):
        x = [5.0, 1.0, 3.0]
        assert stats.empirical_quantile(x, 0.0) == 1.0
        assert stats.empirical_quantile(x, 1.0) == 5.0

    def test_odd_length_median(self):
        assert stats.empirical_quantile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_matches_sort_and_interpolate_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=137)
        for q in rng.uniform(0, 1, size=25):
            # oracle: numpy's linear (type 7) interpolation on sorted data
            assert stats.empirical_quantile(x, q) == pytest.approx(
                float(np.quantile(x, q)), abs=1e-12
            )

    def test_empty_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            stats.empirical_quantile([], 0.5)


class TestMoments:
    def test_matches_four_pass_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_t(df=5, size=500)
        m = stats.moments(x)
        # oracle: naive four separate passes
        mean = sum(x) / len(x)
        m2 = sum((v - mean) ** 2 for v in x) / len(x)
        m3 = sum((v - mean) ** 3 for v in x) / len(x)
        m4 = sum((v - mean) ** 4 for v in x) / len(x)
        assert m.mean == pytest.approx(mean, rel=1e-10)
        assert m.std_dev == pytest.approx(math.sqrt(m2), rel=1e-10)
        assert m.skewness == pytest.approx(m3 / m2**1.5, rel=1e-10)
        assert m.kurtosis == pytest.approx(m4 / m2**2, rel=1e-10)

    def test_gaussian_kurtosis_near_three(self):
        rng = np.random.default_rng(8)
        m = stats.moments(rng.normal(size=200_000))
        assert m.kurtosis == pytest.approx(3.0, abs=0.1)

    @given(x=st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=50))
    @settings(max_examples=50)
    def test_pearson_inequality(self, x):
        arr = np.array(x)
        if np.std(arr) < 1e-6:
            return
        m = stats.moments(arr)
        assert m.kurtosis >= 1 + m.skewness**2 - 1e-9


class TestConditionalMoments:
    def test_unconditional_standardized(self):
        rng = np.random.default_rng(9)
        L = stats.standardize(rng.normal(size=1000))
        m = stats.moments(L)
        # population-denominator std of a sample-standardized series
        assert m.mean == pytest.approx(0.0, abs=1e-12)
        assert m.std_dev == pytest.approx(np.sqrt(999 / 1000), rel=1e-10)

    def test_matches_brute_force_subset(self):
        rng = np.random.default_rng(10)
        L = rng.normal(size=1000)
        c = rng.normal(size=1000)
        alpha = 0.05
        for tail in (Tail.LOWER, Tail.UPPER):
            m = stats.conditional_moments(L, c, alpha, tail)
            q = np.quantile(c, alpha if tail is Tail.LOWER else 1 - alpha)
            subset = L[c < q] if tail is Tail.LOWER else L[c > q]
            oracle = stats.moments(subset)
            assert m.mean == pytest.approx(oracle.mean, rel=1e-10)
            assert m.std_dev == pytest.approx(oracle.std_dev, rel=1e-10)
            assert m.skewness == pytest.approx(oracle.skewness, rel=1e-10)
            assert m.kurtosis == pytest.approx(oracle.kurtosis, rel=1e-10)

    def test_dependent_conditioning_shifts_mean(self):
        rng = np.random.default_rng(11)
        L = rng.normal(size=1000)
        upper = stats.conditional_moments(L, L, 0.05, Tail.UPPER)
        lower = stats.conditional_moments(L, L, 0.05, Tail.LOWER)
        assert upper.mean > lower.mean

    def test_tail_subsets_disjoint(self):
        rng = np.random.default_rng(12)
        c = rng.normal(size=500)
        lo = c < stats.empirical_quantile(c, 0.05)
        hi = c > stats.empirical_quantile(c, 0.95)
        assert not np.any(lo & hi)

    def test_small_subset_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            stats.conditional_moments(np.arange(20.0), np.arange(20.0), 0.05, Tail.LOWER)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            stats.conditional_moments(np.zeros(5), np.zeros(6), 0.05, Tail.LOWER)


class TestKde:
    def test_density_integrates_to_one(self, monkeypatch):
        # a finer grid with a wider margin, so the trapezoid rule and the
        # tails beyond the grid stay far inside the tolerance
        monkeypatch.setattr(stats, "KDE_POINTS", 512)
        monkeypatch.setattr(stats, "KDE_PAD", 6.0)
        rng = np.random.default_rng(13)
        x = rng.normal(size=400)
        grid, dens = stats.gaussian_kde_grid(x)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_silverman_bandwidth_positive(self):
        rng = np.random.default_rng(14)
        assert stats.silverman_bandwidth(rng.normal(size=100)) > 0
