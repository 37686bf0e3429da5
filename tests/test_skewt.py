import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats as sps

from chainvol import skewt

PARAM_GRID = [(5.0, 1.0), (5.0, 1.5), (8.0, 0.7)]


class TestDensity:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_symmetric_when_unskewed(self, z, skewt_law):
        assert skewt_law.pdf(z, 5.0, 1.0) == pytest.approx(skewt_law.pdf(-z, 5.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize("nu,xi", PARAM_GRID)
    def test_integrates_to_one(self, nu, xi, skewt_law):
        total, _ = integrate.quad(lambda z: skewt_law.pdf(z, nu, xi), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("nu,xi", PARAM_GRID)
    def test_unit_mean_and_variance(self, nu, xi, skewt_law):
        mean, _ = integrate.quad(lambda z: z * skewt_law.pdf(z, nu, xi), -np.inf, np.inf)
        var, _ = integrate.quad(lambda z: z * z * skewt_law.pdf(z, nu, xi), -np.inf, np.inf)
        assert mean == pytest.approx(0.0, abs=1e-5)
        assert var == pytest.approx(1.0, abs=1e-5)

    def test_reduces_to_student_t_when_unskewed(self):
        z = np.linspace(-4, 4, 41)
        assert np.allclose(
            skewt.skewt_logpdf(z, 7.0, 1.0), skewt.student_t_logpdf(z, 7.0), atol=1e-12
        )

    def test_parameter_bounds(self):
        with pytest.raises(ValueError, match="nu must be > 2"):
            skewt.skewt_quantile(0.5, 2.0, 1.0)
        with pytest.raises(ValueError, match="xi must be > 0"):
            skewt.skewt_quantile(0.5, 5.0, 0.0)


def scipy_std_t_logpdf(a, nu):
    """Reference: the unit-variance Student-t through scipy's t distribution."""
    c = np.sqrt(nu / (nu - 2.0))
    return sps.t.logpdf(a * c, nu) + np.log(c)


def scipy_skewt_logpdf(z, nu, xi):
    """Reference: the Fernandez-Steel skew-t with scipy's t density inside."""
    mean, sd = skewt._fs_constants(nu, xi)
    w = sd * np.asarray(z) + mean
    arg = np.where(w >= 0, w / xi, w * xi)
    return np.log(2.0 / (xi + 1.0 / xi)) + scipy_std_t_logpdf(arg, nu) + np.log(sd)


# log-densities cross zero, where a relative bound means nothing: there the
# bound is 1e-12 absolute on the log, i.e. 1e-12 relative on the density
CLOSED_FORM_TOL = dict(rtol=1e-12, atol=1e-12)


class TestClosedForm:
    @given(
        nu=st.one_of(st.floats(2.001, 50.0), st.floats(50.0, 1e8)),
        z=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_student_t_matches_scipy(self, nu, z):
        np.testing.assert_allclose(skewt.student_t_logpdf(z, nu), scipy_std_t_logpdf(np.array(z), nu),
                                   **CLOSED_FORM_TOL)

    @given(
        nu=st.floats(2.001, 200.0),
        xi=st.floats(0.2, 5.0),
        z=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_skewt_matches_scipy(self, nu, xi, z):
        np.testing.assert_allclose(skewt.skewt_logpdf(z, nu, xi), scipy_skewt_logpdf(z, nu, xi),
                                   **CLOSED_FORM_TOL)


class TestCdfQuantile:
    @pytest.mark.parametrize("nu,xi", PARAM_GRID)
    @pytest.mark.parametrize("p", [0.01, 0.5, 0.99])
    def test_round_trip(self, nu, xi, p, skewt_law):
        q = skewt.skewt_quantile(p, nu, xi)
        assert skewt_law.cdf(q, nu, xi) == pytest.approx(p, abs=1e-8)

    @pytest.mark.parametrize("nu,xi", PARAM_GRID)
    def test_cdf_matches_quadrature_oracle(self, nu, xi, skewt_law):
        for z in (-1.5, 0.0, 2.0):
            total, _ = integrate.quad(lambda v: skewt_law.pdf(v, nu, xi), -np.inf, z)
            assert skewt_law.cdf(z, nu, xi) == pytest.approx(total, abs=1e-8)

    def test_symmetric_median_is_zero(self):
        assert skewt.skewt_quantile(0.5, 6.0, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_gaussian_limit(self):
        assert skewt.skewt_quantile(0.99, 1e6, 1.0) == pytest.approx(2.326, abs=1e-2)

    def test_quantile_monotone(self):
        ps = np.linspace(0.01, 0.99, 50)
        qs = np.asarray(skewt.skewt_quantile(ps, 5.0, 1.3))
        assert np.all(np.diff(qs) > 0)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            skewt.skewt_quantile(0.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            skewt.skewt_quantile(1.0, 5.0, 1.0)


def draws(n, nu, xi, seed):
    """Inverse-transform draws, the way garchx.simulate makes its innovations."""
    return np.asarray(skewt.skewt_quantile(np.random.default_rng(seed).uniform(size=n), nu, xi))


class TestDraws:
    def test_deterministic_given_generator_seed(self):
        assert np.array_equal(draws(100, 5.0, 1.2, 0), draws(100, 5.0, 1.2, 0))

    def test_sample_moments_near_standard(self):
        z = draws(200_000, 8.0, 1.3, 1)
        assert np.mean(z) == pytest.approx(0.0, abs=0.02)
        assert np.var(z) == pytest.approx(1.0, abs=0.05)

    def test_skew_direction(self):
        right = draws(50_000, 6.0, 1.5, 2)
        left = draws(50_000, 6.0, 0.7, 2)
        assert sps.skew(right) > 0.2
        assert sps.skew(left) < -0.2
